"""The Volterra solve with its history sum taken afresh at every step.

`direct_solve_dyson` is the package's former `solve_dyson` body, kept
verbatim as the reference for the blocked-FFT history sum in
`dqdsim.greens`: at step s it forms sum_j mem[s+1-j] U_j over every past
value, so it costs O(n^2) and is for small and mid-size grids.
"""

import numpy as np

from dqdsim.greens import _memory_table
from dqdsim.model import IDENTITY2, build_hamiltonian, inv2


def direct_solve_dyson(config, grid):
    table = _memory_table(config, grid, include_noise=False)
    mem = table.memory  # (n+1, 2) per-lead diagonal samples
    n = grid.n_steps
    dt = grid.dt
    m_mat = build_hamiltonian(config.system)
    i_m = 1j * m_mat

    u = np.empty((n + 1, 2, 2), dtype=complex)
    u[0] = IDENTITY2

    g0 = mem[0]
    lhs = IDENTITY2 + (dt / 2.0) * i_m + (dt * dt / 4.0) * np.diag(g0)
    lhs_inv = inv2(lhs)

    conv = np.zeros((2, 2), dtype=complex)  # trapezoid convolution at t_n
    for step in range(n):
        # known part of the convolution at t_{n+1}: weight 1/2 on U_0,
        # full weight on U_1..U_n, the implicit 1/2 g0 U_{n+1} lives in lhs
        tail = 0.5 * mem[step + 1][:, None] * u[0]
        if step >= 1:
            tail = tail + np.einsum(
                "jl,jlc->lc", mem[1 : step + 1][::-1], u[1 : step + 1]
            )
        partial = dt * tail
        rhs = u[step] - (dt / 2.0) * (i_m @ u[step]) - (dt / 2.0) * (conv + partial)
        nxt = lhs_inv @ rhs
        u[step + 1] = nxt
        conv = partial + dt * 0.5 * g0[:, None] * nxt
    return u
