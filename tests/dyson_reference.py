"""The Volterra solve with its history sum taken afresh at every step.

`direct_solve_dyson` is the package's former per-step `solve_dyson` body,
kept as the reference for the series-inversion solve in `dqdsim.greens`:
at step s it forms sum_j mem[s+1-j] U_j over every past value and solves
one 2x2 system, so it costs O(n^2) and is for small and mid-size grids. With
dtype=np.clongdouble it runs the same steps in extended precision on the
same kernel table, a reference for the rounding of the double solves.
"""

import numpy as np

from dqdsim.model import IDENTITY2, build_hamiltonian
from dqdsim.spectral import build_kernel_table


def _inv2(m):
    (a, b), (c, d) = m
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def direct_solve_dyson(config, grid, dtype=complex):
    table = build_kernel_table(config, grid.times, include_noise=False)
    mem = table.memory.astype(dtype)  # (n+1, 2) per-lead diagonal samples
    n = grid.n_steps
    dt = dtype(grid.dt).real
    eye = IDENTITY2.astype(dtype)
    i_m = 1j * build_hamiltonian(config.system).astype(dtype)

    u = np.empty((n + 1, 2, 2), dtype=dtype)
    u[0] = eye

    g0 = mem[0]
    lhs = eye + (dt / 2.0) * i_m + (dt * dt / 4.0) * np.diag(g0)
    lhs_inv = _inv2(lhs)

    conv = np.zeros((2, 2), dtype=dtype)  # trapezoid convolution at t_n
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
