"""The discretized-bath oracle as one batched product per time step.

`batched_exact_greens` is the reference for `dqdsim.oracle.exact_greens`,
which expands the phases in Chebyshev polynomials of time: here every
phase e^{-i lambda t} is taken exactly at every grid time. One complex
`eigh` of h, then (n+1) batched (2 x D) @ (D x D) products for V. It holds
every (n+1, 2, D) intermediate at once, so it is for small and mid-size
checks.
"""

import numpy as np

from dqdsim.greens import GreensSolution


def batched_exact_greens(bath, grid):
    h = bath.hamiltonian()
    evals, q = np.linalg.eigh(h)
    q_dots = q[:2, :]  # (2, D)
    phases = np.exp(-1j * np.outer(grid.times, evals))  # (n+1, D)
    u = np.einsum("ad,td,bd->tab", q_dots, phases, np.conj(q_dots))
    u[0] = np.eye(2)  # exact; Q Q^dag carries rounding noise

    d_b = bath.bath_occupation_diagonal()
    w_mat = (np.conj(q.T) * d_b[None, :]) @ q  # Q^dag D Q, (D, D)
    x = q_dots[None, :, :] * phases[:, None, :]  # (n+1, 2, D)
    v = x @ w_mat @ np.conj(np.transpose(x, (0, 2, 1)))
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    v[0] = 0.0
    return GreensSolution(grid, u, v)
