"""The fluctuation matrix V(t) as the literal trapezoid double sum.

`direct_fluctuation` is the reference for `dqdsim.greens.compute_fluctuation`:
at every grid time t_m it sums w_k w_k' U_k gtilde(t_k' - t_k) U_k'^dag over
both trapezoid indices, the inner one as one vectorized sum, so it costs
O(n^3) in all and is for grids of a few hundred steps.
"""

import numpy as np


def direct_fluctuation(u, noise, dt):
    """V_m = dt^2 sum_{k, k' <= m} w_k w_k' U_k gtilde(t_k' - t_k) U_k'^dag
    from the (n+1, 2, 2) stack u and the (n+1, 2) diagonal noise samples at
    lags >= 0 (gtilde(-t) = conj(gtilde(t))), with trapezoid weights w of
    1/2 at both ends."""
    n = len(u) - 1
    u_dag = np.conj(np.swapaxes(u, 1, 2))
    v = np.zeros((n + 1, 2, 2), dtype=complex)
    for m in range(1, n + 1):
        w = np.ones(m + 1)
        w[[0, m]] = 0.5
        for k in range(m + 1):
            lag = np.arange(m + 1) - k
            gg = noise[np.abs(lag)]
            gg = np.where(lag[:, None] >= 0, gg, np.conj(gg))
            # sum_k' w_k' gtilde(t_k' - t_k) U_k'^dag, the kernel diagonal
            inner = np.sum((w[:, None] * gg)[:, :, None] * u_dag[: m + 1], axis=0)
            v[m] += w[k] * (u[k] @ inner)
        v[m] *= dt * dt
    return v
