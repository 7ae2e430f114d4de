"""Direct Fourier sums: the references for dqdsim's factored ones.

direct_fourier_sum evaluates one complex exponential per (tau, node) pair,
where dqdsim.spectral._fourier_sum factors the grid and sums in one matrix
product. wbl_reference_fluctuation assembles the wide-band V(t) with the
finite-temperature remainder summed term by term as
sum_w c_w conj(gamma_k(t, w)) gamma_j(t, w), gamma_j = expm1(i t (w - lam_j))
/ (w - lam_j), where dqdsim.greens folds it into the backbone's pair
integrals. Both are the package's code before the factored sum, and both
work through the time grid in chunks.
"""

import numpy as np

from dqdsim.greens import _modes
from dqdsim.spectral import _fermi_remainder, _halfline_pair_integrals

from steady_reference import weighted_pairs

_CHUNK_ELEMENTS = 2**19


def direct_fourier_sum(nodes, coefs, taus):
    """Sum_k coefs[k] e^{-i nodes[k] tau} for every tau, 256 taus at a time.

    coefs may be one vector over the nodes or a (nodes, p) stack.
    """
    out = np.empty((taus.size,) + np.shape(coefs)[1:], dtype=complex)
    for s in range(0, taus.size, 256):
        t = taus[s:s + 256]
        out[s:s + 256] = np.exp(-1j * np.outer(t, nodes)) @ coefs
    return out


def _cexpm1(z):
    """expm1 for complex arrays (numpy's expm1 rejects complex input)."""
    out = np.exp(z) - 1.0
    small = np.abs(z) < 1e-6
    if np.any(small):
        zs = z[small]
        out[small] = zs * (1.0 + zs * (0.5 + zs / 6.0))
    return out


def _lead_fluctuation(lams, jj, kk, theta, res, times):
    """One lead's V_WBL on times > 0 from its weighted pairs, remainder
    summed term by term."""
    keep = list(zip(jj.tolist(), kk.tolist()))
    nt = len(times)
    out = np.zeros((nt, 2, 2), dtype=complex)
    if not keep:
        return out

    pair_set = set(keep)
    pair_set.update((k, j) for j, k in keep)
    pairs = sorted(pair_set)
    n_p, o_p = _halfline_pair_integrals(lams, res.mu, times, pairs)
    n_jk, o_jk = dict(zip(pairs, n_p)), dict(zip(pairs, o_p))
    for (j, k), theta_jk in zip(keep, theta):
        a, b = lams[j], np.conj(lams[k])
        c0 = 1.0 + np.exp(1j * (b - a) * times)
        c1 = np.exp(-1j * a * times)
        c2 = np.exp(1j * b * times)
        i_jk = c0 * n_jk[j, k] - c1 * o_jk[j, k] - c2 * np.conj(o_jk[k, j])
        out += i_jk[:, None, None] * theta_jk

    if res.k_t > 0.0:
        # its own panel width, pi / (4 t_max), apart from the package's
        cap = min(res.k_t / 2.0, np.pi / (4.0 * times[-1]))
        omega, coef = _fermi_remainder(res, cap)
        used = {j for j, _ in keep} | {k for _, k in keep}
        chunk = max(1, _CHUNK_ELEMENTS // omega.size)
        for start in range(0, nt, chunk):
            tt = times[start : start + chunk]
            gam_fac = [None, None]
            for j in used:
                z = 1j * np.outer(tt, omega - lams[j])
                gam_fac[j] = _cexpm1(z) / (omega - lams[j])[None, :]
            for (j, k), theta_jk in zip(keep, theta):
                s_sum = np.einsum(
                    "w,tw->t", coef, np.conj(gam_fac[k]) * gam_fac[j]
                )
                out[start : start + chunk] += s_sum[:, None, None] * theta_jk
    return out / (2.0 * np.pi)


def wbl_reference_fluctuation(config, grid):
    """V_WBL(t) on the grid, as dqdsim.greens.wbl_greens defines it."""
    modes = _modes(config)
    times = grid.times
    v = np.zeros((len(times), 2, 2), dtype=complex)
    for lead, lams, jj, kk, theta in weighted_pairs(modes.poles, modes.residues, config):
        v[1:] += _lead_fluctuation(lams, jj, kk, theta, config.reservoirs[lead], times[1:])
    return 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
