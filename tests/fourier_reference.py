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

import dataclasses
import math

import numpy as np

from dqdsim.greens import _modes
from dqdsim.spectral import _fermi_remainder, _thermal_pair_table

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
    """One lead's V_WBL on the grid times (zero at t = 0) from its weighted
    pairs: the sharp sea from a k_T = 0 pair table, the remainder summed
    term by term."""
    keep = list(zip(jj.tolist(), kk.tolist()))
    out = np.zeros((len(times), 2, 2), dtype=complex)
    if not keep:
        return out

    pairs = np.zeros((len(lams), len(lams)), dtype=bool)
    pairs[jj, kk] = pairs[kk, jj] = True
    sea = _thermal_pair_table(lams, pairs, dataclasses.replace(res, k_t=0.0), times, math.inf)
    t, rest = times[1:], out[1:]
    for (j, k), theta_jk in zip(keep, theta):
        a, b = lams[j], np.conj(lams[k])
        c0 = 1.0 + np.exp(1j * (b - a) * t)
        c1 = np.exp(-1j * a * t)
        c2 = np.exp(1j * b * t)
        i_jk = c0 * sea[j, k, 0] - c1 * sea[j, k, 1:] - c2 * np.conj(sea[k, j, 1:])
        rest += i_jk[:, None, None] * theta_jk

    if res.k_t > 0.0:
        # its own panel width, pi / (4 t_max), apart from the package's
        cap = min(res.k_t / 2.0, np.pi / (4.0 * t[-1]))
        omega, coef = _fermi_remainder(res, cap)
        used = {j for j, _ in keep} | {k for _, k in keep}
        chunk = max(1, _CHUNK_ELEMENTS // omega.size)
        for start in range(0, t.size, chunk):
            tt = t[start : start + chunk]
            gam_fac = [None, None]
            for j in used:
                z = 1j * np.outer(tt, omega - lams[j])
                gam_fac[j] = _cexpm1(z) / (omega - lams[j])[None, :]
            for (j, k), theta_jk in zip(keep, theta):
                s_sum = np.einsum(
                    "w,tw->t", coef, np.conj(gam_fac[k]) * gam_fac[j]
                )
                rest[start : start + chunk] += s_sum[:, None, None] * theta_jk
    return out / (2.0 * np.pi)


def wbl_reference_fluctuation(config, grid):
    """V_WBL(t) on the grid, as dqdsim.greens.wbl_greens defines it."""
    modes = _modes(config)
    v = np.zeros((grid.n_steps + 1, 2, 2), dtype=complex)
    for lead, lams, jj, kk, theta in weighted_pairs(modes.poles, modes.residues, config):
        v += _lead_fluctuation(lams, jj, kk, theta, config.reservoirs[lead], grid.times)
    return 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
