"""Adaptive-quadrature reference for the steady fluctuation matrix.

This is the frequency integral that dqdsim.greens evaluates in closed form,
taken numerically instead: V^s = int S(w) J(w) nbar(w) S(w)^dag dw / (2 pi)
with the resolvent S(w), for example sum_j Z_j / (w - r_j). It serves every
spectral kind that lead_density covers without a hard cutoff (Lorentzian and
wide band). Each scipy quad call meets its default epsabs of 1.5e-8, so the
reference is good to about that absolute accuracy.

For the Lorentzian kind there is also a 50-digit reference: the pole
expansion from mpmath's eigen-decomposition of the pseudomode generator,
and V^s from it as an exact sum of digammas, both at mpmath's precision.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from dqdsim.model import build_hamiltonian
from dqdsim.spectral import fermi_occupation, lead_density

_TWO_PI = 2.0 * math.pi


def quad_steady_fluctuation(config, resolvent, poles) -> np.ndarray:
    """V^s by adaptive quadrature of the resolvent S(w) = resolvent(w).

    The real line is cut at the chemical potentials and, around every pole p
    of S, at Re p -/+ 4^n |Im p| out to the thermal span, so each panel is
    no wider than the feature next to it; quad integrates every panel on its
    own with an equal share of the default epsabs. A single quad call with
    the pole shadows as its only breakpoints passed its own error test on a
    pole of width 0.006 at the end of an 800-wide panel (k_T = 27, d = 0.36)
    while that panel's integral was off by 2.5e-6.
    """
    # diagonal J(w) nbar(w) per lead
    def weight(w):
        out = np.empty(2)
        for i, res in enumerate(config.reservoirs):
            out[i] = lead_density(res, config.spectral_kind, w) * fermi_occupation(
                w, res.mu, res.k_t
            )
        return out

    def component(w, row, col, part):
        s = resolvent(w)
        jw = weight(w)
        val = (s[row, 0] * jw[0] * np.conj(s[col, 0])) + (
            s[row, 1] * jw[1] * np.conj(s[col, 1])
        )
        val /= _TWO_PI
        return val.real if part == 0 else val.imag

    span = 30.0 * max(
        1.0,
        config.left.bandwidth,
        config.right.bandwidth,
        config.left.k_t,
        config.right.k_t,
    )
    pts = {config.left.mu, config.right.mu}
    for p in np.asarray(poles, dtype=complex):
        pts.add(p.real)
        step = max(abs(p.imag), 1e-6)  # real poles here carry no weight
        while step < span:
            pts.update((p.real - step, p.real + step))
            step *= 4.0
    edges = [-np.inf, *sorted(pts), np.inf]
    share = 1.49e-8 / (len(edges) - 1)

    def integrate(row, col, part):
        return sum(
            quad(component, a, b, args=(row, col, part), epsabs=share, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )

    v = np.empty((2, 2), dtype=complex)
    v[0, 0] = integrate(0, 0, 0)
    v[1, 1] = integrate(1, 1, 0)
    v[0, 1] = integrate(0, 1, 0) + 1j * integrate(0, 1, 1)
    v[1, 0] = np.conj(v[0, 1])
    return v


def quad_steady_state_fluctuation(expansion, config) -> np.ndarray:
    """V^s with S(w) = sum_j Z_j / (w - r_j) from a pole expansion."""
    poles = np.array(expansion.poles)
    residues = np.stack(expansion.residues)

    def s_mat(w):
        return np.sum(residues / (w - poles)[:, None, None], axis=0)

    return quad_steady_fluctuation(config, s_mat, poles)


def mp_pole_expansion(config):
    """Poles and 2x2 residues of U(t) at mpmath's working precision.

    The eigenpairs of the pseudomode generator [[M, C], [C, diag(mu_l - i d_l)]]
    with C = diag(sqrt(Gamma_l d_l / 2)); the residue of pole j is
    V[:2, j] V^-1[j, :2] for the eigenvector matrix V.
    """
    gen = mp.matrix(4, 4)
    gen[0:2, 0:2] = mp.matrix(build_hamiltonian(config.system).tolist())
    for lead, res in enumerate(config.reservoirs):
        gen[lead, 2 + lead] = gen[2 + lead, lead] = mp.sqrt(
            mp.mpf(res.gamma) * res.bandwidth / 2
        )
        gen[2 + lead, 2 + lead] = mp.mpc(res.mu, -res.bandwidth)
    poles, vecs = mp.eig(gen)
    vecs_inv = mp.inverse(vecs)
    residues = [
        mp.matrix([[vecs[a, j] * vecs_inv[j, b] for b in range(2)] for a in range(2)])
        for j in range(4)
    ]
    return poles, residues


def _mp_fermi_transform(p, mu, k_t, upper):
    """T(p) with int nbar(w) / (w - p) dw = T(p) + C, C independent of p."""
    if k_t == 0:
        return mp.log(mu - p) + (1j if upper else -1j) * mp.pi
    x = (p - mu) / (2j * mp.pi * k_t)
    if upper:
        return mp.digamma(0.5 + x) + 1j * mp.pi
    return mp.digamma(0.5 - x)


def mp_steady_fluctuation(config, dps=50) -> np.ndarray:
    """Lorentzian V^s from mp_pole_expansion at dps digits, rounded to complex.

    V^s = (1/2pi) sum_l sum_jk Gamma_l Z_j P_l Z_k^dag int R_ljk(w) nbar_l(w) dw
    with R_ljk = d_l^2 / ((w - r_j)(w - conj(r_k))(w - mu_l + i d_l)(w - mu_l - i d_l)),
    integrated exactly as the sum of its partial fractions; every pole must be
    damped so that no r_j equals conj(r_k).
    """
    with mp.workdps(dps):
        poles, residues = mp_pole_expansion(config)
        v = mp.matrix(2, 2)
        for lead, res in enumerate(config.reservoirs):
            mu, d, k_t = mp.mpf(res.mu), mp.mpf(res.bandwidth), mp.mpf(res.k_t)
            for j, k in itertools.product(range(4), repeat=2):
                parts = [
                    (poles[j], False),
                    (mp.mpc(mu, -d), False),
                    (mp.conj(poles[k]), True),
                    (mp.mpc(mu, d), True),
                ]
                integral = mp.mpf(0)
                for m, (p, upper) in enumerate(parts):
                    gaps = mp.fprod(p - q for n, (q, _) in enumerate(parts) if n != m)
                    integral += d * d / gaps * _mp_fermi_transform(p, mu, k_t, upper)
                for a, b in itertools.product(range(2), repeat=2):
                    v[a, b] += (
                        res.gamma * residues[j][a, lead]
                        * mp.conj(residues[k][b, lead]) * integral
                    )
        v /= 2 * mp.pi
        return np.array(v.tolist(), dtype=complex)
