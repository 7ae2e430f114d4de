"""Adaptive-quadrature reference for the steady fluctuation matrix.

This is the frequency integral that dqdsim.greens evaluates in closed form,
taken numerically instead: V^s = int S(w) J(w) nbar(w) S(w)^dag dw / (2 pi)
with the resolvent S(w), for example sum_j Z_j / (w - r_j). It serves every
spectral kind that lead_density covers without a hard cutoff (Lorentzian and
wide band). Each scipy quad call meets its default epsabs of 1.5e-8, so the
reference is good to about that absolute accuracy.
"""

import math

import numpy as np
from scipy.integrate import quad

from dqdsim.spectral import SpectralModel, fermi_occupation, lead_density

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
    model = SpectralModel.from_config(config)

    # diagonal J(w) nbar(w) per lead
    def weight(w):
        out = np.empty(2)
        for i, res in enumerate(model.reservoirs):
            out[i] = lead_density(res, model.kind, w) * fermi_occupation(
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
