"""Reference bound-state finder: the fixed-step sign-change scan.

`find_bound_states` samples det[wI - M - Sigma(w)] every SCAN_STEP across
each out-of-band interval, padded by 10 Gamma + 1 beyond the outermost
band and M eigenvalue, and polishes each sign change by brentq. Two roots
inside one scan cell cancel and are missed. The library brackets each
eigenvalue branch per gap instead; tests check it against this scan.

`branch_roots_brentq` is that per-branch bracket polished by scipy's
brentq, the reference for the library's safeguarded Newton search.
`criterion` is the determinant at one out-of-band point, from the
library's two eigenvalue branches.
"""

from __future__ import annotations

import math

import numpy as np

from dqdsim.boundstate import (
    EDGE_DISTANCE_MIN,
    RESIDUE_NORM_MIN,
    ROOT_XTOL,
    BoundStateRoot,
    _band_intervals,
    _branches,
    _residue,
)
from dqdsim.model import ModelConfig, build_hamiltonian
from dqdsim.spectral import lead_self_energy_real

SCAN_STEP = 1e-3
# both searches start this far from a band edge, where Sigma diverges
_EDGE_MARGIN = 1e-9


def _criterion_raw(config: ModelConfig, omega):
    """Vectorized det[wI - M - Sigma(w)]; caller guarantees out-of-band."""
    m_mat = build_hamiltonian(config.system)
    w = np.asarray(omega, dtype=float)
    sig = [
        lead_self_energy_real(res, config.spectral_kind, w)
        if res.gamma > 0.0
        else np.zeros(w.shape)
        for res in config.reservoirs
    ]
    return (w - m_mat[0, 0].real - sig[0]) * (w - m_mat[1, 1].real - sig[1]) - abs(
        m_mat[0, 1]
    ) ** 2


def find_bound_states(config: ModelConfig) -> list:
    """All effective real roots of the criterion outside the bands.

    Scans each out-of-band interval for sign changes, polishes by
    bisection, and drops roots hugging a band edge or carrying negligible
    residue (they hybridize with the continuum and decay anyway).
    """
    from scipy.optimize import brentq  # deferred: scipy.optimize is slow to import

    bands = _band_intervals(config)
    m_mat = build_hamiltonian(config.system)
    eig_m = np.linalg.eigvalsh(m_mat)
    gamma_total = config.left.gamma + config.right.gamma
    pad = 10.0 * gamma_total + 1.0

    if bands:
        anchor_lo = min(bands[0][0], eig_m.min()) - pad
        anchor_hi = max(bands[-1][1], eig_m.max()) + pad
    else:  # both leads decoupled: bare parabola, roots at the M eigenvalues
        anchor_lo, anchor_hi = eig_m.min() - pad, eig_m.max() + pad

    edge_points = [b for band in bands for b in band]
    gaps = []
    edge = anchor_lo
    for lo, hi in bands:
        gaps.append((edge, lo))
        edge = hi
    gaps.append((edge, anchor_hi))

    roots = []
    for lo, hi in gaps:
        a = lo + (_EDGE_MARGIN if lo in edge_points else 0.0)
        b = hi - (_EDGE_MARGIN if hi in edge_points else 0.0)
        if not b > a:
            continue
        count = max(8, int(math.ceil((b - a) / SCAN_STEP)))
        xs = np.linspace(a, b, count + 1)
        vals = _criterion_raw(config, xs)
        sign_flip = vals[:-1] * vals[1:] < 0.0
        for i in np.flatnonzero(vals == 0.0):
            roots.append(float(xs[i]))
        for i in np.flatnonzero(sign_flip):
            root = brentq(
                lambda w: float(_criterion_raw(config, w)),
                xs[i],
                xs[i + 1],
                xtol=ROOT_XTOL,
            )
            roots.append(float(root))
    roots = sorted(set(roots))

    out = []
    for root in roots:
        edge_distance = (
            min(abs(root - e) for e in edge_points) if edge_points else math.inf
        )
        if edge_distance < EDGE_DISTANCE_MIN:
            continue
        # the scan does not know the branch: take the one nearer zero
        lam_lo, lam_hi = _branches(config, root)
        residue = _residue(config, root, int(abs(lam_hi) < abs(lam_lo)))
        if np.max(np.abs(residue)) < RESIDUE_NORM_MIN:
            continue
        out.append(
            BoundStateRoot(
                energy=root,
                residue_weight=residue,
                edge_distance=float(edge_distance),
            )
        )
    return out


def branch_roots_brentq(config: ModelConfig) -> list:
    """Sorted roots of both eigenvalue branches in every gap, by brentq.

    The library's brackets, with ends _EDGE_MARGIN rather than
    EDGE_DISTANCE_MIN inside each gap between the merged bands: a branch
    rises with slope >= 1 there, and an open gap's far end comes from that
    bound. No root is dropped, edge-hugging ones included.
    """
    from scipy.optimize import brentq  # deferred: scipy.optimize is slow to import

    bands = _band_intervals(config)
    starts = [-math.inf] + [hi + _EDGE_MARGIN for _, hi in bands]
    ends = [lo - _EDGE_MARGIN for lo, _ in bands] + [math.inf]
    roots = []
    for a, b in zip(starts, ends):
        if not b > a:
            continue
        for k in (0, 1):

            def branch(w, k=k):
                return float(_branches(config, w)[k])

            lo, hi = a, b
            if math.isinf(lo):
                anchor = hi if math.isfinite(hi) else 0.0
                lo = anchor - abs(branch(anchor)) - 1.0
            if math.isinf(hi):
                hi = lo + abs(branch(lo)) + 1.0
            if branch(lo) < 0.0 < branch(hi):
                roots.append(brentq(branch, lo, hi, xtol=ROOT_XTOL))
    return sorted(roots)


def criterion(config: ModelConfig, omega: float) -> float:
    """det[wI - M - Sigma(w)] = lambda_- lambda_+ where the spectral density vanishes.

    Sigma is real there, so the determinant is real. A spectrum without a
    gap, or evaluation inside any lead's band, is rejected (the
    determinant would be complex).
    """
    _band_intervals(config)
    lam_lo, lam_hi = _branches(config, float(omega))
    return float(lam_lo * lam_hi)
