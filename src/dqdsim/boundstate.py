"""Bound states outside a gapped spectral band and relaxation classification.

Where the spectral density vanishes the self-energy is purely real, and
real roots of det[wI - M - Sigma(w)] mark dot-bath eigenstates that never
decay. Their number decides whether the system thermalizes, retains
memory, or oscillates forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    ConfigError,
    ModelConfig,
    SpectralKind,
    adjugate2,
    build_hamiltonian,
)
from .spectral import lead_density, lead_self_energy_real

EDGE_DISTANCE_MIN = 1e-3
RESIDUE_NORM_MIN = 1e-6
SCAN_STEP = 1e-3
ROOT_XTOL = 1e-10
_EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class BoundStateRoot:
    """A real out-of-band root of the determinant criterion."""

    energy: float
    residue_weight: np.ndarray
    edge_distance: float


class RelaxationKind(Enum):
    THERMAL_LIKE = "ThermalLike"
    QUANTUM_MEMORY = "QuantumMemory"
    OSCILLATING_QUANTUM_MEMORY = "OscillatingQuantumMemory"


@dataclass(frozen=True)
class RelaxationClass:
    """Relaxation scenario implied by the number of effective roots."""

    kind: RelaxationKind
    count: int


def _band_intervals(config: ModelConfig):
    """Closed intervals where at least one lead's spectral density is nonzero."""
    if config.spectral_kind is not SpectralKind.CUTOFF_LORENTZIAN:
        raise ConfigError(
            "bound-state analysis needs a gapped spectrum (cutoff Lorentzian);"
            f" got {config.spectral_kind.value}"
        )
    bands = []
    for res in config.reservoirs:
        if res.gamma > 0.0:
            if math.isinf(res.cutoff):
                raise ConfigError("cutoff must be finite for bound-state analysis")
            bands.append((res.mu - res.cutoff, res.mu + res.cutoff))
    bands.sort()
    merged = []
    for lo, hi in bands:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


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


def criterion(config: ModelConfig, omega: float) -> float:
    """det[wI - M - Sigma(w)] evaluated where the spectral density vanishes.

    Sigma is real there, so the determinant is real. Evaluation inside any
    lead's band is rejected (the determinant would be complex).
    """
    for res in config.reservoirs:
        if res.gamma > 0.0 and lead_density(res, config.spectral_kind, omega) != 0.0:
            raise ConfigError(
                f"omega = {omega} lies inside a spectral band; the"
                " dissipationless criterion is defined only outside"
            )
    return float(_criterion_raw(config, float(omega)))


def _residue(config, root):
    """adj(A) / D'(w) at a simple real root, D' by a five-point stencil."""
    h = 1e-5
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    vals = _criterion_raw(config, root + offsets)
    d_prime = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
    if abs(d_prime) < 1e-30:
        return None
    m_mat = build_hamiltonian(config.system)
    sig = np.diag(
        [
            lead_self_energy_real(res, config.spectral_kind, root)
            if res.gamma > 0.0
            else 0.0
            for res in config.reservoirs
        ]
    )
    a_mat = root * np.eye(2) - m_mat - sig
    return adjugate2(a_mat) / d_prime


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
        residue = _residue(config, root)
        if residue is None or np.max(np.abs(residue)) < RESIDUE_NORM_MIN:
            continue
        out.append(
            BoundStateRoot(
                energy=root,
                residue_weight=residue,
                edge_distance=float(edge_distance),
            )
        )
    return out


def classify_relaxation(roots) -> RelaxationClass:
    """Scenario from the effective-root count: 0 thermal-like, 1 memory, 2+ oscillating."""
    n = len(roots)
    if n == 0:
        kind = RelaxationKind.THERMAL_LIKE
    elif n == 1:
        kind = RelaxationKind.QUANTUM_MEMORY
    else:
        kind = RelaxationKind.OSCILLATING_QUANTUM_MEMORY
    return RelaxationClass(kind=kind, count=n)
