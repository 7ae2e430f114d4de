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

from .model import ConfigError, ModelConfig, SolverError, SpectralKind
from .spectral import lead_self_energy_real

EDGE_DISTANCE_MIN = 1e-3
RESIDUE_NORM_MIN = 1e-6
ROOT_XTOL = 1e-10
# scipy brentq's defaults: relative tolerance 4 eps, 100 steps (bisection
# alone takes a bracket of 1e3 to ROOT_XTOL in 44)
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)
_MAX_STEPS = 100


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
            bands.append((res.mu - res.cutoff, res.mu + res.cutoff))
    bands.sort()
    merged = []
    for lo, hi in bands:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _diagonal(config: ModelConfig, omega):
    """f_l = w - eps_l - Sigma_l(w), the diagonal of A(w) = wI - M - Sigma(w).

    Outside every band each Sigma_l is real and strictly decreasing, so
    f_l rises with slope >= 1; lead_self_energy_real rejects w inside a band.
    """
    w = np.asarray(omega, dtype=float)
    eps = (config.system.eps1, config.system.eps2)
    return tuple(
        w - e - lead_self_energy_real(res, config.spectral_kind, w)
        if res.gamma > 0.0
        else w - e
        for e, res in zip(eps, config.reservoirs)
    )


def _branches(config: ModelConfig, omega):
    """Eigenvalues (lambda_-, lambda_+) of A(w), each rising with slope >= 1.

    A'(w) = I - Sigma'(w) >= I out of band, and eigenvalues are monotone in A.
    """
    f1, f2 = _diagonal(config, omega)
    mean = 0.5 * (f1 + f2)
    half = np.hypot(0.5 * (f1 - f2), abs(config.system.g_coupling))
    return mean - half, mean + half


def _slopes(config: ModelConfig, omega: float) -> np.ndarray:
    """f_l' = 1 - Sigma_l'(w) of _diagonal, in closed form out of band.

    The cutoff Lorentzian's Sigma_l = j(x) B(x) / 2pi, with x = w - mu_l,
    j = Gamma_l d^2 / (x^2 + d^2) and B = ln((x + c)/(x - c)) + (2x/d) atan(c/d),
    has j' = -2x j / (x^2 + d^2) and B' = 2 atan(c/d) / d - 2c / (x^2 - c^2).
    """
    out = []
    for res in config.reservoirs:
        if res.gamma == 0.0:
            out.append(1.0)
            continue
        x = omega - res.mu
        d, c = res.bandwidth, res.cutoff
        sigma = lead_self_energy_real(res, config.spectral_kind, omega)
        j = res.gamma * d * d / (x * x + d * d)
        b_slope = 2.0 * math.atan(c / d) / d - 2.0 * c / (x * x - c * c)
        out.append(1.0 + 2.0 * x * sigma / (x * x + d * d) - j * b_slope / (2.0 * math.pi))
    return np.array(out)


def _residue(config, root, branch):
    """Z = v v^dag / (v^dag diag(f1', f2') v) at a root of branch (0 or 1).

    v is that branch's unit eigenvector of A = [[f1, -g], [-conj(g), f2]]
    and the denominator its slope, >= 1 out of band, from the closed-form
    f_l' of _slopes. v does not depend on how close the other branch's
    root lies, so a near-degenerate or double root splits its weight.
    """
    slopes = _slopes(config, root)
    f1, f2 = _diagonal(config, root)
    g = complex(config.system.g_coupling)
    v = np.linalg.eigh(np.array([[f1, -g], [-g.conjugate(), f2]]))[1][:, branch]
    return np.outer(v, v.conj()) / (np.abs(v) ** 2 @ slopes)


def _branch_root(branch, lo, f_lo, hi, f_hi):
    """The zero of branch on (lo, hi), where it rises with slope >= 1 from
    f_lo = branch(lo) < 0 to f_hi = branch(hi) > 0.

    Newton steps on the slope of the secant through the last two iterates,
    held >= 1 by the slope bound; a step that leaves the bracket [lo, hi]
    of the sign change bisects it instead. Stops once a step moves the
    iterate by at most ROOT_XTOL + _ROOT_RTOL |w|.
    """
    w0, f0, w1, f1 = lo, f_lo, hi, f_hi
    for _ in range(_MAX_STEPS):
        w = w1 - f1 / max((f1 - f0) / (w1 - w0), 1.0)
        if not lo <= w <= hi:
            w = 0.5 * (lo + hi)
        if abs(w - w1) <= ROOT_XTOL + _ROOT_RTOL * abs(w):
            return w
        f = branch(w)
        if f == 0.0:
            return w
        if f < 0.0:
            lo = w
        else:
            hi = w
        w0, f0, w1, f1 = w1, f1, w, f
    raise SolverError(f"bound-state root search did not converge on [{lo!r}, {hi!r}]")


def find_bound_states(config: ModelConfig) -> list:
    """All effective real roots of det[wI - M - Sigma(w)] outside the bands.

    In each gap between the merged bands both branches lambda_-/+ rise
    with slope >= 1, so each crosses zero at most once there: one
    safeguarded Newton search (_branch_root) per branch per gap whose ends
    bracket a sign change. An open gap's far end comes from the slope
    bound: a branch is <= -1 at c - |lambda(c)| - 1 and >= 1 at
    c + |lambda(c)| + 1. The gaps end EDGE_DISTANCE_MIN short of each band
    edge, and roots carrying negligible residue are dropped: roots hugging
    an edge or without weight hybridize with the continuum and decay anyway.
    """
    bands = _band_intervals(config)
    edge_points = [b for band in bands for b in band]
    starts = [-math.inf] + [hi + EDGE_DISTANCE_MIN for _, hi in bands]
    ends = [lo - EDGE_DISTANCE_MIN for lo, _ in bands] + [math.inf]

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
            f_lo, f_hi = branch(lo), branch(hi)
            if f_lo < 0.0 < f_hi:
                roots.append((_branch_root(branch, lo, f_lo, hi, f_hi), k))
    roots.sort()

    out = []
    for root, k in roots:
        edge_distance = (
            min(abs(root - e) for e in edge_points) if edge_points else math.inf
        )
        residue = _residue(config, root, k)
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


def classify_relaxation(roots) -> RelaxationClass:
    """Scenario from the distinct root energies: none thermal-like, one
    memory, two or more oscillating (bound states at one energy do not beat
    against each other). Energies within ROOT_XTOL count as one; the count
    keeps every root, with multiplicity."""
    energies = sorted(r.energy for r in roots)
    distinct = len(energies) - sum(b - a <= ROOT_XTOL for a, b in zip(energies, energies[1:]))
    if distinct == 0:
        kind = RelaxationKind.THERMAL_LIKE
    elif distinct == 1:
        kind = RelaxationKind.QUANTUM_MEMORY
    else:
        kind = RelaxationKind.OSCILLATING_QUANTUM_MEMORY
    return RelaxationClass(kind=kind, count=len(roots))
