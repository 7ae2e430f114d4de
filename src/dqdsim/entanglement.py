"""Fermionic entanglement of formation for the two-mode even-parity state."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import InvariantViolation, as_mat2, det_e, entries2, trace_e
from .state import DensityBlocks

DEGENERATE_TOL = 1e-12
ROUNDING_CLAMP = 1e-9


@dataclass(frozen=True)
class EofResult:
    """Entanglement of formation with its per-block ingredients."""

    value: float
    lam: tuple
    k_terms: tuple


def _lambda_k(block) -> tuple:
    """(lambda, K) of one 2x2 block, given as its entries (m00, m01, m10, m11).

    The degenerate case (equal diagonals, vanishing off-diagonal) is the
    0/0 point of the lambda formula; there K = 0 identically.
    """
    diff = (block[0] - block[3]).real
    off = block[1]
    if abs(diff) < DEGENERATE_TOL and abs(off) < DEGENERATE_TOL:
        return 0.0, 0.0
    lam = diff / math.sqrt(diff * diff + 4.0 * abs(off) ** 2)
    k = 0.0
    for s in (-1.0, +1.0):
        p = 1.0 + s * lam
        if p > 0.0:
            k += p * math.log2(p / 2.0)
    return lam, k


def fermionic_eof(rho: DensityBlocks) -> EofResult:
    """EoF of a valid pair of density blocks: -1/2 sum_s tr(rho_s) K_s."""
    r1, r2 = rho._e1, rho._e2
    lam1, k1 = _lambda_k(r1)
    lam2, k2 = _lambda_k(r2)
    value = -0.5 * (trace_e(r1).real * k1 + trace_e(r2).real * k2)
    value = _checked_value(value)
    return EofResult(value=value, lam=(lam1, lam2), k_terms=(k1, k2))


def steady_state_eof(v_s) -> float:
    """Stationary EoF straight from V^s: (det V - tr V / 2) K_2.

    Agrees with fermionic_eof(steady_state_density(v_s)) because the
    stationary rho1 is diagonal, which forces K_1 = 0.
    """
    v = entries2(as_mat2(v_s))
    det_v = det_e(v).real
    tr_v = trace_e(v).real
    _, k2 = _lambda_k((v[0] - det_v, v[1], v[2], v[3] - det_v))
    return _checked_value((det_v - 0.5 * tr_v) * k2)


def _checked_value(value: float) -> float:
    if value > 1.0 + ROUNDING_CLAMP:
        raise InvariantViolation(f"entanglement {value} exceeds 1")
    if value < -ROUNDING_CLAMP:
        raise InvariantViolation(f"entanglement {value} is negative")
    if value <= 0.0:
        return 0.0  # rounding dust (also normalizes -0.0)
    return float(value)
