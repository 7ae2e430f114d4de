"""Even-parity density blocks of the double dot and their propagation.

The reduced state lives in two 2x2 blocks: rho1 on the {vacuum, doubly
occupied} pair and rho2 on the {mode 1, mode 2} single-occupancy pair.
Parity superselection forbids coherences between the blocks, so this is
the complete state. Evolution needs only (U, V) through four coefficient
matrices.

Every step works on the four entries of each 2x2 matrix as Python
scalars, with the entry helpers of `model`; `tests/state_reference.py`
keeps the literal matrix-product forms as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    IDENTITY2,
    InvariantViolation,
    SolverError,
    adjugate_e,
    as_mat2,
    dagger_e,
    det2,
    det_e,
    entries2,
    matrix2,
    mul_e,
    trace_e,
)

TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8
BLOCK_HERMITICITY_TOL = 1e-8


@dataclass
class PropagatorCoefficients:
    """J1, J2, J3 and the normalization A of the Gaussian propagator."""

    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray
    a: complex


def propagator_coefficients(u, v) -> PropagatorCoefficients:
    """Coefficients (J1, J2, J3, A) from a propagator pair (U, V).

    W = (I - V)^-1, J1 = W U, J2 = W - I, J3 = U^dag W U - I, A = 1/det W.
    The inverse fails only at a fully occupied point (V eigenvalue 1). For
    a valid V (0 <= V <= I) no entry of I - V exceeds 1 in size, so the
    absolute test on det(I - V) is also inv2's relative one.
    """
    u = entries2(as_mat2(u))
    v00, v01, v10, v11 = entries2(as_mat2(v))
    one_minus_v = (1.0 - v00, -v01, -v10, 1.0 - v11)
    det_w_inv = det_e(one_minus_v)
    if abs(det_w_inv) < 1e-14:
        raise SolverError(
            "I - V is singular (occupation reached 1); coefficients undefined"
        )
    w = tuple(x / det_w_inv for x in adjugate_e(one_minus_v))
    j1 = mul_e(w, u)
    j3 = mul_e(dagger_e(u), j1)
    return PropagatorCoefficients(
        j1=matrix2(j1),
        j2=matrix2((w[0] - 1.0, w[1], w[2], w[3] - 1.0)),
        j3=matrix2((j3[0] - 1.0, j3[1], j3[2], j3[3] - 1.0)),
        a=complex(det_w_inv),
    )


def _check_block(name, m):
    m = as_mat2(m)
    a, b, c, d = entries2(m)
    # a sum is finite only when every entry is; the comparisons below are
    # all false for NaN
    total = a + b + c + d
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise InvariantViolation(f"{name} block has a non-finite entry")
    # max |m - m^dag| over the entries; both off-diagonals have the same size
    gap = max(abs(2.0 * a.imag), abs(2.0 * d.imag), abs(b - c.conjugate()))
    if gap > BLOCK_HERMITICITY_TOL:
        raise InvariantViolation(f"{name} block is not Hermitian")
    # smaller eigenvalue of the Hermitian part [[p, q], [q*, r]]
    p, r = a.real, d.real
    q = 0.5 * (b + c.conjugate())
    lam_min = 0.5 * (p + r) - math.hypot(0.5 * (p - r), abs(q))
    if lam_min < -POSITIVITY_TOL:
        raise InvariantViolation(
            f"{name} block has negative eigenvalue {lam_min:.3e}"
        )
    return m


@dataclass
class DensityBlocks:
    """rho1 over {|vac>, |1_1 1_2>}, rho2 over {|1_1>, |1_2>}."""

    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self):
        self.rho1 = _check_block("rho1", self.rho1)
        self.rho2 = _check_block("rho2", self.rho2)
        total = self.total_trace
        if abs(total - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"total trace {total} != 1")

    @property
    def total_trace(self) -> float:
        return trace_e(entries2(self.rho1)).real + trace_e(entries2(self.rho2)).real

    def occupations(self):
        """Mean occupation of each mode (single + double contributions)."""
        p_double = entries2(self.rho1)[3].real
        a, _, _, d = entries2(self.rho2)
        return (a.real + p_double, d.real + p_double)

    def purity(self) -> float:
        """Tr rho^2 of the block-diagonal four-level state."""
        r1, r2 = entries2(self.rho1), entries2(self.rho2)
        return trace_e(mul_e(r1, r1)).real + trace_e(mul_e(r2, r2)).real

    @classmethod
    def vacuum(cls) -> "DensityBlocks":
        return cls(np.diag([1.0, 0.0]), np.zeros((2, 2)))

    @classmethod
    def single(cls, mode: int) -> "DensityBlocks":
        """One electron in mode 1 or mode 2."""
        if mode not in (1, 2):
            raise ValueError(f"mode must be 1 or 2, got {mode}")
        r2 = np.zeros((2, 2))
        r2[mode - 1, mode - 1] = 1.0
        return cls(np.zeros((2, 2)), r2)

    @classmethod
    def bell(cls, sign: int = +1) -> "DensityBlocks":
        """(|1_1> + sign |1_2>)/sqrt(2), a maximally entangled single electron."""
        if sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        r2 = 0.5 * np.array([[1.0, sign], [sign, 1.0]])
        return cls(np.zeros((2, 2)), r2)

    @classmethod
    def double_occupied(cls) -> "DensityBlocks":
        return cls(np.diag([0.0, 1.0]), np.zeros((2, 2)))


def evolve_density(
    rho0: DensityBlocks, coeffs: PropagatorCoefficients
) -> DensityBlocks:
    """Propagate the density blocks with the coefficient matrices.

    The propagating-function result, with sigma_y X^T sigma_y written as
    adj X, j1_tilde = diag(1, det J1) as a row and column scaling, and the
    sigma_+ sigma_- and sigma_- sigma_+ terms as updates of the (0, 0) and
    (1, 1) entries. The mixture of determinants, traces and sigma_y
    transposes is where sign errors hide, so the literal matrix form stays
    in the tests as the reference. The identity coefficients (I, 0, 0, 1)
    return the input unchanged.
    """
    j1, j2, j3 = entries2(coeffs.j1), entries2(coeffs.j2), entries2(coeffs.j3)
    a = coeffs.a
    p_vac, x01, x10, p_dbl = entries2(rho0.rho1)
    r2 = entries2(rho0.rho2)

    det_j1 = det_e(j1)
    s3 = adjugate_e(j3)  # sigma_y J3^T sigma_y
    # rho1[0, 0] / A; the same factor multiplies J2 in rho2 and det J2 below
    c = p_vac + (p_dbl * det_e(j3) - trace_e(mul_e(r2, j3)))
    # tr(sy J2^T sy J1 X J1^dag) = tr(K X) with K = J1^dag adj(J2) J1
    k = mul_e(dagger_e(j1), mul_e(adjugate_e(j2), j1))
    scalar = (
        trace_e(mul_e(k, r2)) - p_dbl * trace_e(mul_e(k, s3)) + c * det_e(j2)
    )
    rho1 = (
        a * c,
        a * (x01 * det_j1.conjugate()),
        a * (det_j1 * x10),
        a * (det_j1 * det_j1.conjugate() * p_dbl + scalar),
    )
    m2 = tuple(x - p_dbl * y for x, y in zip(r2, s3))
    n2 = mul_e(mul_e(j1, m2), dagger_e(j1))
    rho2 = tuple(a * (x + c * y) for x, y in zip(n2, j2))
    return DensityBlocks(matrix2(rho1), matrix2(rho2))


def steady_state_density(v_s) -> DensityBlocks:
    """Thermalized blocks determined by the stationary fluctuation matrix.

    rho1 = diag(1 + det V - tr V, det V), rho2 = V - (det V) I; the
    vacuum/double coherence is exactly zero in the steady state.
    """
    v = as_mat2(v_s)
    det_v = det2(v).real
    tr_v = np.trace(v).real
    rho1 = np.diag([1.0 + det_v - tr_v, det_v]).astype(complex)
    rho2 = v - det_v * IDENTITY2
    return DensityBlocks(rho1, rho2)
