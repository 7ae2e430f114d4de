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
    InvariantViolation,
    SolverError,
    adjugate_e,
    as_mat2,
    dagger_e,
    det_e,
    entries2,
    hermitian_eigs_e,
    matrix2,
    mul_e,
    trace_e,
)

TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8
BLOCK_HERMITICITY_TOL = 1e-8


@dataclass
class PropagatorCoefficients:
    """J1, J2, J3 as entry tuples (m00, m01, m10, m11) and the normalization A
    of the Gaussian propagator."""

    j1: tuple
    j2: tuple
    j3: tuple
    a: complex


def propagator_coefficients(u, v) -> PropagatorCoefficients:
    """Coefficients (J1, J2, J3, A) from a propagator pair of 2x2 arrays (U, V).

    W = (I - V)^-1, J1 = W U, J2 = W - I, J3 = U^dag W U - I, A = 1/det W.
    The inverse fails only at a fully occupied point (V eigenvalue 1). For
    a valid V (0 <= V <= I) no entry of I - V exceeds 1 in size, so the
    absolute test on det(I - V) is also inv2's relative one.
    """
    u = entries2(u)
    v00, v01, v10, v11 = entries2(v)
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
        j1=j1,
        j2=(w[0] - 1.0, w[1], w[2], w[3] - 1.0),
        j3=(j3[0] - 1.0, j3[1], j3[2], j3[3] - 1.0),
        a=complex(det_w_inv),
    )


def _check_block(name, x):
    """The entry tuple x of a valid block, or InvariantViolation."""
    a, b, c, d = x
    # a sum is finite only when every entry is; the comparisons below are
    # all false for NaN
    total = a + b + c + d
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise InvariantViolation(f"{name} block has a non-finite entry")
    # max |m - m^dag| over the entries; both off-diagonals have the same size
    gap = max(abs(2.0 * a.imag), abs(2.0 * d.imag), abs(b - c.conjugate()))
    if gap > BLOCK_HERMITICITY_TOL:
        raise InvariantViolation(f"{name} block is not Hermitian")
    lam_min = hermitian_eigs_e(x)[0]
    if lam_min < -POSITIVITY_TOL:
        raise InvariantViolation(
            f"{name} block has negative eigenvalue {lam_min:.3e}"
        )
    return x


class DensityBlocks:
    """rho1 over {|vac>, |1_1 1_2>}, rho2 over {|1_1>, |1_2>}.

    Built from two 2x2 array-likes and checked once. Each block is kept as
    its entry tuple (m00, m01, m10, m11) of Python scalars, which the
    per-step algebra reads directly; rho1 and rho2 return the blocks as 2x2
    complex arrays.
    """

    __slots__ = ("_e1", "_e2")

    def __init__(self, rho1, rho2):
        self._set(entries2(as_mat2(rho1)), entries2(as_mat2(rho2)))

    @classmethod
    def _of_entries(cls, e1, e2) -> "DensityBlocks":
        """The checked blocks of two entry tuples."""
        blocks = cls.__new__(cls)
        blocks._set(e1, e2)
        return blocks

    def _set(self, e1, e2):
        self._e1 = _check_block("rho1", e1)
        self._e2 = _check_block("rho2", e2)
        total = self.total_trace
        if abs(total - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"total trace {total} != 1")

    @property
    def rho1(self) -> np.ndarray:
        return matrix2(self._e1)

    @property
    def rho2(self) -> np.ndarray:
        return matrix2(self._e2)

    @property
    def total_trace(self) -> float:
        return trace_e(self._e1).real + trace_e(self._e2).real

    def occupations(self):
        """Mean occupation of each mode (single + double contributions)."""
        p_double = self._e1[3].real
        return (self._e2[0].real + p_double, self._e2[3].real + p_double)

    def purity(self) -> float:
        """Tr rho^2 of the block-diagonal four-level state."""
        r1, r2 = self._e1, self._e2
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
    j1, j2, j3, a = coeffs.j1, coeffs.j2, coeffs.j3, coeffs.a
    p_vac, x01, x10, p_dbl = rho0._e1
    r2 = rho0._e2

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
    return DensityBlocks._of_entries(rho1, rho2)


def steady_state_density(v_s) -> DensityBlocks:
    """Thermalized blocks determined by the stationary fluctuation matrix.

    rho1 = diag(1 + det V - tr V, det V), rho2 = V - (det V) I; the
    vacuum/double coherence is exactly zero in the steady state.
    """
    v = entries2(as_mat2(v_s))
    det_v = det_e(v).real
    tr_v = trace_e(v).real
    rho1 = (complex(1.0 + det_v - tr_v), 0j, 0j, complex(det_v))
    rho2 = (v[0] - det_v, v[1], v[2], v[3] - det_v)
    return DensityBlocks._of_entries(rho1, rho2)
