"""Even-parity density blocks of the double dot and their propagation.

The reduced state lives in two 2x2 blocks: rho1 on the {vacuum, doubly
occupied} pair and rho2 on the {mode 1, mode 2} single-occupancy pair.
Parity superselection forbids coherences between the blocks, so this is
the complete state. Evolution needs only (U, V) through four coefficient
matrices.

Every step works on the four entries of each 2x2 matrix as Python
scalars, in flat arithmetic that also runs on arrays of entries;
`tests/state_reference.py` keeps the literal matrix-product forms as the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    InvariantViolation,
    SolverError,
    as_mat2,
    entries2,
    hermitian_eigs_e,
    matrix2,
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
    v = entries2(v)
    a = (1.0 - v[0]) * (1.0 - v[3]) - v[1] * v[2]
    if abs(a) < 1e-14:
        raise SolverError(
            "I - V is singular (occupation reached 1); coefficients undefined"
        )
    return PropagatorCoefficients(*_coefficients_e(entries2(u), v, a), a)


def _coefficients_e(u, v, a) -> tuple:
    """(J1, J2, J3) from the entries of U, V and A = det(I - V): no branch
    or check, so the same code runs on scalars or on arrays of entries."""
    u00, u01, u10, u11 = u
    v00, v01, v10, v11 = v
    # W = adj(I - V) / A, J1 = W U and J3 = U^dag J1 - I, with c = conj(U)
    w00, w01, w10, w11 = (1.0 - v11) / a, v01 / a, v10 / a, (1.0 - v00) / a
    j00, j01 = w00 * u00 + w01 * u10, w00 * u01 + w01 * u11
    j10, j11 = w10 * u00 + w11 * u10, w10 * u01 + w11 * u11
    c00, c01 = u00.conjugate(), u01.conjugate()
    c10, c11 = u10.conjugate(), u11.conjugate()
    j3 = (c00 * j00 + c10 * j10 - 1.0, c00 * j01 + c10 * j11,
          c01 * j00 + c11 * j10, c01 * j01 + c11 * j11 - 1.0)
    return (j00, j01, j10, j11), (w00 - 1.0, w01, w10, w11 - 1.0), j3


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
        return (self._e1[0] + self._e1[3]).real + (self._e2[0] + self._e2[3]).real

    def occupations(self):
        """Mean occupation of each mode (single + double contributions)."""
        p_double = self._e1[3].real
        return (self._e2[0].real + p_double, self._e2[3].real + p_double)

    def purity(self) -> float:
        """Tr rho^2 of the block-diagonal four-level state."""
        a, b, c, d = self._e1
        e, f, g, h = self._e2
        return ((a * a + b * c) + (c * b + d * d)).real + (
            (e * e + f * g) + (g * f + h * h)).real

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

    The reference's tr(K r2) - p_dbl tr(K adj J3), K = J1^dag adj(J2) J1,
    needs no K: with m2 = r2 - p_dbl adj(J3) and n2 = J1 m2 J1^dag, the
    cyclic trace makes it tr(K m2) = tr(adj(J2) n2), and rho2 needs n2.
    """
    return DensityBlocks._of_entries(*_propagate_e(
        coeffs.j1, coeffs.j2, coeffs.j3, coeffs.a, rho0._e1, rho0._e2))


def _propagate_e(j1, j2, j3, a, r1, r2) -> tuple:
    """The entries (rho1, rho2) of `evolve_density`: no branch or check, so
    the same code runs on scalars or on arrays of entries."""
    p_vac, x01, x10, p_dbl = r1
    r00, r01, r10, r11 = r2
    e00, e01, e10, e11 = j1
    f00, f01, f10, f11 = j2
    g00, g01, g10, g11 = j3
    det_j1 = e00 * e11 - e01 * e10
    tr_r2_j3 = (r00 * g00 + r01 * g10) + (r10 * g01 + r11 * g11)
    # rho1[0, 0] / A; the same factor multiplies J2 in rho2 and det J2 below
    c = p_vac + (p_dbl * (g00 * g11 - g01 * g10) - tr_r2_j3)
    # m2 = r2 - p_dbl adj(J3), q = J1 m2, n2 = q J1^dag; scalar has tr(adj(J2) n2)
    m00, m01 = r00 - p_dbl * g11, r01 + p_dbl * g01
    m10, m11 = r10 + p_dbl * g10, r11 - p_dbl * g00
    q00, q01 = e00 * m00 + e01 * m10, e00 * m01 + e01 * m11
    q10, q11 = e10 * m00 + e11 * m10, e10 * m01 + e11 * m11
    h00, h01 = e00.conjugate(), e01.conjugate()
    h10, h11 = e10.conjugate(), e11.conjugate()
    n00, n01 = q00 * h00 + q01 * h01, q00 * h10 + q01 * h11
    n10, n11 = q10 * h00 + q11 * h01, q10 * h10 + q11 * h11
    det_j2 = f00 * f11 - f01 * f10
    scalar = (f11 * n00 - f01 * n10) + (f00 * n11 - f10 * n01) + c * det_j2
    rho1 = (a * c, a * (x01 * det_j1.conjugate()), a * (det_j1 * x10),
            a * (det_j1 * det_j1.conjugate() * p_dbl + scalar))
    rho2 = (a * (n00 + c * f00), a * (n01 + c * f01),
            a * (n10 + c * f10), a * (n11 + c * f11))
    return rho1, rho2

