"""Parameters and small-matrix helpers for a two-mode fermionic system.

The system is a pair of localized fermionic modes (a double quantum dot)
with on-site energies eps1, eps2 and an interdot tunneling amplitude g,
each mode coupled diagonally to its own electron reservoir.  All energies
are measured in units of the common coupling strength Gamma and times in
1/Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

IDENTITY2 = np.eye(2, dtype=complex)


class ConfigError(ValueError):
    """Rejected configuration (bad parameter values or config file)."""


class SolverError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


class InvariantViolation(RuntimeError):
    """A computed quantity broke a physical invariant beyond tolerance."""


def as_mat2(m) -> np.ndarray:
    """Coerce to a 2x2 complex ndarray (copies only when needed)."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(m, -1, -2).conj()


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of a matrix or of each matrix in a stack."""
    return 0.5 * (m + dagger(m))


# 2x2 algebra on entry tuples (m00, m01, m10, m11). The formulas use only
# + - *, ** 0.5, .real and .conjugate(), so they run unchanged on Python
# scalars (one time step) or on arrays of entries (a whole time grid, such
# as m.reshape(-1, 4).T of an (n, 2, 2) stack).


def entries2(m: np.ndarray) -> tuple:
    """(m00, m01, m10, m11) of a 2x2 array, as Python scalars."""
    (a, b), (c, d) = m.tolist()
    return a, b, c, d


def matrix2(x) -> np.ndarray:
    """The 2x2 complex array of an entry tuple."""
    return np.array(x, dtype=complex).reshape(2, 2)


def det_e(x):
    a, b, c, d = x
    return a * d - b * c


def trace_e(x):
    return x[0] + x[3]


def hermitian_eigs_e(x) -> tuple:
    """(lambda_min, lambda_max) of the Hermitian part [[p, q], [q*, r]] of x:
    (p + r)/2 -+ sqrt(((p - r)/2)^2 + |q|^2), real."""
    a, b, c, d = x
    mid = 0.5 * (a.real + d.real)
    half = 0.5 * (a.real - d.real)
    q = 0.5 * (b + c.conjugate())
    rad = (half * half + (q * q.conjugate()).real) ** 0.5
    return mid - rad, mid + rad


def max_singular_e(x):
    """Largest singular value of x: the square root of the larger eigenvalue
    of x^dag x, a sum of non-negative terms with no cancellation."""
    a, b, c, d = x
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return hermitian_eigs_e(
        (ac * a + cc * c, ac * b + cc * d, bc * a + dc * c, bc * b + dc * d)
    )[1] ** 0.5


def inv2(m: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix, adj(m) / det(m); raises SolverError when
    singular."""
    a, b, c, d = entries2(m)
    det = a * d - b * c
    scale = max(abs(m).max(), 1.0)
    if abs(det) <= 1e-300 or abs(det) < 1e-14 * scale * scale:
        raise SolverError(f"singular 2x2 matrix (det = {det!r})")
    return matrix2((d, -b, -c, a)) / det


class SpectralKind(Enum):
    """Shape of the reservoir spectral density."""

    LORENTZIAN = "lorentzian"
    CUTOFF_LORENTZIAN = "cutoff_lorentzian"
    WIDE_BAND = "wideband"

    @classmethod
    def from_name(cls, name: str) -> "SpectralKind":
        key = name.strip().lower().replace("-", "_")
        for kind in cls:
            if kind.value == key:
                return kind
        names = ", ".join(k.value for k in cls)
        raise ConfigError(f"unknown spectral kind {name!r} (expected one of: {names})")


@dataclass(frozen=True)
class SystemParams:
    """On-site energies and interdot tunneling of the two modes.

    g_coupling may be complex; the one-particle energy matrix built from
    it is Hermitian by construction.
    """

    eps1: float
    eps2: float
    g_coupling: complex = 0.0

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        g = complex(self.g_coupling)
        if not (math.isfinite(g.real) and math.isfinite(g.imag)):
            raise ConfigError(f"g_coupling must be finite, got {g!r}")


@dataclass(frozen=True)
class ReservoirParams:
    """One electron reservoir: coupling, band shape, filling.

    Parameters
    ----------
    gamma : float
        Coupling strength of this lead (>= 0), in units of Gamma.
    bandwidth : float
        Lorentzian width d of the spectral density (> 0).
    mu : float
        Chemical potential; the spectral density is centered on it.
    k_t : float
        Temperature in energy units (>= 0); 0 selects the sharp Fermi step.
    cutoff : float
        Half-width of the hard band cutoff around mu (> 0, may be inf);
        only meaningful for the cutoff-Lorentzian spectral kind, which
        needs it finite.
    """

    gamma: float = 1.0
    bandwidth: float = 0.5
    mu: float = 0.0
    k_t: float = 0.0
    cutoff: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise ConfigError(f"bandwidth must be finite and > 0, got {self.bandwidth!r}")
        if not math.isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.k_t) and self.k_t >= 0.0):
            raise ConfigError(f"k_t must be finite and >= 0, got {self.k_t!r}")
        if math.isnan(self.cutoff) or self.cutoff <= 0.0:
            raise ConfigError(f"cutoff must be > 0 (inf allowed), got {self.cutoff!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Complete physical configuration: system plus its two reservoirs."""

    system: SystemParams
    left: ReservoirParams
    right: ReservoirParams
    spectral_kind: SpectralKind = SpectralKind.LORENTZIAN

    def __post_init__(self):
        if self.spectral_kind is SpectralKind.CUTOFF_LORENTZIAN and not all(
            math.isfinite(res.cutoff) for res in self.reservoirs
        ):
            raise ConfigError(
                "the cutoff_lorentzian kind needs a finite cutoff (omega_cut)"
                f" on both leads, got {self.left.cutoff!r} and {self.right.cutoff!r}"
            )

    @property
    def reservoirs(self) -> tuple[ReservoirParams, ReservoirParams]:
        return (self.left, self.right)


def build_hamiltonian(system: SystemParams) -> np.ndarray:
    """One-particle energy matrix M = [[eps1, g], [conj(g), eps2]]."""
    g = complex(system.g_coupling)
    return np.array([[system.eps1, g], [np.conj(g), system.eps2]], dtype=complex)


def gamma_matrix(config: ModelConfig) -> np.ndarray:
    """Diagonal lead-coupling matrix diag(gamma_L, gamma_R)."""
    return np.diag([config.left.gamma, config.right.gamma]).astype(complex)
