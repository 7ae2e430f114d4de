"""Nonequilibrium Green's functions of the double dot.

Solves the Dyson integro-differential equation for the retarded propagator
U(t), assembles the fluctuation matrix V(t) by double convolution with the
noise kernel, and provides the pole expansion, steady-state, wide-band and
Born-Markov closed forms. Every closed form reads its poles and residues
from one eigen-decomposition, _modes: of the pseudomode generator for
Lorentzian leads and of M - i Gamma / 2 in the wide band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (
    IDENTITY2,
    ConfigError,
    InvariantViolation,
    ModelConfig,
    SolverError,
    SpectralKind,
    build_hamiltonian,
    dagger,
    entries2,
    gamma_matrix,
    hermitian_eigs_e,
    hermitian_part,
    inv2,
    max_singular_e,
)
from .spectral import (
    _TWO_PI,
    _near_rows,
    _pair_integrals,
    _thermal_pair_table,
    build_kernel_table,
    fermi_occupation,
)

HERMITICITY_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8
EIGENVALUE_CEIL = 1.0 + 1e-8
SINGULAR_VALUE_CEIL = 1.0 + 1e-6
RESIDUE_SUM_TOL = 1e-8

@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, t_max] with n_steps intervals."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        # any integral type, numpy's too, is stored as a plain int; a bool
        # passes operator.index but is never a step count
        try:
            n_steps = operator.index(self.n_steps)
        except TypeError:
            n_steps = 0
        if isinstance(self.n_steps, bool) or n_steps < 1:
            raise ConfigError(
                f"n_steps must be a positive integer, got {self.n_steps!r}"
            )
        object.__setattr__(self, "n_steps", int(n_steps))

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


def _check_solution(grid, u_seq, v_seq) -> np.ndarray:
    """Raise InvariantViolation unless (U, V) is physical; return the
    largest singular value of each U(t)."""
    u = np.asarray(u_seq)
    v = np.asarray(v_seq)
    n = grid.n_steps + 1
    if u.shape != (n, 2, 2) or v.shape != (n, 2, 2):
        raise InvariantViolation(
            f"solution shape mismatch: expected ({n}, 2, 2), got {u.shape} and {v.shape}"
        )
    # every check below is a comparison, and each is false for NaN
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise InvariantViolation("U(t) or V(t) has a non-finite entry")
    if not np.allclose(u[0], IDENTITY2, atol=1e-13, rtol=0.0):
        raise InvariantViolation("U(0) != identity")
    if not np.allclose(v[0], 0.0, atol=1e-13, rtol=0.0):
        raise InvariantViolation("V(0) != 0")
    herm_err = np.max(np.abs(v - dagger(v)))
    if herm_err > HERMITICITY_TOL:
        raise InvariantViolation(f"V(t) not Hermitian: max deviation {herm_err:.3e}")
    # the 2x2 spectra in closed form, on the entries of the whole grid
    lam_min, lam_max = hermitian_eigs_e(v.reshape(-1, 4).T)
    lo, hi = lam_min.min(), lam_max.max()
    if lo < EIGENVALUE_FLOOR or hi > EIGENVALUE_CEIL:
        raise InvariantViolation(
            f"V(t) spectrum [{lo:.3e}, {hi:.3e}] leaves [0, 1]"
        )
    s_max = max_singular_e(u.reshape(-1, 4).T)
    if s_max.max() > SINGULAR_VALUE_CEIL:
        raise InvariantViolation(
            f"U(t) singular value {s_max.max():.8f} exceeds contraction bound"
        )
    return s_max


@dataclass
class GreensSolution:
    """U(t) and V(t) sampled on a common time grid, checked on construction;
    u_norm holds the largest singular value of each U(t)."""

    grid: TimeGrid
    u_seq: np.ndarray
    v_seq: np.ndarray
    u_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.u_seq = np.ascontiguousarray(np.asarray(self.u_seq, dtype=complex))
        self.v_seq = np.ascontiguousarray(np.asarray(self.v_seq, dtype=complex))
        self.u_norm = _check_solution(self.grid, self.u_seq, self.v_seq)


@dataclass
class PoleExpansion:
    """U(t) = sum_j Z_j exp(-i r_j t) with all poles in the lower half plane;
    the residues Z_j are held as one (J, 2, 2) array."""

    poles: np.ndarray
    residues: np.ndarray

    def __post_init__(self):
        self.poles = np.asarray(self.poles, dtype=complex)
        self.residues = np.asarray(self.residues, dtype=complex)
        upper = self.poles.imag > 1e-12
        if upper.any():
            raise InvariantViolation(f"pole {self.poles[upper][0]} lies in the upper half plane")
        total = self.residues.sum(axis=0)
        if abs(total - IDENTITY2).max() > RESIDUE_SUM_TOL:
            raise InvariantViolation(
                f"residues sum to {total}, expected identity"
            )

    def reconstruct(self, times) -> np.ndarray:
        """Evaluate sum_j Z_j exp(-i r_j t) on an array of times; U(0) = I
        exactly, where the residue sum carries rounding."""
        t = np.asarray(times, dtype=float)
        phases = np.exp(-1j * np.outer(t, self.poles))
        # einsum sums fastest over a C-ordered operand
        u = np.einsum("tj,jab->tab", phases, np.ascontiguousarray(self.residues))
        u[t.ravel() == 0.0] = IDENTITY2
        return u


def solve_dyson(config: ModelConfig, grid: TimeGrid) -> np.ndarray:
    """Propagate U(t) through the memory-kernel Volterra equation.

    Product-integration trapezoidal rule, implicit in the newest value.
    Second order in dt and exactly unitary (Cayley form) when the coupling
    vanishes.

    Over all steps the rule is one block lower-triangular Toeplitz system
    sum_k T_k U_{t-k} = -F_t in U_1..U_n, with 2x2 blocks
    T_0 = I + (dt/2) iM + (dt^2/4) mem_0,
    T_1 = -(I - (dt/2) iM) + (dt^2/2)(mem_1 + mem_0/2), the diagonal
    T_k = (dt^2/2)(mem_k + mem_{k-1}) for k >= 2, and U_0 only in F_t. As
    power series T(z) (U(z) - I) = -F(z), so U(z) = I - X(z) F(z) with
    X = T^-1 mod z^(n+1), found by Newton doubling from X = T_0^-1:
    X <- X - X (T X - I) mod z^2m, O(n log n) in all (Brent & Kung,
    J. ACM 25, 581 (1978)).

    Every series is held channel-major, (2, 2, len), so that one FFT call
    transforms its four entries and each product of spectra is entry
    arithmetic (_spectral_product). A level transforms X once, at a period
    long enough for both of its products: the memory lags times X in the
    residual, and X times the residual in the step. Newton corrects the
    rounding of earlier coefficients only through the residual, so it is
    kept over every row, the low ones too; its near lags T_0 and T_1 are
    taken exactly, so that FFT rounding of order eps |T_1| does not build
    up along an undamped mode, and only the O(dt^2) memory lags go through
    the FFT product. F = (T - T_0 - T_1 z) / 2 + f_1 z, with f_1 its row
    at t_1, and X T = I, so U needs no product: U_t = X_t T_0 / 2
    - X_{t-1} (f_1 - T_1 / 2) for t >= 1. Returns the (n+1, 2, 2) stack
    of U(t).
    """
    table = build_kernel_table(config, grid.times, include_noise=False)
    n = grid.n_steps
    dt = grid.dt
    mem = table.memory  # (n+1, 2) per-lead diagonal samples
    i_m = 1j * build_hamiltonian(config.system)
    minus_b = (dt / 2.0) * i_m - IDENTITY2  # -(I - (dt/2) iM)
    half = dt * dt / 2.0

    # the diagonals of T_k for k >= 2, channel-major: lags[:, k - 2]
    lags = half * np.ascontiguousarray((mem[2:] + mem[1:-1]).T)
    # F_t: U_0 = I enters with trapezoid weight 1/2 at every lag, and with
    # the explicit half of the first step at t_1
    f1 = minus_b + (half / 2.0) * np.diag(mem[1])
    t0 = IDENTITY2 + (dt / 2.0) * i_m + (half / 2.0) * np.diag(mem[0])
    t1 = minus_b + half * np.diag(mem[1] + 0.5 * mem[0])

    x = inv2(t0)[:, :, None]  # SolverError when the implicit step is singular
    while x.shape[-1] <= n:
        m = x.shape[-1]
        size = min(2 * m, n + 1)
        period = _fft_period(m + size - 1)
        x_hat = np.fft.fft(x, period)
        resid = np.zeros((2, 2, size), dtype=complex)  # T X - I mod z^size
        resid[..., :m] = _matmul_cm(t0[:, :, None], x)
        resid[..., 1 : m + 1] += _matmul_cm(t1[:, :, None], x)
        resid[..., 2:] += _spectral_product(
            np.fft.fft(lags[:, : size - 2], period), x_hat, size - 2)
        resid[[0, 1], [0, 1], 0] -= 1.0
        x_new = -_spectral_product(x_hat, np.fft.fft(resid, period), size)
        x_new[..., :m] += x
        x = x_new

    u = np.empty((2, 2, n + 1), dtype=complex)
    u[..., 0] = IDENTITY2
    u[..., 1:] = (_matmul_cm(x[..., 1:], 0.5 * t0[:, :, None])
                  - _matmul_cm(x[..., :-1], (f1 - 0.5 * t1)[:, :, None]))
    return np.ascontiguousarray(u.transpose(2, 0, 1))


def _fft_period(length: int) -> int:
    """The least 2^i or 3 2^i at or past length (at least 1): an FFT period
    at which a product of that many rows does not wrap around."""
    return min(1 << (length - 1).bit_length(), 3 << ((length - 1) // 3).bit_length())


def _matmul_cm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b for two channel-major (2, 2, len) stacks of 2x2 matrices, entry by
    entry: c[i, j] = a[i, 0] b[0, j] + a[i, 1] b[1, j]. A len of 1 stands
    for one matrix at every row."""
    c = a[:, :1] * b[0]
    c += a[:, 1:] * b[1]
    return c


def _spectral_product(a: np.ndarray, b: np.ndarray, rows: int) -> np.ndarray:
    """Rows [0, rows) of the product C(z) = A(z) B(z) of two 2x2 matrix
    power series, C_k = sum_j A_j B_{k-j}, from their spectra a and b at
    one period at or past the product's full length (_fft_period), so
    that nothing wraps around.

    Both spectra are channel-major, (2, 2, period), and their matrix
    product is taken entry by entry. A diagonal series may be given as the
    (2, period) spectra of its two diagonals; it scales the rows (as a) or
    the columns (as b) of the other's spectrum.
    """
    if a.ndim == 2:
        c = a[:, None] * b
    elif b.ndim == 2:
        c = a * b
    else:
        c = _matmul_cm(a, b)
    np.fft.ifft(c, out=c)
    return c[..., :rows]


def compute_fluctuation(u_seq, config: ModelConfig, grid: TimeGrid) -> np.ndarray:
    """Assemble V(t) = int int U(t-s1) gtilde(s1-s2) U(t-s2)^dag ds1 ds2.

    Trapezoidal double sum on the grid, evaluated for every grid time at
    once on channel-major (2, 2, n+1) series. With C_n = sum_k U_k
    gtilde(t_{n-k}), one FFT product with the diagonal kernel, and
    Y_n = (2 C_n - U_n gtilde(0) - gtilde(t_n)) U_n^dag, the flat-weight
    core is the cumulative sum of Y; the trapezoid's end corrections are
    -Y_n / 2 and the corner (gtilde(0) - U_n gtilde(0) U_n^dag) / 4, and
    V is dt^2 times the Hermitian part of the total. The discrete quadratic
    form inherits positivity from the noise kernel, so V stays positive
    semidefinite to rounding. Returns the (n+1, 2, 2) stack of V(t).
    """
    table = build_kernel_table(config, grid.times, include_noise=True)
    g = np.ascontiguousarray(table.noise.T)  # diagonal kernel samples at lags >= 0
    g0 = g[:, :1]
    u = np.ascontiguousarray(np.asarray(u_seq, dtype=complex).transpose(1, 2, 0))
    rows = u.shape[-1]
    u_dag = np.conj(u.swapaxes(0, 1))

    period = _fft_period(2 * rows - 1)
    c = _spectral_product(np.fft.fft(u, period), np.fft.fft(g, period), rows)
    a = 2.0 * c - u * g0
    a[[0, 1], [0, 1]] -= g
    y = _matmul_cm(a, u_dag)
    corner = np.diag(g[:, 0])[:, :, None] - _matmul_cm(u * g0, u_dag)
    w = np.cumsum(y, axis=-1) - 0.5 * y + 0.25 * corner
    v = (0.5 * grid.dt * grid.dt) * (w + np.conj(w.swapaxes(0, 1)))
    v[..., 0] = 0.0
    return np.ascontiguousarray(v.transpose(2, 0, 1))


def solve(config: ModelConfig, grid: TimeGrid) -> GreensSolution:
    """Full (U, V) solution of the Volterra equation (Lorentzian or cutoff
    spectrum; the wide band's is wbl_greens)."""
    u = solve_dyson(config, grid)
    v = compute_fluctuation(u, config, grid)
    return GreensSolution(grid, u, v)


# ---------------------------------------------------------------------------
# Pole expansion: one eigen-decomposition for the Lorentzian and wide band
# ---------------------------------------------------------------------------


def _modes(config: ModelConfig) -> PoleExpansion:
    """Poles and residues of U(t) from one non-Hermitian eigenproblem.

    Wide band: the generator is M - i Gamma / 2. Lorentzian: each lead is
    one damped pseudomode at mu_l - i d_l, coupled to its dot with
    sqrt(Gamma_l d_l / 2); eliminating the pseudomodes gives back
    Sigma_l(z) = (Gamma_l d_l / 2) / (z - mu_l + i d_l). With the
    generator's eigenvectors as the columns of V, the residue of pole j is
    the dot block V[:2, j] V^-1[j, :2]; a pseudomode that no dot sees keeps
    its pole with a zero residue.
    """
    m_mat = build_hamiltonian(config.system)
    if config.spectral_kind is SpectralKind.WIDE_BAND:
        generator = m_mat - 0.5j * gamma_matrix(config)
    else:
        generator = np.zeros((4, 4), dtype=complex)
        generator[:2, :2] = m_mat
        for lead, res in enumerate(config.reservoirs):
            generator[lead, 2 + lead] = generator[2 + lead, lead] = math.sqrt(
                res.gamma * res.bandwidth / 2.0)
            generator[2 + lead, 2 + lead] = res.mu - 1j * res.bandwidth
    poles, vecs = np.linalg.eig(generator)
    # the generator's anti-Hermitian part is diagonal, so each width is the
    # Rayleigh quotient of its eigenvector: a sum of terms of one sign, as
    # accurate relative to itself as a small width needs, where eig fixes
    # Im r only to about eps |r|
    weight = np.abs(vecs) ** 2
    poles = poles.real + 1j * (generator.diagonal().imag @ weight) / weight.sum(axis=0)
    # cond(vecs), the ratio of its extreme singular values, infinite for an
    # exactly singular vecs
    s = np.linalg.svd(vecs, compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > 1e8:
        raise SolverError(
            "defective pole configuration; perturb the parameters slightly"
        )
    vecs_inv = np.linalg.inv(vecs)
    # Z_j[a, b] = V[a, j] V^-1[j, b], every j at once
    residues = vecs[:2].T[:, :, None] * vecs_inv[:, None, :2]
    return PoleExpansion(poles, residues)


def pole_expansion_lorentzian(config: ModelConfig) -> PoleExpansion:
    """Roots and matrix residues of det[zI - M - Sigma(z)] for Lorentzian leads.

    The analytically continued self-energy
    Sigma_l(z) = (Gamma_l d_l / 2) / (z - mu_l + i d_l) is exactly one damped
    pseudomode per lead, so the four poles and their residues are the
    eigenpairs of the 4x4 pseudomode generator (see _modes).
    """
    if config.spectral_kind is not SpectralKind.LORENTZIAN:
        raise ConfigError("pole expansion requires the pure Lorentzian spectrum")
    return _modes(config)


class _LeadColumns(NamedTuple):
    """The coupled leads' poles and pole columns, stacked over the leads
    (_lead_columns)."""

    leads: list  # indices of the coupled leads
    reservoirs: list  # their ReservoirParams
    gamma: np.ndarray  # (L,) their Gamma_l
    lams: np.ndarray  # (L, J) poles lams_j
    cols: np.ndarray  # (L, 2, J) column matrices C_l = [c_1 ... c_J]
    gaps: np.ndarray  # (L, J, J) lams_j - conj(lams_k)
    keep: np.ndarray  # (L, J, J) the pairs that carry weight

    def pair_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_l Gamma_l C_l W_l C_l^dag for pair weights W (L, J, J, ...),
        zero off the kept pairs: the Cauchy-matrix product of the closed
        forms, one 2x2 matrix per trailing index of W, stacked first."""
        return np.einsum("laj,ljk...,lbk->...ab", self.gamma[:, None, None] * self.cols, weights,
                         np.conj(self.cols))


def _lead_columns(poles, residues, config: ModelConfig, leads=(0, 1)) -> _LeadColumns:
    """The pole columns of each coupled lead, and the pole pairs that carry
    weight on it, for every lead in leads with Gamma_l > 0.

    Each closed form is a masked Cauchy-matrix product over these,
    sum_l Gamma_l C_l (W_l o keep_l) C_l^dag (_LeadColumns.pair_sum), with
    a pair weight W_l(lams_j, conj(lams_k)). In the wide band lams are the
    poles r_j and c_j = Z_j P_l, column l of Z_j. A Lorentzian lead is the wide
    band of its pseudomode q_l = mu_l - i d_l (Garraway, PRA 55, 2290
    (1997)): S(w) P_l d_l / (w - q_l) = sum_j c_j (1/(w - r_j) - 1/(w - q_l))
    with c_j = Z_j P_l d_l / (r_j - q_l), zero for a pole that rounds onto
    q_l. S(q_l) P_l = 0 makes the sum of the c_j vanish; q_l is kept as a
    last pole with column -sum_j c_j, masked unless rounding in a pole near
    q_l leaves weight on it. keep_jk holds where the largest entry of the
    pair's weight Gamma_l c_j c_k^dag, Gamma_l |c_j|_inf |c_k|_inf, is above
    1e-14 Gamma_l. A kept pair with lams_j = conj(lams_k) is an undamped
    mode that still couples to the lead, which raises SolverError. With no
    lead coupled every stack is empty.
    """
    r = np.asarray(poles, dtype=complex)
    leads = [lead for lead in leads if config.reservoirs[lead].gamma > 0.0]
    coupled = [config.reservoirs[lead] for lead in leads]
    cols = np.asarray(residues)[:, :, leads].transpose(2, 1, 0)  # (lead, dot, pole)
    lams = r[None].repeat(len(leads), axis=0)
    if config.spectral_kind is SpectralKind.LORENTZIAN:
        q = np.array([[res.mu - 1j * res.bandwidth] for res in coupled])
        gap = r - q
        scale = np.divide([[res.bandwidth] for res in coupled], gap,
                          out=np.zeros_like(gap), where=gap != 0.0)
        cols = cols * scale[:, None]
        cols = np.concatenate([cols, -cols.sum(axis=2, keepdims=True)], axis=2)
        lams = np.concatenate([lams, q], axis=1)
    gamma = np.array([res.gamma for res in coupled])
    size = abs(cols).max(axis=1)  # |c_j|_inf
    g = gamma[:, None, None]
    keep = g * size[:, :, None] * size[:, None, :] > 1e-14 * g
    gaps = lams[:, :, None] - lams.conj()[:, None, :]
    # the smallest kept |gap|, inf when no pair is kept
    if abs(gaps).min(initial=np.inf, where=keep) < 1e-12:
        raise SolverError(
            "effectively undamped mode still couples to a lead; the"
            " steady state is undefined"
        )
    return _LeadColumns(leads, coupled, gamma, lams, cols, gaps, keep)


def _require_damping(config: ModelConfig) -> None:
    """SolverError when no lead is coupled: nothing damps the dots, and no
    steady state exists."""
    if not any(res.gamma > 0.0 for res in config.reservoirs):
        raise SolverError("no damping: no lead is coupled, so the steady state is undefined")


def _steady_from_poles(poles, residues, config: ModelConfig) -> np.ndarray:
    """V^s = (1/2pi) sum_l Gamma_l C_l (N_l o keep_l) C_l^dag.

    C_l and keep_l are those of _lead_columns, a Lorentzian lead being the
    wide band of its pseudomode, and N_l is _pair_integrals on the lead's
    poles. With no lead coupled nothing damps the dots and SolverError is
    raised.
    """
    _require_damping(config)
    lc = _lead_columns(poles, residues, config)
    n = _pair_integrals(lc.lams, lc.keep, lc.gaps, [res.mu for res in lc.reservoirs],
                        [res.k_t for res in lc.reservoirs])
    v = hermitian_part(lc.pair_sum(n) / _TWO_PI)
    lo, hi = hermitian_eigs_e(entries2(v))
    if lo < EIGENVALUE_FLOOR or hi > EIGENVALUE_CEIL:
        raise InvariantViolation(
            f"steady fluctuation spectrum [{lo:.3e}, {hi:.3e}] leaves [0, 1]"
        )
    return v


def steady_state_fluctuation(
    expansion: PoleExpansion, config: ModelConfig
) -> np.ndarray:
    """V^s = int v(w) dw with v = S(w) J(w) nbar(w) S(w)^dag / (2 pi).

    Exact in closed form, with S(w) = sum_j Z_j / (w - r_j): the Lorentzian
    J_l = Gamma_l d_l^2 / ((w - q_l)(w - conj(q_l))), q_l = mu_l - i d_l, is
    the wide band of one pseudomode. S(q_l) P_l = 0, so
    S(w) P_l d_l / (w - q_l) = sum_j c_j / (w - r_j) with
    c_j = Z_j P_l d_l / (r_j - q_l) (q_l stays as one more pole only if
    rounding in the residues breaks that identity; see _lead_columns),
    and each term Gamma_l c_j c_k^dag of the integrand is a flat-band pair
    over r_j and conj(r_k) times the Fermi factor, whose integral is a
    difference of digammas (of logarithms at k_t = 0). Pole pairs (j, k)
    with no weight on lead l are masked out of the sum; a real pole pair
    r_j = conj(r_k) that keeps weight has no steady state and raises
    SolverError.
    """
    if config.spectral_kind is not SpectralKind.LORENTZIAN:
        raise ConfigError("the pole-expansion steady state requires the Lorentzian spectrum")
    return _steady_from_poles(expansion.poles, expansion.residues, config)


# ---------------------------------------------------------------------------
# Wide-band limit
# ---------------------------------------------------------------------------


def wbl_greens(config: ModelConfig, grid: TimeGrid) -> GreensSolution:
    """Wide-band-limit solution: U = exp(-(iM + Gamma/2) t), V by the
    frequency integral of the flat-spectrum closed form.

    V is the masked Cauchy-matrix product of the steady states
    (_LeadColumns.pair_sum) with one pair weight per time. With a = lam_j
    and b = conj(lam_k), pair (j, k) integrates
    (c0 - c1 e^{iwt} - c2 e^{-iwt}) nbar(w) / ((w - a)(w - b)) over w, which
    is c0 N_jk - c1 I_jk(t) - c2 conj(I_kj(t)) with I the thermal pair table
    (_thermal_pair_table). The integral is exact: on rows t < tau* = 1/k_T,
    the sharp sea's logarithms and exponential integrals plus the Fermi
    remainder on Gauss panels of width 2 k_T, with N_jk the table's slot
    0, which shares those panels, so that the pair's cancellation at small t
    survives; past tau*, the Matsubara closure and N_jk in closed form
    (_pair_integrals). The integrand, nbar(w) (1 - e^{i(w-a)t})
    (1 - e^{-i(w-b)t}) / ((w - a)(w - b)), has no pole at a or b, so only the
    Fermi poles and the phase limit a panel. This keeps V positive
    semidefinite to rounding, which a truncated frequency window cannot
    guarantee, and its cost flat in t_max at a fixed step count. Every
    lead's lams are the same poles, so leads that share (mu, k_T) share one
    table and one weight array over the union of their kept pairs and of the
    transposes, since conj(I_kj) is used.
    """
    if config.spectral_kind is not SpectralKind.WIDE_BAND:
        raise ConfigError("wbl_greens requires the wide-band spectral kind")
    modes = _modes(config)
    times = grid.times
    lc = _lead_columns(modes.poles, modes.residues, config)
    keys = [(res.mu, res.k_t) for res in lc.reservoirs]
    r, t = modes.poles, times[1:]
    gaps = r[:, None] - r.conj()
    c0 = 1.0 + np.exp(-1j * gaps[..., None] * t)
    c1 = np.exp(-1j * r[:, None, None] * t)
    c2 = np.exp(1j * r.conj()[:, None] * t)
    weights = np.empty(lc.keep.shape + t.shape, dtype=complex)
    for lead, res in enumerate(lc.reservoirs):
        shared = [other for other, key in enumerate(keys) if key == keys[lead]]
        if shared[0] < lead:
            weights[lead] = weights[shared[0]]
            continue
        pairs = np.any(lc.keep[shared] | lc.keep[shared].swapaxes(1, 2), axis=0)
        table = _thermal_pair_table(r, pairs, res, times, 2.0 * res.k_t)
        n_far = _pair_integrals(r[None], pairs[None], gaps[None], [res.mu], [res.k_t])[0]
        n_t = np.where(np.arange(1, times.size) < _near_rows(times, res.k_t), table[..., :1],
                       n_far[..., None])
        weights[lead] = c0 * n_t - c1 * table[..., 1:] - c2 * np.conj(table.swapaxes(0, 1)[..., 1:])
    v = np.zeros((len(times), 2, 2), dtype=complex)
    v[1:] = lc.pair_sum(np.where(lc.keep[..., None], weights, 0.0)) / _TWO_PI
    return GreensSolution(grid, modes.reconstruct(times), hermitian_part(v))


def wbl_steady_fluctuation(config: ModelConfig) -> np.ndarray:
    """t -> infinity limit of the wide-band fluctuation matrix.

    Exact in closed form from the effective-Hamiltonian modes
    U(t) = sum_j P_j exp(-i lam_j t): with a flat spectrum each term
    P_j Gamma_l P_k^dag of the integrand is Gamma_l over the poles lam_j
    and conj(lam_k) times the Fermi factor, whose integral is a difference
    of digammas (of logarithms at k_t = 0). Mode pairs with no weight on a
    lead are masked out of the sum, so an undamped mode on an uncoupled
    lead is allowed; one that keeps weight raises SolverError.
    """
    if config.spectral_kind is not SpectralKind.WIDE_BAND:
        raise ConfigError("wbl_steady_fluctuation requires the wide-band spectral kind")
    modes = _modes(config)
    return _steady_from_poles(modes.poles, modes.residues, config)


# ---------------------------------------------------------------------------
# Born-Markov limit
# ---------------------------------------------------------------------------


def _bm_stationary(config: ModelConfig):
    """The modes of M - i Gamma / 2 and the Hermitian X of bm_fluctuation.

    modes is None, and X zero, when no lead is both coupled and occupied.
    """
    if config.spectral_kind is not SpectralKind.WIDE_BAND:
        raise ConfigError("bm_fluctuation requires the wide-band spectral kind")
    occ = [
        fermi_occupation(config.system.eps1, config.left.mu, config.left.k_t),
        fermi_occupation(config.system.eps2, config.right.mu, config.right.k_t),
    ]
    x = np.zeros((2, 2), dtype=complex)
    # an empty lead is skipped before the undamped-mode guard can see it
    sources = [lead for lead, (nbar, res) in enumerate(zip(occ, config.reservoirs))
               if nbar * res.gamma != 0.0]
    if not sources:
        return None, x
    modes = _modes(config)
    lc = _lead_columns(modes.poles, modes.residues, config, sources)
    nbar = np.array([occ[lead] for lead in lc.leads])
    weights = np.divide(nbar[:, None, None], 1j * lc.gaps,
                        out=np.zeros_like(lc.gaps), where=lc.keep)
    return modes, hermitian_part(lc.pair_sum(weights))


def bm_fluctuation(config: ModelConfig, grid: TimeGrid):
    """Born-Markov fluctuation V_BM(t) and its stationary value.

    V_BM(t) = int_0^t U_WBL(s) nbar(eps, T) Gamma U_WBL(s)^dag ds solved in
    closed form through the Sylvester equation A X + X A^dag = nbar Gamma
    with A = iM + Gamma/2, giving V_BM(t) = X - U X U^dag exactly. With the
    poles r_j and residues Z_j of M - i Gamma / 2 (_modes), A = i(M - i Gamma/2)
    and X = sum_jk Z_j nbar Gamma Z_k^dag / (i (r_j - conj(r_k))), one
    masked Cauchy-matrix product per lead (_lead_columns): pairs with no
    weight on a lead are masked, and an undamped one that keeps weight
    raises SolverError.
    """
    modes, x = _bm_stationary(config)
    times = grid.times
    if modes is None:
        return np.zeros((len(times), 2, 2), dtype=complex), x
    u = modes.reconstruct(times)
    v = hermitian_part(x[None, :, :] - u @ x @ dagger(u))
    v[0] = 0.0
    return v, x
