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

import numpy as np
from scipy import special

from .model import (
    IDENTITY2,
    ConfigError,
    InvariantViolation,
    ModelConfig,
    SolverError,
    SpectralKind,
    build_hamiltonian,
    dagger,
    gamma_matrix,
    inv2,
)
from .spectral import (
    _fermi_window,
    _fourier_sum,
    _osc_cap,
    _panel_nodes,
    build_kernel_table,
    fermi_occupation,
)

HERMITICITY_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8
EIGENVALUE_CEIL = 1.0 + 1e-8
SINGULAR_VALUE_CEIL = 1.0 + 1e-6
RESIDUE_SUM_TOL = 1e-8

_TWO_PI = 2.0 * math.pi
# steps per block of the Volterra solve: lags below it are taken by the
# block's own matrices, the rest by FFT levels; a power of two
_DIRECT_LAGS = 64


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
    herm_err = np.max(np.abs(v - np.conj(np.transpose(v, (0, 2, 1)))))
    if herm_err > HERMITICITY_TOL:
        raise InvariantViolation(f"V(t) not Hermitian: max deviation {herm_err:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (v + np.conj(np.transpose(v, (0, 2, 1)))))
    if eigs.min() < EIGENVALUE_FLOOR or eigs.max() > EIGENVALUE_CEIL:
        raise InvariantViolation(
            f"V(t) spectrum [{eigs.min():.3e}, {eigs.max():.3e}] leaves [0, 1]"
        )
    svals = np.linalg.svd(u, compute_uv=False)
    if svals.max() > SINGULAR_VALUE_CEIL:
        raise InvariantViolation(
            f"U(t) singular value {svals.max():.8f} exceeds contraction bound"
        )
    return svals[:, 0]


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
    """U(t) = sum_j Z_j exp(-i r_j t) with all poles in the lower half plane."""

    poles: list
    residues: list

    def __post_init__(self):
        for r in self.poles:
            if r.imag > 1e-12:
                raise InvariantViolation(f"pole {r} lies in the upper half plane")
        total = sum(self.residues)
        if np.max(np.abs(total - IDENTITY2)) > RESIDUE_SUM_TOL:
            raise InvariantViolation(
                f"residues sum to {total}, expected identity"
            )

    def reconstruct(self, times) -> np.ndarray:
        """Evaluate sum_j Z_j exp(-i r_j t) on an array of times."""
        t = np.asarray(times, dtype=float)
        phases = np.exp(-1j * np.outer(t, self.poles))
        return np.einsum("tj,jab->tab", phases, np.stack(self.residues))


def _memory_table(config: ModelConfig, grid: TimeGrid, include_noise):
    if config.spectral_kind is SpectralKind.WIDE_BAND:
        raise ConfigError(
            "the wide-band memory kernel is a delta function; use wbl_greens"
        )
    return build_kernel_table(config, grid.times, include_noise=include_noise)


def solve_dyson(config: ModelConfig, grid: TimeGrid) -> np.ndarray:
    """Propagate U(t) through the memory-kernel Volterra equation.

    Product-integration trapezoidal rule, implicit in the newest value.
    Second order in dt and exactly unitary (Cayley form) when the coupling
    vanishes.

    Over all steps the rule is one block lower-triangular Toeplitz system
    sum_k T_k U_{t-k} = -F_t in U_1..U_n, with 2x2 blocks
    T_0 = I + (dt/2) iM + (dt^2/4) mem_0,
    T_1 = -(I - (dt/2) iM) + (dt^2/2)(mem_1 + mem_0/2), the diagonal
    T_k = (dt^2/2)(mem_k + mem_{k-1}) for k >= 2, and U_0 only in F_t. It
    is solved L = _DIRECT_LAGS steps at a time with one precomputed inverse
    of the in-block triangle: U_block = -T^-1 (F + far) - T^-1 N U_prev,
    where N holds the lags below L that reach into the previous block.
    The lags from L on (far) are the blocked convolution of Hairer, Lubich
    & Schlichte, SIAM J. Sci. Stat. Comput. 6, 532 (1985): lags in
    [2^k, 2^(k+1)) from each aligned block of 2^k past values join the
    later blocks' sums by one FFT convolution once the block is complete.
    Every (value, lag) pair is counted once, in O(n log^2 n) for any
    tabulated kernel.
    """
    table = _memory_table(config, grid, include_noise=False)
    n = grid.n_steps
    dt = grid.dt
    size = _DIRECT_LAGS
    blocks = -(-n // size)
    # lags past n reach no grid point; zeros keep the first triangle whole
    mem = np.zeros((max(n + 1, size + 1), 2), dtype=complex)
    mem[: n + 1] = table.memory  # per-lead diagonal samples
    i_m = 1j * build_hamiltonian(config.system)
    minus_b = (dt / 2.0) * i_m - IDENTITY2  # -(I - (dt/2) iM)
    half = dt * dt / 2.0

    w = np.zeros_like(mem)  # diagonals of T_k, k >= 2
    w[1:] = half * (mem[1:] + mem[:-1])
    lags = w[: size + 1, :, None] * IDENTITY2  # T_0..T_L
    lags[0] = IDENTITY2 + (dt / 2.0) * i_m + (half / 2.0) * np.diag(mem[0])
    lags[1] = minus_b + half * np.diag(mem[1] + 0.5 * mem[0])

    # F_t: U_0 = I enters with trapezoid weight 1/2 at every lag, and with
    # the explicit half of the first step at t_1
    far = np.zeros((blocks * size + 1, 2, 2), dtype=complex)
    rows = min(len(far), len(w))
    far[2:rows, [0, 1], [0, 1]] = 0.5 * w[2:rows]
    far[1] = minus_b + (half / 2.0) * np.diag(mem[1])
    # the full T_1 never rides the diagonal FFT levels: at L = 1 it is a
    # near lag
    w[:2] = 0.0
    near_lags = max(size, 2)

    # the in-block triangle T[p, q] = T_{p-q} is block Toeplitz, and so is
    # its inverse: column X_p = -T_0^-1 sum_{r=1}^p T_r X_{p-r}. Every
    # block applies the same inverse, so its rounding would add up over the
    # blocks; the columns are formed in extended precision.
    inv2(lags[0])  # SolverError when the implicit step is singular
    ext = lags[:size].astype(np.clongdouble)
    (a, b), (c, d) = ext[0]
    col = np.empty_like(ext)
    col[0] = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    for p in range(1, size):
        col[p] = -col[0] @ np.einsum("rab,rbc->ac", ext[p:0:-1], col[:p])
    col = col.astype(complex)
    # N[p, q] = T_{L+p-q} from position q of the previous block while that
    # lag is below near_lags
    pos = np.arange(size)
    gap = pos[:, None] - pos[None, :]
    zero = np.zeros((2, 2), dtype=complex)
    tri_inv = np.where((gap >= 0)[..., None, None], col[np.maximum(gap, 0)], zero)
    back = size + gap
    reach = (back < near_lags)[..., None, None]
    near = np.where(reach, lags[np.minimum(back, near_lags - 1)], zero)
    tri_inv = tri_inv.transpose(0, 2, 1, 3).reshape(2 * size, 2 * size)
    near = near.transpose(0, 2, 1, 3).reshape(2 * size, 2 * size)
    solver = -np.hstack([tri_inv, tri_inv @ near])

    u = np.empty_like(far)
    u[0] = IDENTITY2
    prev = np.zeros((2 * size, 2), dtype=complex)
    for start in range(1, n + 1, size):
        done = start + size - 1
        prev = solver @ np.concatenate([far[start : done + 1].reshape(-1, 2), prev])
        u[start : done + 1] = prev.reshape(size, 2, 2)
        level = size
        while done < n and done % level == 0:
            # U_lo..U_done at lags [level, 2 level) reach t_{done+1} on
            lo = done - level + 1
            conv = _causal_convolution(
                u[lo : done + 1].transpose(0, 2, 1), w[level : 2 * level]
            ).transpose(0, 2, 1)[: len(far) - done - 1]
            far[done + 1 : done + 1 + len(conv)] += conv
            level *= 2
    return u[: n + 1]


def _causal_convolution(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """c[n, a, b] = sum_k u[k, a, b] g[n-k, b] for every n < len(u) + len(g) - 1.

    The full linear convolution by FFT, zero-padded past its length so
    nothing wraps around.
    """
    rows = len(u) + len(g) - 1
    size = 1 << (rows - 1).bit_length()
    spectrum = np.fft.fft(u, size, axis=0) * np.fft.fft(g, size, axis=0)[:, None, :]
    return np.fft.ifft(spectrum, axis=0)[:rows]


def compute_fluctuation(u_seq, config: ModelConfig, grid: TimeGrid) -> np.ndarray:
    """Assemble V(t) = int int U(t-s1) gtilde(s1-s2) U(t-s2)^dag ds1 ds2.

    Trapezoidal double sum on the grid, evaluated for every grid time at
    once: the flat-weight core follows a cumulative recursion fed by causal
    FFT convolutions, and the trapezoid end corrections are added in closed
    form. The discrete quadratic form inherits positivity from the noise
    kernel, so V stays positive semidefinite to rounding.
    """
    table = _memory_table(config, grid, include_noise=True)
    g = table.noise  # (n+1, 2), diagonal kernel samples at lags >= 0
    u = np.asarray(u_seq, dtype=complex)
    dt = grid.dt

    # c[n] = sum_k U_k gtilde(t_{n-k}), per diagonal component of the kernel
    c = _causal_convolution(u, g)[: len(u)]

    u_dag = np.conj(np.transpose(u, (0, 2, 1)))
    # e[n] = gtilde(t_n) U_n^dag   (rows scaled by the kernel)
    e = g[:, :, None] * u_dag
    p = np.cumsum(e, axis=0)  # P_n = sum_{l<=n} gtilde(t_l) U_l^dag

    cu = np.einsum("nab,ncb->nac", c, np.conj(u))  # C_n U_n^dag
    cu_dag = np.conj(np.transpose(cu, (0, 2, 1)))
    ugu = np.einsum("nab,b,ncb->nac", u, g[0], np.conj(u))  # U_n gtilde(0) U_n^dag
    core = np.cumsum(cu + cu_dag - ugu, axis=0)

    e_dag = np.conj(np.transpose(e, (0, 2, 1)))
    p_dag = np.conj(np.transpose(p, (0, 2, 1)))
    corner = np.diag(g[0])[None, :, :] + e + e_dag + ugu

    v = dt * dt * (core - 0.5 * (p + p_dag + cu + cu_dag) + 0.25 * corner)
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    v[0] = 0.0
    return v


def solve(config: ModelConfig, grid: TimeGrid) -> GreensSolution:
    """Full (U, V) solution dispatched on the spectral kind."""
    if config.spectral_kind is SpectralKind.WIDE_BAND:
        return wbl_greens(config, grid)
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
        leads = config.reservoirs
        coupling = np.diag([math.sqrt(r.gamma * r.bandwidth / 2.0) for r in leads])
        generator = np.block(
            [[m_mat, coupling],
             [coupling, np.diag([r.mu - 1j * r.bandwidth for r in leads])]]
        )
    poles, vecs = np.linalg.eig(generator)
    if np.linalg.cond(vecs) > 1e8:
        raise SolverError(
            "defective pole configuration; perturb the parameters slightly"
        )
    vecs_inv = np.linalg.inv(vecs)
    residues = [np.outer(vecs[:2, j], vecs_inv[j, :2]) for j in range(len(poles))]
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


def _fermi_transform(p, mu, k_t, upper):
    """T(p) with int nbar(w) / (w - p) dw = T(p) + C, C independent of p.

    upper selects the branch for poles from the upper half plane.
    """
    if k_t == 0.0:
        return np.log(mu - p) + (1j * math.pi if upper else -1j * math.pi)
    x = (p - mu) / (2j * math.pi * k_t)
    if upper:
        return special.psi(0.5 + x) + 1j * math.pi
    return special.psi(0.5 - x)


def _weighted_pairs(poles, residues, res, lead):
    """Pole pairs (j, k) that carry weight on one lead, and their weights.

    Returns the index arrays jj, kk and theta_jk = Gamma_l Z_j P_l Z_k^dag,
    the outer product of column l of Z_j and Z_k, for every pair above
    1e-14 Gamma_l. A kept pair with r_j = conj(r_k) is an undamped mode that
    still couples to the lead, which raises SolverError.
    """
    r = np.asarray(poles, dtype=complex)
    col = np.stack(residues)[:, :, lead]
    theta = res.gamma * col[:, None, :, None] * np.conj(col)[None, :, None, :]
    jj, kk = np.nonzero(np.max(np.abs(theta), axis=(2, 3)) > 1e-14 * res.gamma)
    if jj.size and np.min(np.abs(r[jj] - np.conj(r[kk]))) < 1e-12:
        raise SolverError(
            "effectively undamped mode still couples to a lead; the"
            " steady state is undefined"
        )
    return jj, kk, theta[jj, kk]


def _steady_from_poles(poles, residues, config: ModelConfig) -> np.ndarray:
    """V^s = (1/2pi) sum_l sum_jk Z_j P_l Z_k^dag int R_ljk(w) nbar_l(w) dw.

    R_ljk is rational with simple poles r_j, conj(r_k) (and mu_l -/+ i d_l
    for a Lorentzian lead) and decays at least like 1/w^2, so its
    partial-fraction coefficients c_m sum to zero and the integral is
    sum_m c_m T_l(p_m) exactly; C of _fermi_transform cancels.
    """
    r = np.asarray(poles, dtype=complex)
    lorentzian = config.spectral_kind is SpectralKind.LORENTZIAN
    v = np.zeros((2, 2), dtype=complex)
    for lead, res in enumerate(config.reservoirs):
        jj, kk, theta = _weighted_pairs(r, residues, res, lead)
        if jj.size == 0:
            continue
        a, b = r[jj], np.conj(r[kk])
        lower, upper, numer = [a], [b], 1.0
        if lorentzian:
            d = res.bandwidth
            lower.append(np.full(a.shape, res.mu - 1j * d))
            upper.append(np.full(a.shape, res.mu + 1j * d))
            numer = d * d
        lower, upper = np.stack(lower), np.stack(upper)
        p = np.concatenate([lower, upper])  # (poles of R, kept pairs)
        t = np.concatenate(
            [_fermi_transform(lower, res.mu, res.k_t, False),
             _fermi_transform(upper, res.mu, res.k_t, True)]
        )
        gaps = p[:, None, :] - p[None, :, :]
        diag = np.arange(len(p))
        gaps[diag, diag] = 1.0
        c = numer / np.prod(gaps, axis=1)
        v += np.einsum("p,pab->ab", np.sum(c * t, axis=0), theta)
    v = v / _TWO_PI
    v = 0.5 * (v + dagger(v))
    eigs = np.linalg.eigvalsh(v)
    if eigs.min() < EIGENVALUE_FLOOR or eigs.max() > EIGENVALUE_CEIL:
        raise InvariantViolation(
            f"steady fluctuation spectrum [{eigs.min():.3e}, {eigs.max():.3e}] leaves [0, 1]"
        )
    return v


def steady_state_fluctuation(
    expansion: PoleExpansion, config: ModelConfig
) -> np.ndarray:
    """V^s = int v(w) dw with v = S(w) J(w) nbar(w) S(w)^dag / (2 pi).

    Exact in closed form: with S(w) = sum_j Z_j / (w - r_j) and the
    Lorentzian J_l = Gamma_l d_l^2 / ((w - mu_l)^2 + d_l^2), each term
    Z_j P_l Z_k^dag of the integrand is a rational function with poles r_j,
    conj(r_k), mu_l -/+ i d_l times the Fermi factor, and the integral of
    each of its partial fractions is a digamma (a logarithm at k_t = 0).
    Pole pairs (j, k) with no weight on lead l are skipped; a real pole
    pair r_j = conj(r_k) that keeps weight has no steady state and raises
    SolverError.
    """
    if config.spectral_kind is not SpectralKind.LORENTZIAN:
        raise ConfigError("the pole-expansion steady state requires the Lorentzian spectrum")
    return _steady_from_poles(expansion.poles, expansion.residues, config)


# ---------------------------------------------------------------------------
# Wide-band limit
# ---------------------------------------------------------------------------


def _scaled_exp1(w):
    """exp(w) E1(w) for complex w, stable at large |w|.

    Direct evaluation below |w| = 50; the 2F0-style asymptotic tail above,
    where scipy's exp1 would overflow for Re w << 0.
    """
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)
    small = np.abs(w) < 50.0
    ws = w[small]
    out[small] = np.exp(ws) * special.exp1(ws)
    wl = w[~small]
    if wl.size:
        acc = np.zeros_like(wl)
        term = np.ones_like(wl)
        for k in range(1, 26):
            term = term * (-k) / wl
            acc = acc + term
        out[~small] = (1.0 + acc) / wl
    return out


def _halfline_phase_integral(lam, mu, times):
    """E(lam; t) = int_{-inf}^{mu} exp(i w t) / (w - lam) dw for t > 0.

    Written through the scaled exponential integral so the result stays
    bounded at large t |mu - lam|. For poles in the upper half plane the
    principal branch must be corrected by the 2 pi i residue jump once the
    E1 argument crosses its cut; the region rule below was pinned against
    high-precision quadrature.
    """
    t = np.asarray(times, dtype=float)
    zeta = mu - lam
    w = -1j * t * zeta
    if abs(zeta) == 0.0:
        raise SolverError("half-line integral evaluated at its singular point")
    # keep the from-above boundary value when the argument lands on the cut
    on_cut = (np.abs(w.imag) < 1e-300) & (w.real < 0.0)
    if np.any(on_cut):
        w = np.where(on_cut, w + 1e-300j, w)
    val = -np.exp(1j * mu * t) * _scaled_exp1(w)
    if lam.imag > 0.0 and zeta.real > 0.0:
        # the cut of E1 was crossed while continuing from w -> -i inf
        val = val + _TWO_PI * 1j * np.exp(1j * lam * t)
    return val


def _halfline_pair_integrals(lams, mu, times, pairs):
    """N_jk and O_jk(t) building blocks of the zero-temperature backbone.

    N_jk  = int_{-inf}^{mu} dw / ((w - lam_j)(w - conj(lam_k)))
    O_jk  = int_{-inf}^{mu} exp(i w t) dw / ((w - lam_j)(w - conj(lam_k)))

    Evaluated only for the requested (j, k) pairs: those _weighted_pairs
    kept, whose |lam_j - conj(lam_k)| it bounded away from 0, and their
    transposes, which share that gap. Pruned pairs may involve an undamped
    mode whose pair integral is singular but carries no weight.
    """
    nt = len(times)
    n_jk = np.zeros((2, 2), dtype=complex)
    o_jk = np.zeros((2, 2, nt), dtype=complex)
    e_lo, e_hi = {}, {}
    for j, k in pairs:
        a, b = lams[j], np.conj(lams[k])
        denom = a - b
        n_jk[j, k] = (np.log(mu - a) - np.log(mu - b) - _TWO_PI * 1j) / denom
        if j not in e_lo:
            e_lo[j] = _halfline_phase_integral(lams[j], mu, times)
        if k not in e_hi:
            e_hi[k] = _halfline_phase_integral(np.conj(lams[k]), mu, times)
        o_jk[j, k] = (e_lo[j] - e_hi[k]) / denom
    return n_jk, o_jk


def _wbl_lead_fluctuation(lams, residues, res, lead, times):
    """One lead's contribution to V_WBL on the grid times (zero at t = 0).

    At k_t > 0 the Fermi remainder c_w = (nbar(w) - step(mu - w)) dw on the
    panel nodes enters the backbone exactly: with a = lam_j, b = conj(lam_k),
    A_jk = sum_w c_w / ((w - a)(w - b)) joins N_jk and
    F_jk(t) = sum_w c_w e^{iwt} / ((w - a)(w - b)) joins O_jk(t).
    """
    jj, kk, theta = _weighted_pairs(lams, residues, res, lead)
    keep = list(zip(jj.tolist(), kk.tolist()))
    out = np.zeros((len(times), 2, 2), dtype=complex)
    if not keep:
        return out

    pair_set = set(keep)
    pair_set.update((k, j) for j, k in keep)  # conj(o_jk[k, j]) is used
    pairs = sorted(pair_set)
    t = times[1:]
    n_jk, o_jk = _halfline_pair_integrals(lams, res.mu, t, pairs)
    if res.k_t > 0.0:
        cap = min(res.k_t / 2.0, _osc_cap(float(times[-1])))
        omega, coef = _panel_nodes(_fermi_window(res.mu, res.k_t, cap))
        coef *= fermi_occupation(omega, res.mu, res.k_t) - (omega < res.mu)
        # rows hold conj(c_w / ((w - a)(w - b))), so the sum gives conj(F_jk);
        # built in place, the stack is the only (pairs x nodes) array
        stack = np.empty((len(pairs), omega.size), dtype=complex)
        for row, (j, k) in zip(stack, pairs):
            np.subtract(omega, np.conj(lams[j]), out=row)
            np.divide(coef, row, out=row)
            row /= omega - lams[k]
        f = np.conj(_fourier_sum(omega, stack.T, times))  # A_jk = F_jk(0)
        for col, (j, k) in enumerate(pairs):
            n_jk[j, k] += f[0, col]
            o_jk[j, k] += f[1:, col]

    for (j, k), theta_jk in zip(keep, theta):
        a, b = lams[j], np.conj(lams[k])
        c0 = 1.0 + np.exp(1j * (b - a) * t)
        c1 = np.exp(-1j * a * t)
        c2 = np.exp(1j * b * t)
        i_jk = c0 * n_jk[j, k] - c1 * o_jk[j, k] - c2 * np.conj(o_jk[k, j])
        out[1:] += i_jk[:, None, None] * theta_jk
    return out / _TWO_PI


def wbl_greens(config: ModelConfig, grid: TimeGrid) -> GreensSolution:
    """Wide-band-limit solution: U = exp(-(iM + Gamma/2) t), V by the
    frequency integral of the flat-spectrum closed form.

    The frequency integral is taken exactly: its sharp-Fermi-sea part
    reduces to logarithms and exponential integrals of the effective-mode
    poles, and the finite-temperature remainder is exponentially confined
    to a few k_T around each chemical potential where fixed Gauss panels
    resolve it, summed by the kernel tables' factored Fourier sum. This
    keeps V positive semidefinite to rounding, which a truncated frequency
    window cannot guarantee.
    """
    if config.spectral_kind is not SpectralKind.WIDE_BAND:
        raise ConfigError("wbl_greens requires the wide-band spectral kind")
    modes = _modes(config)
    times = grid.times
    u = modes.reconstruct(times)
    u[0] = IDENTITY2  # exact; the projector sum carries rounding noise

    v = np.zeros((len(times), 2, 2), dtype=complex)
    for idx, res in enumerate(config.reservoirs):
        if res.gamma == 0.0:
            continue
        v += _wbl_lead_fluctuation(modes.poles, modes.residues, res, idx, times)
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    return GreensSolution(grid, u, v)


def wbl_steady_fluctuation(config: ModelConfig) -> np.ndarray:
    """t -> infinity limit of the wide-band fluctuation matrix.

    Exact in closed form from the effective-Hamiltonian modes
    U(t) = sum_j P_j exp(-i lam_j t): with a flat spectrum each term
    P_j Gamma_l P_k^dag of the integrand is Gamma_l over the poles lam_j
    and conj(lam_k) times the Fermi factor, and the integral of each of its
    partial fractions is a digamma (a logarithm at k_t = 0). Mode pairs
    with no weight on a lead are skipped, so an undamped mode on an
    uncoupled lead is allowed; one that keeps weight raises SolverError.
    """
    if config.spectral_kind is not SpectralKind.WIDE_BAND:
        raise ConfigError("wbl_steady_fluctuation requires the wide-band spectral kind")
    if not any(res.gamma for res in config.reservoirs):
        raise SolverError("no damping: the wide-band steady state is undefined")
    modes = _modes(config)
    return _steady_from_poles(modes.poles, modes.residues, config)


# ---------------------------------------------------------------------------
# Born-Markov limit
# ---------------------------------------------------------------------------


def bm_fluctuation(config: ModelConfig, grid: TimeGrid):
    """Born-Markov fluctuation V_BM(t) and its stationary value.

    V_BM(t) = int_0^t U_WBL(s) nbar(eps, T) Gamma U_WBL(s)^dag ds solved in
    closed form through the Sylvester equation A X + X A^dag = nbar Gamma
    with A = iM + Gamma/2, giving V_BM(t) = X - U X U^dag exactly. With the
    poles r_j and residues Z_j of M - i Gamma / 2 (_modes), A = i(M - i Gamma/2)
    and X = sum_jk Z_j nbar Gamma Z_k^dag / (i (r_j - conj(r_k))); pairs with
    no weight on a lead are skipped, and an undamped one that keeps weight
    raises SolverError.
    """
    if config.spectral_kind is not SpectralKind.WIDE_BAND:
        raise ConfigError("bm_fluctuation requires the wide-band spectral kind")
    occ = [
        fermi_occupation(config.system.eps1, config.left.mu, config.left.k_t),
        fermi_occupation(config.system.eps2, config.right.mu, config.right.k_t),
    ]
    times = grid.times
    if not any(nbar * res.gamma for nbar, res in zip(occ, config.reservoirs)):
        zeros = np.zeros((len(times), 2, 2), dtype=complex)
        return zeros, np.zeros((2, 2), dtype=complex)

    modes = _modes(config)
    r = np.asarray(modes.poles, dtype=complex)
    x = np.zeros((2, 2), dtype=complex)
    for lead, (nbar, res) in enumerate(zip(occ, config.reservoirs)):
        if nbar * res.gamma == 0.0:
            continue
        jj, kk, theta = _weighted_pairs(r, modes.residues, res, lead)
        gaps = 1j * (r[jj] - np.conj(r[kk]))
        x += nbar * np.einsum("p,pab->ab", 1.0 / gaps, theta)
    u = modes.reconstruct(times)
    u_dag = np.conj(np.transpose(u, (0, 2, 1)))
    v = x[None, :, :] - u @ x @ u_dag
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    v[0] = 0.0
    x = 0.5 * (x + dagger(x))
    return v, x
