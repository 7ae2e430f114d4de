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
    herm_err = np.max(np.abs(v - np.conj(np.transpose(v, (0, 2, 1)))))
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
    T_k = (dt^2/2)(mem_k + mem_{k-1}) for k >= 2, and U_0 only in F_t. As
    power series T(z) (U(z) - I) = -F(z), so U(z) = I - X(z) F(z) with
    X = T^-1 mod z^n, found by Newton doubling from X = T_0^-1:
    X <- X - X (T X - I) mod z^2m, O(n log n) in all (Brent & Kung,
    J. ACM 25, 581 (1978)). Newton corrects the rounding of earlier
    coefficients only through the residual T X - I; its near lags T_0 and
    T_1 are taken exactly, so that FFT rounding of order eps |T_1| does not
    build up along an undamped mode, and only the O(dt^2) memory lags go
    through the FFT product.
    """
    table = _memory_table(config, grid, include_noise=False)
    n = grid.n_steps
    dt = grid.dt
    mem = table.memory  # (n+1, 2) per-lead diagonal samples
    i_m = 1j * build_hamiltonian(config.system)
    minus_b = (dt / 2.0) * i_m - IDENTITY2  # -(I - (dt/2) iM)
    half = dt * dt / 2.0

    lags = np.zeros((n + 1, 2), dtype=complex)  # diagonals of T_k, k >= 2
    lags[2:] = half * (mem[2:] + mem[1:-1])
    # F_t: U_0 = I enters with trapezoid weight 1/2 at every lag, and with
    # the explicit half of the first step at t_1
    f = np.zeros((n + 1, 2, 2), dtype=complex)
    f[:, [0, 1], [0, 1]] = 0.5 * lags
    f[1] = minus_b + (half / 2.0) * np.diag(mem[1])
    t0 = IDENTITY2 + (dt / 2.0) * i_m + (half / 2.0) * np.diag(mem[0])
    t1 = minus_b + half * np.diag(mem[1] + 0.5 * mem[0])

    x = inv2(t0)[None]  # SolverError when the implicit step is singular
    while len(x) < n:
        m = len(x)
        size = min(2 * m, n)
        resid = np.zeros((size, 2, 2), dtype=complex)  # T X - I mod z^size
        resid[:m] = np.einsum("ab,mbc->mac", t0, x)
        resid[1 : m + 1] += np.einsum("ab,mbc->mac", t1, x)
        resid[2:] += _series_product(lags[2:size], x, size - 2)
        resid[0] -= IDENTITY2
        step = _series_product(x, resid, size)
        step[:m] -= x
        x = -step
    u = -_series_product(x, f, n + 1)
    u[0] = IDENTITY2
    return u


# (a.ndim, b.ndim) -> the einsum of two spectra; an ndim of 2 is a diagonal
_PRODUCT_SUBSCRIPTS = {
    (3, 3): "iks,kjs->ijs",
    (2, 3): "is,ijs->ijs",
    (3, 2): "ijs,js->ijs",
}


def _series_product(a: np.ndarray, b: np.ndarray, rows: int) -> np.ndarray:
    """Rows [0, rows) of the product a(z) b(z) of two 2x2 matrix power series,
    c[k] = sum_j a[j] @ b[k-j], for rows <= len(a) + len(b) - 1.

    One FFT, zero-padded to a length 2^i or 3 2^i past the full product, so
    that nothing wraps around. A diagonal series may be passed as its
    (len, 2) diagonals; it is transformed on those two channels alone and
    scales the rows (as a) or the columns (as b) of the other's spectrum.
    """
    length = len(a) + len(b) - 1
    size = min(1 << (length - 1).bit_length(), 3 << ((length - 1) // 3).bit_length())
    fa, fb = (np.fft.fft(np.ascontiguousarray(np.moveaxis(s, 0, -1)), size) for s in (a, b))
    c = np.einsum(_PRODUCT_SUBSCRIPTS[a.ndim, b.ndim], fa, fb)
    np.fft.ifft(c, out=c)
    return np.ascontiguousarray(c[..., :rows].transpose(2, 0, 1))


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

    # c[n] = sum_k U_k gtilde(t_{n-k}), the kernel a diagonal matrix series
    c = _series_product(u, g, len(u))

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
    # the generator's anti-Hermitian part is diagonal, so each width is the
    # Rayleigh quotient of its eigenvector: a sum of terms of one sign, as
    # accurate relative to itself as a small width needs, where eig fixes
    # Im r only to about eps |r|
    weight = np.abs(vecs) ** 2
    poles = poles.real + 1j * (np.diag(generator).imag @ weight) / weight.sum(axis=0)
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


def _weighted_pairs(poles, residues, config: ModelConfig, leads=(0, 1)):
    """The pole pairs that carry weight on each coupled lead, from one stack
    of the residues.

    Returns (lead, lams, jj, kk, theta) for every lead in leads with
    Gamma_l > 0: theta_jk = Gamma_l c_j c_k^dag for the pairs of poles
    lams_j, lams_k above 1e-14 Gamma_l. In the wide band lams are the poles
    r_j and c_j = Z_j P_l, column l of Z_j. A Lorentzian lead is the wide
    band of its pseudomode q_l = mu_l - i d_l (Garraway, PRA 55, 2290
    (1997)): S(w) P_l d_l / (w - q_l) = sum_j c_j (1/(w - r_j) - 1/(w - q_l))
    with c_j = Z_j P_l d_l / (r_j - q_l), zero for a pole that rounds onto
    q_l. S(q_l) P_l = 0 makes the sum of the c_j vanish; q_l is kept as a
    last pole with column -sum_j c_j, pruned unless rounding in a pole near
    q_l leaves weight on it. A kept pair with lams_j = conj(lams_k) is an
    undamped mode that still couples to the lead, which raises SolverError.
    With no lead coupled the list is empty.
    """
    r = np.asarray(poles, dtype=complex)
    leads = [lead for lead in leads if config.reservoirs[lead].gamma > 0.0]
    if not leads:
        return []
    coupled = [config.reservoirs[lead] for lead in leads]
    col = np.stack(residues)[:, :, leads].transpose(2, 0, 1)  # (lead, pole, dot)
    lams = np.broadcast_to(r, (len(leads), r.size))
    if config.spectral_kind is SpectralKind.LORENTZIAN:
        q = np.array([[res.mu - 1j * res.bandwidth] for res in coupled])
        gap = r - q
        d = np.array([[res.bandwidth] for res in coupled])
        col = col * np.divide(d, gap, out=np.zeros_like(gap), where=gap != 0.0)[..., None]
        col = np.concatenate([col, -col.sum(axis=1, keepdims=True)], axis=1)
        lams = np.hstack([lams, q])
    gamma = np.array([res.gamma for res in coupled])
    theta = (gamma[:, None, None, None, None] * col[:, :, None, :, None]
             * np.conj(col)[:, None, :, None, :])
    out = []
    for lead, lam, scale, th in zip(leads, lams, gamma, theta):
        jj, kk = np.nonzero(np.max(np.abs(th), axis=(2, 3)) > 1e-14 * scale)
        if jj.size and np.min(np.abs(lam[jj] - np.conj(lam[kk]))) < 1e-12:
            raise SolverError(
                "effectively undamped mode still couples to a lead; the"
                " steady state is undefined"
            )
        out.append((lead, lam, jj, kk, th[jj, kk]))
    return out


def _steady_from_poles(poles, residues, config: ModelConfig) -> np.ndarray:
    """V^s = (1/2pi) sum_l sum_jk theta_ljk N_l(lams_j, conj(lams_k)).

    theta_ljk and the poles lams are those of _weighted_pairs, a Lorentzian
    lead being the wide band of its pseudomode, and N_l is _pair_integrals.
    With no lead coupled nothing damps the dots and SolverError is raised.
    """
    pairs = _weighted_pairs(poles, residues, config)
    if not pairs:
        raise SolverError("no damping: no lead is coupled, so the steady state is undefined")
    v = np.zeros((2, 2), dtype=complex)
    for lead, lams, jj, kk, theta in pairs:
        res = config.reservoirs[lead]
        v += np.einsum("p,pab->ab", _pair_integrals(lams, jj, kk, res.mu, res.k_t), theta)
    v = v / _TWO_PI
    v = 0.5 * (v + dagger(v))
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
    rounding in the residues breaks that identity; see _weighted_pairs),
    and each term Gamma_l c_j c_k^dag of the integrand is a flat-band pair
    over r_j and conj(r_k) times the Fermi factor, whose integral is a
    difference of digammas (of logarithms at k_t = 0). Pole pairs (j, k)
    with no weight on lead l are skipped; a real pole pair r_j = conj(r_k)
    that keeps weight has no steady state and raises SolverError.
    """
    if config.spectral_kind is not SpectralKind.LORENTZIAN:
        raise ConfigError("the pole-expansion steady state requires the Lorentzian spectrum")
    return _steady_from_poles(expansion.poles, expansion.residues, config)


# ---------------------------------------------------------------------------
# Wide-band limit
# ---------------------------------------------------------------------------


def _wbl_lead_fluctuation(lams, jj, kk, theta, res, times):
    """One lead's contribution to V_WBL on the grid times (zero at t = 0),
    from its weighted pairs jj, kk, theta (_weighted_pairs).

    With a = lam_j and b = conj(lam_k), the pair integrates
    (c0 - c1 e^{iwt} - c2 e^{-iwt}) nbar(w) / ((w - a)(w - b)) over w, from
    the thermal N_jk and O_jk(t) of _thermal_pair_table. On rows
    t < tau* = 1/k_t the table's N_jk (its column 0) and O_jk(t) share
    their Fermi-remainder panels, so that the pair's cancellation at small
    t survives, and panels of width k_t / 2 suffice; past tau* N_jk is the
    digamma form of _pair_integrals, exact to rounding.
    """
    keep = list(zip(jj.tolist(), kk.tolist()))
    out = np.zeros((len(times), 2, 2), dtype=complex)
    if not keep:
        return out

    pair_set = set(keep)
    pair_set.update((k, j) for j, k in keep)  # conj(I_kj) is used
    pairs = sorted(pair_set)
    table = dict(zip(pairs, _thermal_pair_table(lams, pairs, res, times, res.k_t / 2.0)))
    t = times[1:]
    near = _near_rows(times, res.k_t) - 1  # rows of t before tau*
    n_far = _pair_integrals(lams, jj, kk, res.mu, res.k_t)
    for (j, k), theta_jk, n_jk in zip(keep, theta, n_far):
        a, b = lams[j], np.conj(lams[k])
        c0 = 1.0 + np.exp(1j * (b - a) * t)
        c1 = np.exp(-1j * a * t)
        c2 = np.exp(1j * b * t)
        n_t = np.full(t.size, table[j, k][0])
        n_t[near:] = n_jk
        i_jk = c0 * n_t - c1 * table[j, k][1:] - c2 * np.conj(table[k, j][1:])
        out[1:] += i_jk[:, None, None] * theta_jk
    return out / _TWO_PI


def wbl_greens(config: ModelConfig, grid: TimeGrid) -> GreensSolution:
    """Wide-band-limit solution: U = exp(-(iM + Gamma/2) t), V by the
    frequency integral of the flat-spectrum closed form.

    The frequency integral is taken exactly. On rows t < tau* = 1/k_T its
    sharp-Fermi-sea part reduces to logarithms and exponential integrals of
    the effective-mode poles, and the finite-temperature remainder is
    exponentially confined to a few k_T around each chemical potential,
    where Gauss panels of width k_T / 2 resolve it, summed by the kernel
    tables' factored Fourier sum. Past tau* the whole thermal integral
    closes on the conjugate mode pole and the Matsubara poles. This keeps V
    positive semidefinite to rounding, which a truncated frequency window
    cannot guarantee, and its cost flat in t_max at a fixed step count.
    """
    if config.spectral_kind is not SpectralKind.WIDE_BAND:
        raise ConfigError("wbl_greens requires the wide-band spectral kind")
    modes = _modes(config)
    times = grid.times
    u = modes.reconstruct(times)
    u[0] = IDENTITY2  # exact; the projector sum carries rounding noise

    v = np.zeros((len(times), 2, 2), dtype=complex)
    for lead, lams, jj, kk, theta in _weighted_pairs(modes.poles, modes.residues, config):
        v += _wbl_lead_fluctuation(lams, jj, kk, theta, config.reservoirs[lead], times)
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    return GreensSolution(grid, u, v)


def wbl_steady_fluctuation(config: ModelConfig) -> np.ndarray:
    """t -> infinity limit of the wide-band fluctuation matrix.

    Exact in closed form from the effective-Hamiltonian modes
    U(t) = sum_j P_j exp(-i lam_j t): with a flat spectrum each term
    P_j Gamma_l P_k^dag of the integrand is Gamma_l over the poles lam_j
    and conj(lam_k) times the Fermi factor, whose integral is a difference
    of digammas (of logarithms at k_t = 0). Mode pairs with no weight on a
    lead are skipped, so an undamped mode on an uncoupled lead is allowed;
    one that keeps weight raises SolverError.
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
    for lead, r, jj, kk, theta in _weighted_pairs(modes.poles, modes.residues, config, sources):
        gaps = 1j * (r[jj] - np.conj(r[kk]))
        x += occ[lead] * np.einsum("p,pab->ab", 1.0 / gaps, theta)
    return modes, 0.5 * (x + dagger(x))


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
    modes, x = _bm_stationary(config)
    times = grid.times
    if modes is None:
        return np.zeros((len(times), 2, 2), dtype=complex), x
    u = modes.reconstruct(times)
    u_dag = np.conj(np.transpose(u, (0, 2, 1)))
    v = x[None, :, :] - u @ x @ u_dag
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    v[0] = 0.0
    return v, x
