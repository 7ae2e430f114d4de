"""Reservoir spectral densities, Fermi occupations, self-energies, kernels,
and the special functions their closed forms need (digamma, e^w E1(w)).

Every reservoir couples diagonally to its own mode, so the spectral
density, the real self-energy and the two memory kernels are all 2x2
diagonal matrices.  Energies are in units of Gamma, times in 1/Gamma.
One thermal pole-pair table, _thermal_pair_table, takes every integral of
nbar(w) e^{iwt} over a pair of poles, on the pairs a (J, J) mask keeps: the
wide band's V and a Lorentzian lead's noise kernel (a 1x1 mask) read it.
A finite-cutoff lead takes both kernels from one panel node set over its
band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ModelConfig, ReservoirParams, SolverError, SpectralKind

GL_ORDER = 10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
_TWO_PI = 2.0 * math.pi

# Fermi tails are dead beyond this many k_t from mu.
_FERMI_RANGE = 45.0


def fermi_occupation(omega, mu: float, k_t: float):
    """Mean occupation of a reservoir level at energy omega.

    k_t = 0 gives the sharp step (value 1/2 exactly at omega = mu).
    Accepts scalars or arrays and preserves the input shape. At k_t > 0 a
    complex omega gives the continuation 1 / (e^x + 1), x = (omega - mu) / k_t,
    with Re x clipped to +/-700 so that nothing overflows.
    """
    w = np.asarray(omega)
    w = w if np.iscomplexobj(w) else w.astype(float)
    if k_t == 0.0:
        if np.iscomplexobj(w):
            raise ValueError("the sharp Fermi step takes real energies only")
        out = np.where(w < mu, 1.0, np.where(w > mu, 0.0, 0.5))
    else:
        x = np.array((w - mu) / k_t)
        np.clip(x.real, -700.0, 700.0, out=x.real)
        out = 1.0 / (np.exp(x) + 1.0)
    if np.ndim(omega) == 0:
        return out.item()
    return out


def lead_density(res: ReservoirParams, kind: SpectralKind, omega):
    """Scalar spectral density J_l(omega) of one lead (vectorized)."""
    w = np.asarray(omega, dtype=float)
    if kind is SpectralKind.WIDE_BAND:
        j = np.full(w.shape, res.gamma)
    else:
        x = w - res.mu
        d = res.bandwidth
        j = res.gamma * d * d / (x * x + d * d)
        if kind is SpectralKind.CUTOFF_LORENTZIAN:
            j = np.where(np.abs(x) <= res.cutoff, j, 0.0)
    if np.ndim(omega) == 0:
        return float(j)
    return j


def lead_self_energy_real(res: ReservoirParams, kind: SpectralKind, omega):
    """Real (level-shift) part of one lead's retarded self-energy.

    For the cutoff-Lorentzian shape the closed form is only valid outside
    the band; in-band evaluation is rejected.
    """
    w = np.asarray(omega, dtype=float)
    x = w - res.mu
    d = res.bandwidth
    cut = res.cutoff
    if kind is SpectralKind.WIDE_BAND:
        out = np.zeros(w.shape)
    elif kind is SpectralKind.LORENTZIAN:
        out = res.gamma * d * x / (2.0 * (d * d + x * x))
    else:
        if np.any(np.abs(x) <= cut):
            raise ConfigError(
                "real self-energy of a cutoff-Lorentzian lead is only "
                "available outside the band |omega - mu| > cutoff")
        j_env = res.gamma * d * d / (x * x + d * d)
        out = j_env / (2.0 * np.pi) * (
            np.log((x + cut) / (x - cut)) + 2.0 * x / d * math.atan(cut / d))
    if np.ndim(omega) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# special functions: digamma and the scaled exponential integral

# Bernoulli numbers B_2, B_4, ..., B_16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
# psi(z) = psi(z + N) - sum_{k<N} 1/(z + k): past |z + N| >= N + 1/2 = 16.5 the
# Stirling series' next term, B_14 / (14 w^14), is below 1e-17
_PSI_SHIFT = np.arange(16.0)
_STIRLING = np.array([b / (2 * n) for n, b in enumerate(_BERNOULLI[:6], 1)])
_STIRLING_POWERS = np.arange(1, 7)
_EULER_GAMMA = 0.5772156649015329
# Ein(w) = sum_{k>=1} (-1)^(k+1) w^k / (k k!), highest order first; a call
# sums the lowest 2.5 max|w| + 20 terms, 145 at the series' limit |w| = 50
_EIN = [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(145, 0, -1)] + [0.0]
# depth of the continued fraction, 3.5e-16 relative where |w| + Re w >= 2.5
_CF_DEPTH = 80


def _digamma(z):
    """psi(z) for complex z with Re z >= 1/2, within 1e-15 max(1, |psi|).

    Shifted by N = 16, psi(z) = psi(z + N) - sum_{k<N} 1/(z + k), then the
    Stirling series psi(w) = ln w - 1/(2w) - sum_n B_2n / (2n w^2n), n <= 6.
    The half plane never needs the reflection formula.
    """
    w = z + _PSI_SHIFT.size
    u = 1.0 / w
    return (np.log(w) - 0.5 * u - ((u * u)[..., None] ** _STIRLING_POWERS) @ _STIRLING
            - (1.0 / (z[..., None] + _PSI_SHIFT)).sum(axis=-1))


def _scaled_exp1(w):
    """exp(w) E1(w) for complex w, stable at large |w|, to about 2e-15 relative.

    Near the negative axis, |w| + Re w < 2.5, exp(w) (-gamma - ln w + Ein(w))
    by the power series Ein, whose terms there exceed the sum by at most
    e^2.5; elsewhere below |w| = 50 the even continued fraction
    1/(w + 1 - 1/(w + 3 - 4/(w + 5 - ...))); past it the 2F0-style
    asymptotic tail. Arguments within 1e-300 of the real axis are on it, and
    on the negative axis take the value from above the cut,
    E1(-x + i0) = -Ei(x) - i pi.
    """
    w = np.asarray(w, dtype=complex)
    w = np.where(np.abs(w.imag) < 1e-300, w.real + 0j, w)
    out = np.empty(w.shape, dtype=complex)
    r = np.abs(w)
    small = r < 50.0
    series = small & (r + w.real < 2.5)
    frac = small & ~series
    ws = w[series]
    if ws.size:
        depth = int(2.5 * np.max(r[series])) + 20
        ein = np.zeros_like(ws)
        for c in _EIN[-depth - 1:]:  # Horner
            ein *= ws
            ein += c
        out[series] = np.exp(ws) * (ein - _EULER_GAMMA - np.log(ws))
    wf = w[frac]
    if wf.size:
        f = wf + (2 * _CF_DEPTH + 1)
        for k in range(_CF_DEPTH, 0, -1):
            f = (wf + (2 * k - 1)) - (k * k) / f
        out[frac] = 1.0 / f
    wl = w[~small]
    if wl.size:
        acc = np.zeros_like(wl)
        term = np.ones_like(wl)
        for k in range(1, 26):
            term = term * (-k) / wl
            acc = acc + term
        out[~small] = (1.0 + acc) / wl
    return out


# ---------------------------------------------------------------------------
# pole-pair integrals of the Fermi factor

def _pair_integrals(lams, keep, gaps, mu, k_t):
    """N[l, j, k] = int nbar_l(w) dw / ((w - a)(w - b)) over the real line on
    the pairs that keep marks, and 0 on the others, for a = lams[l, j] in
    the closed lower half plane, b = conj(lams[l, k]) and a != b, with
    gaps[l, j, k] = a - b; row l is a lead at chemical potential mu[l] and
    temperature k_t[l].

    N = (T(a) - T(b)) / (a - b), where int nbar(w) / (w - z) dw = T(z) + C
    and C, independent of z, cancels. At k_t = 0, T(a) = ln(mu - a) - i pi
    and T(b) = ln(mu - b) + i pi, each taken only at the poles that some
    kept pair uses, so never at a branch point that the mask drops. At
    k_t > 0, T(a) = psi(1/2 - x) with x = (a - mu) / (2 pi i k_t), where
    Re(1/2 - x) >= 1/2, and psi(conj z) = conj psi(z) gives
    T(b) = conj T(conj b) + i pi (Croy & Saalmann, PRB 80, 073102 (2009));
    one _digamma call serves every such lead.
    """
    num = np.empty(keep.shape, dtype=complex)
    hot = [lead for lead, t in enumerate(k_t) if t > 0.0]
    if hot:
        x = (lams[hot] - np.array(mu)[hot, None]) / (2j * math.pi * np.array(k_t)[hot, None])
        psi = _digamma(0.5 - x)
        num[hot] = psi[:, :, None] - (psi.conj()[:, None, :] + 1j * math.pi)
    for lead in set(range(len(k_t))).difference(hot):
        lam = lams[lead]
        ln_a = np.log(mu[lead] - lam, out=np.zeros_like(lam), where=keep[lead].any(axis=1))
        ln_b = np.log(mu[lead] - lam.conj(), out=np.zeros_like(lam),
                      where=keep[lead].any(axis=0))
        num[lead] = ln_a[:, None] - ln_b[None, :] - _TWO_PI * 1j
    return np.divide(num, gaps, out=np.zeros_like(num), where=keep)


# ---------------------------------------------------------------------------
# sharp-Fermi-sea pole integrals over the half line (-inf, mu]

def _halfline_phase_integral(lams, mu, t):
    """E(lam; t) = int_{-inf}^{mu} exp(i w t) / (w - lam) dw for t > 0, one
    row per pole of the array lams, all in one _scaled_exp1 call.

    Written through the scaled exponential integral so the result stays
    bounded at large t |mu - lam|. For poles in the upper half plane the
    principal branch must be corrected by the 2 pi i residue jump once the
    E1 argument crosses its cut; the region rule below was pinned against
    high-precision quadrature.
    """
    zeta = mu - lams
    if (zeta == 0.0).any():
        raise SolverError("half-line integral evaluated at its singular point")
    val = -np.exp(1j * mu * t) * _scaled_exp1(-1j * zeta[:, None] * t)
    # the cut of E1 was crossed while continuing from w -> -i inf
    cut = (lams.imag > 0.0) & (zeta.real > 0.0)
    val[cut] += _TWO_PI * 1j * np.exp(1j * lams[cut, None] * t)
    return val


# ---------------------------------------------------------------------------
# panel Gauss-Legendre machinery for batched Fourier tables

def _panel_nodes(segments) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights over [lo, hi, width_cap] segments."""
    xs, ws = [], []
    for lo, hi, cap in segments:
        if hi - lo <= 0.0:
            continue
        n = max(1, int(math.ceil((hi - lo) / cap)))
        edges = np.linspace(lo, hi, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        xs.append((mid[:, None] + half[:, None] * _GL_X[None, :]).ravel())
        ws.append((half[:, None] * _GL_W[None, :]).ravel())
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)


# Elements of the largest (rows x nodes) array of one Fourier sum; the node
# chunk shrinks as the rows grow, so memory stays flat in t_max k_T.
_CHUNK_ELEMENTS = 2**19


def _check_grid(taus: np.ndarray) -> None:
    """Raise ValueError unless taus is tau_m = m dt, m = 0..n, with dt > 0."""
    if taus.ndim != 1 or taus.size == 0 or taus[0] != 0.0:
        raise ValueError("kernel table requires a tau grid starting at 0")
    if taus.size == 1:
        return
    tau_max = taus[-1]
    steps = np.arange(taus.size) * (tau_max / (taus.size - 1))
    if not (tau_max > 0.0 and np.max(np.abs(taus - steps)) <= 1e-13 * tau_max):
        raise ValueError("kernel table requires a uniform, increasing tau grid")


def _fourier_sum(nodes: np.ndarray, coefs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Sum_k coefs[k] e^{-i nodes[k] tau} on a uniform grid tau_m = m dt.

    coefs is one vector over the nodes, or a (nodes, p) stack of them that
    shares the exponential tables. With B = ceil(sqrt(n + 1)) and m = a B + b,
    e^{-i w tau_m} = e^{-i w tau_{aB}} e^{-i w tau_b}: about 2 sqrt(n + 1)
    exponentials per node, and the node sums run as one matrix product per
    node chunk and vector, whose bits do not depend on the stack.
    """
    _check_grid(taus)
    stack = coefs[:, None] if coefs.ndim == 1 else coefs
    p = stack.shape[1]
    cols = math.isqrt(taus.size - 1) + 1
    rows = -(-taus.size // cols)
    acc = np.zeros((p, rows, cols), dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // max(rows * p, cols))
    for s in range(0, nodes.size, step):
        w = nodes[s:s + step]
        outer = np.exp(-1j * np.outer(taus[::cols], w))
        inner = np.exp(-1j * np.outer(w, taus[:cols]))
        acc += (stack[s:s + step].T[:, None, :] * outer) @ inner
    out = acc.reshape(p, rows * cols)[:, :taus.size].T
    return out.reshape(taus.size) if coefs.ndim == 1 else out


def _osc_cap(tau_max: float) -> float:
    """Widest panel over which e^{-i w tau} turns by at most pi for every
    |tau| <= tau_max.

    The 10-point Gauss rule integrates e^{iax} over [-1, 1] to 1e-20 at
    a = pi / 2, one pi across the panel (in double the sum is off by
    rounding alone, 2e-17), and to 9e-15 at a = pi, where it turns by 2 pi.
    """
    if tau_max <= 0.0:
        return math.inf
    return math.pi / tau_max


def _fermi_remainder(res: ReservoirParams, cap: float):
    """Nodes of panels of width <= cap over mu -/+ _FERMI_RANGE k_t, split
    at mu, and their weights c_w = w (nbar(w) - step(mu - w)): the
    finite-temperature remainder of one lead's sharp Fermi sea.

    _thermal_pair_table sums it only on rows tau < tau* = 1/k_t
    (_near_rows), where cap <= 2 k_t keeps the phase of e^{i w tau} under 2
    per panel, so the node count does not depend on the horizon;
    _matsubara_closure takes the rows past tau*.
    """
    mu, k_t = res.mu, res.k_t
    half = _FERMI_RANGE * k_t
    nodes, w = _panel_nodes([(mu - half, mu, cap), (mu, mu + half, cap)])
    return nodes, w * (fermi_occupation(nodes, mu, k_t) - (nodes < mu))


def _near_rows(taus: np.ndarray, k_t: float) -> int:
    """Number of grid rows with tau < tau* = 1/k_t: all of them at k_t = 0."""
    if k_t == 0.0:
        return taus.size
    return int(np.searchsorted(taus, 1.0 / k_t))


# Matsubara poles kept past tau* = 1/k_t, where the first one dropped carries
# e^{-pi k_t (2M + 1) t} <= e^{-pi (2M + 1)} <= 1e-17.
_MATSUBARA_TERMS = math.ceil((17.0 * math.log(10.0) / math.pi - 1.0) / 2.0)
# 1/x - 1/expm1(x) = 1/2 - sum_k B_2k x^(2k-1) / (2k)!, to 1e-17 for |x| < 1/2
_REGULAR_SERIES = [b / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, 1)][::-1]


def _matsubara_closure(a: np.ndarray, b: np.ndarray, mu: float, k_t: float,
                       times: np.ndarray) -> np.ndarray:
    """int n(w) e^{iwt} dw / ((w - a)(w - b)) over the real line, for k_t > 0,
    t >= 1/k_t, a in the lower and b in the upper half plane: one row per
    pair of the arrays a and b.

    The contour closes in the upper half plane: 2 pi i times the residue at
    b and those at the Matsubara poles w_m = mu + i pi k_t (2m + 1),
    m < _MATSUBARA_TERMS, where n has residue -k_t (Croy & Saalmann, PRB 80,
    073102 (2009)). b and its nearest w_m enter as one pair,
    r(b) f(b) - k_t f[w_m, b] with f(z) = e^{izt} / (z - a) and
    r = n + k_t / (z - w_m) the regular part of n at w_m: it stays finite
    where b meets w_m and the two residues diverge; f[w_m, b] is written
    from the lower of the two points, e^{iyt} i t exprel(i (x - y) t), so
    that no exponential grows. Every pair shares the rows e^{i w_m t}, so
    the other poles' terms are one matrix product.
    """
    t = np.asarray(times, dtype=float)
    nu = math.pi * k_t
    poles = mu + 1j * nu * (2 * np.arange(_MATSUBARA_TERMS) + 1)
    m_b = np.maximum(0, np.round((b.imag / nu - 1.0) / 2.0))
    w = mu + 1j * nu * (2 * m_b + 1)
    delta = (b - w) / k_t
    near = abs(delta) < 0.5
    reg = np.empty_like(delta)
    reg[near] = 0.5 - delta[near] * np.polyval(_REGULAR_SERIES, delta[near] ** 2)
    reg[~near] = 1.0 / delta[~near] + fermi_occupation(b[~near], mu, k_t)
    f_b = np.exp(1j * np.outer(b, t)) / (b - a)[:, None]
    x, y = np.where(w.imag < b.imag, b, w), np.where(w.imag < b.imag, w, b)
    z = 1j * np.outer(x - y, t)
    rel = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)
    div = np.exp(1j * np.outer(y, t)) * 1j * t * rel  # (e^{iwt} - e^{ibt}) / (w - b)
    total = reg[:, None] * f_b - k_t * (div - f_b) / (w - a)[:, None]
    other = m_b[:, None] != np.arange(_MATSUBARA_TERMS)  # w_{m_b} is taken with b
    coef = np.divide(k_t, (poles - a[:, None]) * (poles - b[:, None]),
                     out=np.zeros(other.shape, dtype=complex), where=other)
    total -= coef @ np.exp(1j * np.outer(poles, t))
    return _TWO_PI * 1j * total


def _thermal_pair_table(lams, keep: np.ndarray, res: ReservoirParams, taus: np.ndarray,
                        cap: float) -> np.ndarray:
    """I_jk(tau) = int nbar(w) e^{i w tau} dw / ((w - lam_j)(w - conj(lam_k)))
    on the grid taus for the pairs (j, k) that the (J, J) mask keep marks,
    zero on the others: a (J, J, len(taus)) array whose slot 0 is N_jk.

    Rows tau < tau* = 1/k_t take the sharp sea's N_jk (_pair_integrals at
    k_t = 0) and O_jk(tau), its half-line integral with e^{i w tau}, which is
    (E(lam_j) - E(conj lam_k)) / (lam_j - conj lam_k) over the poles' rows of
    _halfline_phase_integral, plus the Fermi remainder on panels of width
    <= cap, all from one Fourier sum, so that a caller's cancelling
    combinations of N and O keep their cancellation; rows past tau* take
    _matsubara_closure. Only the poles that a kept pair uses are evaluated,
    each once. The kept gaps |lam_j - conj(lam_k)| must stay away from 0.
    A single entry is accurate only where cap is small against the poles'
    distance from the real axis (a Lorentzian lead passes cap <= d / 2);
    wbl_greens' cap of 2 k_t serves only its combination, entire in w.
    """
    lams = np.asarray(lams, dtype=complex)
    mu, k_t = res.mu, res.k_t
    near = _near_rows(taus, k_t)
    lo, hi = keep.any(axis=1), keep.any(axis=0)
    e = np.zeros((2, lams.size, near - 1), dtype=complex)  # E(lam_j), E(conj lam_k)
    e[0, lo], e[1, hi] = np.split(
        _halfline_phase_integral(np.concatenate([lams[lo], lams[hi].conj()]), mu,
                                 taus[1:near]), [lo.sum()])
    jj, kk = np.nonzero(keep)
    gaps = lams[:, None] - lams.conj()
    out = np.zeros(keep.shape + taus.shape, dtype=complex)
    out[..., 0] = _pair_integrals(lams[None], keep[None], gaps[None], [mu], [0.0])[0]
    out[jj, kk, 1:near] = (e[0, jj] - e[1, kk]) / gaps[jj, kk, None]
    if k_t == 0.0:
        return out
    omega, coef = _fermi_remainder(res, cap)
    # rows hold conj(c_w / ((w - a)(w - b))), so the sum gives the conjugate
    # of the remainder
    stack = coef / (omega - lams[jj, None].conj())
    stack /= omega - lams[kk, None]
    out[jj, kk, :near] += np.conj(_fourier_sum(omega, stack.T, taus[:near])).T
    out[jj, kk, near:] = _matsubara_closure(lams[jj], lams[kk].conj(), mu, k_t, taus[near:])
    return out


@dataclass(frozen=True)
class KernelTable:
    """Sampled diagonal kernels on build_kernel_table's grid tau >= 0.

    memory[k, c] and noise[k, c] hold channel c of g(tau_k) and of the
    occupied-weighted kernel; values at negative tau follow from the
    conjugation symmetry g(-tau) = g(tau)^dagger.
    """

    memory: np.ndarray
    noise: np.ndarray | None


def _require_kernel_kind(kind: SpectralKind) -> None:
    """ConfigError for the wide band, which has no kernel table."""
    if kind is SpectralKind.WIDE_BAND:
        raise ConfigError(
            "the kernel table requires the Lorentzian or cutoff spectrum:"
            " wide-band kernels are Dirac deltas, and the wide band's exact"
            " solution is method wbl")


def build_kernel_table(config: ModelConfig, taus: np.ndarray,
                       include_noise: bool = True) -> KernelTable:
    """Tabulate the memory kernels of both leads on a uniform time grid.

    A Lorentzian lead's memory column is closed form, and its noise column
    is _thermal_pair_table at J's pole mu - i d, on panels of width
    <= d / 2 and <= 2 k_t, whose work does not grow with the horizon. A
    cutoff lead takes both columns from one Fourier sum over one node set
    on its band, of panel width <= d / 2, <= 1/2 and
    <= _osc_cap(tau_max) = pi / tau_max, so that no phase on the grid turns
    by more than pi across a panel, and <= k_t / 2 within 14 k_t of mu.
    Against panels 16 times finer, over 25 seeded configs with t_max from
    10 to 200, the columns agree to 6e-15 of their largest entry.
    A right lead equal to the left one copies its columns.
    """
    taus = np.asarray(taus, dtype=float)
    _check_grid(taus)
    kind = config.spectral_kind
    _require_kernel_kind(kind)
    tau_max = float(taus[-1])
    memory = np.zeros((taus.size, 2), dtype=complex)
    noise = np.zeros((taus.size, 2), dtype=complex) if include_noise else None
    for c, res in enumerate(config.reservoirs):
        if res.gamma == 0.0:
            continue
        if c and res == config.left:
            memory[:, c] = memory[:, 0]
            if include_noise:
                noise[:, c] = noise[:, 0]
            continue
        d, mu = res.bandwidth, res.mu
        if kind is SpectralKind.LORENTZIAN:
            memory[:, c] = 0.5 * res.gamma * d * np.exp(-1j * mu * taus - d * taus)
            if include_noise:
                # J = Gamma d^2 / ((w - a)(w - conj(a))) at the pseudomode
                # pole a = mu - i d; the panels resolve J's peak
                cap = min(d / 2.0, 2.0 * res.k_t)
                table = _thermal_pair_table([mu - 1j * d], np.ones((1, 1), dtype=bool), res,
                                            taus, cap)
                noise[:, c] = res.gamma * d * d / _TWO_PI * np.conj(table[0, 0])
            continue
        # one node set for both columns over the whole band (its hard edge
        # carries real spectral weight), split at mu: panels resolve J's
        # peak and the fastest phase on the grid, and within 14 k_t of mu
        # the Fermi edge
        cut, edge = res.cutoff, min(res.cutoff, 14.0 * res.k_t)
        base = min(d / 2.0, 0.5, _osc_cap(tau_max))
        fine = min(base, res.k_t / 2.0)
        nodes, w = _panel_nodes([(mu - cut, mu - edge, base), (mu - edge, mu, fine),
                                 (mu, mu + edge, fine), (mu + edge, mu + cut, base)])
        coefs = w * lead_density(res, kind, nodes) / _TWO_PI
        if include_noise:
            occ = fermi_occupation(nodes, mu, res.k_t)
            both = _fourier_sum(nodes, np.stack([coefs, coefs * occ], axis=1), taus)
            memory[:, c], noise[:, c] = both.T
        else:
            memory[:, c] = _fourier_sum(nodes, coefs, taus)
    return KernelTable(memory, noise)
