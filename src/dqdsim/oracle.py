"""Brute-force cross-check: discretize the reservoirs and solve exactly.

The model is quadratic, so the dot rows of e^{-iht} for the full
one-particle Hamiltonian h (2 dot modes + K modes per lead) give U(t) and
V(t) with no memory-kernel machinery at all. They come from Chebyshev
series in time and energy, applying h only through its star structure,
with no diagonalization; used to validate the solver modules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .greens import GreensSolution, TimeGrid
from .model import (
    ConfigError,
    ModelConfig,
    SolverError,
    SpectralKind,
    hermitian_eigs_e,
    hermitian_part,
)
from .spectral import fermi_occupation, lead_density

# Uniform midpoint discretization resolves the kernel's support, but the
# recurrence time 2 pi / (window/K) must stay past the simulated horizon;
# the cap keeps it above ~12 for the default K regardless of bandwidth.
_RECURRENCE_MARGIN = 12.0

# Bound on the dropped Chebyshev terms of the phases e^{-i lambda t}, in time
# and in energy; the truncation error of each entry of U is at most the sum
# of the two (V's at most twice it). _TAIL_GUARD dropped coefficients are
# computed to check each.
_PHASE_TAIL = 1e-13
_TAIL_GUARD = 4


@dataclass
class DiscretizedBath:
    """Star-discretized reservoirs around the two dot modes.

    energies, couplings, occupations: (2, K) arrays, row l for lead l;
    couplings are real with |V_k|^2 = J(e_k) de / (2 pi).
    """

    config: ModelConfig
    energies: np.ndarray
    couplings: np.ndarray
    occupations: np.ndarray

    @property
    def modes_per_lead(self) -> int:
        return self.energies.shape[1]

    def bath_occupation_diagonal(self) -> np.ndarray:
        """Initial occupations on the bath entries, zeros on the dots."""
        return np.concatenate(
            [np.zeros(2), self.occupations[0], self.occupations[1]]
        )


def _default_window(res, kind, modes_per_lead):
    """The (lo, hi) window of one lead; an infinite mode count lifts the cap."""
    if kind is SpectralKind.CUTOFF_LORENTZIAN:
        return (res.mu - res.cutoff, res.mu + res.cutoff)
    d = res.bandwidth
    half = max(20.0 * d, 20.0 * res.k_t + 10.0 * d)
    cap = math.pi * modes_per_lead / _RECURRENCE_MARGIN
    half = min(half, cap)
    return (res.mu - half, res.mu + half)


def discretize(config: ModelConfig, modes_per_lead: int) -> DiscretizedBath:
    """Uniform midpoint sampling of each lead's spectral density.

    The window covers the band (cutoff case) or ~20 bandwidths around mu,
    capped so the discretization recurrence time stays well past t = 12;
    longer horizons need more modes, as exact_greens' recurrence check says.
    """
    if modes_per_lead < 2:
        raise ConfigError(f"modes_per_lead must be >= 2, got {modes_per_lead}")
    kind = config.spectral_kind
    if kind is SpectralKind.WIDE_BAND:
        raise ConfigError(
            "the flat spectrum has no scale to discretize; use a closed-form"
            " solver for the wide-band limit"
        )
    energies = np.empty((2, modes_per_lead))
    couplings = np.empty((2, modes_per_lead))
    occupations = np.empty((2, modes_per_lead))
    for lead, res in enumerate(config.reservoirs):
        lo, hi = _default_window(res, kind, modes_per_lead)
        de = (hi - lo) / modes_per_lead
        mids = lo + (np.arange(modes_per_lead) + 0.5) * de
        energies[lead] = mids
        couplings[lead] = np.sqrt(
            lead_density(res, kind, mids) * de / (2.0 * math.pi)
        )
        occupations[lead] = fermi_occupation(mids, res.mu, res.k_t)
    return DiscretizedBath(
        config=config,
        energies=energies,
        couplings=couplings,
        occupations=occupations,
    )


def _check_recurrence(bath: DiscretizedBath, t_max: float) -> None:
    """Raise ConfigError if a coupled lead's modes recur within t_max.

    A lead of K modes spaced de apart returns its amplitude to the dots at
    2 pi / de, so the oracle is only the continuum model before then. The
    message names the smallest modes_per_lead that clears t_max.
    """
    for lead, res in enumerate(bath.config.reservoirs):
        if res.gamma == 0.0:
            continue
        energies = bath.energies[lead]
        recurrence = 2.0 * math.pi / (energies[1] - energies[0])
        if t_max < recurrence:
            continue
        lo, hi = _default_window(res, bath.config.spectral_kind, math.inf)
        need = math.floor(t_max * (hi - lo) / (2.0 * math.pi)) + 1
        raise ConfigError(
            f"the discretized lead {lead} recurs at t = {recurrence:.4g}, within"
            f" t_max = {t_max:.4g}; use modes_per_lead >= {need}"
        )


def _chebyshev_order(half_width: float) -> int:
    """Fewest Chebyshev terms of e^{-iwx} on [-1, 1] for every |w| <= half_width.

    The coefficients are 2 (-i)^p J_p(w) (Jacobi-Anger). For p > |w|
    Kapteyn's inequality |J_p(pz)| <= (z e^s / (1 + s))^p, s = sqrt(1 - z^2),
    bounds them, and the order is the first p whose bounded tail is at most
    _PHASE_TAIL. A zero width keeps T_0 alone.
    """
    first = math.floor(half_width) + 1
    bounds = []
    while not bounds or bounds[-1] > 1e-6 * _PHASE_TAIL:
        p = first + len(bounds)
        s = math.sqrt(1.0 - (half_width / p) ** 2)
        bounds.append(2.0 * (half_width / p * math.exp(s) / (1.0 + s)) ** p)
    tails = np.cumsum(bounds[::-1])[::-1]
    return first + int(np.argmax(tails <= _PHASE_TAIL))


def _chebyshev_coefficients(values, n: int) -> np.ndarray:
    """The n Chebyshev coefficients, along axis 0, of f on [-1, 1].

    values(x) gives f at the n first-kind Chebyshev points x_k =
    cos(theta_k), theta_k = pi (k + 1/2) / n, as an (n, ...) array. Their
    DCT sum_k f(x_k) cos(p theta_k) is one length-n FFT of the samples
    reordered as f(x_0), f(x_2), ..., f(x_3), f(x_1) (Makhoul, IEEE Trans.
    ASSP 28, 27 (1980)), taken as (w^p V_p + w^-p V_{-p}) / 2 with
    w = e^{-i pi / 2n}, which needs no real part and so holds for complex f.
    """
    x = np.cos(math.pi / n * (np.arange(n) + 0.5))
    samples = values(x)
    spectrum = np.fft.fft(np.concatenate([samples[::2], samples[1::2][::-1]]), axis=0)
    del samples
    twiddle = np.exp(-0.5j * math.pi / n * np.arange(n))[:, None]
    coef = spectrum[-np.arange(n) % n]
    coef *= np.conj(twiddle)
    spectrum *= twiddle
    coef += spectrum
    coef *= 1.0 / n
    coef[0] *= 0.5
    return coef


def _check_tail(dropped: np.ndarray, order: int, variable: str) -> None:
    """Raise SolverError if the first dropped terms sum above _PHASE_TAIL.

    They are the _TAIL_GUARD terms past the order, computed to check it.
    """
    tail = float(np.sum(dropped))
    if not tail <= _PHASE_TAIL:
        raise SolverError(
            f"the Chebyshev expansion of the oracle phases is truncated in"
            f" {variable}: the terms past order {order} sum to {tail:.3e}"
            f" > {_PHASE_TAIL:.0e}"
        )


def _phase_coefficients(omega: np.ndarray, order: int) -> np.ndarray:
    """b[p, j] with e^{-i omega_j (x + 1)} = sum_{p < order} b[p, j] T_p(x).

    The Chebyshev coefficients of e^{-i omega_j x}, then the factor
    e^{-i omega_j}. Each column is one frequency, so the largest of its
    dropped terms enter the tail check.
    """
    coef = _chebyshev_coefficients(
        lambda x: np.exp(-1j * np.outer(x, omega)), order + _TAIL_GUARD
    )
    _check_tail(np.max(np.abs(coef[order:]), axis=1), order, "time")
    return coef[:order] * np.exp(-1j * omega)


def _spectral_interval(bath: DiscretizedBath) -> tuple:
    """Centre and half-width of an interval that holds every eigenvalue of
    h with dot weight.

    h is the block diagonal of the dot levels and the bath energies plus
    the star couplings, whose norm is max_l |c_l|: each couples one dot to
    its own lead, on disjoint subspaces. By Weyl's inequality the
    eigenvalues lie within that norm of the dot levels and the energies of
    the coupled leads; an uncoupled lead's modes are eigenvectors without
    dot weight and stay out.
    """
    system = bath.config.system
    g = complex(system.g_coupling)
    lo, hi = hermitian_eigs_e((system.eps1, g, g.conjugate(), system.eps2))
    coupled = bath.energies[np.any(bath.couplings, axis=1)]
    if coupled.size:
        lo, hi = min(lo, coupled.min()), max(hi, coupled.max())
    widen = float(np.max(np.linalg.norm(bath.couplings, axis=1)))
    return 0.5 * (hi + lo), 0.5 * (hi - lo) + widen


def _chebyshev_vectors(apply, start, count):
    """T_m(A) start for m < count, by the three-term recurrence."""
    prev, cur = None, start
    for _ in range(count):
        yield cur
        step = apply(cur)
        prev, cur = cur, step if prev is None else 2.0 * step - prev


def _chebyshev_rows(x: np.ndarray, terms: int) -> np.ndarray:
    """T_r(x) for r < terms as a (terms, len(x)) array, by the three-term
    recurrence T_{r+1} = 2x T_r - T_{r-1} on |x| <= 1: no phase r arccos(x)
    is formed, whose rounding grows with r, and each row costs one product
    and one difference."""
    cheb = np.empty((terms, x.size))
    cheb[0] = 1.0
    if terms > 1:
        cheb[1] = x
    two_x = 2.0 * x
    for r in range(2, terms):
        np.multiply(two_x, cheb[r - 1], out=cheb[r])
        cheb[r] -= cheb[r - 2]
    return cheb


def _dot_rows(bath: DiscretizedBath, centre: float, half: float, gamma):
    """y[k, a, p] = sum_m gamma[m, p] T_m(h~)[a, k] for h~ = (h - centre) / half.

    h is taken in the gauge diag(1, g*/|g|) on dot 2 and its lead, where it
    is real: the dot block [[eps1, |g|], [|g|, eps2]], the bath energies on
    the diagonal, and each dot coupled to its own lead. The vectors
    T_m(h~) e_a of the two dot sites come from the three-term recurrence,
    h~ applied through that star structure in O(D), and are folded into y
    one block at a time by real products.
    """
    system = bath.config.system
    g = abs(complex(system.g_coupling))
    scale = 1.0 / half if half > 0.0 else 0.0
    dots = scale * np.array([[system.eps1 - centre, g], [g, system.eps2 - centre]])
    energies = scale * (bath.energies - centre)[:, :, None]
    couplings = scale * bath.couplings
    k = bath.modes_per_lead
    dim = 2 + 2 * k

    def star(x):
        """h~ x for the (dim, 2) columns x."""
        x_dots, x_bath = x[:2], x[2:].reshape(2, k, 2)
        out = np.empty_like(x)
        out[:2] = dots @ x_dots + np.einsum("lk,lka->la", couplings, x_bath)
        out[2:] = (
            energies * x_bath + couplings[:, :, None] * x_dots[:, None, :]
        ).reshape(-1, 2)
        return out

    start = np.zeros((dim, 2))
    start[:2] = np.eye(2)
    vectors = _chebyshev_vectors(star, start, len(gamma))
    y = np.zeros((2 * dim, gamma.shape[1]), dtype=complex)
    step = max(1, spectral._CHUNK_ELEMENTS // (2 * dim))
    for s in range(0, len(gamma), step):
        block = np.array(list(itertools.islice(vectors, step)))
        rows = len(block)
        y += (block.reshape(rows, -1).T @ gamma[s:s + rows].view(float)).view(complex)
    return y.reshape(dim, 2, -1)


def exact_greens(bath: DiscretizedBath, grid: TimeGrid) -> GreensSolution:
    """U and V of the discretized model by Chebyshev series in time and energy.

    U(t) is the dot-block of e^{-iht}; V(t) the dot-block of
    e^{-iht} D e^{iht} with D the initial bath occupations. Both are exact
    for the discretized Hamiltonian at every t before the bath recurs,
    and a grid past the recurrence raises ConfigError.

    The phases are expanded in time, as in the Chebyshev propagator of
    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984), with the
    Jacobi-Anger expansion in t: with tau = t_max/2, x = t/tau - 1 and
    [c - R, c + R] an interval that holds the eigenvalues with dot weight,
    e^{-i lambda t} = e^{-ict} sum_{p<P} b_p(lambda) T_p(x) to within
    _PHASE_TAIL. The dot rows of e^{-iht} are e^{-ict} sum_p T_p(x) Y_p
    with Y_p = b_p(h)[dots, :]. Each b_p is in turn expanded in energy, as
    in the kernel polynomial method of Weisse, Wellein, Alvermann &
    Fehske, Rev. Mod. Phys. 78, 275 (2006): b_p(c + R s) =
    sum_{m<M} gamma_mp T_m(s), so Y_p = sum_m gamma_mp T_m(h~)[dots, :]
    with h~ = (h - c)/R (_dot_rows). U's coefficients are the dot columns
    of Y_p, and V = sum_pq T_p T_q Y_p D Y_q^dag folds by
    T_p T_q = (T_{p+q} + T_{|p-q|})/2 into sum_r T_r(x) N_r, evaluated in
    chunks of time rows, with T_r(x) by the three-term recurrence
    (_chebyshev_rows). For D modes and T times this costs
    O(M D + P M D + P^2 D + T P) with no O(D^2) array: P is about R t_max / 2
    and M about twice P, and the recurrence guard holds R t_max below about
    pi K per coupled lead.
    """
    _check_recurrence(bath, grid.t_max)
    centre, half = _spectral_interval(bath)
    tau = 0.5 * grid.t_max
    order = _chebyshev_order(half * tau)
    # gamma[m, p]: b_p(centre + half s) = sum_m gamma[m, p] T_m(s). At x the
    # terms sum_p gamma[m, p] T_p(x) are those of e^{-iws} in s, w = half
    # tau (x + 1): 2 (-i)^m J_m(w), which past m = 2 half tau grow with w;
    # so the dropped ones are largest at t = t_max, x = 1, where T_p = 1
    depth = _chebyshev_order(2.0 * half * tau)
    gamma = _chebyshev_coefficients(
        lambda s: _phase_coefficients(half * tau * s, order).T,
        depth + _TAIL_GUARD,
    )
    _check_tail(np.abs(np.sum(gamma[depth:], axis=1)), depth, "energy")
    y = _dot_rows(bath, centre, half, gamma[:depth])  # y[k, a, p] = Y_p[a, k]
    del gamma
    u_coef = y[:2].transpose(2, 1, 0).reshape(order, 4)  # Y_p[a, b] at (p, 2a + b)
    # y[k, (a, p)] = (Y_p D^(1/2))[a, k]; m[p, q] = M_pq = Y_p D Y_q^dag.
    # Each intermediate is dropped once used: m is the peak.
    y *= np.sqrt(bath.bath_occupation_diagonal())[:, None, None]
    y = y.reshape(len(y), 2 * order)
    m = (y.T @ np.conj(y)).reshape(2, order, 2, order).transpose(1, 3, 0, 2)
    del y
    # V = sum_pq T_p T_q M_pq with T_p T_q = (T_{p+q} + T_{|p-q|}) / 2
    ranks = np.arange(order)
    n_coef = np.zeros((2 * order - 1, 2, 2), dtype=complex)
    np.add.at(n_coef, ranks[:, None] + ranks, m)
    np.add.at(n_coef, abs(ranks[:, None] - ranks), m)
    n_coef *= 0.5
    del m
    # back from the real gauge: X[0, 1] takes g/|g| and X[1, 0] its conjugate
    g = complex(bath.config.system.g_coupling)
    gauge = g / abs(g) if g else 1.0
    phases = np.array([[1.0, gauge], [np.conj(gauge), 1.0]])
    u_coef *= phases.ravel()
    n_coef *= phases

    times = grid.times
    x = np.clip(times / tau - 1.0, -1.0, 1.0)
    terms = 2 * order - 1
    u = np.empty((times.size, 2, 2), dtype=complex)
    v = np.empty_like(u)
    step = max(1, spectral._CHUNK_ELEMENTS // terms)
    for s in range(0, times.size, step):
        cheb = _chebyshev_rows(x[s:s + step], terms)  # T_r(x), 2P-1 x rows
        rows = cheb.shape[1]
        phase = np.exp(-1j * centre * times[s:s + rows])[:, None]
        u_rows = (cheb[:order].T @ u_coef.view(float)).view(complex)
        u[s:s + rows] = (phase * u_rows).reshape(rows, 2, 2)
        v_rows = (cheb.T @ n_coef.reshape(-1, 4).view(float)).view(complex)
        v[s:s + rows] = v_rows.reshape(rows, 2, 2)
    u[0] = np.eye(2)  # exact; the series carries rounding noise
    v = hermitian_part(v)
    v[0] = 0.0
    return GreensSolution(grid, u, v)
