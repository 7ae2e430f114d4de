"""Brute-force cross-check: discretize the reservoirs and solve exactly.

The model is quadratic, so one eigendecomposition of the full one-particle
Hamiltonian (2 dot modes + K modes per lead) gives U(t), V(t) and the
bound-state content with no memory-kernel machinery at all. Slow and
honest; used to validate the solver modules.
"""

from __future__ import annotations

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
    build_hamiltonian,
)
from .spectral import fermi_occupation, lead_density

# Uniform midpoint discretization resolves the kernel's support, but the
# recurrence time 2 pi / (window/K) must stay past the simulated horizon;
# the cap keeps it above ~12 for the default K regardless of bandwidth.
_RECURRENCE_MARGIN = 12.0

# Bound on the dropped Chebyshev terms of the phases e^{-i lambda t}, and
# with it on the truncation error of each entry of U (V's is at most twice
# it); _TAIL_GUARD dropped coefficients are computed to check it.
_PHASE_TAIL = 1e-13
_TAIL_GUARD = 4
# Dot weight of an eigenvector whose dot amplitudes are at rounding level.
_WEIGHT_FLOOR = np.finfo(float).eps ** 2


@dataclass
class DiscretizedBath:
    """Star-discretized reservoirs around the two dot modes.

    energies, couplings, occupations: (2, K) arrays, row l for lead l;
    couplings are real with |V_k|^2 = J(e_k) de / (2 pi). window is the
    (lo, hi) passed to discretize, or None for each lead's default window.
    """

    config: ModelConfig
    energies: np.ndarray
    couplings: np.ndarray
    occupations: np.ndarray
    window: tuple | None = None

    @property
    def modes_per_lead(self) -> int:
        return self.energies.shape[1]

    def hamiltonian(self) -> np.ndarray:
        """Full one-particle matrix: dots block, bath diagonal, star couplings."""
        k = self.modes_per_lead
        dim = 2 + 2 * k
        h = np.zeros((dim, dim), dtype=complex)
        h[:2, :2] = build_hamiltonian(self.config.system)
        for lead in range(2):
            rows = slice(2 + lead * k, 2 + (lead + 1) * k)
            h[rows, rows] = np.diag(self.energies[lead])
            h[lead, rows] = self.couplings[lead]
            h[rows, lead] = self.couplings[lead]
        return h

    def bath_occupation_diagonal(self) -> np.ndarray:
        """Initial occupations on the bath entries, zeros on the dots."""
        return np.concatenate(
            [np.zeros(2), self.occupations[0], self.occupations[1]]
        )


def _default_window(res, kind, modes_per_lead):
    if kind is SpectralKind.CUTOFF_LORENTZIAN:
        if math.isinf(res.cutoff):
            raise ConfigError("cutoff spectra need a finite cutoff to discretize")
        return (res.mu - res.cutoff, res.mu + res.cutoff)
    d = res.bandwidth
    half = max(20.0 * d, 20.0 * res.k_t + 10.0 * d)
    cap = math.pi * modes_per_lead / _RECURRENCE_MARGIN
    half = min(half, cap)
    return (res.mu - half, res.mu + half)


def _lead_window(res, kind, modes_per_lead, window):
    """The (lo, hi) window of one lead; an infinite mode count lifts the cap."""
    if window is None:
        window = _default_window(res, kind, modes_per_lead)
    return float(window[0]), float(window[1])


def discretize(
    config: ModelConfig, modes_per_lead: int, window=None
) -> DiscretizedBath:
    """Uniform midpoint sampling of each lead's spectral density.

    The default window covers the band (cutoff case) or ~20 bandwidths
    around mu, capped so the discretization recurrence time stays well past
    t = 12; pass an explicit window for longer horizons.
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
        lo, hi = _lead_window(res, kind, modes_per_lead, window)
        if not hi > lo:
            raise ConfigError(f"empty discretization window ({lo}, {hi})")
        if kind is SpectralKind.CUTOFF_LORENTZIAN and res.gamma > 0.0:
            if lo > res.mu - res.cutoff or hi < res.mu + res.cutoff:
                raise ConfigError(
                    "discretization window must cover the full band of the"
                    f" cutoff spectrum ({res.mu - res.cutoff}, {res.mu + res.cutoff})"
                )
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
        window=window,
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
        lo, hi = _lead_window(
            res, bath.config.spectral_kind, math.inf, bath.window
        )
        need = math.floor(t_max * (hi - lo) / (2.0 * math.pi)) + 1
        raise ConfigError(
            f"the discretized lead {lead} recurs at t = {recurrence:.4g}, within"
            f" t_max = {t_max:.4g}; use modes_per_lead >= {need}"
        )


def _eigh(bath: DiscretizedBath):
    """Eigenpairs of the full Hamiltonian, in real arithmetic when it is real."""
    h = bath.hamiltonian()
    if not np.any(h.imag):
        h = h.real
    return np.linalg.eigh(h)


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


def _phase_coefficients(omega: np.ndarray, order: int) -> np.ndarray:
    """b[p, j] with e^{-i omega_j (x + 1)} = sum_{p < order} b[p, j] T_p(x).

    The DCT of e^{-i omega_j x} at n = order + _TAIL_GUARD first-kind
    Chebyshev points x_k = cos(theta_k), theta_k = pi (k + 1/2) / n, as one
    product with the table cos(p theta_k), each angle reduced exactly in
    integers first; then the factor e^{-i omega_j}. The guard coefficients
    are the first dropped ones: if they sum above _PHASE_TAIL the expansion
    would be truncated, and SolverError is raised instead.
    """
    n = order + _TAIL_GUARD
    ranks = np.arange(n)
    # p theta_k = pi (p (2k + 1) mod 4n) / (2n)
    table = np.cos(0.5 * math.pi / n * (np.outer(ranks, 2 * ranks + 1) % (4 * n)))
    samples = np.exp(-1j * np.outer(table[1], omega))  # table[1] holds x_k
    coef = (table @ samples.view(float)).view(complex) * (2.0 / n)
    coef[0] *= 0.5
    tail = float(np.sum(np.max(np.abs(coef[order:]), axis=1)))
    if not tail <= _PHASE_TAIL:
        raise SolverError(
            f"the Chebyshev expansion of the oracle phases is truncated: the"
            f" terms past order {order} sum to {tail:.3e} > {_PHASE_TAIL:.0e}"
        )
    return coef[:order] * np.exp(-1j * omega)


def exact_greens(bath: DiscretizedBath, grid: TimeGrid) -> GreensSolution:
    """U and V of the discretized model by one eigendecomposition.

    U(t) is the dot-block of e^{-iht}; V(t) the dot-block of
    e^{-iht} D e^{iht} with D the initial bath occupations. Both are exact
    for the discretized Hamiltonian at every t before the bath recurs,
    and a grid past the recurrence raises ConfigError.

    The phases are expanded in time, as in the Chebyshev propagator of
    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984), with the
    Jacobi-Anger expansion in t: with tau = t_max/2, x = t/tau - 1 and c
    the centre of the eigenvalues that carry dot weight,
    e^{-i lambda t} = e^{-ict} sum_{p<P} b_p(lambda) T_p(x) to within
    _PHASE_TAIL. The dot rows of e^{-iht} are e^{-ict} sum_p T_p(x) Y_p with
    Y_p = Q_dots diag(b_p) Q^dag; U's coefficients are the dot columns of
    Y_p, and V = sum_pq T_p T_q Y_p D Y_q^dag folds by
    T_p T_q = (T_{p+q} + T_{|p-q|})/2 into sum_r T_r(x) N_r, evaluated in
    chunks of time rows. For D modes and T times this costs
    O(P D^2 + P^2 D + T P) in place of O(T D^2); P grows with the spread of
    the eigenvalues times t_max, which the recurrence guard holds below
    about pi K per coupled lead.
    """
    _check_recurrence(bath, grid.t_max)
    evals, q = _eigh(bath)
    # eigenvectors without dot weight never reach U or V; their eigenvalues
    # would only widen the expansion (an uncoupled lead skips the guard)
    keep = np.abs(q[0]) ** 2 + np.abs(q[1]) ** 2 > _WEIGHT_FLOOR
    evals = evals[keep]
    q_dots = q[:2, keep]
    d_b = bath.bath_occupation_diagonal()
    occupied = d_b > 0.0
    # g_mat = D^(1/2) conj(Q) on occupied rows and kept columns, so that
    # Y_p D^(1/2) = Q_dots diag(b_p) g_mat^T. Each intermediate is dropped
    # once used: the (2P x 2P) product M below is the peak.
    g_mat = q[np.ix_(occupied, keep)]
    del q
    g_mat *= np.sqrt(d_b[occupied])[:, None]
    np.conjugate(g_mat, out=g_mat)

    centre = 0.5 * (evals.max() + evals.min())
    tau = 0.5 * grid.t_max
    order = _chebyshev_order(0.5 * (evals.max() - evals.min()) * tau)
    b = _phase_coefficients((evals - centre) * tau, order)  # (P, D')
    u_coef = b @ (q_dots[:, None, :] * np.conj(q_dots)).reshape(4, -1).T
    z = (b.T[:, :, None] * q_dots.T[:, None, :]).reshape(-1, 2 * order)
    del b
    if np.isrealobj(g_mat):
        y = (g_mat @ z.view(float)).view(complex)
    else:
        y = g_mat @ z
    del z, g_mat
    # y[k, (p, a)] = (Y_p D^(1/2))[a, k]; m[p, q] = M_pq = Y_p D Y_q^dag
    m = (y.T @ np.conj(y)).reshape(order, 2, order, 2).transpose(0, 2, 1, 3)
    del y
    # V = sum_pq T_p T_q M_pq with T_p T_q = (T_{p+q} + T_{|p-q|}) / 2
    ranks = np.arange(order)
    n_coef = np.zeros((2 * order - 1, 2, 2), dtype=complex)
    np.add.at(n_coef, ranks[:, None] + ranks, m)
    np.add.at(n_coef, abs(ranks[:, None] - ranks), m)
    n_coef *= 0.5
    del m

    times = grid.times
    theta = np.arccos(np.clip(times / tau - 1.0, -1.0, 1.0))
    ranks = np.arange(2 * order - 1)
    u = np.empty((times.size, 2, 2), dtype=complex)
    v = np.empty_like(u)
    step = max(1, spectral._CHUNK_ELEMENTS // ranks.size)
    for s in range(0, times.size, step):
        cheb = np.cos(np.outer(theta[s:s + step], ranks))  # T_r(x), rows x 2P-1
        rows = len(cheb)
        phase = np.exp(-1j * centre * times[s:s + rows])[:, None]
        u_rows = (cheb[:, :order] @ u_coef.view(float)).view(complex)
        u[s:s + rows] = (phase * u_rows).reshape(rows, 2, 2)
        v_rows = (cheb @ n_coef.reshape(-1, 4).view(float)).view(complex)
        v[s:s + rows] = v_rows.reshape(rows, 2, 2)
    u[0] = np.eye(2)  # exact; Q Q^dag carries rounding noise
    v = 0.5 * (v + np.conj(np.transpose(v, (0, 2, 1))))
    v[0] = 0.0
    return GreensSolution(grid, u, v)


def localized_eigenstates(bath: DiscretizedBath, weight_threshold: float = 0.5):
    """Eigenpairs of the full Hamiltonian concentrated on the dot modes.

    Returns (energy, dot_weight) for every eigenvector whose probability
    weight on the two dot components exceeds the threshold; these are the
    discretized bound states.
    """
    if not 0.0 < weight_threshold < 1.0:
        raise ConfigError(
            f"weight_threshold must lie in (0, 1), got {weight_threshold}"
        )
    evals, q = _eigh(bath)
    weights = np.abs(q[0, :]) ** 2 + np.abs(q[1, :]) ** 2
    picks = weights > weight_threshold
    return [
        (float(e), float(w)) for e, w in zip(evals[picks], weights[picks])
    ]
