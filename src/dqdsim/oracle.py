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
from .model import ConfigError, ModelConfig, SpectralKind, build_hamiltonian
from .spectral import fermi_occupation, lead_density

# Uniform midpoint discretization resolves the kernel's support, but the
# recurrence time 2 pi / (window/K) must stay past the simulated horizon;
# the cap keeps it above ~12 for the default K regardless of bandwidth.
_RECURRENCE_MARGIN = 12.0


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


def exact_greens(bath: DiscretizedBath, grid: TimeGrid) -> GreensSolution:
    """U and V of the discretized model by one eigendecomposition.

    U(t) is the dot-block of e^{-iht}; V(t) the dot-block of
    e^{-iht} D e^{iht} with D the initial bath occupations. Both are exact
    for the discretized Hamiltonian at every t before the bath recurs,
    and a grid past the recurrence raises ConfigError.

    With X(t) = Q_dots e^{-i lambda t}, U = X Q_dots^dag and
    V = X W X^dag with W = Q^dag D Q. The grid runs in chunks of time rows,
    each with X stacked to (2 rows, dim) and multiplied by W as one matrix
    product (two real ones when h is real). The phases of a chunk starting
    at row s are e^{-i lambda t_s} e^{-i lambda t_b} over the chunk's rows
    b, one table of the latter shared by every chunk.
    """
    _check_recurrence(bath, grid.t_max)
    evals, q = _eigh(bath)
    q_dots = q[:2, :]  # (2, D)
    q_dots_dag = np.conj(q_dots.T)
    d_b = bath.bath_occupation_diagonal()
    w_mat = (np.conj(q.T) * d_b[None, :]) @ q  # Q^dag D Q, (D, D)

    times = grid.times
    dim = evals.size
    u = np.empty((times.size, 2, 2), dtype=complex)
    v = np.empty_like(u)
    step = max(1, spectral._CHUNK_ELEMENTS // (2 * dim))
    inner = np.exp(-1j * np.outer(times[:step], evals))
    for s in range(0, times.size, step):
        rows = min(step, times.size - s)
        phases = np.exp(-1j * times[s] * evals) * inner[:rows]
        x = (q_dots[None, :, :] * phases[:, None, :]).reshape(2 * rows, dim)
        if np.isrealobj(w_mat):
            xw = np.empty_like(x)
            xw.real = x.real @ w_mat
            xw.imag = x.imag @ w_mat
        else:
            xw = x @ w_mat
        u[s:s + rows] = (x @ q_dots_dag).reshape(rows, 2, 2)
        x = x.reshape(rows, 2, dim)
        v[s:s + rows] = xw.reshape(rows, 2, dim) @ np.conj(x.transpose(0, 2, 1))
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
