"""Pointwise reference kernels and diagonal spectral matrices.

Adaptive-quadrature versions of the memory and noise kernels, one lag at a
time: slower than dqdsim.spectral.build_kernel_table but free of its
frequency window and panel widths, so the tests check the tables against
them. Also the 2x2 diagonal matrices J(w) and Re Sigma(w) built from the
per-lead functions of dqdsim.spectral, and the zero-temperature noise
kernel of a Lorentzian lead in closed form through the real exponential
integrals E1 and Ei (Ei from mpmath), the reference for the table's pole-integral column,
and the table's noise column as the package summed it before the Matsubara
closure: the sharp sea plus the Fermi remainder on panels on every row.
"""

import dataclasses
import math

import mpmath
import numpy as np
from scipy import integrate, special

from dqdsim.model import ConfigError, ModelConfig, ReservoirParams, SpectralKind
from dqdsim.spectral import (
    _TWO_PI,
    _fermi_remainder,
    _fourier_sum,
    _thermal_pair_table,
    fermi_occupation,
    lead_density,
    lead_self_energy_real,
)


def _e1_scaled(x: np.ndarray) -> np.ndarray:
    """exp(x) * E1(x) for x > 0, overflow-free."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 50.0
    xs = x[small]
    out[small] = np.exp(xs) * special.exp1(xs)
    xl = x[~small]
    acc = np.zeros_like(xl)
    term = 1.0 / xl
    for k in range(25):
        acc = acc + term
        term = term * (-(k + 1.0)) / xl
    out[~small] = acc
    return out


def _ei_scaled(x: np.ndarray) -> np.ndarray:
    """exp(-x) * Ei(x) for x > 0, overflow-free.

    mpmath at 40 digits below x = 50: scipy's expi is up to 2.4e-14
    relative off near x = 40.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 50.0
    with mpmath.workdps(40):
        out[small] = [float(mpmath.exp(-v) * mpmath.ei(v)) for v in x[small]]
    xl = x[~small]
    acc = np.zeros_like(xl)
    term = 1.0 / xl
    for k in range(25):
        acc = acc + term
        term = term * (k + 1.0) / xl
    out[~small] = acc
    return out


def _half_lorentzian_fourier(res: ReservoirParams, taus: np.ndarray) -> np.ndarray:
    """Exact integral of J_l(w) e^{-i w tau} / 2pi over w in (-inf, mu].

    This is the zero-temperature noise kernel of one Lorentzian lead.
    Valid for tau >= 0; negative tau follows from conjugation by the caller.
    """
    taus = np.asarray(taus, dtype=float)
    d = res.bandwidth
    x = d * taus
    c = np.empty(taus.shape, dtype=complex)
    zero = x == 0.0
    c[zero] = np.pi / (2.0 * d)
    xs = x[~zero]
    c[~zero] = (-_e1_scaled(xs) - _ei_scaled(xs) + 1j * np.pi * np.exp(-xs)) / (2j * d)
    pref = res.gamma * d * d / (2.0 * np.pi)
    return pref * np.exp(-1j * res.mu * taus) * c


def panel_noise_column(res: ReservoirParams, taus: np.ndarray) -> np.ndarray:
    """A Lorentzian lead's noise column on the uniform grid taus, with the
    Fermi remainder on panels of width <= pi / (4 tau_max) on every row."""
    tau_max = float(taus[-1])
    noise = np.zeros(taus.size, dtype=complex)
    d, mu = res.bandwidth, res.mu
    base = min(d / 2.0, 0.5, math.pi / (4.0 * tau_max))
    sea = _thermal_pair_table([mu - 1j * d], np.ones((1, 1), dtype=bool),
                              dataclasses.replace(res, k_t=0.0), taus, math.inf)
    noise += res.gamma * d * d / _TWO_PI * np.conj(sea[0, 0])
    if res.k_t > 0.0:
        nodes, c_w = _fermi_remainder(res, min(base, res.k_t / 2.0))
        coefs = c_w * lead_density(res, SpectralKind.LORENTZIAN, nodes) / _TWO_PI
        noise += _fourier_sum(nodes, coefs, taus)
    return noise


def spectral_density(config: ModelConfig, omega: float) -> np.ndarray:
    """Diagonal 2x2 spectral-density matrix J(omega)."""
    kind = config.spectral_kind
    return np.diag([lead_density(r, kind, omega) for r in config.reservoirs]).astype(float)


def self_energy_real(config: ModelConfig, omega: float) -> np.ndarray:
    """Diagonal 2x2 matrix of real self-energies at a real frequency."""
    kind = config.spectral_kind
    return np.diag(
        [lead_self_energy_real(r, kind, omega) for r in config.reservoirs]
    ).astype(float)


def _quad_fourier(f, a: float, b: float, tau: float, points=None) -> complex:
    """Adaptive integral of f(w) e^{-i w tau} over [a, b] for real f."""
    inner = sorted(p for p in (points or []) if a < p < b)
    if tau == 0.0:
        re = integrate.quad(f, a, b, points=inner or None, limit=400)[0]
        return complex(re, 0.0)
    edges = [a, *inner, b]
    val = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        c = integrate.quad(f, lo, hi, weight="cos", wvar=tau, limit=400)[0]
        s = integrate.quad(f, lo, hi, weight="sin", wvar=tau, limit=400)[0]
        val += c - 1j * s
    return val


def _lead_memory_kernel(res: ReservoirParams, kind: SpectralKind, tau: float) -> complex:
    if kind is SpectralKind.WIDE_BAND:
        raise ConfigError("wide-band memory kernel is a Dirac delta; not evaluable pointwise")
    if res.gamma == 0.0:
        return 0.0 + 0.0j
    if tau < 0.0:
        return np.conj(_lead_memory_kernel(res, kind, -tau))
    d, mu = res.bandwidth, res.mu
    if kind is SpectralKind.LORENTZIAN:
        return 0.5 * res.gamma * d * np.exp(-1j * mu * tau - d * tau)
    cut = res.cutoff
    if tau == 0.0:
        return complex(res.gamma * d * math.atan(cut / d) / math.pi, 0.0)

    def envelope(x):
        return res.gamma * d * d / (x * x + d * d)

    # J is even about mu, so the band integral reduces to a cosine transform.
    re = 2.0 * integrate.quad(envelope, 0.0, cut, weight="cos", wvar=tau, limit=400)[0]
    return np.exp(-1j * mu * tau) * re / (2.0 * np.pi)


def _lead_noise_kernel(res: ReservoirParams, kind: SpectralKind, tau: float) -> complex:
    if kind is SpectralKind.WIDE_BAND:
        raise ConfigError("wide-band noise kernel is a Dirac delta; not evaluable pointwise")
    if res.gamma == 0.0:
        return 0.0 + 0.0j
    if tau < 0.0:
        return np.conj(_lead_noise_kernel(res, kind, -tau))
    d, mu, kt = res.bandwidth, res.mu, res.k_t
    if kind is SpectralKind.LORENTZIAN:
        val = complex(_half_lorentzian_fourier(res, np.array([tau]))[0])
        if kt > 0.0 and tau > 0.0:
            # (n - step) is odd about x = w - mu and equals the bare Fermi
            # factor for x > 0, so only the sine transform survives; the
            # Fourier-weighted rule integrates the oscillatory tail exactly.
            def odd_part(x):
                return (res.gamma * d * d / (x * x + d * d)
                        / (math.exp(min(x / kt, 700.0)) + 1.0))

            sin_t, _ = integrate.quad(
                odd_part, 0.0, np.inf, weight="sin", wvar=tau,
                limit=400, limlst=200)
            val -= 1j * sin_t * np.exp(-1j * mu * tau) / np.pi
        return val
    cut = res.cutoff

    def weighted(w):
        return lead_density(res, kind, w) * fermi_occupation(w, mu, kt)

    hi = mu + cut if kt > 0.0 else mu
    pts = [mu - 14.0 * kt, mu, mu + 14.0 * kt] if kt > 0.0 else None
    return _quad_fourier(weighted, mu - cut, hi, tau, points=pts) / (2.0 * np.pi)


def memory_kernel(config: ModelConfig, tau: float) -> np.ndarray:
    """Diagonal 2x2 memory kernel g(tau) = sum_l int J_l e^{-i w tau} dw / 2pi."""
    kind = config.spectral_kind
    return np.diag([_lead_memory_kernel(r, kind, tau) for r in config.reservoirs])


def noise_kernel(config: ModelConfig, tau: float) -> np.ndarray:
    """Diagonal 2x2 occupation-weighted kernel with J_l n_l in place of J_l."""
    kind = config.spectral_kind
    return np.diag([_lead_noise_kernel(r, kind, tau) for r in config.reservoirs])
