"""Pointwise reference kernels and diagonal spectral matrices.

Adaptive-quadrature versions of the memory and noise kernels, one lag at a
time: slower than dqdsim.spectral.build_kernel_table but free of its
frequency window and panel widths, so the tests check the tables against
them. Also the 2x2 diagonal matrices J(w) and Re Sigma(w) built from the
per-lead functions of dqdsim.spectral.
"""

import math

import numpy as np
from scipy import integrate

from dqdsim.model import ConfigError, ModelConfig, ReservoirParams, SpectralKind
from dqdsim.spectral import (
    _half_lorentzian_fourier,
    fermi_occupation,
    lead_density,
    lead_self_energy_real,
)


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
    if kind is SpectralKind.LORENTZIAN or math.isinf(res.cutoff):
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
    if kind is SpectralKind.LORENTZIAN or math.isinf(res.cutoff):
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
