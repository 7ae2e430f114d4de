"""Shared builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from dqdsim import spectral
from dqdsim.model import (
    ModelConfig,
    ReservoirParams,
    SpectralKind,
    SystemParams,
)
from dqdsim.state import DensityBlocks

# Property tests draw the same bounded set of examples on every run and
# keep no example database.
settings.register_profile(
    "dqdsim", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("dqdsim")


def make_config(
    eps1=2.0,
    eps2=2.0,
    g=0.5,
    gamma=0.5,
    d=2.0,
    mu=2.0,
    k_t=0.5,
    cutoff=float("inf"),
    kind=SpectralKind.LORENTZIAN,
    gamma_r=None,
    mu_r=None,
) -> ModelConfig:
    """Two-lead config; by default the symmetric resonant benchmark point."""
    left = ReservoirParams(gamma=gamma, bandwidth=d, mu=mu, k_t=k_t, cutoff=cutoff)
    right = ReservoirParams(
        gamma=gamma if gamma_r is None else gamma_r,
        bandwidth=d,
        mu=mu if mu_r is None else mu_r,
        k_t=k_t,
        cutoff=cutoff,
    )
    return ModelConfig(
        system=SystemParams(eps1=eps1, eps2=eps2, g_coupling=g),
        left=left,
        right=right,
        spectral_kind=kind,
    )


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd_contraction(rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian 2x2 with spectrum inside [0, 1]."""
    u = random_unitary2(rng)
    return u @ np.diag(rng.uniform(0.0, 1.0, size=2)) @ u.conj().T


def random_uv_pair(rng: np.random.Generator):
    """A (U, V) pair satisfying the physical constraints.

    Any physical pair obeys 0 <= U U^dag + V-ish combinations <= 1; here it
    is enough that sigma(U) <= 1 and 0 <= V <= 1 - U U^dag, which keeps every
    correlation matrix U C0 U^dag + V inside [0, 1].
    """
    u = random_unitary2(rng) @ np.diag(rng.uniform(0.0, 1.0, size=2))
    gap = np.eye(2) - u @ u.conj().T
    w, q = np.linalg.eigh(gap)
    root = q @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T
    v = root @ random_psd_contraction(rng) @ root
    v = 0.5 * (v + v.conj().T)
    return u, v


def random_steady_v(rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with spectrum in [0, 1] (a valid V^s)."""
    return random_psd_contraction(rng)


def random_density(rng: np.random.Generator) -> DensityBlocks:
    """Random valid two-block density matrix with unit total trace."""
    blocks = []
    for _ in range(2):
        u = random_unitary2(rng)
        blocks.append(u @ np.diag(rng.uniform(0.1, 1.0, size=2)) @ u.conj().T)
    total = np.trace(blocks[0]).real + np.trace(blocks[1]).real
    return DensityBlocks(rho1=blocks[0] / total, rho2=blocks[1] / total)


def count_kernel_work(monkeypatch):
    """Record (rows, nodes) of each _fourier_sum and the size of each E1
    argument; every kernel sum, the wide band's too, runs in spectral."""
    work = {"sums": [], "e1": []}
    fourier_sum, scaled_exp1 = spectral._fourier_sum, spectral._scaled_exp1

    def counted_sum(nodes, coefs, taus):
        work["sums"].append((taus.size, nodes.size))
        return fourier_sum(nodes, coefs, taus)

    def counted_e1(w):
        work["e1"].append(np.size(w))
        return scaled_exp1(w)

    monkeypatch.setattr(spectral, "_fourier_sum", counted_sum)
    monkeypatch.setattr(spectral, "_scaled_exp1", counted_e1)
    return work


def assert_flat_work(work, runs):
    """The work of each of `runs` equal runs is no more than the first's:
    the same sums over the same nodes, on no more rows, and the same E1
    calls on no more arguments."""
    sums = np.array(work["sums"]).reshape(runs, -1, 2)
    e1 = np.array(work["e1"]).reshape(runs, -1)
    assert sums.size and e1.size
    assert np.all(sums[:, :, 1] == sums[0, :, 1])
    assert np.all(sums[:, :, 0] <= sums[0, :, 0])
    assert np.all(e1 <= e1[0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)
