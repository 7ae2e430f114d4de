import math

import numpy as np
import pytest

from dqdsim.greens import TimeGrid, compute_fluctuation, pole_expansion_lorentzian
from dqdsim.model import (
    ConfigError,
    ModelConfig,
    ReservoirParams,
    SolverError,
    SpectralKind,
    SystemParams,
    adjugate2,
    as_mat2,
    build_hamiltonian,
    dagger,
    det2,
    entries2,
    gamma_matrix,
    hermitian_eigs_e,
    inv2,
    is_hermitian,
    max_singular_e,
    require_hermitian,
)

from conftest import make_config, random_unitary2


class TestBuildHamiltonian:
    def test_symmetric_resonant(self):
        m = build_hamiltonian(SystemParams(eps1=2.0, eps2=2.0, g_coupling=0.5))
        assert np.array_equal(m, np.array([[2.0, 0.5], [0.5, 2.0]]))

    def test_decoupled_is_diagonal(self):
        m = build_hamiltonian(SystemParams(eps1=1.0, eps2=3.0, g_coupling=0.0))
        assert np.array_equal(m, np.diag([1.0, 3.0]))

    def test_complex_coupling_conjugated(self):
        m = build_hamiltonian(SystemParams(eps1=0.0, eps2=0.0, g_coupling=0.5j))
        assert m[0, 1] == 0.5j
        assert m[1, 0] == -0.5j

    def test_always_hermitian(self, rng):
        for _ in range(50):
            e1, e2 = rng.normal(size=2) * 5
            g = complex(*rng.normal(size=2))
            m = build_hamiltonian(SystemParams(eps1=e1, eps2=e2, g_coupling=g))
            assert np.max(np.abs(m - dagger(m))) < 1e-12

    def test_eigenvalues(self):
        m = build_hamiltonian(SystemParams(eps1=1.0, eps2=3.0, g_coupling=1.0 + 1.0j))
        mid, half = 2.0, math.hypot(1.0, abs(1.0 + 1.0j))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(m), [mid - half, mid + half], atol=1e-12
        )


class TestMat2Helpers:
    def test_det_adjugate_inverse(self, rng):
        for _ in range(50):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(det2(m) - np.linalg.det(m)) < 1e-12
            np.testing.assert_allclose(m @ adjugate2(m), det2(m) * np.eye(2), atol=1e-12)
            np.testing.assert_allclose(inv2(m) @ m, np.eye(2), atol=1e-12)

    def test_inverse_of_singular_raises(self):
        with pytest.raises(SolverError):
            inv2(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_as_mat2_shape_check(self):
        with pytest.raises(ValueError):
            as_mat2(np.zeros((3, 3)))

    def test_hermiticity_check(self):
        assert is_hermitian(np.array([[1.0, 2j], [-2j, 3.0]]))
        assert not is_hermitian(np.array([[1.0, 2j], [2j, 3.0]]))
        with pytest.raises(ConfigError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), "test matrix")


def _spectra_cases(rng):
    """(name, stack of 2x2 matrices) for the closed-form spectra."""

    def vec():
        return rng.normal(size=2) + 1j * rng.normal(size=2)

    yield "identity", np.eye(2, dtype=complex)[None]
    yield "scaled unitary", np.array(
        [c * random_unitary2(rng) for c in (1.0, 0.5, 1e-3, 1.0 - 1e-7) for _ in range(5)]
    )
    yield "rank one", np.array([np.outer(vec(), vec()) for _ in range(20)])
    yield "split by 1e-8", np.array(
        [random_unitary2(rng) @ np.diag([s, s * (1.0 + 1e-8)]) @ random_unitary2(rng)
         for s in (1.0, 0.7, 0.3, 1e-4)]
    )
    yield "random", rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    grid = TimeGrid(10.0, 400)
    for g in (0.4 + 0.3j, -0.2 + 0.7j, 0.9j):
        cfg = make_config(g=g, eps2=1.4, mu_r=2.6, d=1.5)
        u = pole_expansion_lorentzian(cfg).reconstruct(grid.times)
        yield f"U(t), g = {g}", u
        yield f"V(t), g = {g}", compute_fluctuation(u, cfg, grid)


class TestClosedFormSpectra:
    """hermitian_eigs_e and max_singular_e against LAPACK, on scalars (one
    matrix's entries) and on arrays (a stack's entries)."""

    ULPS = 6
    EPS = np.finfo(float).eps

    @staticmethod
    def both_paths(fn, stack):
        """fn on each matrix's scalar entries and on the stack's entry arrays."""
        scalar = np.array([fn(entries2(m)) for m in stack])
        array = np.array(fn(stack.reshape(-1, 4).T))
        return scalar.reshape(array.T.shape).T, array

    def test_largest_singular_value(self, rng):
        for name, stack in _spectra_cases(rng):
            ref = np.linalg.svd(stack, compute_uv=False)[:, 0]
            scale = np.where(ref > 0.0, ref, 1.0)  # V(0) = 0: absolute
            for got in self.both_paths(max_singular_e, stack):
                err = np.max(np.abs(got - ref) / scale)
                assert err <= self.ULPS * self.EPS, (name, err)

    def test_hermitian_eigenvalues(self, rng):
        for name, stack in _spectra_cases(rng):
            hermitian = 0.5 * (stack + np.conj(np.transpose(stack, (0, 2, 1))))
            ref = np.linalg.eigvalsh(hermitian)
            scale = np.abs(ref).max(axis=1)
            scale[scale == 0.0] = 1.0  # V(0) = 0: absolute
            for lo, hi in self.both_paths(hermitian_eigs_e, stack):
                for got, want in ((lo, ref[:, 0]), (hi, ref[:, 1])):
                    err = np.max(np.abs(got - want) / scale)
                    assert err <= self.ULPS * self.EPS, (name, err)

    def test_exact_cases(self):
        assert max_singular_e(entries2(np.eye(2, dtype=complex))) == 1.0
        assert max_singular_e(entries2(np.zeros((2, 2), dtype=complex))) == 0.0
        assert hermitian_eigs_e(entries2(np.diag([0.25, -0.5]).astype(complex))) == (-0.5, 0.25)
        assert hermitian_eigs_e(entries2(np.zeros((2, 2), dtype=complex))) == (0.0, 0.0)


class TestParamValidation:
    def test_reservoir_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ReservoirParams(gamma=-0.1)
        with pytest.raises(ConfigError):
            ReservoirParams(bandwidth=0.0)
        with pytest.raises(ConfigError):
            ReservoirParams(bandwidth=-1.0)
        with pytest.raises(ConfigError):
            ReservoirParams(k_t=-0.5)
        with pytest.raises(ConfigError):
            ReservoirParams(cutoff=0.0)
        with pytest.raises(ConfigError):
            ReservoirParams(mu=float("nan"))

    def test_infinite_cutoff_allowed(self):
        assert math.isinf(ReservoirParams(cutoff=float("inf")).cutoff)

    def test_system_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            SystemParams(eps1=float("inf"), eps2=0.0)
        with pytest.raises(ConfigError):
            SystemParams(eps1=0.0, eps2=0.0, g_coupling=complex("nan"))

    def test_spectral_kind_names(self):
        assert SpectralKind.from_name("lorentzian") is SpectralKind.LORENTZIAN
        assert SpectralKind.from_name("cutoff_lorentzian") is SpectralKind.CUTOFF_LORENTZIAN
        assert SpectralKind.from_name("wideband") is SpectralKind.WIDE_BAND
        with pytest.raises(ConfigError):
            SpectralKind.from_name("ohmic")


class TestModelConfig:
    def test_gamma_matrix_is_diagonal(self):
        cfg = make_config(gamma=0.5, gamma_r=1.5)
        np.testing.assert_array_equal(gamma_matrix(cfg), np.diag([0.5, 1.5]))

    def test_reservoir_order(self):
        cfg = make_config(mu=1.0, mu_r=4.0)
        assert cfg.reservoirs == (cfg.left, cfg.right)
        assert cfg.reservoirs[0].mu == 1.0
        assert cfg.reservoirs[1].mu == 4.0

    def test_default_kind(self):
        cfg = ModelConfig(
            system=SystemParams(eps1=0.0, eps2=0.0),
            left=ReservoirParams(),
            right=ReservoirParams(),
        )
        assert cfg.spectral_kind is SpectralKind.LORENTZIAN
