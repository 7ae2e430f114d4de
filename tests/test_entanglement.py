import numpy as np
import pytest

from dqdsim.entanglement import fermionic_eof, steady_state_eof
from dqdsim.state import DensityBlocks

from conftest import random_density, random_steady_v
from state_reference import double_occupied, steady_state_density


class TestFermionicEof:
    def test_bell_states_are_maximal(self):
        for sign in (+1, -1):
            value = fermionic_eof(DensityBlocks.bell(sign))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_product_states_carry_none(self):
        for rho in (
            DensityBlocks.vacuum(),
            DensityBlocks.single(1),
            DensityBlocks.single(2),
            double_occupied(),
        ):
            assert fermionic_eof(rho) == 0.0

    def test_degenerate_block_gives_zero(self):
        rho = DensityBlocks(rho1=0.25 * np.eye(2), rho2=0.25 * np.eye(2))
        assert fermionic_eof(rho) == 0.0

    def test_zero_is_unsigned(self):
        value = fermionic_eof(DensityBlocks.vacuum())
        assert str(value) == "0.0"

    def test_phase_invariance(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            base = fermionic_eof(rho)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            r2 = rho.rho2.copy()
            r2[0, 1] *= phase
            r2[1, 0] = np.conj(r2[0, 1])
            rotated = DensityBlocks(rho1=rho.rho1, rho2=r2)
            assert fermionic_eof(rotated) == pytest.approx(base, abs=1e-12)

    def test_partial_bell_mixture_interpolates(self):
        # mixing a Bell state with vacuum scales the single block down
        values = []
        for p in (1.0, 0.7, 0.4, 0.1):
            bell = DensityBlocks.bell()
            rho = DensityBlocks(
                rho1=(1.0 - p) * np.diag([1.0, 0.0]) + p * bell.rho1,
                rho2=p * bell.rho2,
            )
            values.append(fermionic_eof(rho))
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounded_on_random_states(self, rng):
        for _ in range(200):
            value = fermionic_eof(random_density(rng))
            assert 0.0 <= value <= 1.0


class TestSteadyStateEof:
    def test_maximally_correlated_plateau(self):
        v = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert steady_state_eof(v) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_fluctuation_gives_zero(self):
        for n in (0.0, 0.3, 0.5, 0.9):
            assert steady_state_eof(n * np.eye(2)) == 0.0

    def test_consistent_with_full_formula(self, rng):
        for _ in range(1000):
            v = random_steady_v(rng)
            direct = steady_state_eof(v)
            full = fermionic_eof(steady_state_density(v))
            assert direct == pytest.approx(full, abs=1e-10)

    def test_benchmark_point(self):
        v = np.array(
            [[0.5, -0.203610092048039], [-0.203610092048039, 0.5]]
        )
        value = steady_state_eof(v)
        assert 0.0 < value < 1.0
        full = fermionic_eof(steady_state_density(v))
        assert value == pytest.approx(full, abs=1e-12)
