import numpy as np
import pytest

import state_reference as ref
from dqdsim.cli import _NAMED_STATES
from dqdsim.greens import (
    TimeGrid,
    compute_fluctuation,
    pole_expansion_lorentzian,
    solve,
)
from dqdsim.model import InvariantViolation, SolverError, det_e, matrix2
from dqdsim.state import (
    DensityBlocks,
    _coefficients_e,
    _propagate_e,
    evolve_density,
    propagator_coefficients,
)

from conftest import make_config, random_density, random_uv_pair, random_unitary2


class TestDensityBlocks:
    def test_named_states(self):
        vac = DensityBlocks.vacuum()
        assert vac.rho1[0, 0] == 1.0 and vac.total_trace == pytest.approx(1.0)
        assert vac.occupations() == (0.0, 0.0)

        one = DensityBlocks.single(1)
        assert one.rho2[0, 0] == 1.0
        assert one.occupations() == (1.0, 0.0)
        assert DensityBlocks.single(2).occupations() == (0.0, 1.0)

        dbl = ref.double_occupied()
        assert dbl.rho1[1, 1] == 1.0
        assert dbl.occupations() == (1.0, 1.0)

    def test_bell_states(self):
        for sign in (+1, -1):
            b = DensityBlocks.bell(sign)
            assert b.total_trace == pytest.approx(1.0)
            assert b.occupations() == (pytest.approx(0.5), pytest.approx(0.5))
            assert b.purity() == pytest.approx(1.0)
            np.testing.assert_allclose(b.rho2[0, 1], 0.5 * sign)

    def test_single_requires_valid_mode(self):
        with pytest.raises(ValueError):
            DensityBlocks.single(3)

    def test_bell_requires_a_sign(self):
        with pytest.raises(ValueError, match="sign must be"):
            DensityBlocks.bell(0)

    def test_rejects_bad_blocks(self):
        with pytest.raises(InvariantViolation):
            DensityBlocks(rho1=np.diag([1.5, -0.5]), rho2=np.zeros((2, 2)))
        with pytest.raises(InvariantViolation):
            DensityBlocks(
                rho1=np.array([[0.5, 0.3], [0.0, 0.0]]), rho2=0.5 * np.eye(2)
            )
        with pytest.raises(InvariantViolation):
            DensityBlocks(rho1=0.4 * np.eye(2), rho2=0.4 * np.eye(2))

    def test_random_states_valid(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            assert rho.total_trace == pytest.approx(1.0)
            n1, n2 = rho.occupations()
            assert -1e-12 <= n1 <= 1.0 + 1e-12
            assert -1e-12 <= n2 <= 1.0 + 1e-12


class TestPropagatorCoefficients:
    def test_identity_fixed_point(self, rng):
        coeffs = propagator_coefficients(np.eye(2), np.zeros((2, 2)))
        j1, j2, j3, a = coeffs
        np.testing.assert_allclose(matrix2(j1), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(matrix2(j2), np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(matrix2(j3), np.zeros((2, 2)), atol=1e-14)
        assert a == pytest.approx(1.0)
        for _ in range(10):
            rho = random_density(rng)
            out = evolve_density(rho, coeffs)
            np.testing.assert_allclose(out.rho1, rho.rho1, atol=1e-12)
            np.testing.assert_allclose(out.rho2, rho.rho2, atol=1e-12)

    def test_fully_decayed_propagator_reaches_steady_state(self, rng):
        v = np.array([[0.5, 0.0], [0.0, 0.5]])
        coeffs = propagator_coefficients(np.zeros((2, 2)), v)
        target = ref.steady_state_density(v)
        for rho in (
            DensityBlocks.vacuum(),
            DensityBlocks.bell(),
            random_density(rng),
        ):
            out = evolve_density(rho, coeffs)
            np.testing.assert_allclose(out.rho1, target.rho1, atol=1e-12)
            np.testing.assert_allclose(out.rho2, target.rho2, atol=1e-12)

    def test_saturated_fluctuation_rejected(self):
        with pytest.raises(SolverError):
            propagator_coefficients(np.zeros((2, 2)), np.eye(2))

    def test_unitary_case_conjugates_single_block(self, rng):
        for _ in range(10):
            q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            coeffs = propagator_coefficients(q, np.zeros((2, 2)))
            rho = random_density(rng)
            out = evolve_density(rho, coeffs)
            np.testing.assert_allclose(out.rho2, q @ rho.rho2 @ q.conj().T, atol=1e-10)
            # vacuum and double-occupancy weights are unitarily invariant
            assert out.rho1[0, 0].real == pytest.approx(rho.rho1[0, 0].real)
            assert out.rho1[1, 1].real == pytest.approx(rho.rho1[1, 1].real)
            assert out.purity() == pytest.approx(rho.purity())


class TestEvolveDensity:
    def test_preserves_trace_and_positivity(self, rng):
        for _ in range(50):
            u, v = random_uv_pair(rng)
            coeffs = propagator_coefficients(u, v)
            out = evolve_density(random_density(rng), coeffs)
            assert out.total_trace == pytest.approx(1.0, abs=1e-10)
            for block in (out.rho1, out.rho2):
                assert np.linalg.eigvalsh(block).min() > -1e-10

    def test_benchmark_trajectory_is_physical(self):
        cfg = make_config()
        sol = solve(cfg, TimeGrid(8.0, 400))
        rho = DensityBlocks.single(1)
        occupied = []
        for k in range(0, 401, 20):
            coeffs = propagator_coefficients(sol.u_seq[k], sol.v_seq[k])
            out = evolve_density(rho, coeffs)
            assert out.total_trace == pytest.approx(1.0, abs=1e-9)
            occupied.append(sum(out.occupations()))
        # resonant with a half-filled band: total charge stays near one
        assert abs(occupied[-1] - 1.0) < 0.05

    def test_nan_fluctuation_is_an_invariant_violation(self):
        # every other check is a comparison, which NaN passes
        v = np.array([[np.nan, 0.0], [0.0, 0.2]])
        coeffs = propagator_coefficients(np.eye(2), v)
        with pytest.raises(InvariantViolation, match="non-finite entry"):
            evolve_density(DensityBlocks.bell(), coeffs)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("block", ["rho1", "rho2"])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
    def test_blocks_reject_non_finite_entries(self, bad, block, entry):
        blocks = {"rho1": np.diag([0.5, 0.0]).astype(complex),
                  "rho2": np.diag([0.5, 0.0]).astype(complex)}
        blocks[block][entry] = bad
        with pytest.raises(InvariantViolation, match=f"{block} block has a non-finite"):
            DensityBlocks(**blocks)


class TestSteadyStateDensity:
    def test_closed_form(self):
        v = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
        rho = ref.steady_state_density(v)
        detv = np.linalg.det(v).real
        np.testing.assert_allclose(
            np.diag(rho.rho1), [1.0 + detv - np.trace(v).real, detv], atol=1e-12
        )
        np.testing.assert_allclose(rho.rho2, v - detv * np.eye(2), atol=1e-12)

    def test_vacuum_limit(self):
        rho = ref.steady_state_density(np.zeros((2, 2)))
        np.testing.assert_allclose(rho.rho1, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(rho.rho2, np.zeros((2, 2)), atol=1e-14)

    def test_random_steady_states_are_valid(self, rng):
        from conftest import random_steady_v

        for _ in range(100):
            rho = ref.steady_state_density(random_steady_v(rng))
            assert rho.total_trace == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_decayed_evolution(self, rng):
        from conftest import random_steady_v

        for _ in range(20):
            v = random_steady_v(rng)
            if abs(np.linalg.det(np.eye(2) - v)) < 1e-6:
                continue
            coeffs = propagator_coefficients(np.zeros((2, 2)), v)
            out = evolve_density(random_density(rng), coeffs)
            target = ref.steady_state_density(v)
            np.testing.assert_allclose(out.rho1, target.rho1, atol=1e-9)
            np.testing.assert_allclose(out.rho2, target.rho2, atol=1e-9)


def _outcome(fn):
    """None when fn() returns, else (exception type, message)."""
    try:
        fn()
    except (InvariantViolation, SolverError) as exc:
        return type(exc), str(exc)
    return None


def _assert_matches_reference(u, v, rho, atol=1e-12):
    """Closed-form coefficients and propagated blocks against the literal ones."""
    new = propagator_coefficients(u, v)
    old = ref.propagator_coefficients(u, v)
    for got, want in zip(new[:3], old[:3]):
        np.testing.assert_allclose(matrix2(got), matrix2(want), rtol=0, atol=atol)
    assert abs(new[3] - old[3]) <= atol
    out = evolve_density(rho, new)
    rho1, rho2 = ref.evolve_density(rho, old)
    np.testing.assert_allclose(out.rho1, rho1, rtol=0, atol=atol)
    np.testing.assert_allclose(out.rho2, rho2, rtol=0, atol=atol)
    ref.density_blocks(rho1, rho2)  # the reference accepts what the closed form does
    assert out.total_trace == pytest.approx(np.trace(rho1).real + np.trace(rho2).real, abs=atol)
    purity = np.trace(rho1 @ rho1).real + np.trace(rho2 @ rho2).real
    assert out.purity() == pytest.approx(purity, abs=atol)
    n_dbl = rho1[1, 1].real
    assert out.occupations() == pytest.approx(
        (rho2[0, 0].real + n_dbl, rho2[1, 1].real + n_dbl), abs=atol
    )


class TestClosedFormAgainstReference:
    """The entry algebra of `state` against `tests/state_reference.py`."""

    def initial_states(self, rng, explicit=2):
        named = [factory() for factory in _NAMED_STATES.values()]
        return named + [random_density(rng) for _ in range(explicit)]

    def test_random_uv_pairs(self, rng):
        for _ in range(250):
            u, v = random_uv_pair(rng)
            for rho in self.initial_states(rng, explicit=1):
                _assert_matches_reference(u, v, rho)

    @pytest.mark.parametrize(
        "g, eps2, mu_r",
        [(0.4 + 0.3j, 2.0, 2.0), (-0.2 + 0.7j, 1.4, 2.6), (0.9j, 2.5, 1.5)],
    )
    def test_pole_trajectories_with_complex_g(self, rng, g, eps2, mu_r):
        cfg = make_config(g=g, eps2=eps2, mu_r=mu_r, d=1.5)
        grid = TimeGrid(10.0, 200)
        u = pole_expansion_lorentzian(cfg).reconstruct(grid.times)
        v = compute_fluctuation(u, cfg, grid)
        states = self.initial_states(rng)
        for k in range(grid.n_steps + 1):
            for rho in states:
                _assert_matches_reference(u[k], v[k], rho)

    def test_identity_and_decayed_ends(self, rng):
        for rho in self.initial_states(rng):
            _assert_matches_reference(np.eye(2), np.zeros((2, 2)), rho)
            _assert_matches_reference(np.zeros((2, 2)), 0.5 * np.eye(2), rho)


class TestEntryArrays:
    """The propagation algebra runs unchanged on arrays of entries: an `if`
    or a `math` call on an array would raise, so matching proves neither is
    there."""

    def test_pole_trajectory_matches_scalar_steps(self, rng):
        cfg = make_config(g=0.4 + 0.3j, eps2=2.5, mu_r=1.5, d=1.5)
        grid = TimeGrid(10.0, 200)
        u_seq = pole_expansion_lorentzian(cfg).reconstruct(grid.times)
        v_seq = compute_fluctuation(u_seq, cfg, grid)
        rho = random_density(rng)

        u = tuple(u_seq.reshape(-1, 4).T)
        v = tuple(v_seq.reshape(-1, 4).T)
        a = det_e((1.0 - v[0], -v[1], -v[2], 1.0 - v[3]))
        j1, j2, j3 = _coefficients_e(u, v, a)
        rho1, rho2 = _propagate_e(j1, j2, j3, a, rho._e1, rho._e2)

        for k in range(grid.n_steps + 1):
            coeffs = propagator_coefficients(u_seq[k], v_seq[k])
            out = evolve_density(rho, coeffs)
            got = [a[k]] + [x[k] for x in (*j1, *j2, *j3, *rho1, *rho2)]
            c1, c2, c3, c_a = coeffs
            want = [c_a, *c1, *c2, *c3, *out._e1, *out._e2]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _psd_block(rng, lam, mu):
    """A complex Hermitian block with eigenvalues lam and mu."""
    q = random_unitary2(rng)
    m = q @ np.diag([lam, mu]) @ q.conj().T
    return 0.5 * (m + m.conj().T)


class TestChecksAtTolerance:
    """The closed-form checks accept and reject exactly what eigvalsh did."""

    def assert_same_verdict(self, rho1, rho2, accepted, fragment=""):
        new = _outcome(lambda: DensityBlocks(rho1, rho2))
        old = _outcome(lambda: ref.density_blocks(rho1, rho2))
        assert new == old
        assert (new is None) == accepted
        if not accepted:
            assert new[0] is InvariantViolation
            assert fragment in new[1]

    @pytest.mark.parametrize("block", ["rho1", "rho2"])
    @pytest.mark.parametrize("offset, accepted", [(+1e-10, True), (-1e-10, False)])
    def test_negative_eigenvalue(self, rng, block, offset, accepted):
        lam = -1e-8 + offset
        for _ in range(5):
            m = _psd_block(rng, lam, 0.4)
            other = np.diag([1.0 - 0.4 - lam, 0.0])
            pair = (m, other) if block == "rho1" else (other, m)
            self.assert_same_verdict(
                *pair, accepted, f"{block} block has negative eigenvalue -1.010e-08"
            )

    @pytest.mark.parametrize("block", ["rho1", "rho2"])
    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("offset, accepted", [(-1e-10, True), (+1e-10, False)])
    def test_hermiticity_gap(self, block, where, offset, accepted):
        gap = 1e-8 + offset
        m = np.array([[0.3, 0.1 - 0.05j], [0.1 + 0.05j, 0.2]])
        if where == "diagonal":
            m[1, 1] += 0.5j * gap  # |m11 - conj(m11)| = gap
        else:
            m[0, 1] += gap
        other = np.diag([0.4, 0.1])
        pair = (m, other) if block == "rho1" else (other, m)
        self.assert_same_verdict(*pair, accepted, f"{block} block is not Hermitian")

    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    @pytest.mark.parametrize("offset, accepted", [(-1e-10, True), (+1e-10, False)])
    def test_total_trace(self, rng, sign, offset, accepted):
        excess = sign * (1e-8 + offset)
        rho1 = _psd_block(rng, 0.3, 0.2)
        rho2 = np.diag([0.5 + excess, 0.0])
        self.assert_same_verdict(rho1, rho2, accepted, "total trace")

    @pytest.mark.parametrize("scale, accepted", [(1.01, True), (0.99, False)])
    def test_singular_one_minus_v(self, rng, scale, accepted):
        # det(I - V) = 2^-46 s exactly, with s = 1 - v11
        s = scale * 1e-14 / 2.0**-46
        v = np.diag([1.0 - 2.0**-46, 1.0 - s])
        assert abs(np.linalg.det(np.eye(2) - v) / 1e-14 - scale) < 1e-12
        for u in (np.eye(2), random_unitary2(rng) * 0.5):
            new = _outcome(lambda: propagator_coefficients(u, v))
            old = _outcome(lambda: ref.propagator_coefficients(u, v))
            assert new == old
            assert (new is None) == accepted
            if not accepted:
                assert new[0] is SolverError and "I - V is singular" in new[1]
