import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebvander
from scipy import integrate, linalg, special

from dqdsim import oracle, spectral
from dqdsim.greens import TimeGrid, solve
from dqdsim.model import (
    ConfigError,
    ModelConfig,
    ReservoirParams,
    SolverError,
    SpectralKind,
    SystemParams,
    build_hamiltonian,
)
from dqdsim.oracle import discretize, exact_greens
from dqdsim.spectral import _Lead, fermi_occupation

from conftest import make_config
from oracle_reference import (
    bath_occupation_diagonal,
    batched_exact_greens,
    cos_chebyshev_rows,
    dense_dot_rows,
    hamiltonian,
    localized_eigenstates,
)


def _random_oracle_config(rng, kind, regime):
    """A seeded config for the oracle: real g unless the regime says."""
    kw = dict(
        eps1=rng.uniform(-2.0, 2.0),
        eps2=rng.uniform(-2.0, 2.0),
        g=rng.uniform(0.1, 1.5),
        gamma=rng.uniform(0.1, 1.0),
        gamma_r=rng.uniform(0.1, 1.0),
        d=rng.uniform(0.5, 3.0),
        mu=rng.uniform(-2.0, 2.0),
        mu_r=rng.uniform(-2.0, 2.0),
        k_t=rng.uniform(0.05, 1.0),
        kind=kind,
    )
    if kind is SpectralKind.CUTOFF_LORENTZIAN:
        kw["cutoff"] = rng.uniform(0.5, 3.0)
    if regime == "complex_g":
        kw["g"] = kw["g"] * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    elif regime == "zero_temperature":
        kw["k_t"] = 0.0
    elif regime == "right_uncoupled":
        kw["gamma_r"] = 0.0
    return make_config(**kw)


def _recurrence_time(bath):
    """2 pi / de of the coupled lead that recurs first."""
    return min(
        2.0 * math.pi / (e[1] - e[0])
        for e, res in zip(bath.energies, bath.config.reservoirs)
        if res.gamma > 0.0
    )


def _gapped_config():
    """The gapped census config: two bound states outside the band."""
    return make_config(g=1.0, kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=0.5, d=1.0)


def _expansion_order(bath, t_max):
    """The Chebyshev order in time exact_greens uses on this bath and horizon."""
    return oracle._chebyshev_order(0.5 * oracle._spectral_interval(bath)[1] * t_max)


class TestDiscretize:
    def test_rejects_wide_band(self):
        with pytest.raises(ConfigError):
            discretize(make_config(kind=SpectralKind.WIDE_BAND), 100)

    def test_rejects_too_few_modes(self):
        with pytest.raises(ConfigError):
            discretize(make_config(), 1)

    def test_rejects_infinite_cutoff_band(self):
        # the config itself refuses it, so no bath is ever built
        with pytest.raises(ConfigError, match="needs a finite cutoff"):
            make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=math.inf)

    def test_sampling_matches_spectral_density(self):
        cfg = make_config()
        bath = discretize(cfg, 250)
        assert bath.modes_per_lead == 250
        for lead, res in enumerate(cfg.reservoirs):
            e = bath.energies[lead]
            de = e[1] - e[0]
            np.testing.assert_allclose(
                bath.couplings[lead] ** 2,
                _Lead(res, cfg.spectral_kind).density(e) * de / (2.0 * math.pi),
                rtol=0.0, atol=1e-15,
            )
            np.testing.assert_allclose(
                bath.occupations[lead],
                fermi_occupation(e, res.mu, res.k_t),
                atol=1e-15,
            )

    def test_total_weight_matches_window_integral(self):
        cfg = make_config()
        bath = discretize(cfg, 400)
        res = cfg.reservoirs[0]
        lo, hi = bath.energies[0][0], bath.energies[0][-1]
        de = bath.energies[0][1] - bath.energies[0][0]
        ref, _ = integrate.quad(
            lambda w: _Lead(res, cfg.spectral_kind).density(w) / (2.0 * math.pi),
            lo - de / 2, hi + de / 2, limit=200,
        )
        assert np.sum(bath.couplings[0] ** 2) == pytest.approx(ref, rel=1e-4)

    def test_hamiltonian_structure(self):
        cfg = make_config(g=0.3 + 0.4j)
        bath = discretize(cfg, 40)
        h = hamiltonian(bath)
        assert h.shape == (82, 82)
        np.testing.assert_allclose(h, np.conj(h.T), atol=1e-14)
        np.testing.assert_allclose(
            h[:2, :2], build_hamiltonian(cfg.system), atol=1e-15
        )
        # star geometry: the two bath blocks never talk to each other
        np.testing.assert_array_equal(h[2:42, 42:], 0.0)

    def test_occupation_diagonal_bounds(self):
        diag = bath_occupation_diagonal(discretize(make_config(k_t=0.2), 60))
        assert diag.shape == (122,)
        np.testing.assert_array_equal(diag[:2], 0.0)
        assert np.all(diag >= 0.0) and np.all(diag <= 1.0)


class TestExactGreens:
    def test_decoupled_dots_rotate_unitarily(self):
        cfg = make_config(g=0.7, gamma=0.0, gamma_r=0.0)
        grid = TimeGrid(4.0, 200)
        sol = exact_greens(discretize(cfg, 80), grid)
        m = build_hamiltonian(cfg.system)
        for k in (0, 37, 120, 200):
            ref = linalg.expm(-1j * m * grid.times[k])
            np.testing.assert_allclose(sol.u_seq[k], ref, atol=1e-12)
        assert np.max(np.abs(sol.v_seq)) < 1e-13

    def test_initial_conditions_exact(self):
        sol = exact_greens(discretize(make_config(), 60), TimeGrid(1.0, 20))
        np.testing.assert_array_equal(sol.u_seq[0], np.eye(2))
        np.testing.assert_array_equal(sol.v_seq[0], 0.0)

    def test_mode_count_self_convergence(self):
        cfg = make_config()
        grid = TimeGrid(10.0, 400)
        coarse = exact_greens(discretize(cfg, 300), grid)
        fine = exact_greens(discretize(cfg, 600), grid)
        assert np.max(np.abs(coarse.u_seq - fine.u_seq)) < 2e-3
        assert np.max(np.abs(coarse.v_seq - fine.v_seq)) < 2e-3

    @pytest.mark.parametrize(
        "seed,kind,regime",
        [
            (seed, *case)
            for seed, case in enumerate(
                itertools.product(
                    (SpectralKind.LORENTZIAN, SpectralKind.CUTOFF_LORENTZIAN),
                    ("real_g", "complex_g", "zero_temperature"),
                )
            )
        ],
    )
    @pytest.mark.parametrize(
        "n_steps,chunk_elements",
        # one chunk (at most 249 Chebyshev ranks 2P - 1 here, so 201 rows
        # fit in one), one to three chunks with a short last one, and one
        # row per chunk
        [(200, None), (4500, None), (40, 1)],
    )
    def test_matches_batched_reference(
        self, monkeypatch, seed, kind, regime, n_steps, chunk_elements
    ):
        if chunk_elements is not None:
            monkeypatch.setattr(spectral, "_CHUNK_ELEMENTS", chunk_elements)
        rng = np.random.default_rng(500 + seed)
        for _ in range(2):
            bath = discretize(_random_oracle_config(rng, kind, regime), 60)
            grid = TimeGrid(rng.uniform(2.0, 10.0), n_steps)
            sol = exact_greens(bath, grid)
            ref = batched_exact_greens(bath, grid)
            assert np.max(np.abs(sol.u_seq - ref.u_seq)) < 1e-12
            assert np.max(np.abs(sol.v_seq - ref.v_seq)) < 1e-12

    @pytest.mark.parametrize(
        "seed,kind,regime",
        [
            (seed, *case)
            for seed, case in enumerate(
                itertools.product(
                    (SpectralKind.LORENTZIAN, SpectralKind.CUTOFF_LORENTZIAN),
                    ("real_g", "complex_g", "zero_temperature", "right_uncoupled"),
                )
            )
        ],
    )
    @pytest.mark.parametrize("n_steps", [400, 5])
    def test_matches_batched_reference_near_recurrence(
        self, seed, kind, regime, n_steps
    ):
        # a horizon at 0.9 of the recurrence time gives the largest
        # expansion order (P of 134 to 317 here); 5 steps is a coarse grid
        # with fewer times than terms
        rng = np.random.default_rng(900 + seed)
        bath = discretize(_random_oracle_config(rng, kind, regime), 60)
        grid = TimeGrid(0.9 * _recurrence_time(bath), n_steps)
        if n_steps == 5:
            assert _expansion_order(bath, grid.t_max) > n_steps + 1
        sol = exact_greens(bath, grid)
        ref = batched_exact_greens(bath, grid)
        assert np.max(np.abs(sol.u_seq - ref.u_seq)) < 1e-12
        assert np.max(np.abs(sol.v_seq - ref.v_seq)) < 1e-12

    @pytest.mark.parametrize("g", [0.5, 0.5 + 0.3j])
    def test_memory_stays_in_chunks(self, g):
        # D = 802 and 3001 times: the batched reference peaks at 301 MB,
        # holding (n+1, 2, D) arrays. At t_max = 10 (P = 265) the
        # expansion peaks at 20 MB; at 0.9 of the recurrence time
        # (P = 661) its (2P x 2P) coefficient products take it to 62 MB
        bath = discretize(make_config(g=g), 400)
        for t_max in (10.0, 0.9 * _recurrence_time(bath)):
            tracemalloc.start()
            try:
                exact_greens(bath, TimeGrid(t_max, 3000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 80e6

    def test_memory_linear_in_modes(self):
        # D = 4002 (2000 modes per lead) and 6001 times at P = 66: a dense
        # h alone would take 128 MB; the star products peak at 22 MB
        bath = discretize(_gapped_config(), 2000)
        tracemalloc.start()
        try:
            exact_greens(bath, TimeGrid(50.0, 6000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_recurrence_within_horizon_is_rejected(self):
        # 2 pi / de = 31.4 at 400 modes (window mu +- 40) and 12 at 100
        # modes (window capped at mu +- 26.2); t_max = 45 needs
        # de < 2 pi / 45 on the uncapped window, so 573 modes
        cfg = make_config(d=2.0, k_t=0.5)
        grid = TimeGrid(45.0, 90)
        for modes in (100, 400, 572):
            with pytest.raises(ConfigError, match="modes_per_lead >= 573"):
                exact_greens(discretize(cfg, modes), grid)
        exact_greens(discretize(cfg, 573), grid)

    def test_uncoupled_leads_never_recur(self):
        cfg = make_config(g=0.7, gamma=0.0, gamma_r=0.0)
        sol = exact_greens(discretize(cfg, 20), TimeGrid(100.0, 200))
        assert np.max(np.abs(sol.v_seq)) < 1e-13

    def test_truncated_expansion_fails_loudly(self, monkeypatch):
        # the gapped census config: P = 66 at t_max = 50; three terms fewer
        # leave dropped terms summing to 1.1e-13, above the stated 1e-13
        bath = discretize(_gapped_config(), 100)
        grid = TimeGrid(50.0, 500)
        exact_greens(bath, grid)
        order = oracle._chebyshev_order
        monkeypatch.setattr(oracle, "_chebyshev_order", lambda w: order(w) - 3)
        with pytest.raises(SolverError, match="phases is truncated in time"):
            exact_greens(bath, grid)

    def test_truncated_energy_expansion_fails_loudly(self, monkeypatch):
        # same config: M = 106 terms in energy, for the width 2 R tau. Four
        # fewer, with P kept, leave dropped terms summing to 1.7e-13 at
        # t = t_max (three fewer: 5.8e-14)
        bath = discretize(_gapped_config(), 100)
        grid = TimeGrid(50.0, 500)
        half_width = oracle._spectral_interval(bath)[1] * 25.0
        order = oracle._chebyshev_order
        assert order(2.0 * half_width) == 106
        monkeypatch.setattr(
            oracle, "_chebyshev_order",
            lambda w: order(w) - (4 if w > 1.5 * half_width else 0),
        )
        with pytest.raises(SolverError, match="phases is truncated in energy"):
            exact_greens(bath, grid)

    @pytest.mark.parametrize("width", [0.0, 1e-9, 0.3, 3.0, 27.0, 100.0, 600.0])
    def test_phase_coefficients_match_jacobi_anger(self, width):
        # b_p = (2 - delta_p0) (-i)^p J_p(w) e^{-iw}, and the terms dropped
        # past the order sum below the stated tail
        order = oracle._chebyshev_order(width)
        omega = np.linspace(-width, width, 101)
        ranks = np.arange(order)[:, None]
        exact = (
            np.where(ranks == 0, 1.0, 2.0) * (-1j) ** ranks
            * special.jv(ranks, omega) * np.exp(-1j * omega)
        )
        np.testing.assert_allclose(
            oracle._phase_coefficients(omega, order), exact, rtol=0.0, atol=1e-13
        )
        dropped = special.jv(np.arange(order, order + 300)[:, None], omega)
        assert np.max(np.sum(2.0 * np.abs(dropped), axis=0)) <= oracle._PHASE_TAIL
        assert order == 1 if width == 0.0 else order > width

    def test_agrees_with_volterra_solver(self):
        cfg = make_config()
        grid = TimeGrid(5.0, 2500)
        sol = solve(cfg, grid)
        oracle = exact_greens(discretize(cfg, 400), grid)
        assert np.max(np.abs(sol.u_seq - oracle.u_seq)) < 5e-3
        assert np.max(np.abs(sol.v_seq - oracle.v_seq)) < 5e-3


def _asymmetric_cutoff_config(rng, k_t):
    """A seeded cutoff bath with complex g whose two leads differ in every
    parameter but k_t."""

    def lead():
        return ReservoirParams(
            gamma=rng.uniform(0.1, 1.0),
            bandwidth=rng.uniform(0.5, 3.0),
            mu=rng.uniform(-2.0, 2.0),
            k_t=k_t,
            cutoff=rng.uniform(0.5, 3.0),
        )

    system = SystemParams(
        eps1=rng.uniform(-2.0, 2.0),
        eps2=rng.uniform(-2.0, 2.0),
        g_coupling=rng.uniform(0.1, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
    )
    return ModelConfig(system=system, left=lead(), right=lead(),
                       spectral_kind=SpectralKind.CUTOFF_LORENTZIAN)


class TestSolverAgainstOracle:
    """solve against the 400-mode oracle on cutoff baths the acceptance gate
    never samples: complex g, asymmetric leads and k_T of 0 or 3.

    Over these eight draws the largest differences are 1.654e-4 in U (seed
    7) and 2.680e-5 in V (seed 4). U's is the solver's trapezoid step error
    at dt = 0.005: it falls 16-fold at n = 8000, and a 1600-mode oracle
    moves it by 2e-7. The bounds sit just above those maxima.
    """

    U_BOUND = 2e-4
    V_BOUND = 3e-5

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        cfg = _asymmetric_cutoff_config(np.random.default_rng(1000 + seed), (0.0, 3.0)[seed % 2])
        grid = TimeGrid(10.0, 2000)
        sol = solve(cfg, grid)
        ex = exact_greens(discretize(cfg, 400), grid)
        assert np.max(np.abs(sol.u_seq - ex.u_seq)) <= self.U_BOUND
        assert np.max(np.abs(sol.v_seq - ex.v_seq)) <= self.V_BOUND


class TestDotRows:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "regime", ["complex_g", "zero_temperature", "right_uncoupled"])
    @pytest.mark.parametrize(
        "kind", [SpectralKind.LORENTZIAN, SpectralKind.CUTOFF_LORENTZIAN])
    def test_matches_dense_chebyshev_vectors(self, seed, regime, kind):
        rng = np.random.default_rng(900 + seed)
        bath = discretize(_random_oracle_config(rng, kind, regime), 30)
        centre, half = oracle._spectral_interval(bath)
        gamma = rng.normal(size=(40, 7)) + 1j * rng.normal(size=(40, 7))
        got = oracle._dot_rows(bath, centre, half, gamma)  # [a, l, j, p]
        want = dense_dot_rows(bath, centre, half, gamma)  # [i, a, p]
        # lead-major sites (l, j) in the dense order: the dots, then lead 0,
        # then lead 1; back from the real gauge, where dot 2 and its lead
        # carry g/|g|
        k = bath.modes_per_lead
        order = np.r_[0, 2:k + 2, 1, k + 2:2 * k + 2]
        g = complex(bath.config.system.g_coupling)
        phase = np.repeat([1.0, np.conj(g) / abs(g)], k + 1)
        got = got.reshape(2, 2 * k + 2, -1).transpose(1, 0, 2)
        got = phase[:, None, None] * got * np.conj(phase[[0, k + 1]])[:, None]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want[order])) <= 1e-13 * scale


class TestChebyshevRows:
    """exact_greens' time rows T_r(x), numpy's chebvander (the three-term
    recurrence) transposed, at the 2P - 1 = 133 and 1321 terms of the gapped
    and near-recurrence grids."""

    @staticmethod
    def _grid_x():
        times = TimeGrid(50.0, 6000).times
        return np.clip(times / 25.0 - 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("terms", [133, 1321])
    def test_matches_cos_form(self, terms):
        # the cos form rounds r arccos(x): a few r eps off
        x = self._grid_x()
        rows = chebvander(x, terms - 1).T
        assert rows.shape == (terms, x.size) and rows.flags.c_contiguous
        np.testing.assert_allclose(
            rows, cos_chebyshev_rows(x, terms), rtol=0.0, atol=4.0 * terms * np.finfo(float).eps
        )

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("terms", [133, 1321])
    def test_no_less_accurate_than_cos_form(self, terms):
        x = self._grid_x()
        wide = x.astype(np.longdouble)
        exact = np.cos(np.outer(np.arange(terms, dtype=np.longdouble), np.arccos(wide)))
        recurrence = np.max(np.abs(chebvander(x, terms - 1).T - exact))
        cosine = np.max(np.abs(cos_chebyshev_rows(x, terms) - exact))
        assert recurrence <= cosine


class TestSpectralInterval:
    @pytest.mark.parametrize(
        "seed,regime",
        enumerate(["bound_states", "complex_g", "zero_temperature"]),
    )
    def test_holds_every_eigenvalue(self, seed, regime):
        rng = np.random.default_rng(700 + seed)
        for i in range(6):
            if regime == "bound_states":
                # strong g splits the levels out of a narrow band
                cfg = make_config(
                    eps1=rng.uniform(1.5, 2.5), eps2=rng.uniform(1.5, 2.5),
                    g=rng.uniform(0.8, 1.5), gamma=rng.uniform(0.2, 1.0),
                    d=1.0, kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=0.5,
                )
            else:
                kind = (SpectralKind.LORENTZIAN, SpectralKind.CUTOFF_LORENTZIAN)[i % 2]
                cfg = _random_oracle_config(rng, kind, regime)
            bath = discretize(cfg, 60)
            evals = np.linalg.eigvalsh(hamiltonian(bath))
            centre, half = oracle._spectral_interval(bath)
            assert np.all(np.abs(evals - centre) <= half)
            if regime == "bound_states":
                outside = np.abs(evals - cfg.left.mu) > cfg.left.cutoff
                assert np.count_nonzero(outside) == 2

    def test_uncoupled_lead_does_not_widen(self):
        # the right lead's modes sit far above, with no dot weight: they
        # stay out of the interval and the oracle still matches
        near = discretize(make_config(gamma_r=0.0, mu_r=2.0), 60)
        far = discretize(make_config(gamma_r=0.0, mu_r=60.0), 60)
        centre, half = oracle._spectral_interval(far)
        assert (centre, half) == oracle._spectral_interval(near)
        assert far.energies[1].min() > centre + half + 20.0
        grid = TimeGrid(5.0, 100)
        sol = exact_greens(far, grid)
        ref = batched_exact_greens(far, grid)
        assert np.max(np.abs(sol.u_seq - ref.u_seq)) < 1e-12
        assert np.max(np.abs(sol.v_seq - ref.v_seq)) < 1e-12


class TestLocalizedEigenstates:
    def test_threshold_validation(self):
        bath = discretize(make_config(), 40)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigError):
                localized_eigenstates(bath, weight_threshold=bad)

    def test_broad_band_has_no_localized_states(self):
        cfg = make_config(
            g=0.3, kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=2.0, k_t=0.0,
            d=1.0,
        )
        assert localized_eigenstates(discretize(cfg, 300)) == []

    def test_narrow_band_localizes_split_levels(self):
        cfg = make_config(
            g=1.0, kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=0.5, k_t=0.0,
            d=1.0,
        )
        states = sorted(localized_eigenstates(discretize(cfg, 300)))
        assert len(states) == 2
        assert states[0][0] == pytest.approx(0.9259, abs=2e-3)
        assert states[1][0] == pytest.approx(3.0741, abs=2e-3)
        assert all(w > 0.8 for _, w in states)

    @pytest.mark.parametrize("g", [1.0, 0.6 - 0.8j])
    def test_matches_complex_eigendecomposition(self, g):
        # the real path for real h gives the energies and weights of a
        # complex eigh of the same matrix
        cfg = make_config(
            g=g, kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=0.5, k_t=0.0,
            d=1.0,
        )
        bath = discretize(cfg, 300)
        evals, q = np.linalg.eigh(hamiltonian(bath))
        weights = np.abs(q[0, :]) ** 2 + np.abs(q[1, :]) ** 2
        picks = weights > 0.5
        states = localized_eigenstates(bath)
        assert len(states) == 2
        np.testing.assert_allclose(
            np.array(states), np.column_stack([evals[picks], weights[picks]]),
            rtol=0.0, atol=1e-12,
        )
