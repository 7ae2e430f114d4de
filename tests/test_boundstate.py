import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import boundstate_reference
from dqdsim.boundstate import (
    ROOT_XTOL,
    BoundStateRoot,
    RelaxationKind,
    _band_intervals,
    _branch_root,
    _branches,
    _diagonal,
    classify_relaxation,
    find_bound_states,
)
from dqdsim.model import (
    ConfigError,
    ModelConfig,
    ReservoirParams,
    SolverError,
    SpectralKind,
    SystemParams,
)
from dqdsim.oracle import discretize
from dqdsim.spectral import _Lead

from boundstate_reference import criterion
from conftest import make_config
from oracle_reference import localized_eigenstates
from test_acceptance import CENSUS, _census_config


def cutoff_config(**kwargs):
    kwargs.setdefault("kind", SpectralKind.CUTOFF_LORENTZIAN)
    kwargs.setdefault("k_t", 0.0)
    return make_config(**kwargs)


# strong interdot coupling pushes both hybridized levels out of the
# narrow band; weights and energies cross-checked against exact
# diagonalization of the discretized Hamiltonian
TWO_ROOT = dict(eps1=2.0, eps2=2.0, g=1.0, gamma=0.5, d=1.0, mu=2.0, cutoff=0.5)
TWO_ROOT_ENERGIES = (0.925927526, 3.074072474)


@st.composite
def _cutoff_configs(draw):
    """Two cutoff leads with their own band, some decoupled, and any g."""

    def lead():
        return ReservoirParams(
            gamma=draw(st.just(0.0) | st.floats(0.01, 1.5)),
            bandwidth=draw(st.floats(0.2, 3.0)),
            mu=draw(st.floats(-2.0, 4.0)),
            k_t=0.0,
            cutoff=draw(st.floats(0.05, 2.5)),
        )

    system = SystemParams(
        eps1=draw(st.floats(-3.0, 5.0)),
        eps2=draw(st.floats(-3.0, 5.0)),
        g_coupling=draw(st.floats(-1.5, 1.5) | st.complex_numbers(max_magnitude=1.5)),
    )
    return ModelConfig(
        system=system,
        left=lead(),
        right=lead(),
        spectral_kind=SpectralKind.CUTOFF_LORENTZIAN,
    )


class TestCriterion:
    def test_requires_cutoff_kind(self):
        with pytest.raises(ConfigError):
            criterion(make_config(), 0.0)

    def test_rejects_in_band_evaluation(self):
        cfg = cutoff_config(**TWO_ROOT)
        with pytest.raises(ConfigError):
            criterion(cfg, 2.0)
        with pytest.raises(ConfigError):
            criterion(cfg, 2.49)

    def test_sign_structure_around_roots(self):
        cfg = cutoff_config(**TWO_ROOT)
        lo, hi = TWO_ROOT_ENERGIES
        assert criterion(cfg, lo - 0.3) > 0.0
        assert criterion(cfg, lo + 0.3) < 0.0
        assert criterion(cfg, hi - 0.3) < 0.0
        assert criterion(cfg, hi + 0.3) > 0.0

    def test_asymptotically_free(self):
        cfg = cutoff_config(**TWO_ROOT)
        for w in (-50.0, 60.0):
            bare = (w - 2.0) ** 2 - 1.0
            assert criterion(cfg, w) == pytest.approx(bare, rel=1e-2)


class TestBranches:
    @settings(max_examples=80)
    @given(_cutoff_configs(), st.data())
    def test_self_energy_falls_and_branches_rise_in_every_gap(self, cfg, data):
        # the root search brackets each branch once per gap on this
        bands = _band_intervals(cfg)
        edges = [-30.0] + [e for band in bands for e in band] + [30.0]
        a, b = data.draw(st.sampled_from(list(zip(edges[::2], edges[1::2]))))
        a, b = a + 1e-6, b - 1e-6
        w1 = data.draw(st.floats(a, b))
        w2 = data.draw(st.floats(w1, b))
        if w2 - w1 < 1e-6:
            w2 = w1 + 1e-6
            if w2 > b:
                return
        for res in cfg.reservoirs:
            if res.gamma > 0.0:
                sig1, sig2 = (
                    _Lead(res, cfg.spectral_kind).self_energy(w)[0] for w in (w1, w2)
                )
                assert sig2 < sig1
        rise = np.subtract(_branches(cfg, w2), _branches(cfg, w1))
        assert np.all(rise >= (w2 - w1) - 1e-12)


class TestFindBoundStates:
    def test_benchmark_two_roots(self):
        roots = find_bound_states(cutoff_config(**TWO_ROOT))
        assert len(roots) == 2
        np.testing.assert_allclose(
            sorted(r.energy for r in roots), TWO_ROOT_ENERGIES, atol=1e-6
        )
        for r in roots:
            assert isinstance(r, BoundStateRoot)
            assert np.max(np.abs(r.residue_weight)) > 0.1
            assert r.edge_distance > 0.1

    def test_bands_closer_than_twice_the_edge_distance_skip_their_gap(self, monkeypatch):
        # bands [-1, 1] and [1.0015, 3.0015]: the gap, shortened by
        # EDGE_DISTANCE_MIN at both ends, is empty and is never searched
        cfg = make_config(eps1=-1.5, eps2=4.0, g=0.2, gamma=0.3, d=1.0, mu=0.0, mu_r=2.0015,
                          k_t=0.0, cutoff=1.0, kind=SpectralKind.CUTOFF_LORENTZIAN)
        assert _band_intervals(cfg) == [(-1.0, 1.0), (1.0015, 3.0015)]
        seen = []

        def branches(config, w):
            seen.append(w)
            return _branches(config, w)

        monkeypatch.setattr("dqdsim.boundstate._branches", branches)
        roots = find_bound_states(cfg)
        assert not any(1.0 < w < 1.0015 for w in seen)
        energies = [r.energy for r in roots]
        assert len(energies) == 2 and energies[0] < -1.0 and energies[1] > 3.0015

    def test_near_decoupled_roots_at_hamiltonian_eigenvalues(self):
        cfg = cutoff_config(
            eps1=2.0, eps2=2.0, g=0.5, gamma=1e-9, cutoff=0.3, d=1.0, mu=2.0
        )
        roots = find_bound_states(cfg)
        np.testing.assert_allclose(
            sorted(r.energy for r in roots), [1.5, 2.5], atol=1e-6
        )

    def test_fully_decoupled_leads(self):
        cfg = cutoff_config(
            eps1=1.0, eps2=3.0, g=0.0, gamma=0.0, gamma_r=0.0, cutoff=0.5
        )
        roots = find_bound_states(cfg)
        np.testing.assert_allclose(
            sorted(r.energy for r in roots), [1.0, 3.0], atol=1e-9
        )

    def test_wide_band_levels_dissolve(self):
        cfg = cutoff_config(eps1=2.0, eps2=2.0, g=0.3, cutoff=2.0, gamma=0.5, d=1.0)
        assert find_bound_states(cfg) == []

    def test_asymmetric_band_swallows_one_root(self):
        cfg = cutoff_config(**TWO_ROOT, mu_r=3.0)
        roots = find_bound_states(cfg)
        assert len(roots) == 1
        assert roots[0].energy == pytest.approx(0.943753, abs=1e-5)

    @pytest.mark.parametrize("g", [1e-4, 1e-6])
    def test_near_degenerate_pair(self, g):
        # identical dots: A's eigenvalues are f -/+ |g|, so the two roots sit
        # about 2|g| / f' apart, and f' = 1 / (2 max|residue|); a fixed-step
        # scan of det A cancels the pair inside one cell
        cfg = cutoff_config(
            eps1=3.5, eps2=3.5, g=g, gamma=0.5, d=1.0, mu=2.0, cutoff=0.5
        )
        roots = sorted(find_bound_states(cfg), key=lambda r: r.energy)
        assert len(roots) == 2
        weight = np.max(np.abs(roots[0].residue_weight))
        splitting = roots[1].energy - roots[0].energy
        assert splitting == pytest.approx(4.0 * g * weight, rel=1e-3)
        assert (
            classify_relaxation(roots).kind
            is RelaxationKind.OSCILLATING_QUANTUM_MEMORY
        )

    @settings(max_examples=80)
    @given(_cutoff_configs())
    def test_finds_every_scan_root(self, cfg):
        found = [r.energy for r in find_bound_states(cfg)]
        for r in boundstate_reference.find_bound_states(cfg):
            assert any(abs(r.energy - e) <= 1e-9 for e in found)
        # each found root flips D's sign, twice flipped for a pair within
        # delta (a double root when g = 0 and the dots are identical)
        delta = 1e-7
        for e in found:
            pair = sum(abs(e2 - e) <= delta for e2 in found)
            flips = criterion(cfg, e - delta) * criterion(cfg, e + delta)
            assert flips * (-1) ** pair > 0.0

    @pytest.mark.parametrize("row", range(len(CENSUS)))
    def test_census_roots_are_brentq_roots(self, row):
        # rows with 0, 1 and 2 roots; brentq also polishes the roots that
        # hug a band edge, which the library's brackets leave out
        *params, expected = CENSUS[row]
        assert len(_roots_within_xtol_of_brentq(_census_config(*params))) == expected

    @pytest.mark.parametrize("g", [1e-4, 1e-6])
    def test_near_degenerate_pair_is_brentq_pair(self, g):
        cfg = cutoff_config(eps1=3.5, eps2=3.5, g=g, gamma=0.5, d=1.0, mu=2.0, cutoff=0.5)
        found = _roots_within_xtol_of_brentq(cfg)
        np.testing.assert_allclose(
            found, boundstate_reference.branch_roots_brentq(cfg), rtol=0.0, atol=ROOT_XTOL)

    @settings(max_examples=80)
    @given(_cutoff_configs())
    def test_every_root_is_a_brentq_root(self, cfg):
        _roots_within_xtol_of_brentq(cfg)

    def test_root_search_that_does_not_converge_raises(self):
        # a jump of 2e30 at 0.3 breaks the slope bound: each step only halves
        # the bracket, and 1e30 does not narrow to ROOT_XTOL within the cap
        def jump(w):
            return math.copysign(1e30, w - 0.3)

        with pytest.raises(SolverError, match="did not converge"):
            _branch_root(jump, -1e40, -1e30, 1e40, 1e30)

    def test_matches_oracle_localized_states(self):
        cfg = cutoff_config(**TWO_ROOT)
        roots = sorted(find_bound_states(cfg), key=lambda r: r.energy)
        states = sorted(localized_eigenstates(discretize(cfg, 400)))
        assert len(states) == 2
        for root, (energy, weight) in zip(roots, states):
            assert abs(root.energy - energy) < 1e-3
            assert weight > 0.5


def _roots_within_xtol_of_brentq(cfg):
    """The found energies, each checked to lie within ROOT_XTOL of a root of
    the per-branch brentq search."""
    want = np.array(boundstate_reference.branch_roots_brentq(cfg))
    found = [r.energy for r in find_bound_states(cfg)]
    for e in found:
        assert np.min(np.abs(want - e)) <= ROOT_XTOL
    return found


def _decoupled_slope(res, omega):
    """f'(w) = 1 - Sigma'(w) of a dot on one cutoff lead, out of band, from
    Sigma'(w) = -(1 / 2 pi) int J(x) / (w - x)^2 dx over the band."""
    val, _ = integrate.quad(
        lambda x: _Lead(res, SpectralKind.CUTOFF_LORENTZIAN).density(x) / (omega - x) ** 2,
        res.mu - res.cutoff, res.mu + res.cutoff, epsabs=0.0, epsrel=1e-12)
    return 1.0 + val / (2.0 * np.pi)


def _mp_slope(res, omega):
    """f'(w) = 1 - Sigma'(w) of a cutoff lead by mpmath.diff of its
    self-energy at the working precision."""
    mu, d, c, gamma = (mp.mpf(v) for v in (res.mu, res.bandwidth, res.cutoff, res.gamma))

    def sigma(w):
        x = w - mu
        bracket = mp.log((x + c) / (x - c)) + 2 * x / d * mp.atan(c / d)
        return gamma * d * d / (x * x + d * d) * bracket / (2 * mp.pi)

    return 1 - mp.diff(sigma, mp.mpf(omega))


class TestResidue:
    """A root's weight is v v^dag over its branch's slope v^dag diag(f1', f2') v,
    with v the branch's eigenvector of A: identical dots and leads put
    v = (1, -/+1) / sqrt(2) at any g > 0, and split the decoupled weight
    1 / f' of each dot between the two roots."""

    LEADS = dict(gamma=0.5, d=1.0, mu=2.0, cutoff=0.5)

    def test_pair_closer_than_the_root_tolerance_splits_the_weight(self):
        # at g = 1e-12 the roots lie 4e-12 apart, well inside ROOT_XTOL
        cfg = cutoff_config(eps1=4.2, eps2=4.2, g=1e-12, **self.LEADS)
        roots = find_bound_states(cfg)
        assert len(roots) == 2
        slope = _decoupled_slope(cfg.left, roots[0].energy)
        for r in roots:
            np.testing.assert_allclose(np.abs(r.residue_weight), 0.5 / slope, rtol=1e-8)
        total = roots[0].residue_weight + roots[1].residue_weight
        np.testing.assert_allclose(total, np.eye(2) / slope, atol=1e-8)

    def test_exact_double_root(self):
        # at g = 0 both branches vanish at one energy, each dot's own level
        cfg = cutoff_config(eps1=3.5, eps2=3.5, g=0.0, **self.LEADS)
        roots = find_bound_states(cfg)
        assert len(roots) == 2
        slope = _decoupled_slope(cfg.left, roots[0].energy)
        total = roots[0].residue_weight + roots[1].residue_weight
        np.testing.assert_allclose(total, np.eye(2) / slope, atol=1e-8)
        for r in roots:
            assert np.trace(r.residue_weight).real == pytest.approx(1.0 / slope, rel=1e-8)

    @pytest.mark.parametrize("row", range(len(CENSUS)))
    def test_census_weights_on_30_digit_slopes(self, row):
        # the weight v v^dag / (v^dag diag(f1', f2') v) with each f_l' from
        # mpmath.diff at 30 digits and v the root's eigenvector of A
        cfg = _census_config(*CENSUS[row][:-1])
        g = complex(cfg.system.g_coupling)
        for root in find_bound_states(cfg):
            with mp.workdps(30):
                slopes = np.array([float(_mp_slope(res, root.energy)) for res in cfg.reservoirs])
            f1, f2 = _diagonal(cfg, root.energy)
            lams, vecs = np.linalg.eigh(np.array([[f1, -g], [-g.conjugate(), f2]]))
            v = vecs[:, np.argmin(np.abs(lams))]
            want = np.outer(v, v.conj()) / (np.abs(v) ** 2 @ slopes)
            assert np.max(np.abs(root.residue_weight - want)) < 1e-14


class TestLeadSlope:
    """The lead value's slope f' = 1 - Sigma', which weighs every census
    root, against mpmath.diff of Sigma at 30 digits, outside both edges of
    each band, from 10 down to 1e-9 away. x = omega - mu is rounded to
    about eps (|mu| + c), so the slope can be no better than
    eps (|mu| + c) / distance, relative, near an edge."""

    @pytest.mark.parametrize("seed", range(8))
    def test_cutoff_slope_matches_30_digit_derivative(self, seed):
        rng = np.random.default_rng(seed)
        res = ReservoirParams(gamma=rng.uniform(0.05, 2.0), bandwidth=rng.uniform(0.2, 3.0),
                              mu=rng.uniform(-3.0, 3.0), cutoff=rng.uniform(0.3, 3.0))
        lead = _Lead(res, SpectralKind.CUTOFF_LORENTZIAN)
        eps = np.finfo(float).eps
        lo, hi = lead.band
        for dist in np.concatenate([[1e-9], 10.0 ** rng.uniform(-9.0, 1.0, 5)]):
            for w in (lo - dist, hi + dist):
                with mp.workdps(30):
                    want = float(_mp_slope(res, w))
                got = lead.self_energy(w)[1]
                edge = min(abs(w - lo), abs(w - hi))
                bound = 4.0 * eps * (1.0 + (abs(res.mu) + res.cutoff) / edge)
                assert abs(got - want) <= bound * abs(want)

    def test_lorentzian_and_wide_band_slopes(self):
        res = ReservoirParams(gamma=0.8, bandwidth=1.5, mu=0.5)
        lead = _Lead(res, SpectralKind.LORENTZIAN)
        for w in (-7.0, -1.0, 0.5, 0.6, 2.0, 2.25, 40.0):
            with mp.workdps(30):
                gamma, d, mu = (mp.mpf(v) for v in (res.gamma, res.bandwidth, res.mu))
                want = 1 - mp.diff(lambda z: gamma * d * (z - mu) / (2 * (d * d + (z - mu) ** 2)),
                                   mp.mpf(w))
            assert lead.self_energy(w)[1] == pytest.approx(float(want), rel=1e-15, abs=1e-15)
        sigma, slope = _Lead(res, SpectralKind.WIDE_BAND).self_energy(np.linspace(-3.0, 3.0, 7))
        assert not sigma.any() and np.all(slope == 1.0)


class TestClassifyRelaxation:
    def test_count_mapping(self):
        zero = classify_relaxation([])
        assert zero.kind is RelaxationKind.THERMAL_LIKE and zero.count == 0

        fake = BoundStateRoot(
            energy=1.0, residue_weight=0.5 * np.eye(2), edge_distance=1.0
        )
        one = classify_relaxation([fake])
        assert one.kind is RelaxationKind.QUANTUM_MEMORY and one.count == 1

        other = BoundStateRoot(
            energy=1.5, residue_weight=0.5 * np.eye(2), edge_distance=1.0
        )
        two = classify_relaxation([fake, other])
        assert two.kind is RelaxationKind.OSCILLATING_QUANTUM_MEMORY
        assert two.count == 2

        # two bound states at one energy do not beat: one level, two roots
        double = classify_relaxation([fake, fake])
        assert double.kind is RelaxationKind.QUANTUM_MEMORY
        assert double.count == 2

    def test_exact_double_root_is_quantum_memory(self):
        cfg = cutoff_config(eps1=3.5, eps2=3.5, g=0.0, gamma=0.5, d=1.0, mu=2.0, cutoff=0.5)
        roots = find_bound_states(cfg)
        assert [r.energy for r in roots] == pytest.approx([3.5492876363163757] * 2, abs=ROOT_XTOL)
        cls = classify_relaxation(roots)
        assert cls.kind is RelaxationKind.QUANTUM_MEMORY and cls.count == 2

    def test_end_to_end_scenarios(self):
        weak = cutoff_config(eps1=2.0, eps2=2.0, g=0.2, cutoff=3.0, gamma=0.5, d=1.0)
        assert (
            classify_relaxation(find_bound_states(weak)).kind
            is RelaxationKind.THERMAL_LIKE
        )
        lopsided = cutoff_config(**TWO_ROOT, mu_r=3.0)
        assert (
            classify_relaxation(find_bound_states(lopsided)).kind
            is RelaxationKind.QUANTUM_MEMORY
        )
        strong = cutoff_config(**TWO_ROOT)
        assert (
            classify_relaxation(find_bound_states(strong)).kind
            is RelaxationKind.OSCILLATING_QUANTUM_MEMORY
        )
