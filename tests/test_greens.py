import cmath
import dataclasses
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import expm, solve_sylvester

from dqdsim import greens, spectral
from dqdsim.greens import (
    GreensSolution,
    PoleExpansion,
    TimeGrid,
    _bm_stationary,
    _fft_period,
    _modes,
    _spectral_product,
    bm_fluctuation,
    compute_fluctuation,
    pole_expansion_lorentzian,
    solve,
    solve_dyson,
    steady_state_fluctuation,
    wbl_greens,
    wbl_steady_fluctuation,
)
from dqdsim.entanglement import steady_state_eof
from dqdsim.model import (
    ConfigError,
    InvariantViolation,
    ReservoirParams,
    SolverError,
    SpectralKind,
    SystemParams,
    build_hamiltonian,
    gamma_matrix,
)
from dqdsim.oracle import discretize, exact_greens
from dqdsim.spectral import _TWO_PI, build_kernel_table, fermi_occupation

from conftest import assert_flat_work, count_kernel_work, make_config, random_unitary2
from dyson_reference import direct_solve_dyson
from fluctuation_reference import direct_fluctuation
from fourier_reference import wbl_reference_fluctuation
from steady_reference import (
    four_pole_steady_fluctuation,
    mp_pole_expansion,
    mp_steady_fluctuation,
    pairwise_bm_stationary,
    pairwise_steady_fluctuation,
    pairwise_wbl_fluctuation,
    quad_steady_fluctuation,
    quad_steady_state_fluctuation,
    weighted_pairs,
)

# cross-validated reference values for the symmetric resonant benchmark
# (eps = mu = 2, G = 0.5, gamma = 0.5 per lead, d = 2, kT = 0.5)
BENCH_POLES = np.array(
    [
        1.413188395912550 - 0.257745288564674j,
        1.913188395912528 - 1.742254711435387j,
        2.086811604087489 - 1.742254711435297j,
        2.586811604087433 - 0.257745288564645j,
    ]
)
BENCH_V_STEADY_OFFDIAG = -0.203610092048039


class TestTimeGrid:
    def test_grid_values(self):
        g = TimeGrid(10.0, 4)
        assert g.dt == 2.5
        np.testing.assert_array_equal(g.times, [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 10)
        with pytest.raises(ConfigError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("n", [np.int64(80), np.int32(80), np.uint16(80)])
    def test_numpy_integer_steps_become_a_plain_int(self, n):
        grid = TimeGrid(10.0, n)
        assert type(grid.n_steps) is int
        assert grid == TimeGrid(10.0, 80)

    @pytest.mark.parametrize("n", [True, False, 80.0, 0, np.int64(0), -3, "80"])
    def test_rejects_steps_that_are_not_a_positive_integer(self, n):
        with pytest.raises(ConfigError, match="n_steps must be a positive integer"):
            TimeGrid(10.0, n)


# grid sizes n on both sides of the lengths 2^k and 3 2^k; on both sides
# of each n at which the top Newton level's 3-smooth FFT period turns, near
# n + 1 = B for B = 2^k, 3 2^k and 9 2^k (n + 1 = B -/+ 1, or B - 5 and
# B - 4 past 64, where the levels take 8 spare rows); primes; and the
# benchmark's 6000 and 8000
_DYSON_SIZES = sorted(
    {(1 << k) + j for k in range(1, 13) for j in (-1, 0, 1)}
    | {(3 << k) + j for k in range(1, 11) for j in (-1, 1)}
    | {(b << k) + j for b in (1, 3, 9) for k in range(1, 13) if 2 < (b << k) <= 8192
       for j in ((-2, 0) if (b << k) <= 64 else (-6, -5))}
    | {97, 1031, 2053, 2999, 6000, 8000}
)


def _series_product(a, b, rows):
    """Rows [0, rows) of the product of two (len, 2, 2) matrix series, or of
    one with a (len, 2) diagonal series, through their channel-major spectra
    at the period greens picks for the full product."""
    period = _fft_period(len(a) + len(b) - 1)
    fa, fb = (np.fft.fft(np.moveaxis(s, 0, -1), period) for s in (a, b))
    return np.moveaxis(_spectral_product(fa, fb, rows), -1, 0)


@st.composite
def _dyson_cases(draw):
    """A Lorentzian or cutoff config, real, complex or zero g, maybe
    Gamma_R = 0, and a grid."""
    lorentzian = draw(st.booleans())
    cfg = make_config(
        eps1=draw(st.floats(0.0, 4.0)),
        eps2=draw(st.floats(0.0, 4.0)),
        g=draw(st.sampled_from([0.0, 0.5]) | st.complex_numbers(max_magnitude=1.0)),
        gamma_r=draw(st.sampled_from([0.0, 0.5])),
        d=draw(st.floats(0.5, 10.0)),
        cutoff=math.inf if lorentzian else draw(st.floats(1.0, 5.0)),
        kind=SpectralKind.LORENTZIAN if lorentzian else SpectralKind.CUTOFF_LORENTZIAN,
    )
    n = draw(st.sampled_from(_DYSON_SIZES) | st.integers(1, 3000))
    return cfg, TimeGrid(draw(st.floats(1.0, 40.0)), n)


@st.composite
def _wide_band_limit_cases(draw):
    """Two unequal leads, real or complex g, and k_T = 0 or not."""
    return dict(
        eps1=draw(st.floats(-3.0, 3.0)),
        eps2=draw(st.floats(-3.0, 3.0)),
        g=draw(st.floats(-1.5, 1.5) | st.complex_numbers(max_magnitude=1.5)),
        gamma=draw(st.floats(0.1, 1.0)),
        gamma_r=draw(st.floats(0.1, 1.0)),
        mu=draw(st.floats(-3.0, 3.0)),
        mu_r=draw(st.floats(-3.0, 3.0)),
        k_t=draw(st.just(0.0) | st.floats(0.05, 2.0)),
    )


@st.composite
def _wide_band_closure_cases(draw):
    """Wide-band configs and grids from the regimes the Matsubara closure must
    cover: k_T from 0.05 to 20, tau* = 1/k_T from below dt to past t_max,
    Gamma down to 0.01, complex g, g = 0 and Gamma_R = 0."""
    k_t = draw(st.sampled_from([0.05, 0.5, 2.0, 20.0]))
    g = draw(st.sampled_from([0.0, 0.5, 0.4 * cmath.exp(1.1j)]))
    cfg = make_config(
        eps1=draw(st.floats(-3.0, 3.0)),
        eps2=draw(st.floats(-3.0, 3.0)),
        g=g,
        gamma=draw(st.sampled_from([0.01, 0.5])),
        gamma_r=draw(st.sampled_from([0.0, 0.01, 0.8])),
        mu=draw(st.floats(-3.0, 3.0)),
        mu_r=draw(st.floats(-3.0, 3.0)),
        k_t=k_t,
        kind=SpectralKind.WIDE_BAND,
    )
    grid = TimeGrid(draw(st.sampled_from([0.05, 1.0, 6.0])), draw(st.sampled_from([1, 9, 48])))
    return cfg, grid


@st.composite
def _pole_cases(draw):
    """Lorentzian leads, complex g, sometimes near-degenerate poles, and a
    horizon up to 100."""
    eps1 = draw(st.floats(0.0, 3.0))
    if draw(st.booleans()):
        # nearly equal levels, weakly coupled: the poles come in close pairs
        eps2 = eps1 + draw(st.floats(-1e-2, 1e-2))
        size = draw(st.floats(1e-3, 1e-2))
    else:
        eps2 = draw(st.floats(0.0, 3.0))
        size = draw(st.floats(0.0, 1.0))
    cfg = make_config(
        eps1=eps1,
        eps2=eps2,
        g=cmath.rect(size, draw(st.floats(0.0, 2.0 * math.pi))),
        gamma=draw(st.floats(0.2, 1.0)),
        d=draw(st.floats(0.5, 10.0)),
        mu=draw(st.floats(0.0, 3.0)),
    )
    return cfg, draw(st.sampled_from([10.0, 25.0, 50.0, 100.0]))


def lapack_check_solution(grid, u_seq, v_seq):
    """The spectral checks of greens._check_solution on LAPACK: V's extreme
    eigenvalues from eigvalsh and U's largest singular value from svd. The
    reference for its closed-form 2x2 spectra."""
    u, v = np.asarray(u_seq), np.asarray(v_seq)
    eigs = np.linalg.eigvalsh(0.5 * (v + np.conj(np.transpose(v, (0, 2, 1)))))
    if eigs.min() < greens.EIGENVALUE_FLOOR or eigs.max() > greens.EIGENVALUE_CEIL:
        raise InvariantViolation(
            f"V(t) spectrum [{eigs.min():.3e}, {eigs.max():.3e}] leaves [0, 1]"
        )
    svals = np.linalg.svd(u, compute_uv=False)
    if svals.max() > greens.SINGULAR_VALUE_CEIL:
        raise InvariantViolation(
            f"U(t) singular value {svals.max():.8f} exceeds contraction bound"
        )
    return svals[:, 0]


def _outcome(fn):
    """(True, value) when fn() returns, else (exception type, message)."""
    try:
        return True, fn()
    except InvariantViolation as exc:
        return InvariantViolation, str(exc)


class TestSolutionChecksAtTolerance:
    """The closed-form spectra of _check_solution accept and reject exactly
    what eigvalsh and svd did, at each bound plus or minus a small offset."""

    @staticmethod
    def assert_same_verdict(u, v, accepted, fragment):
        grid = TimeGrid(1.0, len(u) - 1)
        new = _outcome(lambda: greens._check_solution(grid, u, v))
        old = _outcome(lambda: lapack_check_solution(grid, u, v))
        assert new[0] is old[0]
        assert (new[0] is True) == accepted
        if accepted:
            np.testing.assert_allclose(new[1], old[1], rtol=6 * np.finfo(float).eps, atol=0)
        else:
            assert new[1] == old[1]
            assert fragment in new[1]

    @staticmethod
    def stacks(rng, n=6):
        u = 0.5 * np.stack([random_unitary2(rng) for _ in range(n)])
        u[0] = np.eye(2)
        v = np.zeros((n, 2, 2), dtype=complex)
        for k in range(1, n):
            q = random_unitary2(rng)
            v[k] = q @ np.diag([0.2, 0.6]) @ q.conj().T
        return u, v

    @pytest.mark.parametrize("bound, offset, accepted", [
        (greens.EIGENVALUE_FLOOR, +1e-10, True),
        (greens.EIGENVALUE_FLOOR, -1e-10, False),
        (greens.EIGENVALUE_CEIL, -1e-10, True),
        (greens.EIGENVALUE_CEIL, +1e-10, False),
    ])
    def test_v_spectrum(self, rng, bound, offset, accepted):
        for k in (1, 3, 5):
            u, v = self.stacks(rng)
            q = random_unitary2(rng)
            v[k] = q @ np.diag([bound + offset, 0.5]) @ q.conj().T
            v[k] = 0.5 * (v[k] + v[k].conj().T)
            self.assert_same_verdict(u, v, accepted, "V(t) spectrum")

    @pytest.mark.parametrize("offset, accepted", [(-1e-9, True), (+1e-9, False)])
    def test_u_contraction(self, rng, offset, accepted):
        for k in (1, 3, 5):
            u, v = self.stacks(rng)
            s = greens.SINGULAR_VALUE_CEIL + offset
            u[k] = random_unitary2(rng) @ np.diag([0.3, s]) @ random_unitary2(rng)
            self.assert_same_verdict(u, v, accepted, "U(t) singular value 1.000001")

    def test_accepted_norms_match_svd(self, rng):
        u, v = self.stacks(rng, n=50)
        self.assert_same_verdict(u, v, True, "")


class TestGreensSolutionInvariants:
    @staticmethod
    def trivial_solution(n=4):
        grid = TimeGrid(1.0, n)
        u = np.stack([np.eye(2, dtype=complex)] * (n + 1))
        v = np.zeros((n + 1, 2, 2), dtype=complex)
        return grid, u, v

    def test_accepts_trivial(self):
        grid, u, v = self.trivial_solution()
        sol = GreensSolution(grid, u, v)
        assert sol.u_seq.shape == (5, 2, 2)

    def test_rejects_nonidentity_start(self):
        grid, u, v = self.trivial_solution()
        u[0, 0, 0] = 0.5
        with pytest.raises(InvariantViolation):
            GreensSolution(grid, u, v)

    def test_rejects_nonzero_v_start(self):
        grid, u, v = self.trivial_solution()
        v[0, 0, 1] = 1e-6
        with pytest.raises(InvariantViolation):
            GreensSolution(grid, u, v)

    def test_rejects_nonhermitian_v(self):
        grid, u, v = self.trivial_solution()
        v[2, 0, 1] = 0.1
        with pytest.raises(InvariantViolation):
            GreensSolution(grid, u, v)

    def test_rejects_v_eigenvalue_above_one(self):
        grid, u, v = self.trivial_solution()
        u[3] = 0.0
        v[3] = 1.5 * np.eye(2)
        with pytest.raises(InvariantViolation):
            GreensSolution(grid, u, v)

    def test_rejects_expanding_u(self):
        grid, u, v = self.trivial_solution()
        u[2] = 1.2 * np.eye(2)
        with pytest.raises(InvariantViolation):
            GreensSolution(grid, u, v)

    @pytest.mark.parametrize("stack", ["u", "v"])
    def test_rejects_wrong_shape(self, stack):
        grid, u, v = self.trivial_solution()
        if stack == "u":
            u = u[:-1]
        else:
            v = v[:, :1]
        with pytest.raises(InvariantViolation, match="solution shape mismatch"):
            GreensSolution(grid, u, v)

    @pytest.mark.parametrize("stack", ["u", "v"])
    def test_rejects_nan(self, stack):
        grid, u, v = self.trivial_solution()
        bad = np.array([[np.nan, 0.0], [0.0, 0.2]])
        if stack == "u":
            u[2] = bad
        else:
            v[2] = bad
        with pytest.raises(InvariantViolation, match="non-finite entry"):
            GreensSolution(grid, u, v)


class TestSolveDyson:
    def test_decoupled_closed_form(self):
        cfg = make_config(eps1=2.0, eps2=2.0, g=0.5, gamma=0.0, gamma_r=0.0)

        def worst(n):
            grid = TimeGrid(6.0, n)
            u = solve_dyson(cfg, grid)
            t = grid.times
            expect = np.empty_like(u)
            expect[:, 0, 0] = expect[:, 1, 1] = np.exp(-2j * t) * np.cos(0.5 * t)
            expect[:, 0, 1] = expect[:, 1, 0] = (
                -1j * np.exp(-2j * t) * np.sin(0.5 * t)
            )
            return np.max(np.abs(u - expect))

        assert worst(600) < 1e-3
        assert worst(2400) < 5e-5  # second-order step error

    def test_unitary_when_undamped(self):
        # an undamped mode keeps every rounding error it is handed, so the
        # long grid bounds how the inversion's rounding grows with n
        cfg = make_config(eps1=1.0, eps2=3.0, g=0.7, gamma=0.0, gamma_r=0.0)
        for n in (500, 2**15 + 1):
            u = solve_dyson(cfg, TimeGrid(5.0, n))
            products = np.einsum("tab,tcb->tac", u, u.conj())
            assert np.max(np.abs(products - np.eye(2))) < 1e-12

    def test_second_order_convergence(self):
        cfg = make_config()
        coarse = solve_dyson(cfg, TimeGrid(4.0, 200))[-1]
        fine = solve_dyson(cfg, TimeGrid(4.0, 400))[-1]
        finest = solve_dyson(cfg, TimeGrid(4.0, 800))[-1]
        delta1 = np.max(np.abs(fine - coarse))
        delta2 = np.max(np.abs(finest - fine))
        assert delta1 < 4e-3
        assert 3.0 < delta1 / delta2 < 5.0

    def test_wideband_is_dispatched_away(self):
        cfg = make_config(kind=SpectralKind.WIDE_BAND)
        with pytest.raises(ConfigError):
            solve_dyson(cfg, TimeGrid(1.0, 10))

    @settings(max_examples=40)
    @given(_dyson_cases())
    @example((make_config(eps1=0.0, eps2=0.5, g=0.0, d=3.5, cutoff=1.0,
                          kind=SpectralKind.CUTOFF_LORENTZIAN), TimeGrid(37.5, 4606)))
    def test_blocked_history_sum_matches_direct_loop(self, case):
        # the loop runs in extended precision: in double it drifts by its
        # own rounding to 1.8e-12 on the example, where the solver is 6.8e-13 off
        cfg, grid = case
        got = solve_dyson(cfg, grid)
        want = direct_solve_dyson(cfg, grid, dtype=np.clongdouble)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_fft_period_is_least_3_smooth_length(self):
        smooth = np.sort([(1 << a) * 3**b for a in range(17) for b in range(11)])
        lengths = np.arange(1, 20001)
        want = smooth[np.searchsorted(smooth, lengths)]
        assert [_fft_period(int(length)) for length in lengths] == want.tolist()

    @pytest.mark.parametrize("n", _DYSON_SIZES)
    def test_history_sum_across_block_boundaries(self, n):
        cfg = make_config(
            eps2=1.5, g=0.3 + 0.4j, cutoff=3.0, kind=SpectralKind.CUTOFF_LORENTZIAN
        )
        grid = TimeGrid(0.01 * n, n)
        want = direct_solve_dyson(cfg, grid)
        assert np.max(np.abs(solve_dyson(cfg, grid) - want)) <= 1e-12

    @pytest.mark.parametrize(
        "cfg, t_max",
        [
            (make_config(eps1=2.1, eps2=2.1, g=0.45, mu=1.9), 10.0),
            (make_config(g=1.0, d=1.0, cutoff=0.5,
                         kind=SpectralKind.CUTOFF_LORENTZIAN), 50.0),
        ],
        ids=["lorentzian", "cutoff"],
    )
    def test_matches_extended_precision_reference(self, cfg, t_max):
        # the same kernel table, stepped in double and in extended precision
        grid = TimeGrid(t_max, 2000)
        want = direct_solve_dyson(cfg, grid, dtype=np.clongdouble)
        assert np.max(np.abs(solve_dyson(cfg, grid) - want)) <= 1e-12

    def test_large_bandwidth_approaches_wideband(self):
        # the kernel decays on 1/d, so the step must resolve that scale
        lor = make_config(d=1000.0)
        wbl = make_config(kind=SpectralKind.WIDE_BAND)
        grid = TimeGrid(1.0, 5000)
        u_lor = solve_dyson(lor, grid)
        sol_wbl = wbl_greens(wbl, grid)
        assert np.max(np.abs(u_lor - sol_wbl.u_seq)) < 1e-2
        v_lor = compute_fluctuation(u_lor, lor, grid)
        assert np.max(np.abs(v_lor - sol_wbl.v_seq)) < 1e-2


class TestComputeFluctuation:
    @staticmethod
    def _double_sum_error(cfg, grid):
        u = solve_dyson(cfg, grid)
        v = compute_fluctuation(u, cfg, grid)
        noise = build_kernel_table(cfg, grid.times, noise=True).T
        return np.max(np.abs(v - direct_fluctuation(u, noise, grid.dt)))

    def test_matches_direct_double_sum(self):
        cfg = make_config(d=1.5, k_t=0.3, mu=1.0)
        assert self._double_sum_error(cfg, TimeGrid(2.0, 40)) < 1e-13

    REGIMES = ("zero_temperature", "complex_g", "asymmetric_leads", "lorentzian", "bound_states")

    @pytest.mark.parametrize("seed, regime", enumerate(REGIMES), ids=REGIMES)
    def test_matches_direct_double_sum_across_regimes(self, seed, regime):
        rng = np.random.default_rng(seed)
        params = dict(eps1=rng.uniform(0.0, 4.0), eps2=rng.uniform(0.0, 4.0),
                      g=rng.uniform(0.0, 1.0), d=rng.uniform(0.5, 3.0),
                      mu=rng.uniform(0.0, 4.0), k_t=rng.uniform(0.1, 1.0),
                      cutoff=rng.uniform(1.0, 4.0), kind=SpectralKind.CUTOFF_LORENTZIAN)
        if regime == "zero_temperature":
            params["k_t"] = 0.0
        elif regime == "complex_g":
            params["g"] = cmath.rect(params["g"], rng.uniform(0.0, 2.0 * math.pi))
        elif regime == "asymmetric_leads":
            params.update(gamma_r=rng.uniform(0.1, 1.0), mu_r=rng.uniform(0.0, 4.0))
        elif regime == "lorentzian":
            params.update(cutoff=math.inf, kind=SpectralKind.LORENTZIAN)
        else:
            # gapped-verify's bath: a narrow band with one bound state on each side
            params.update(eps1=2.0, eps2=2.0, g=1.0, d=1.0, mu=2.0, cutoff=0.5)
        grid = TimeGrid(rng.uniform(1.0, 20.0), int(rng.integers(100, 201)))
        assert self._double_sum_error(make_config(**params), grid) < 1e-13

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 255, 300])
    def test_causal_convolution_matches_direct_sum(self, n):
        rng = np.random.default_rng(300 + n)
        u = rng.normal(size=(n + 1, 2, 2)) + 1j * rng.normal(size=(n + 1, 2, 2))
        g = rng.normal(size=(n + 1, 2, 2)) + 1j * rng.normal(size=(n + 1, 2, 2))
        # rounding of the FFT scales with the summed magnitudes, not the sum
        bound = np.sum(np.abs(u)) * np.max(np.abs(g))
        # every row of the series product, for a kernel as long as u, for a
        # shorter one and for a diagonal one, and its leading rows alone
        diagonal = g[:, [0, 1], [0, 1], None] * np.eye(2)
        for kernel in (g, g[: n // 2 + 1], diagonal):
            direct = np.zeros((n + len(kernel), 2, 2), dtype=complex)
            for k in range(n + 1):
                direct[k : k + len(kernel)] += u[k] @ kernel
            c = _series_product(u, kernel, len(direct))
            assert c.shape == direct.shape
            assert np.max(np.abs(c - direct)) < 1e-15 * bound
            lead = _series_product(u, kernel, n + 1)
            assert np.max(np.abs(lead - direct[: n + 1])) < 1e-15 * bound

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257, 1000])
    def test_diagonal_operand_is_transformed_on_its_diagonal(self, n):
        # a diagonal series given as its (len, 2) diagonals gives the same
        # bits as the full 2x2 series whose off-diagonal spectra are zeros
        rng = np.random.default_rng(400 + n)
        u = rng.normal(size=(n + 1, 2, 2)) + 1j * rng.normal(size=(n + 1, 2, 2))
        for m in (n + 1, n // 2 + 1):
            d = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
            full = d[:, :, None] * np.eye(2)
            for rows in (n + m, n + 1):
                assert np.array_equal(
                    _series_product(d, u, rows), _series_product(full, u, rows)
                )
                assert np.array_equal(
                    _series_product(u, d, rows), _series_product(u, full, rows)
                )

    def test_empty_band_suppresses_fluctuations(self):
        # the band sits 22 Gamma below the dot levels, so only a small
        # transient bump (about 1.5e-3, oracle-confirmed) survives and the
        # late-time fluctuation falls below 1e-3
        cfg = make_config(mu=-20.0, mu_r=-20.0, k_t=0.1)
        grid = TimeGrid(10.0, 800)
        u = solve_dyson(cfg, grid)
        v = compute_fluctuation(u, cfg, grid)
        assert np.max(np.abs(v)) < 2e-3
        assert np.max(np.abs(v[-1])) < 1e-3
        exp = pole_expansion_lorentzian(cfg)
        assert np.max(np.abs(steady_state_fluctuation(exp, cfg))) < 1e-3

    def test_solve_bundles_u_and_v(self):
        cfg = make_config()
        grid = TimeGrid(3.0, 300)
        sol = solve(cfg, grid)
        np.testing.assert_array_equal(sol.u_seq, solve_dyson(cfg, grid))
        np.testing.assert_array_equal(
            sol.v_seq, compute_fluctuation(sol.u_seq, cfg, grid)
        )

    @pytest.mark.parametrize("kind", [SpectralKind.LORENTZIAN, SpectralKind.CUTOFF_LORENTZIAN])
    def test_solve_builds_each_kernel_once(self, monkeypatch, kind):
        # U reads the memory kernel and V the noise kernel, each from its
        # own build: no build carries a kernel its caller drops
        builds = []
        build = greens.build_kernel_table

        def counted(config, taus, noise):
            table = build(config, taus, noise)
            builds.append((noise, table.shape))
            return table

        monkeypatch.setattr(greens, "build_kernel_table", counted)
        cutoff = 2.0 if kind is SpectralKind.CUTOFF_LORENTZIAN else math.inf
        solve(make_config(kind=kind, cutoff=cutoff), TimeGrid(3.0, 300))
        assert builds == [(False, (2, 301)), (True, (2, 301))]


class TestPoleExpansion:
    def test_benchmark_poles(self):
        exp = pole_expansion_lorentzian(make_config())
        np.testing.assert_allclose(
            np.sort_complex(exp.poles), BENCH_POLES, atol=1e-9
        )

    def test_poles_satisfy_secular_criterion(self):
        """Seeded differential test of the one pole routine on both kinds."""
        rng = np.random.default_rng(11)
        configs = [make_config(eps1=1.0, eps2=3.5, g=0.8, d=1.2, mu=0.5, k_t=0.2)]
        for regime in ("complex_g", "g_zero", "gamma_r_zero", "zero_temperature"):
            for kind in (SpectralKind.LORENTZIAN, SpectralKind.WIDE_BAND):
                configs += [_random_config(rng, regime, kind) for _ in range(3)]
        grid = TimeGrid(5.0, 1000)
        for cfg in configs:
            exp = _modes(cfg)
            m = build_hamiltonian(cfg.system)
            for r, z in zip(exp.poles, exp.residues):
                if np.max(np.abs(z)) <= 1e-12:
                    continue  # a pseudomode no dot sees
                a = r * np.eye(2) - m - _self_energy(cfg, r)
                assert abs(np.linalg.det(a)) < 1e-8
            np.testing.assert_allclose(
                sum(exp.residues), np.eye(2), rtol=0.0, atol=1e-12
            )
            u = exp.reconstruct(grid.times)
            if cfg.spectral_kind is SpectralKind.LORENTZIAN:
                assert len(exp.poles) == 4
                assert np.max(np.abs(u - solve_dyson(cfg, grid))) < 1e-3
                continue
            m_eff = m - 0.5j * gamma_matrix(cfg)
            np.testing.assert_allclose(
                np.sort_complex(exp.poles),
                np.sort_complex(np.linalg.eigvals(m_eff)),
                rtol=0.0,
                atol=1e-12,
            )
            for i in (0, 300, 1000):
                np.testing.assert_allclose(
                    u[i], expm(-1j * m_eff * grid.times[i]), atol=1e-12
                )

    def test_residues_sum_to_identity(self):
        exp = pole_expansion_lorentzian(make_config())
        total = sum(exp.residues)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-8)

    def test_poles_in_lower_half_plane(self):
        for cfg in (make_config(), make_config(g=0.0), make_config(d=0.5, mu=4.0)):
            exp = pole_expansion_lorentzian(cfg)
            assert all(p.imag <= 1e-12 for p in exp.poles)

    def test_reconstruct_matches_volterra(self):
        cfg = make_config()
        grid = TimeGrid(10.0, 4000)
        u_pole = pole_expansion_lorentzian(cfg).reconstruct(grid.times)
        u_volt = solve_dyson(cfg, grid)
        assert np.max(np.abs(u_pole - u_volt)) < 1e-3

    @settings(max_examples=10)
    @given(_pole_cases())
    def test_volterra_converges_to_poles_at_second_order(self, case):
        cfg, t_max = case
        fine = TimeGrid(t_max, round(100 * t_max))  # dt = 0.01
        coarse = TimeGrid(t_max, fine.n_steps // 2)
        exact = pole_expansion_lorentzian(cfg).reconstruct(fine.times)
        u_fine = solve_dyson(cfg, fine)
        u_coarse = solve_dyson(cfg, coarse)
        err_fine = np.max(np.abs(u_fine - exact))
        err_coarse = np.max(np.abs(u_coarse - exact[::2]))
        assert 3.0 < err_coarse / err_fine < 5.0
        # the dt^2 term cancels; 200 drawn configs stayed under 1.1e-4
        richardson = (4.0 * u_fine[::2] - u_coarse) / 3.0
        assert np.max(np.abs(richardson - exact[::2])) < 5e-4

    def test_decoupled_channels(self):
        exp = pole_expansion_lorentzian(make_config(g=0.0, eps1=1.0, eps2=3.0))
        assert len(exp.poles) == 4
        total = sum(exp.residues)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-8)
        # each residue acts on a single channel when G = 0
        for z in exp.residues:
            assert abs(z[0, 1]) < 1e-10 and abs(z[1, 0]) < 1e-10

    def test_large_bandwidth_poles_cluster_on_wbl_modes(self):
        # a quartic root finder lost the residue sum (1.000025) from d = 3000 on
        for d in (1000.0, 3000.0, 1e4, 1e5):
            cfg = make_config(d=d)
            exp = pole_expansion_lorentzian(cfg)
            np.testing.assert_allclose(
                sum(exp.residues), np.eye(2), rtol=0.0, atol=1e-12
            )
            m = build_hamiltonian(cfg.system)
            modes = np.linalg.eigvals(m - 0.5j * gamma_matrix(cfg))
            near = sorted(exp.poles, key=lambda p: -p.imag)[:2]
            for mode in modes:
                assert min(abs(mode - p) for p in near) < 1e-2

    def test_requires_lorentzian(self):
        for kind in (SpectralKind.WIDE_BAND, SpectralKind.CUTOFF_LORENTZIAN):
            with pytest.raises(ConfigError):
                pole_expansion_lorentzian(make_config(kind=kind, cutoff=5.0))

    @pytest.mark.parametrize("cond", [1e9, 1e7, math.inf])
    def test_defective_eigenvectors_are_refused(self, monkeypatch, cond):
        # eig keeps its poles but returns eigenvectors of the given condition
        # number, Q1 diag(1, 1, 1, 1/cond) Q2, or, at inf, two equal columns,
        # whose last singular value is exactly 0
        cfg = make_config(eps1=1.0, eps2=3.5, g=0.8, d=1.2, mu=0.5)
        if cond == math.inf:
            vecs = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)
        else:
            rng = np.random.default_rng(5)
            q1, q2 = (np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
                      for _ in range(2))
            vecs = (q1 * [1.0, 1.0, 1.0, 1.0 / cond]) @ q2
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: (eig(a)[0], vecs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if cond < 1e8:
                assert len(pole_expansion_lorentzian(cfg).poles) == 4
            else:
                with pytest.raises(SolverError) as info:
                    pole_expansion_lorentzian(cfg)
                assert str(info.value) == (
                    "defective pole configuration; perturb the parameters slightly")

    def test_constructor_rejects_bad_residues(self):
        with pytest.raises(InvariantViolation):
            PoleExpansion(
                poles=np.array([1.0 - 1.0j]), residues=[0.5 * np.eye(2)]
            )
        with pytest.raises(InvariantViolation):
            PoleExpansion(
                poles=np.array([1.0 + 1.0j]), residues=[np.eye(2)]
            )


class TestSteadyStateFluctuation:
    def test_benchmark_value(self):
        cfg = make_config()
        vs = steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg)
        np.testing.assert_allclose(vs[0, 0], 0.5, atol=1e-8)
        np.testing.assert_allclose(vs[1, 1], 0.5, atol=1e-8)
        np.testing.assert_allclose(vs[0, 1], BENCH_V_STEADY_OFFDIAG, atol=1e-8)

    def test_long_time_limit_agrees(self):
        cfg = make_config()
        grid = TimeGrid(12.0, 1500)
        sol = solve(cfg, grid)
        vs = steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg)
        assert np.max(np.abs(sol.v_seq[-1] - vs)) < 5e-3

    def test_output_is_physical(self):
        for cfg in (make_config(mu=4.0, d=0.5), make_config(k_t=0.0, g=1.5)):
            vs = steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg)
            assert np.max(np.abs(vs - vs.conj().T)) < 1e-10
            eigs = np.linalg.eigvalsh(vs)
            assert eigs.min() > -1e-8 and eigs.max() < 1.0 + 1e-8

    def test_requires_lorentzian(self):
        cfg = make_config()
        exp = pole_expansion_lorentzian(cfg)
        bad = make_config(kind=SpectralKind.WIDE_BAND)
        with pytest.raises(ConfigError):
            steady_state_fluctuation(exp, bad)

    def test_matches_50_digit_reference(self):
        # criterion-6 operating point; quartic poles put V^s 1.7e-10 off here
        cfg = make_config(eps1=8.25, eps2=8.25, mu=9.5, d=0.5, k_t=0.5)
        exp = pole_expansion_lorentzian(cfg)
        with mp.workdps(50):
            ref_poles = [complex(p) for p in mp_pole_expansion(cfg)[0]]
        for p in ref_poles:
            assert min(abs(p - r) for r in exp.poles) < 1e-12
        vs = steady_state_fluctuation(exp, cfg)
        assert np.max(np.abs(vs - mp_steady_fluctuation(cfg))) < 1e-12

    def test_weighted_real_pole_is_rejected(self):
        # an undamped mode that still couples to a lead has no steady state
        exp = PoleExpansion(poles=[2.0 + 0.0j], residues=[np.eye(2)])
        with pytest.raises(SolverError):
            steady_state_fluctuation(exp, make_config())

    @pytest.mark.parametrize("kind", [SpectralKind.LORENTZIAN, SpectralKind.WIDE_BAND])
    def test_decoupled_mode_on_the_fermi_level(self, kind):
        # dot 2 is cut off at eps2 = mu = 2 and k_T = 0: its undamped pole
        # sits on the log's branch point but carries no weight; dot 1, on
        # resonance with a symmetric lead, is half filled
        cfg = make_config(g=0.0, gamma_r=0.0, k_t=0.0, kind=kind)
        if kind is SpectralKind.LORENTZIAN:
            vs = steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg)
        else:
            vs = wbl_steady_fluctuation(cfg)
        np.testing.assert_allclose(vs, np.diag([0.5, 0.0]), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k_t", [0.0, 0.5])
    def test_decoupled_mode_on_the_fermi_level_in_time(self, k_t):
        # the wide band's V(t) on the same dots: the undamped pole at
        # eps2 = mu is the half-line integral's singular point, which only
        # the pole-pair mask keeps the thermal pair table from evaluating
        cfg = make_config(g=0.0, gamma_r=0.0, k_t=k_t, kind=SpectralKind.WIDE_BAND)
        grid = TimeGrid(120.0, 120)
        v = wbl_greens(cfg, grid).v_seq
        assert not np.any(v[:, 1]) and not np.any(v[:, :, 1])
        np.testing.assert_allclose(v[-1], np.diag([0.5, 0.0]), rtol=0.0, atol=1e-12)
        # dot 1 does not see where the decoupled level lies
        off = dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, eps2=2.7))
        np.testing.assert_array_equal(wbl_greens(off, grid).v_seq, v)


class TestPseudomodeForm:
    """The Lorentzian V^s read as the wide band of each lead's pseudomode.

    On the poles of _modes it matches the four-pole partial fractions of
    steady_reference.four_pole_steady_fluctuation to 1e-13, and on the
    poles of a 30-digit eigen-decomposition, rounded to double, it matches
    the 30-digit V^s to 1e-13 (on _modes' own poles, whose widths are
    Rayleigh quotients, both forms come within 7e-14 of it on these
    draws). The draws are uniform, so none sits on an exceptional point,
    where the eigenvectors are defective and no two forms agree. Half the
    draws share mu between the leads, so that a weakly coupled lead's
    pseudomode pole lies next to the other lead's q_l, or on it when
    Gamma_R = 0. Where the guard rejects a nearly undamped mode on a pole
    set (g = 0 with Gamma_R = 1e-12, or with Gamma_R = 1e-10 at d = 0.05),
    the four-pole form must reject it too.
    """

    TOL = 1e-13

    @pytest.mark.parametrize("coupling", ["real", "zero", "complex"])
    @pytest.mark.parametrize(
        "seed,gamma_r", enumerate([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-2])
    )
    def test_matches_four_pole_and_30_digit_forms(self, seed, gamma_r, coupling):
        rng = np.random.default_rng(1700 + 10 * seed + "rzc".index(coupling[0]))
        for d, k_t in [(d, k_t) for d in (0.05, 1.0, 50.0) for k_t in (0.0, 0.5, 30.0 * d)]:
            phase = {"real": 1.0, "zero": 0.0, "complex": cmath.exp(1j * rng.uniform(0, 6.3))}
            mu = rng.uniform(-3.0, 3.0)
            cfg = make_config(
                eps1=rng.uniform(-3.0, 3.0),
                eps2=rng.uniform(-3.0, 3.0),
                g=phase[coupling] * rng.uniform(0.1, 2.0),
                gamma=rng.uniform(0.1, 2.0),
                gamma_r=gamma_r,
                d=d,
                mu=mu,
                mu_r=mu if rng.random() < 0.5 else rng.uniform(-3.0, 3.0),
                k_t=k_t,
            )
            exp = pole_expansion_lorentzian(cfg)
            self.assert_agrees(exp, cfg, four_pole_steady_fluctuation)
            with mp.workdps(30):
                poles, residues = mp_pole_expansion(cfg)
            exact = PoleExpansion(
                [complex(p) for p in poles],
                [np.array(z.tolist(), dtype=complex) for z in residues],
            )
            self.assert_agrees(
                exact, cfg, lambda *_: mp_steady_fluctuation(cfg, dps=30)
            )

    @pytest.mark.parametrize("gamma_r, k_t", [(1e-10, 0.5), (2e-12, 0.0), (1e-6, 0.5)])
    def test_weakly_damped_mode_keeps_its_width(self, gamma_r, k_t):
        # dot 2 sees only the weak right lead: its width, near Gamma_R, lies
        # far below the eps |r| to which eig fixes Im r, and V^s ~ Gamma_R /
        # width carries any relative error of the width
        cfg = make_config(eps1=0.3, eps2=1.0, g=0.0, gamma=1.0, gamma_r=gamma_r,
                          d=1.0, mu=0.0, mu_r=1.2, k_t=k_t)
        vs = steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg)
        assert np.max(np.abs(vs - mp_steady_fluctuation(cfg, dps=30))) < 1e-14

    def assert_agrees(self, exp, cfg, reference):
        """V^s on exp within TOL of reference(poles, residues, cfg), or a
        SolverError from both forms."""
        try:
            vs = steady_state_fluctuation(exp, cfg)
        except SolverError:
            with pytest.raises(SolverError):
                four_pole_steady_fluctuation(exp.poles, exp.residues, cfg)
            return
        assert np.max(np.abs(vs - reference(exp.poles, exp.residues, cfg))) < self.TOL


_CAUCHY_REGIMES = ("generic", "zero_temperature", "hot", "mixed_temperature",
                   "complex_g", "asymmetric", "gamma_r_zero", "pole_on_q")


@st.composite
def _cauchy_cases(draw):
    """(regime, kwargs of make_config, the right lead's k_T or None) from
    the regimes the masked pair sum must cover."""
    regime = draw(st.sampled_from(_CAUCHY_REGIMES))
    kw = dict(
        eps1=draw(st.floats(-3.0, 3.0)),
        eps2=draw(st.floats(-3.0, 3.0)),
        g=draw(st.floats(0.1, 2.0)),
        gamma=draw(st.floats(0.1, 2.0)),
        d=draw(st.floats(0.3, 4.0)),
        mu=draw(st.floats(-3.0, 3.0)),
        k_t=draw(st.floats(0.05, 1.0)),
    )
    right_k_t = None
    if regime == "zero_temperature":
        kw["k_t"] = 0.0
    elif regime == "hot":  # k_T >> linewidth
        kw.update(gamma=draw(st.floats(0.05, 0.5)), d=draw(st.floats(0.1, 0.5)),
                  k_t=draw(st.floats(10.0, 40.0)))
    elif regime == "mixed_temperature":  # the right lead at k_T = 0
        right_k_t = 0.0
    elif regime == "complex_g":
        kw["g"] *= cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    elif regime == "asymmetric":
        kw.update(gamma_r=draw(st.floats(0.1, 2.0)), mu_r=draw(st.floats(-3.0, 3.0)))
    elif regime == "gamma_r_zero":
        kw.update(gamma_r=0.0, mu_r=draw(st.floats(-3.0, 3.0)))
    elif regime == "pole_on_q":
        # the uncoupled right pseudomode's pole is mu - i d, the left q_l
        kw["gamma_r"] = 0.0
    return regime, kw, right_k_t


def _cauchy_config(case, kind):
    _, kw, right_k_t = case
    cfg = make_config(kind=kind, **kw)
    if right_k_t is not None:
        cfg = dataclasses.replace(cfg, right=dataclasses.replace(cfg.right, k_t=right_k_t))
    return cfg


class TestCauchyForm:
    """The masked Cauchy-matrix product per lead against the pairwise sum it
    replaced (steady_reference), to 1e-14 relative to the largest entry."""

    TOL = 1e-14

    def assert_close(self, got, ref):
        assert np.max(np.abs(got - ref)) <= self.TOL * np.max(np.abs(ref))

    @settings(max_examples=80)
    @given(_cauchy_cases())
    def test_steady_states_match_the_pairwise_sum(self, case):
        lor = _cauchy_config(case, SpectralKind.LORENTZIAN)
        exp = pole_expansion_lorentzian(lor)
        self.assert_close(steady_state_fluctuation(exp, lor),
                          pairwise_steady_fluctuation(exp.poles, exp.residues, lor))
        wbl = _cauchy_config(case, SpectralKind.WIDE_BAND)
        modes = _modes(wbl)
        self.assert_close(wbl_steady_fluctuation(wbl),
                          pairwise_steady_fluctuation(modes.poles, modes.residues, wbl))
        x = _bm_stationary(wbl)[1]
        ref = pairwise_bm_stationary(wbl)
        if np.any(ref):
            self.assert_close(x, ref)
        else:  # no lead both coupled and occupied
            assert not np.any(x)

    @settings(max_examples=30)
    @given(_cauchy_cases(), st.sampled_from([0.5, 3.0]))
    def test_wide_band_series_matches_the_pairwise_sum(self, case, t_max):
        cfg = _cauchy_config(case, SpectralKind.WIDE_BAND)
        grid = TimeGrid(t_max, 24)
        self.assert_close(wbl_greens(cfg, grid).v_seq,
                          pairwise_wbl_fluctuation(cfg, grid.times))

    def test_pole_on_q_is_masked(self):
        # Gamma_R = 0 with a shared mu: the right pseudomode's pole is q_L to
        # the last bit, and its column on the left lead is zero
        cfg = make_config(eps1=0.3, eps2=1.1, g=0.7, gamma_r=0.0)
        exp = pole_expansion_lorentzian(cfg)
        lc = greens._lead_columns(exp, cfg)
        assert lc.reservoirs == [cfg.left]
        on_q = np.flatnonzero(lc.lams[0, :-1] == lc.lams[0, -1])
        assert on_q.size == 1
        assert not np.any(lc.cols[0, :, on_q]) and not np.any(lc.keep[0, on_q])


def _mirror(cfg):
    """The dots and the leads swapped, g -> conj(g)."""
    s = cfg.system
    system = SystemParams(eps1=s.eps2, eps2=s.eps1, g_coupling=complex(s.g_coupling).conjugate())
    return dataclasses.replace(cfg, system=system, left=cfg.right, right=cfg.left)


def _gauge(cfg, phi):
    """g -> g e^{i phi}."""
    g = complex(cfg.system.g_coupling) * cmath.exp(1j * phi)
    return dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, g_coupling=g))


def _particle_hole(cfg):
    """eps -> -eps, g -> -conj(g) and mu -> -mu: holes for particles."""
    s = cfg.system
    system = SystemParams(eps1=-s.eps1, eps2=-s.eps2, g_coupling=-complex(s.g_coupling).conjugate())
    left, right = (dataclasses.replace(res, mu=-res.mu) for res in cfg.reservoirs)
    return dataclasses.replace(cfg, system=system, left=left, right=right)


def _wbl_series(cfg):
    sol = wbl_greens(cfg, TimeGrid(3.0, 24))
    return sol.u_seq, sol.v_seq


# every consumer of the masked pair sum: its spectral kind, and (U, V) of a
# config, with U = 0 for a stationary V
_PAIR_SUM_CONSUMERS = {
    "wbl_greens": (SpectralKind.WIDE_BAND, _wbl_series),
    "wbl_steady_fluctuation": (
        SpectralKind.WIDE_BAND, lambda cfg: (np.zeros((2, 2)), wbl_steady_fluctuation(cfg))),
    "steady_state_fluctuation": (
        SpectralKind.LORENTZIAN,
        lambda cfg: (np.zeros((2, 2)),
                     steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg))),
    "bm_stationary": (
        SpectralKind.WIDE_BAND, lambda cfg: (np.zeros((2, 2)), _bm_stationary(cfg)[1])),
}


class TestSymmetries:
    """Exact identities of the double dot on every consumer of the masked
    pair sum, to an absolute 1e-13 (over three sets of draws the
    Lorentzian V^s held to 4.8e-14, the other consumers to 4e-15).

    Mirror, the dots and leads swapped with g -> conj(g): V' = P V P with P
    the swap. Gauge, g -> g e^{i phi}: V' = D V D^dag with
    D = diag(1, e^{-i phi}). Particle-hole, eps -> -eps, g -> -conj(g),
    mu -> -mu: the holes of the empty-started dots are the particles of
    full-started ones, so V'(t) = I - conj(U) U^T - V^T, and V'^s = I - V^sT
    for a steady state and Born-Markov's X. A pair weight taken as its
    transpose breaks particle-hole on every consumer by 0.4 to 0.9.
    """

    TOL = 1e-13
    SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("consumer", sorted(_PAIR_SUM_CONSUMERS))
    @given(case=_cauchy_cases(), phi=st.floats(0.0, 2.0 * math.pi))
    def test_mirror_gauge_and_particle_hole(self, consumer, case, phi):
        kind, run = _PAIR_SUM_CONSUMERS[consumer]
        cfg = _cauchy_config(case, kind)
        u, v = run(cfg)
        d = np.diag([1.0, cmath.exp(-1j * phi)])
        expected = {
            "mirror": (_mirror(cfg), self.SWAP @ v @ self.SWAP),
            "gauge": (_gauge(cfg, phi), d @ v @ d.conj().T),
            "particle_hole": (_particle_hole(cfg),
                              np.eye(2) - u.conj() @ np.swapaxes(u, -1, -2)
                              - np.swapaxes(v, -1, -2)),
        }
        for name, (other, v_other) in expected.items():
            assert np.max(np.abs(run(other)[1] - v_other)) <= self.TOL, name


def _asymmetric_config(seed, kind, k_t):
    """A seeded config with complex g and leads that differ in every
    parameter, the left and right lead at the temperatures k_t."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.3, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    leads = [ReservoirParams(gamma=rng.uniform(0.2, 1.5), bandwidth=rng.uniform(0.5, 3.0),
                             mu=rng.uniform(-2.0, 2.0), k_t=t, cutoff=rng.uniform(1.5, 3.0))
             for t in k_t]
    system = SystemParams(eps1=rng.uniform(-2.0, 2.0), eps2=rng.uniform(-2.0, 2.0), g_coupling=g)
    return dataclasses.replace(make_config(kind=kind, cutoff=2.0), system=system, left=leads[0],
                               right=leads[1])


def _uv(sol):
    return sol.u_seq, sol.v_seq


# every solver of U and V (or of U alone, with V None): its spectral kind and
# (U, V) on a grid
_SOLUTIONS = {
    "solve_lorentzian": (SpectralKind.LORENTZIAN, lambda cfg, grid: _uv(solve(cfg, grid))),
    "solve_cutoff": (SpectralKind.CUTOFF_LORENTZIAN, lambda cfg, grid: _uv(solve(cfg, grid))),
    "exact_greens": (SpectralKind.LORENTZIAN,
                     lambda cfg, grid: _uv(exact_greens(discretize(cfg, 100), grid))),
    "wbl_greens_u": (SpectralKind.WIDE_BAND,
                     lambda cfg, grid: (wbl_greens(cfg, grid).u_seq, None)),
    "pole_reconstruct_u": (
        SpectralKind.LORENTZIAN,
        lambda cfg, grid: (pole_expansion_lorentzian(cfg).reconstruct(grid.times), None)),
}


class TestSolutionSymmetries:
    """Mirror and gauge on the solvers of U(t) and V(t), to an absolute
    1e-13 (they held to 4e-15 when measured): with P the swap of the dots,
    mirror (dots and leads swapped, g -> conj(g)) gives U' = P U P and
    V' = P V P; with D = diag(e^{i phi}, 1), gauge (g -> g e^{i phi}) gives
    U' = D U D^dag and V' = D V D^dag. Each config has complex g and
    asymmetric leads."""

    TOL = 1e-13
    GRID = TimeGrid(4.0, 200)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k_t", [(0.0, 0.0), (0.4, 0.9), (0.0, 0.6)],
                             ids=["cold", "hot", "mixed"])
    @pytest.mark.parametrize("solver", sorted(_SOLUTIONS))
    def test_mirror_and_gauge(self, solver, k_t, seed):
        kind, run = _SOLUTIONS[solver]
        cfg = _asymmetric_config(seed, kind, k_t)
        phi = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = np.diag([cmath.exp(1j * phi), 1.0])
        images = {"mirror": (_mirror(cfg), swap, swap), "gauge": (_gauge(cfg, phi), d, d.conj().T)}
        base = run(cfg, self.GRID)
        for name, (other, left, right) in images.items():
            for label, x, x_other in zip("UV", base, run(other, self.GRID)):
                if x is not None:
                    assert np.max(np.abs(x_other - left @ x @ right)) <= self.TOL, (name, label)


def _shift(cfg, w0):
    """Every energy shifted by w0: eps -> eps + w0 and mu -> mu + w0."""
    s = cfg.system
    system = dataclasses.replace(s, eps1=s.eps1 + w0, eps2=s.eps2 + w0)
    left, right = (dataclasses.replace(res, mu=res.mu + w0) for res in cfg.reservoirs)
    return dataclasses.replace(cfg, system=system, left=left, right=right)


# the routes of U(t), with V(t) where it is exact: the Volterra V carries an
# O(dt^2) step error that particle-hole does not map onto itself, so
# solve_dyson enters with U alone
_HOLE_ROUTES = {
    "solve_dyson_lorentzian": (SpectralKind.LORENTZIAN,
                               lambda cfg, grid: (solve_dyson(cfg, grid), None)),
    "solve_dyson_cutoff": (SpectralKind.CUTOFF_LORENTZIAN,
                           lambda cfg, grid: (solve_dyson(cfg, grid), None)),
    "exact_greens": _SOLUTIONS["exact_greens"],
    "wbl_greens": (SpectralKind.WIDE_BAND, lambda cfg, grid: _uv(wbl_greens(cfg, grid))),
}


class TestParticleHoleAndShift:
    """Particle-hole and the energy shift on the solvers of U(t) and V(t),
    to an absolute 1e-13 (measured worst 2.3e-14, on the oracle's V).
    Particle-hole (eps -> -eps, g -> -conj(g), mu -> -mu) gives
    U' = conj(U) on every route, and V' = I - conj(U) U^T - V^T on the
    oracle and the wide band. The shift of every energy by w0 gives
    U' = e^{-i w0 t} U and V' = V on those two. Each config has complex g
    and asymmetric leads; the hot leads take Matsubara rows past
    t = 1/k_T."""

    TOL = 1e-13
    GRID = TimeGrid(4.0, 200)
    K_T = pytest.mark.parametrize("k_t", [(0.0, 0.0), (0.4, 0.9), (0.0, 0.6)],
                                  ids=["cold", "hot", "mixed"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @K_T
    @pytest.mark.parametrize("route", sorted(_HOLE_ROUTES))
    def test_particle_hole(self, route, k_t, seed):
        kind, run = _HOLE_ROUTES[route]
        cfg = _asymmetric_config(seed, kind, k_t)
        u, v = run(cfg, self.GRID)
        u_h, v_h = run(_particle_hole(cfg), self.GRID)
        assert np.max(np.abs(u_h - u.conj())) <= self.TOL
        if v is not None:
            v_filled = np.eye(2) - u.conj() @ np.swapaxes(u, 1, 2) - np.swapaxes(v, 1, 2)
            assert np.max(np.abs(v_h - v_filled)) <= self.TOL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @K_T
    @pytest.mark.parametrize("route", ["exact_greens", "wbl_greens"])
    def test_energy_shift(self, route, k_t, seed):
        kind, run = _HOLE_ROUTES[route]
        cfg = _asymmetric_config(seed, kind, k_t)
        w0 = np.random.default_rng(seed).uniform(-2.0, 2.0)
        u, v = run(cfg, self.GRID)
        u_s, v_s = run(_shift(cfg, w0), self.GRID)
        phase = np.exp(-1j * w0 * self.GRID.times)[:, None, None]
        assert np.max(np.abs(u_s - phase * u)) <= self.TOL
        assert np.max(np.abs(v_s - v)) <= self.TOL


def _random_config(rng, regime, kind=SpectralKind.LORENTZIAN):
    """One random config of the named regime (Lorentzian unless kind says)."""
    kw = dict(
        eps1=rng.uniform(-3.0, 3.0),
        eps2=rng.uniform(-3.0, 3.0),
        g=rng.uniform(0.1, 2.0),
        gamma=rng.uniform(0.1, 2.0),
        gamma_r=rng.uniform(0.1, 2.0),
        d=rng.uniform(0.3, 4.0),
        mu=rng.uniform(-3.0, 3.0),
        mu_r=rng.uniform(-3.0, 3.0),
        k_t=rng.uniform(0.05, 1.0),
    )
    if regime == "zero_temperature":
        kw["k_t"] = 0.0
    elif regime == "hot":  # k_t >> d
        kw["d"] = rng.uniform(0.1, 0.5)
        kw["k_t"] = rng.uniform(10.0, 40.0)
    elif regime == "complex_g":
        kw["g"] = kw["g"] * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    elif regime == "uncoupled_dot":  # g = 0, right lead switched off
        kw["g"] = 0.0
        kw["gamma_r"] = 0.0
    elif regime == "g_zero":
        kw["g"] = 0.0
    elif regime == "gamma_r_zero":
        kw["gamma_r"] = 0.0
    elif regime == "narrow_hot":  # lines of width <= 0.1 under k_t >= 1
        kw["gamma"] = rng.uniform(0.01, 0.1)
        kw["gamma_r"] = rng.uniform(0.01, 0.1)
        kw["k_t"] = rng.uniform(1.0, 5.0)
    return make_config(kind=kind, **kw)


def _self_energy(cfg, z):
    """Sigma(z) continued to a complex z: Lorentzian or wide band."""
    if cfg.spectral_kind is SpectralKind.WIDE_BAND:
        return -0.5j * gamma_matrix(cfg)
    return np.diag(
        [
            0.5 * res.gamma * res.bandwidth / (z - res.mu + 1j * res.bandwidth)
            for res in cfg.reservoirs
        ]
    )


def _wbl_modes(cfg):
    """Wide-band eigenmodes as a PoleExpansion, built independently of greens."""
    vals, vecs = np.linalg.eig(
        build_hamiltonian(cfg.system) - 0.5j * gamma_matrix(cfg)
    )
    inv = np.linalg.inv(vecs)
    return PoleExpansion(
        list(vals), [np.outer(vecs[:, j], inv[j]) for j in range(2)]
    )


class TestClosedFormAgainstQuadrature:
    """Closed-form steady states against adaptive quadrature.

    Tolerance 1e-8: the reference's error in each real component is bounded
    by quad's default epsabs of 1.49e-8, shared out over its panels, and
    the two routes agree to 1.1e-11 or better on these configs.
    """

    TOL = 1e-8

    @pytest.mark.parametrize(
        "seed,regime",
        enumerate(
            ["generic", "zero_temperature", "hot", "complex_g", "uncoupled_dot"]
        ),
    )
    def test_lorentzian(self, seed, regime):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            cfg = _random_config(rng, regime)
            exp = pole_expansion_lorentzian(cfg)
            vs = steady_state_fluctuation(exp, cfg)
            ref = quad_steady_state_fluctuation(exp, cfg)
            assert np.max(np.abs(vs - ref)) < self.TOL

    def test_wideband_narrow_lines_under_hot_window(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            cfg = make_config(
                eps1=rng.uniform(-3.0, 3.0),
                eps2=rng.uniform(-3.0, 3.0),
                g=rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 6.3)),
                gamma=rng.uniform(0.01, 0.1),
                gamma_r=rng.uniform(0.01, 0.1),
                mu=rng.uniform(-2.0, 2.0),
                mu_r=rng.uniform(-2.0, 2.0),
                k_t=rng.uniform(1.0, 5.0),
                kind=SpectralKind.WIDE_BAND,
            )
            vs = wbl_steady_fluctuation(cfg)
            ref = quad_steady_state_fluctuation(_wbl_modes(cfg), cfg)
            assert np.max(np.abs(vs - ref)) < self.TOL


class TestWideBand:
    def test_u_is_matrix_exponential(self):
        cfg = make_config(kind=SpectralKind.WIDE_BAND, gamma=0.3, gamma_r=0.9)
        grid = TimeGrid(4.0, 16)
        sol = wbl_greens(cfg, grid)
        m_eff = build_hamiltonian(cfg.system) - 0.5j * gamma_matrix(cfg)
        for i, t in enumerate(grid.times):
            np.testing.assert_allclose(
                sol.u_seq[i], expm(-1j * m_eff * t), atol=1e-12
            )

    def test_initial_values_exact(self):
        sol = wbl_greens(make_config(kind=SpectralKind.WIDE_BAND), TimeGrid(1.0, 8))
        assert np.array_equal(sol.u_seq[0], np.eye(2))
        assert np.all(sol.v_seq[0] == 0.0)

    def test_single_lead_steady_matches_quadrature(self):
        # one damped mode: V^s_11 is the Lorentzian-weighted Fermi average
        for kt in (0.0, 0.3):
            cfg = make_config(
                eps1=1.0, eps2=3.0, g=0.0, gamma=0.8, gamma_r=0.0,
                mu=1.5, k_t=kt, kind=SpectralKind.WIDE_BAND,
            )
            vs = wbl_steady_fluctuation(cfg)

            def integrand(w):
                return (
                    0.8
                    / ((w - 1.0) ** 2 + 0.16)
                    * fermi_occupation(w, 1.5, kt)
                    / (2.0 * math.pi)
                )

            ref, _ = integrate.quad(
                integrand, -np.inf, np.inf, limit=400, points=None
            )
            np.testing.assert_allclose(vs[0, 0].real, ref, atol=1e-10)
            assert abs(vs[0, 1]) < 1e-12 and abs(vs[1, 1]) < 1e-12

    def test_narrow_linewidth_under_hot_window(self):
        # Gamma_l = 0.05 under k_T = 2: resonances far narrower than the
        # Fermi window
        cfg = make_config(
            eps1=2.3, eps2=2.3, g=0.5, gamma=0.05, mu=2.0, k_t=2.0,
            kind=SpectralKind.WIDE_BAND,
        )
        m_eff = build_hamiltonian(cfg.system) - 0.5j * gamma_matrix(cfg)
        ref = quad_steady_fluctuation(
            cfg,
            lambda w: np.linalg.inv(w * np.eye(2) - m_eff),
            np.linalg.eigvals(m_eff),
        )
        vs = wbl_steady_fluctuation(cfg)
        assert np.max(np.abs(vs - ref)) < 1e-8
        assert vs[0, 1].real == pytest.approx(-0.0614221429470, abs=1e-9)
        assert steady_state_eof(vs) == pytest.approx(0.5049, abs=1e-3)

    @pytest.mark.parametrize("kt", [0.0, 0.5, 3.0])
    def test_steady_is_large_bandwidth_limit(self, kt):
        # the Lorentzian closed form approaches the flat one like 1/d
        lor = make_config(eps1=1.5, mu=2.3, k_t=kt, d=1000.0)
        wbl = make_config(eps1=1.5, mu=2.3, k_t=kt, kind=SpectralKind.WIDE_BAND)
        vs_lor = steady_state_fluctuation(pole_expansion_lorentzian(lor), lor)
        assert np.max(np.abs(vs_lor - wbl_steady_fluctuation(wbl))) < 2e-4

    @settings(max_examples=20)
    @given(_wide_band_limit_cases())
    @example(
        dict(eps1=2.1, eps2=1.9, g=0.5, gamma=0.5, gamma_r=0.7, mu=2.0, mu_r=1.5, k_t=0.5)
    )
    def test_lorentzian_approaches_wide_band_at_first_order(self, params):
        # The Lorentzian self-energy is the flat one up to O(1/d), so each
        # doubling of d halves the gap in U(t) and in V^s. The series starts
        # at d = 500: where the 1/d term is small, the 1/d^2 term still shows
        # at d = 250 (V^s ratio 0.554 at eps = 0, g = 1.5, Gamma = (0.25,
        # 0.125), mu = (-2, 2), k_T = 0).
        wbl = make_config(kind=SpectralKind.WIDE_BAND, **params)
        grid = TimeGrid(10.0, 100)
        u_wbl = wbl_greens(wbl, grid).u_seq
        vs_wbl = wbl_steady_fluctuation(wbl)
        gaps = []
        for d in (500.0, 1000.0, 2000.0, 4000.0):
            lor = make_config(d=d, **params)
            exp = pole_expansion_lorentzian(lor)
            du = np.max(np.abs(exp.reconstruct(grid.times) - u_wbl))
            dv = np.max(np.abs(steady_state_fluctuation(exp, lor) - vs_wbl))
            gaps.append((du, dv))
        gaps = np.array(gaps)  # rows: d; columns: U, V^s
        # where symmetry cancels every order (eps = mu = 0, g = 0 gives
        # V^s = I/2 on both routes) the gap is rounding and stays there
        exact = gaps[0] < 1e-12
        assert np.all(gaps[:, exact] < 1e-12)
        ratios = gaps[1:, ~exact] / gaps[:-1, ~exact]
        np.testing.assert_allclose(ratios, 0.5, rtol=0.0, atol=0.05)

    def test_fluctuation_approaches_steady(self):
        cfg = make_config(kind=SpectralKind.WIDE_BAND)
        sol = wbl_greens(cfg, TimeGrid(24.0, 240))
        vs = wbl_steady_fluctuation(cfg)
        assert np.max(np.abs(sol.v_seq[-1] - vs)) < 1e-4

    def test_thermal_and_sharp_fermi_sea_consistent(self):
        # kT -> 0 thermal panels must vanish against the closed form
        cold = make_config(kind=SpectralKind.WIDE_BAND, k_t=1e-7)
        sharp = make_config(kind=SpectralKind.WIDE_BAND, k_t=0.0)
        grid = TimeGrid(6.0, 60)
        np.testing.assert_allclose(
            wbl_greens(cold, grid).v_seq,
            wbl_greens(sharp, grid).v_seq,
            atol=1e-5,
        )

    def test_thermal_remainder_memory_is_flat(self, monkeypatch):
        # t_max = 10, k_T = 0.5 puts 5740 nodes in the thermal remainder;
        # 512-row time chunks of it peaked at 189 MB
        cfg = make_config(
            eps1=2.3, eps2=2.3, d=1.0, kind=SpectralKind.WIDE_BAND,
        )
        grid = TimeGrid(10.0, 600)
        tracemalloc.start()
        try:
            v = wbl_greens(cfg, grid).v_seq
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # one-node chunks sum like the long ones, both to the term-by-term
        # remainder (a split matrix product rounds differently, so not bitwise)
        ref = wbl_reference_fluctuation(cfg, grid)
        assert np.max(np.abs(v - ref)) < 1e-13
        monkeypatch.setattr(spectral, "_CHUNK_ELEMENTS", 1)
        assert np.max(np.abs(wbl_greens(cfg, grid).v_seq - ref)) < 1e-13

    def test_thermal_remainder_memory_at_large_node_count(self):
        # at t_max = 400, k_T = 2 panels of width pi / (4 t_max) held about
        # 917k nodes; with panels only below tau* = 1/k_T they hold 1800, and
        # the Matsubara closure takes all the rows past tau*
        cfg = make_config(
            eps1=2.3, eps2=2.3, d=1.0, k_t=2.0, kind=SpectralKind.WIDE_BAND,
        )
        tracemalloc.start()
        try:
            wbl_greens(cfg, TimeGrid(400.0, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    @pytest.mark.parametrize(
        "seed,regime",
        enumerate(
            ["narrow_hot", "complex_g", "g_zero", "gamma_r_zero",
             "zero_temperature", "hot"]
        ),
    )
    def test_matches_term_by_term_remainder(self, seed, regime):
        rng = np.random.default_rng(100 + seed)
        for _ in range(3):
            cfg = _random_config(rng, regime, SpectralKind.WIDE_BAND)
            grid = TimeGrid(rng.uniform(1.0, 4.0), 48)
            v = wbl_greens(cfg, grid).v_seq
            ref = wbl_reference_fluctuation(cfg, grid)
            assert np.max(np.abs(v - ref)) < 1e-13

    @settings(max_examples=30)
    @given(_wide_band_closure_cases())
    def test_closure_matches_term_by_term_remainder(self, case):
        cfg, grid = case
        v = wbl_greens(cfg, grid).v_seq
        assert np.max(np.abs(v - wbl_reference_fluctuation(cfg, grid))) < 1e-13

    @settings(max_examples=20)
    @given(
        st.sampled_from([0, 1]),
        st.sampled_from([0.1, 0.5]),
        st.integers(3, 12),
        st.floats(-2.0, 2.0),
    )
    def test_conjugate_pole_on_a_matsubara_pole(self, m, k_t, digits, mu):
        # g = 0 and eps1 = mu put the left mode's conj(lam) = mu + i Gamma_L / 2
        # on the Matsubara pole w_m at Gamma_L = 2 pi k_T (2m + 1), where
        # either residue alone diverges; their sum is finite
        gamma0 = _TWO_PI * k_t * (2 * m + 1)
        grid = TimeGrid(4.0 / k_t, 64)
        vs, refs = {}, {}
        for h in (0.0, 10.0 ** -digits, -(10.0 ** -digits)):
            cfg = make_config(
                eps1=mu, eps2=mu + 0.7, g=0.0, gamma=gamma0 + h, gamma_r=0.0,
                mu=mu, k_t=k_t, kind=SpectralKind.WIDE_BAND,
            )
            vs[h] = wbl_greens(cfg, grid).v_seq
            refs[h] = wbl_reference_fluctuation(cfg, grid)
            assert np.max(np.abs(vs[h] - refs[h])) < 1e-13
        # both sides reach the value at the point, as the panel reference does
        for h in vs:
            step = np.max(np.abs(refs[h] - refs[0.0]))
            assert np.max(np.abs(vs[h] - vs[0.0])) <= 2.0 * step + 1e-12

    def test_long_horizon_reaches_steady_state(self):
        # the modes decay like e^{-t/4} and the Matsubara terms like
        # e^{-2 pi t}: from t = 200 on, V(t) is V^s to rounding
        cfg = make_config(
            eps1=2.3, eps2=2.3, d=1.0, k_t=2.0, kind=SpectralKind.WIDE_BAND,
        )
        grid = TimeGrid(400.0, 400)
        v = wbl_greens(cfg, grid).v_seq
        late = grid.times >= 200.0
        assert np.max(np.abs(v[late] - wbl_steady_fluctuation(cfg))) < 1e-14

    def test_thermal_work_is_flat_in_the_horizon(self, monkeypatch):
        # at fixed n the panels' nodes, the rows they serve and the E1 calls
        # do not grow with t_max: only rows t < 1/k_T take them
        cfg = make_config(
            eps1=2.3, eps2=2.1, k_t=2.0, kind=SpectralKind.WIDE_BAND,
        )
        work = count_kernel_work(monkeypatch)
        for t_max in (10.0, 100.0, 400.0):
            wbl_greens(cfg, TimeGrid(t_max, 800))
        assert_flat_work(work, 3)

    def test_narrow_modes_match_finer_panels(self, monkeypatch):
        # a single pair-table entry is off where a mode is narrower than the
        # panels, 2 k_T wide, but V's pair combination is entire in w: on 50
        # seeded configs with modes of width down to 9e-4, V holds to panels
        # of width k_T / 16 (measured worst 7.9e-16)
        rng = np.random.default_rng(29)
        cases = []
        for _ in range(50):
            leads = [ReservoirParams(gamma=10.0 ** rng.uniform(-3.0, 0.3), bandwidth=1.0,
                                     mu=rng.uniform(-2.0, 2.0), k_t=10.0 ** rng.uniform(-1.7, 0.48))
                     for _ in range(2)]
            g = rng.uniform(0.0, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            system = SystemParams(eps1=rng.uniform(-2.0, 2.0), eps2=rng.uniform(-2.0, 2.0),
                                  g_coupling=g)
            cfg = dataclasses.replace(make_config(kind=SpectralKind.WIDE_BAND), system=system,
                                      left=leads[0], right=leads[1])
            cases.append((cfg, TimeGrid(rng.uniform(1.0, 60.0), 300)))
        got = [wbl_greens(cfg, grid).v_seq for cfg, grid in cases]
        table = greens._thermal_pair_table
        monkeypatch.setattr(greens, "_thermal_pair_table",
                            lambda lams, keep, res, taus, cap: table(lams, keep, res, taus,
                                                                     res.k_t / 16.0))
        for (cfg, grid), v in zip(cases, got):
            assert np.max(np.abs(v - wbl_greens(cfg, grid).v_seq)) < 1e-14

    def test_remainder_sums_at_most_460_nodes(self, monkeypatch):
        # panels of width 2 k_T over mu -/+ 45 k_T: 23 a side of 10 nodes
        work = count_kernel_work(monkeypatch)
        cfg = make_config(eps1=2.3, eps2=1.1, gamma_r=0.3, mu_r=1.5, k_t=0.05,
                          kind=SpectralKind.WIDE_BAND)
        wbl_greens(cfg, TimeGrid(60.0, 2000))
        assert len(work["sums"]) == 2
        assert all(nodes <= 460 for _, nodes in work["sums"])

    def test_one_pair_table_per_distinct_lead(self, monkeypatch):
        # leads that share (mu, k_T) share one table over the union of their
        # pairs, and each lead's rows are those of its own table, bit for bit
        tables = []
        table = greens._thermal_pair_table

        def recorded(lams, keep, res, taus, cap):
            tables.append((keep, table(lams, keep, res, taus, cap)))
            return tables[-1][1]

        monkeypatch.setattr(greens, "_thermal_pair_table", recorded)
        grid = TimeGrid(20.0, 1000)
        # g = 0: lead l weighs only the pole of dot l, so the union is larger
        for g, mu_r, count in ((0.5, None, 1), (0.0, None, 1), (0.5, 1.5, 2)):
            cfg = make_config(eps1=2.3, eps2=1.1, g=g, gamma_r=0.3, mu_r=mu_r,
                              kind=SpectralKind.WIDE_BAND)
            tables.clear()
            wbl_greens(cfg, grid)
            assert len(tables) == count
            modes = greens._modes(cfg)
            for lead, lams, jj, kk, _ in weighted_pairs(modes.poles, modes.residues, cfg):
                res = cfg.reservoirs[lead]
                own = np.zeros((lams.size, lams.size), dtype=bool)
                own[jj, kk] = own[kk, jj] = True
                alone = table(lams, own, res, grid.times, 2.0 * res.k_t)
                pairs, shared = tables[lead if count == 2 else 0]
                assert not np.any(own & ~pairs)
                assert (own.sum() < pairs.sum()) == (g == 0.0)
                np.testing.assert_array_equal(shared[own], alone[own])

    def test_requires_wideband_kind(self):
        with pytest.raises(ConfigError):
            wbl_greens(make_config(), TimeGrid(1.0, 4))
        with pytest.raises(ConfigError):
            wbl_steady_fluctuation(make_config())


class TestBornMarkov:
    def test_symmetric_resonant_closed_form(self):
        cfg = make_config(kind=SpectralKind.WIDE_BAND)
        grid = TimeGrid(10.0, 200)
        v_seq, x_steady = bm_fluctuation(cfg, grid)
        nbar = fermi_occupation(2.0, 2.0, 0.5)  # exactly 1/2
        gamma_tot = 0.5
        for i, t in enumerate(grid.times):
            expect = (1.0 - math.exp(-gamma_tot * t)) * nbar * np.eye(2)
            np.testing.assert_allclose(v_seq[i], expect, atol=1e-12)
        np.testing.assert_allclose(x_steady, nbar * np.eye(2), atol=1e-12)

    def test_empty_source_gives_zero(self):
        cfg = make_config(
            eps1=30.0, eps2=30.0, mu=0.0, k_t=0.0, kind=SpectralKind.WIDE_BAND
        )
        v_seq, x_steady = bm_fluctuation(cfg, TimeGrid(5.0, 50))
        assert np.all(v_seq == 0.0)
        assert np.all(x_steady == 0.0)

    def test_long_time_limit_is_steady(self):
        cfg = make_config(
            eps1=1.0, eps2=2.5, g=0.8, mu=1.5, mu_r=3.0, k_t=0.4,
            kind=SpectralKind.WIDE_BAND,
        )
        v_seq, x_steady = bm_fluctuation(cfg, TimeGrid(40.0, 400))
        assert np.max(np.abs(v_seq[-1] - x_steady)) < 1e-7

    @pytest.mark.parametrize(
        "seed,regime",
        enumerate(["complex_g", "g_zero", "gamma_r_zero", "zero_temperature"]),
    )
    def test_matches_sylvester_solve(self, seed, regime):
        rng = np.random.default_rng(700 + seed)
        for _ in range(8):
            cfg = _random_config(rng, regime, SpectralKind.WIDE_BAND)
            grid = TimeGrid(rng.uniform(1.0, 5.0), 40)
            v_seq, x_steady = bm_fluctuation(cfg, grid)
            gam = gamma_matrix(cfg)
            occ = np.diag(
                [fermi_occupation(eps, res.mu, res.k_t) for eps, res in
                 zip((cfg.system.eps1, cfg.system.eps2), cfg.reservoirs)]
            )
            a_mat = 1j * build_hamiltonian(cfg.system) + 0.5 * gam
            x = solve_sylvester(a_mat, a_mat.conj().T, (occ @ gam).astype(complex))
            assert np.max(np.abs(x_steady - 0.5 * (x + x.conj().T))) < 1e-12
            for k in (1, 17, 40):
                u = expm(-a_mat * grid.times[k])
                ref = x - u @ x @ u.conj().T
                assert np.max(np.abs(v_seq[k] - 0.5 * (ref + ref.conj().T))) < 1e-12

    def test_empty_lead_is_skipped_before_the_undamped_mode_guard(self):
        # the left lead holds no electron at eps1 = 1 > mu = 0, so its nearly
        # undamped mode (width 1e-13) never reaches the guard
        cfg = make_config(
            eps1=1.0, eps2=2.0, g=0.0, gamma=1e-13, mu=0.0, gamma_r=0.5, mu_r=3.0,
            k_t=0.0, kind=SpectralKind.WIDE_BAND,
        )
        _, x_steady = bm_fluctuation(cfg, TimeGrid(1.0, 4))
        np.testing.assert_allclose(x_steady, np.diag([0.0, 1.0]), rtol=0.0, atol=1e-15)

    def test_weighted_undamped_pair_is_rejected(self, monkeypatch):
        undamped = PoleExpansion(poles=[2.0 + 0.0j], residues=[np.eye(2)])
        monkeypatch.setattr(greens, "_modes", lambda config: undamped)
        with pytest.raises(SolverError):
            bm_fluctuation(make_config(kind=SpectralKind.WIDE_BAND), TimeGrid(1.0, 4))

    def test_requires_wideband_kind(self):
        with pytest.raises(ConfigError):
            bm_fluctuation(make_config(), TimeGrid(1.0, 4))
