import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special

from dqdsim import spectral
from dqdsim.model import ConfigError, ModelConfig, ReservoirParams, SpectralKind, SystemParams
from dqdsim.spectral import (
    _digamma,
    _fourier_sum,
    _scaled_exp1,
    build_kernel_table,
    fermi_occupation,
    lead_density,
    lead_self_energy_real,
)

from conftest import assert_flat_work, count_kernel_work, make_config
from fourier_reference import direct_fourier_sum
from kernel_reference import (
    _half_lorentzian_fourier,
    memory_kernel,
    noise_kernel,
    panel_noise_column,
    self_energy_real,
    spectral_density,
)


class TestSpectralDensity:
    def test_lorentzian_peak_and_halfwidth(self):
        m = make_config(gamma=0.7, d=2.0, mu=1.5)
        j = spectral_density(m, 1.5)
        np.testing.assert_allclose(np.diag(j), [0.7, 0.7], atol=1e-14)
        for w in (1.5 - 2.0, 1.5 + 2.0):
            np.testing.assert_allclose(np.diag(spectral_density(m, w)), [0.35, 0.35])

    def test_cutoff_vanishes_outside_band(self):
        m = make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=0.5, mu=2.0)
        for w in (2.0 + 0.5 + 1e-9, 2.0 - 0.5 - 1e-9, 10.0, -10.0):
            assert np.all(spectral_density(m, w) == 0.0)
        assert spectral_density(m, 2.3)[0, 0] > 0.0

    def test_wideband_is_flat(self):
        m = make_config(kind=SpectralKind.WIDE_BAND, gamma=0.9)
        for w in (-50.0, 0.0, 3.0, 400.0):
            np.testing.assert_array_equal(np.diag(spectral_density(m, w)), [0.9, 0.9])

    def test_diagonal_and_nonnegative(self, rng):
        m = make_config(gamma=0.5, d=1.0, mu=-1.0)
        for w in rng.normal(scale=10.0, size=40):
            j = spectral_density(m, w)
            assert j[0, 1] == 0.0 and j[1, 0] == 0.0
            assert j[0, 0] >= 0.0 and j[1, 1] >= 0.0


class TestFermiOccupation:
    def test_symmetry_point(self):
        for kt in (0.1, 1.0, 7.3):
            assert fermi_occupation(2.0, 2.0, kt) == 0.5

    def test_zero_temperature_step(self):
        assert fermi_occupation(1.0, 2.0, 0.0) == 1.0
        assert fermi_occupation(3.0, 2.0, 0.0) == 0.0
        assert fermi_occupation(2.0, 2.0, 0.0) == 0.5

    def test_log3_quarter_point(self):
        kt = 0.4
        np.testing.assert_allclose(
            fermi_occupation(1.0 + kt * math.log(3.0), 1.0, kt), 0.25, atol=1e-14
        )

    def test_monotone_and_bounded(self):
        w = np.linspace(-30.0, 30.0, 400)
        n = fermi_occupation(w, 0.7, 0.3)
        assert np.all(np.diff(n) <= 0.0)
        assert np.all((n >= 0.0) & (n <= 1.0))

    def test_particle_hole_symmetry(self):
        x = np.linspace(0.0, 8.0, 50)
        total = fermi_occupation(1.0 + x, 1.0, 0.6) + fermi_occupation(1.0 - x, 1.0, 0.6)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_complex_energies_match_direct_formula(self, rng):
        # x = (z - mu) / k_T as the function forms it, out to Re x = +/-700
        mu, kt = 0.3, 0.7
        x = np.concatenate([rng.uniform(-40.0, 40.0, 200), [700.0, -700.0, 699.5]])
        x = x + 1j * np.concatenate([rng.uniform(-30.0, 30.0, 200), [0.3, 2.0, -5.0]])
        z = mu + kt * x
        got = fermi_occupation(z, mu, kt)
        assert got.dtype == complex
        with mpmath.workdps(40):
            want = [complex(1 / (mpmath.exp(mpmath.mpc(w)) + 1)) for w in (z - mu) / kt]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert fermi_occupation(complex(z[0]), mu, kt) == got[0]

    def test_complex_energies_do_not_overflow(self):
        z = np.array([700.0, -700.0, 1e4, -1e4]) + 1j * np.array([0.5, 3.0, 1.0, -2.0])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            n = fermi_occupation(z, 0.0, 1.0)
        assert np.all(np.isfinite(n))
        np.testing.assert_allclose(n[[1, 3]], 1.0, rtol=0.0, atol=1e-300)
        assert np.all(np.abs(n[[0, 2]]) < 1e-300)

    def test_complex_energies_need_a_temperature(self):
        with pytest.raises(ValueError, match="real energies"):
            fermi_occupation(1.0 + 1.0j, 0.0, 0.0)


class TestSelfEnergyReal:
    def test_lorentzian_odd_and_special_points(self):
        res = ReservoirParams(gamma=1.0, bandwidth=2.0, mu=1.0)
        kind = SpectralKind.LORENTZIAN
        assert lead_self_energy_real(res, kind, 1.0) == 0.0
        np.testing.assert_allclose(
            lead_self_energy_real(res, kind, 1.0 + 2.0), 0.25, atol=1e-14
        )
        x = np.linspace(0.1, 20.0, 30)
        np.testing.assert_allclose(
            lead_self_energy_real(res, kind, 1.0 + x),
            -lead_self_energy_real(res, kind, 1.0 - x),
            atol=1e-12,
        )

    def test_lorentzian_matches_principal_value(self):
        res = ReservoirParams(gamma=0.8, bandwidth=1.5, mu=0.5)
        kind = SpectralKind.LORENTZIAN

        def pv(w):
            f = lambda wp: lead_density(res, kind, wp + w) / (2.0 * math.pi)
            # symmetrized quadrature removes the principal-value singularity
            g = lambda x: (f(-x) - f(x)) / x
            val, _ = integrate.quad(g, 0.0, 200.0, limit=400, points=[abs(w - res.mu)])
            return val

        for w in (-2.0, 0.2, 0.5001, 3.7):
            np.testing.assert_allclose(
                lead_self_energy_real(res, kind, w), pv(w), atol=1e-6
            )

    def test_cutoff_matches_quadrature_outside_band(self):
        res = ReservoirParams(gamma=0.6, bandwidth=1.0, mu=2.0, cutoff=0.8)
        kind = SpectralKind.CUTOFF_LORENTZIAN
        lo, hi = res.mu - res.cutoff, res.mu + res.cutoff
        for w in (-3.0, 1.05, 2.9, 6.0):
            ref, _ = integrate.quad(
                lambda wp: lead_density(res, kind, wp) / (2 * math.pi * (w - wp)),
                lo,
                hi,
                limit=300,
            )
            np.testing.assert_allclose(
                lead_self_energy_real(res, kind, w), ref, atol=1e-8
            )

    def test_cutoff_edge_divergence_and_decay(self):
        res = ReservoirParams(gamma=0.6, bandwidth=1.0, mu=2.0, cutoff=0.8)
        kind = SpectralKind.CUTOFF_LORENTZIAN
        upper = lead_self_energy_real(res, kind, res.mu + res.cutoff + 1e-12)
        lower = lead_self_energy_real(res, kind, res.mu - res.cutoff - 1e-12)
        assert upper > 1.0
        assert lower < -1.0
        assert abs(lead_self_energy_real(res, kind, 1e7)) < 1e-5

    def test_cutoff_inside_band_rejected(self):
        m = make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=0.5, mu=2.0)
        with pytest.raises(ConfigError):
            self_energy_real(m, 2.2)

    def test_matrix_form_is_diagonal(self):
        m = make_config(mu=1.0, mu_r=3.0)
        s = self_energy_real(m, 7.0)
        assert s[0, 1] == 0.0 and s[1, 0] == 0.0


class TestMemoryKernel:
    def test_lorentzian_closed_form(self):
        m = make_config(gamma=0.5, d=2.0, mu=1.0)
        np.testing.assert_allclose(
            np.diag(memory_kernel(m, 0.0)), [0.5, 0.5], atol=1e-14
        )
        for tau in (0.3, 1.7, -0.8):
            expect = 0.5 * np.exp(-1j * 1.0 * tau - 2.0 * abs(tau))
            np.testing.assert_allclose(
                np.diag(memory_kernel(m, tau)), [expect, expect], atol=1e-12
            )

    def test_matches_fourier_quadrature(self):
        m = make_config(gamma=0.5, d=2.0, mu=1.0)

        def envelope(x):
            return 0.5 * 4.0 / (x * x + 4.0)

        for tau in (0.0, 0.4, 2.1):
            if tau == 0.0:
                c, _ = integrate.quad(envelope, 0.0, np.inf)
            else:
                # J is even about mu: only the cosine transform survives,
                # and the Fourier-weighted rule handles the infinite tail
                c, _ = integrate.quad(
                    envelope, 0.0, np.inf, weight="cos", wvar=tau,
                    limit=400, limlst=100,
                )
            ref = np.exp(-1j * 1.0 * tau) * c / math.pi
            np.testing.assert_allclose(memory_kernel(m, tau)[0, 0], ref, atol=1e-8)

    def test_conjugate_symmetry(self):
        m = make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=3.0)
        for tau in (0.2, 1.1, 4.0):
            np.testing.assert_allclose(
                memory_kernel(m, -tau),
                memory_kernel(m, tau).conj().T,
                atol=1e-10,
            )

    def test_large_cutoff_approaches_lorentzian(self):
        # tail mass beyond the cutoff scales as Gamma d^2 / (pi Omega)
        sharp = make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=2000.0, d=1.0)
        plain = make_config(kind=SpectralKind.LORENTZIAN, d=1.0)
        for tau in (0.0, 0.5, 2.0):
            np.testing.assert_allclose(
                memory_kernel(sharp, tau), memory_kernel(plain, tau), atol=1e-4
            )


class TestNoiseKernel:
    def test_hot_limit_is_half_memory(self):
        m = make_config(k_t=1e6, d=1.0, mu=0.0)
        for tau in (0.0, 0.7, 2.5):
            np.testing.assert_allclose(
                noise_kernel(m, tau), 0.5 * memory_kernel(m, tau), atol=1e-6
            )

    def test_always_half_filled_at_zero_lag(self):
        # J is centered on mu, so exactly half its weight is occupied no
        # matter where the band sits or how hot the reservoir is
        for mu, kt in ((-50.0, 0.1), (0.0, 3.0), (7.0, 0.0)):
            m = make_config(gamma=0.5, d=1.0, mu=mu, k_t=kt, mu_r=mu)
            np.testing.assert_allclose(
                np.diag(noise_kernel(m, 0.0)), [0.125, 0.125], atol=1e-12
            )

    def test_matches_quadrature(self):
        # independent decomposition: the even part of J nbar about mu is
        # J/2, the odd part is -J tanh(x / 2kT) / 2 (particle-hole symmetry)
        for mu, kt in ((1.0, 0.5), (-50.0, 0.1), (2.0, 0.01)):
            m = make_config(gamma=0.5, d=2.0, mu=mu, k_t=kt, mu_r=mu)

            def envelope(x):
                return 0.5 * 4.0 / (x * x + 4.0)

            def ref(tau):
                if tau == 0.0:
                    c, _ = integrate.quad(envelope, 0.0, np.inf)
                    t = 0.0
                else:
                    c, _ = integrate.quad(
                        envelope, 0.0, np.inf, weight="cos", wvar=tau,
                        limit=400, limlst=100,
                    )
                    t, _ = integrate.quad(
                        lambda x: envelope(x) * math.tanh(x / (2.0 * kt)),
                        0.0, np.inf, weight="sin", wvar=tau,
                        limit=400, limlst=100,
                    )
                return np.exp(-1j * mu * tau) * (c + 1j * t) / (2.0 * math.pi)

            for tau in (0.0, 0.6, 1.9):
                np.testing.assert_allclose(
                    noise_kernel(m, tau)[0, 0], ref(tau), atol=1e-8
                )


class TestKernelTable:
    def test_matches_pointwise_kernels(self):
        m = make_config(gamma=0.5, d=2.0, mu=1.0, k_t=0.5)
        taus = np.linspace(0.0, 4.0, 9)
        table = build_kernel_table(m, taus, include_noise=True)
        for i, tau in enumerate(taus):
            np.testing.assert_allclose(
                np.diag(memory_kernel(m, tau)), table.memory[i], atol=1e-10
            )
            np.testing.assert_allclose(
                np.diag(noise_kernel(m, tau)), table.noise[i], atol=1e-6
            )

    def test_cutoff_table_consistent(self):
        m = make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=2.0, k_t=0.3)
        taus = np.linspace(0.0, 3.0, 7)
        table = build_kernel_table(m, taus, include_noise=True)
        for i, tau in enumerate(taus):
            np.testing.assert_allclose(
                np.diag(memory_kernel(m, tau)), table.memory[i], atol=1e-8
            )
            np.testing.assert_allclose(
                np.diag(noise_kernel(m, tau)), table.noise[i], atol=1e-6
            )


    @pytest.mark.parametrize(
        "k_t, cutoff", [(0.0, 2.0), (0.01, 2.0), (0.3, 2.0), (0.3, 20.0)])
    def test_cutoff_band_nodes_match_quadrature(self, k_t, cutoff):
        # one node set serves both columns: fine panels within 14 k_T of mu,
        # coarse ones out to the band edge, past mu + 45 k_T at k_T = 0.01
        # and at cutoff 20
        m = make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=cutoff,
                        k_t=k_t, d=2.0, mu=1.0, mu_r=-0.5)
        taus = np.linspace(0.0, 6.0, 13)
        table = build_kernel_table(m, taus, include_noise=True)
        memory_only = build_kernel_table(m, taus, include_noise=False).memory
        np.testing.assert_allclose(memory_only, table.memory, rtol=0.0, atol=1e-15)
        for i, tau in enumerate(taus):
            np.testing.assert_allclose(
                np.diag(memory_kernel(m, tau)), table.memory[i], rtol=0.0, atol=1e-13
            )
            np.testing.assert_allclose(
                np.diag(noise_kernel(m, tau)), table.noise[i], rtol=0.0, atol=1e-10
            )

    def test_cutoff_table_takes_one_fourier_sum_per_distinct_lead(self, monkeypatch):
        # memory and noise columns share one node set and one sum per lead,
        # and a right lead equal to the left one takes none of its own
        work = count_kernel_work(monkeypatch)
        for mu_r, sums in ((None, 1), (1.5, 2)):
            m = make_config(kind=SpectralKind.CUTOFF_LORENTZIAN, cutoff=2.0, k_t=0.3, mu_r=mu_r)
            work["sums"].clear()
            build_kernel_table(m, np.linspace(0.0, 3.0, 7), include_noise=True)
            assert len(work["sums"]) == sums

    def test_lorentzian_noise_takes_one_pair_table_per_distinct_lead(self, monkeypatch):
        calls = []
        table = spectral._thermal_pair_table

        def counted(lams, keep, res, taus, cap):
            calls.append(res)
            return table(lams, keep, res, taus, cap)

        monkeypatch.setattr(spectral, "_thermal_pair_table", counted)
        for mu_r, tables in ((None, 1), (1.5, 2)):
            calls.clear()
            build_kernel_table(make_config(mu_r=mu_r), np.linspace(0.0, 3.0, 7))
            assert len(calls) == tables

    @pytest.mark.parametrize("kind", [SpectralKind.LORENTZIAN, SpectralKind.CUTOFF_LORENTZIAN])
    def test_shared_columns_equal_the_lone_build(self, kind):
        # the right lead's copied columns are those it gets with the left
        # lead switched off, built on its own, bit for bit
        taus = np.linspace(0.0, 20.0, 801)
        shared = build_kernel_table(make_config(kind=kind, cutoff=1.5), taus)
        alone = build_kernel_table(make_config(kind=kind, cutoff=1.5, gamma=0.0, gamma_r=0.5), taus)
        assert not np.any(alone.memory[:, 0])
        np.testing.assert_array_equal(shared.memory[:, 1], alone.memory[:, 1])
        np.testing.assert_array_equal(shared.noise[:, 1], alone.noise[:, 1])
        np.testing.assert_array_equal(shared.memory[:, 0], shared.memory[:, 1])


class TestCutoffPanelWidth:
    """A cutoff lead's panels let e^{-i w tau_max} turn by pi: the table
    agrees with one built on panels 16 times finer."""

    def test_matches_panels_sixteen_times_finer(self, monkeypatch):
        rng = np.random.default_rng(24)
        cap = spectral._osc_cap
        for i, cut in enumerate(np.linspace(0.3, 5.0, 25)):
            k_t = 0.0 if i % 3 == 0 else float(rng.uniform(0.01, 2.0))
            t_max = 10.0 * 20.0 ** (i / 24)
            leads = [
                ReservoirParams(gamma=float(rng.uniform(0.1, 1.0)),
                                bandwidth=float(rng.uniform(0.2, 3.0)),
                                mu=float(rng.uniform(-2.0, 2.0)), k_t=k_t, cutoff=c)
                for c in (float(cut), float(rng.uniform(0.3, 5.0)))
            ]
            m = ModelConfig(SystemParams(1.0, 0.5, 0.3), *leads,
                            spectral_kind=SpectralKind.CUTOFF_LORENTZIAN)
            taus = np.linspace(0.0, t_max, 201)
            coarse = build_kernel_table(m, taus)
            monkeypatch.setattr(spectral, "_osc_cap", lambda tau_max: cap(tau_max) / 16.0)
            fine = build_kernel_table(m, taus)
            monkeypatch.setattr(spectral, "_osc_cap", cap)
            for a, b in ((coarse.memory, fine.memory), (coarse.noise, fine.noise)):
                err = np.max(np.abs(a - b), axis=0)
                assert np.all(err <= 1e-14 * np.max(np.abs(b), axis=0)), (i, err)

class TestLorentzianSeaColumn:
    """A Lorentzian lead's zero-temperature noise column is the wide band's
    half-line pair integral at the pseudomode pole mu - i d."""

    @pytest.mark.parametrize("kind", [SpectralKind.LORENTZIAN])
    @pytest.mark.parametrize("d", [1e-3, 0.5, 2.0, 300.0])
    def test_matches_e1_ei_closed_form(self, d, kind):
        # tau d runs to 100, across the switch to the asymptotic series at 50
        m = make_config(
            d=d, k_t=0.0, mu=1.3, mu_r=-0.4, gamma=0.5, gamma_r=0.8, kind=kind
        )
        taus = np.linspace(0.0, 100.0 / d, 401)
        noise = build_kernel_table(m, taus).noise
        for c, res in enumerate(m.reservoirs):
            np.testing.assert_allclose(
                noise[:, c], _half_lorentzian_fourier(res, taus), rtol=1e-14, atol=0.0
            )


@st.composite
def _closure_cases(draw):
    """A Lorentzian config and grid from the regimes the closure must cover:
    k_T from 0.05 to 20 and k_T >> d, tau* = 1/k_T from below dt to past
    t_max, Gamma down to 0.01, one lead switched off."""
    k_t = draw(st.sampled_from([0.05, 0.5, 2.0, 20.0]))
    d = draw(st.sampled_from([0.1, 0.7, 2.0, 5.0]))
    gamma = draw(st.sampled_from([0.01, 0.5, 2.0]))
    gamma_r = draw(st.sampled_from([0.0, 0.3]))
    mu = draw(st.floats(-3.0, 3.0))
    t_max = draw(st.sampled_from([0.04, 1.0, 8.0]))
    n = draw(st.sampled_from([1, 7, 64]))
    cfg = make_config(d=d, gamma=gamma, gamma_r=gamma_r, mu=mu, mu_r=-mu, k_t=k_t)
    return cfg, np.linspace(0.0, t_max, n + 1)


class TestMatsubaraClosure:
    """Past tau* = 1/k_T a Lorentzian lead's noise column is the residue at
    J's pole mu - i d plus the Matsubara sum; before it, the sharp sea plus
    the Fermi remainder on panels of width k_T / 2. Both must match the
    column summed on panels on every row, the package's design before the
    closure."""

    @given(_closure_cases())
    def test_matches_all_panel_column(self, case):
        cfg, taus = case
        noise = build_kernel_table(cfg, taus).noise
        for c, res in enumerate(cfg.reservoirs):
            if res.gamma > 0.0:
                ref = panel_noise_column(res, taus)
                assert np.max(np.abs(noise[:, c] - ref)) < 1e-13

    @settings(max_examples=30)
    @given(
        st.sampled_from([0, 1]),
        st.sampled_from([0.05, 0.5, 2.0]),
        st.integers(3, 12),
        st.floats(0.5, 2.0),
    )
    def test_pole_on_a_matsubara_pole(self, m, k_t, digits, gamma):
        # at d = pi k_T (2m + 1) J's pole mu + i d (of the conjugated
        # integrand) sits on the Matsubara pole w_m, and either residue alone
        # diverges like 1/(d - pi k_T (2m + 1)); their sum is finite
        d0 = math.pi * k_t * (2 * m + 1)
        taus = np.linspace(0.0, 6.0 / k_t, 97)
        cols = {}
        for h in (0.0, 10.0 ** -digits, -(10.0 ** -digits)):
            cfg = make_config(d=d0 + h, gamma=gamma, mu=0.4, k_t=k_t)
            cols[h] = build_kernel_table(cfg, taus).noise[:, 0]
            ref = panel_noise_column(cfg.left, taus)
            assert np.max(np.abs(cols[h] - ref)) < 1e-13
        # |dJ/dd| integrates to pi Gamma over w and the column carries
        # 1 / 2 pi, so it moves by at most Gamma |h| / 2 at every lag: both
        # sides reach the value at d0
        for h, col in cols.items():
            assert np.max(np.abs(col - cols[0.0])) <= gamma * abs(h) / 2.0 + 1e-12

    def test_noise_column_matches_finer_panels(self, monkeypatch):
        # the Fermi-remainder panels, <= d / 2 and <= 2 k_T, against panels
        # 16 times finer, to 1e-15 of the column's largest entry on 40 draws
        # (measured worst 4.5e-16)
        rng = np.random.default_rng(29)
        cases = [(make_config(gamma=rng.uniform(0.1, 2.0), d=rng.uniform(0.1, 4.0),
                              mu=rng.uniform(-2.0, 2.0), k_t=10.0 ** rng.uniform(-1.5, 0.5)),
                  np.linspace(0.0, rng.uniform(5.0, 60.0), 801)) for _ in range(40)]
        got = [build_kernel_table(cfg, taus).noise[:, 0] for cfg, taus in cases]
        table = spectral._thermal_pair_table
        monkeypatch.setattr(spectral, "_thermal_pair_table",
                            lambda lams, keep, res, taus, cap: table(lams, keep, res, taus,
                                                                     cap / 16.0))
        for (cfg, taus), col in zip(cases, got):
            ref = build_kernel_table(cfg, taus).noise[:, 0]
            assert np.max(np.abs(col - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_work_is_flat_in_the_horizon(self, monkeypatch):
        # at fixed n the panels' nodes, the rows they serve and the E1 calls
        # do not grow with t_max: only rows tau < 1/k_T take them
        cfg = make_config(d=2.0, mu=2.0, k_t=2.0)
        work = count_kernel_work(monkeypatch)
        for t_max in (10.0, 100.0, 400.0):
            build_kernel_table(cfg, np.linspace(0.0, t_max, 801))
        assert_flat_work(work, 3)


class TestScaledExp1:
    X = np.geomspace(1e-6, 700.0, 300)  # both sides of |w| = 50

    def test_positive_real_axis(self):
        got = _scaled_exp1(self.X.astype(complex))
        assert np.all(got.imag == 0.0)
        np.testing.assert_allclose(got, np.exp(self.X) * special.exp1(self.X + 0j), rtol=1e-12)

    def test_negative_real_axis_from_above_the_cut(self):
        w = -self.X.astype(complex)
        above = np.exp(w) * special.exp1(w + 1e-300j)
        np.testing.assert_allclose(_scaled_exp1(w), above, rtol=1e-12)
        # within 1e-300 of the axis, either side, is on the axis
        for imag in (-0.0, -1e-301, 1e-301):
            np.testing.assert_array_equal(_scaled_exp1(w + 1j * imag), _scaled_exp1(w))

    def test_off_axis_values(self, rng):
        r = np.concatenate([rng.uniform(0.01, 49.9, 200), rng.uniform(50.0, 500.0, 100)])
        w = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
        np.testing.assert_allclose(_scaled_exp1(w), _mp_scaled_exp1(w), rtol=1e-14, atol=0.0)

    @settings(max_examples=300)
    @given(st.one_of(
        # the whole plane on both sides of |w| = 50
        st.builds(lambda r, a: r * complex(math.cos(a), math.sin(a)),
                  st.floats(1e-6, 80.0), st.floats(-math.pi, math.pi)),
        # the negative axis out to x = 45, on it and just off it
        st.builds(complex, st.floats(-45.0, -1e-6),
                  st.sampled_from([0.0, 1e-12, -1e-12, 1e-3, -1e-3]) | st.floats(-8.0, 8.0)),
        # |w| = 4-5 next to the positive axis, and the line 4.5 + i eps
        st.builds(lambda r, a: r * complex(math.cos(a), math.sin(a)),
                  st.floats(4.0, 5.0), st.floats(-0.05, 0.05)),
        st.builds(lambda e: complex(4.5, e), st.floats(-1e-3, 1e-3)),
        # the switch from series to continued fraction, |w| + Re w = s
        st.builds(lambda y, s: complex((s * s - y * y) / (2.0 * s), y),
                  st.floats(-45.0, 45.0), st.floats(2.3, 2.7)),
    ))
    def test_matches_mpmath(self, w):
        # 40-digit reference; on the negative axis the value above the cut
        got = _scaled_exp1(np.array([w]))[0]
        want = _mp_scaled_exp1(np.array([w]))[0]
        assert abs(got - want) <= 1e-14 * abs(want)


def _mp_scaled_exp1(w):
    """exp(w) E1(w) at 40 digits; within 1e-300 of the negative real axis the
    value from above the cut, E1(-x + i0) = -Ei(x) - i pi."""
    out = []
    with mpmath.workdps(40):
        for v in w:
            if abs(v.imag) < 1e-300 and v.real < 0.0:
                x = mpmath.mpf(-v.real)
                out.append(complex(mpmath.exp(-x) * (-mpmath.ei(x) - 1j * mpmath.pi)))
            else:
                z = mpmath.mpc(v)
                out.append(complex(mpmath.exp(z) * mpmath.e1(z)))
    return np.array(out)


class TestDigamma:
    """psi(z) on Re z >= 1/2, where _pair_integrals evaluates it, within
    4e-15 max(1, |psi|) of mpmath: absolute near the zero at 1.4616,
    relative past |psi| = 1."""

    @staticmethod
    def assert_close(z):
        got = _digamma(np.asarray(z, dtype=complex))
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.digamma(mpmath.mpc(v))) for v in np.ravel(z)])
        assert got.shape == np.shape(z)
        assert np.all(np.abs(np.ravel(got) - want) <= 4e-15 * np.maximum(1.0, np.abs(want)))

    @given(st.floats(-8.0, 4.0), st.floats(-8.0, 6.0), st.booleans())
    def test_matches_mpmath(self, log_re, log_im, below):
        # Re z from 1/2 to 1e4 and |Im z| up to 1e6: 1/2 - x with
        # x = (q - mu) / (2 pi i k_t) for k_t down to 1e-3
        im = 10.0**log_im
        self.assert_close([complex(0.5 + 10.0**log_re, -im if below else im)])

    @given(st.floats(-0.01, 0.01), st.floats(-0.01, 0.01))
    def test_near_the_real_zero(self, dx, dy):
        self.assert_close([complex(1.4616321449683623 + dx, dy)])

    def test_batch_shape(self, rng):
        z = 0.5 + rng.uniform(0.0, 30.0, (3, 4)) + 1j * rng.uniform(-30.0, 30.0, (3, 4))
        self.assert_close(z)


# grid sizes n + 1: the smallest, perfect squares (B divides them) and primes
_GRID_SIZES = [1, 2, 3, 4, 9, 16, 100, 1024, 5, 7, 13, 97, 101, 1009]


@st.composite
def _fourier_cases(draw):
    """Nodes, a coefficient vector or stack, a uniform grid, a chunk bound."""
    size = draw(st.sampled_from(_GRID_SIZES) | st.integers(1, 1500))
    tau_max = draw(st.floats(0.01, 100.0))
    phase_max = draw(st.floats(0.0, 1e3))  # max |w tau| on the grid
    unit = st.floats(-1.0, 1.0)
    n_nodes = draw(st.integers(0, 200))
    nodes = draw(hnp.arrays(float, n_nodes, elements=unit)) * (phase_max / tau_max)
    shape = (n_nodes,) if draw(st.booleans()) else (n_nodes, draw(st.integers(1, 4)))
    coefs = draw(hnp.arrays(float, shape, elements=unit)) \
        + 1j * draw(hnp.arrays(float, shape, elements=unit))
    taus = np.linspace(0.0, tau_max, size)
    chunk = draw(st.sampled_from([1, 7, 64, 2**19]))
    return nodes, coefs, taus, chunk


class TestFourierSum:
    @given(_fourier_cases())
    def test_factored_matches_direct_sum(self, case):
        nodes, coefs, taus, chunk = case
        with mock.patch.object(spectral, "_CHUNK_ELEMENTS", chunk):
            got = _fourier_sum(nodes, coefs, taus)
        want = direct_fourier_sum(nodes, coefs, taus)
        assert got.shape == want.shape
        # both sums round each phase w tau (the factored one twice, plus the
        # split of tau): 2 eps max|w tau| bounds that, 4.4e-13 at 10^3
        phase = np.max(np.abs(nodes), initial=0.0) * taus[-1]
        tol = 1e-13 + 2.0 * np.finfo(float).eps * phase
        assert np.all(np.abs(got - want) <= tol * np.sum(np.abs(coefs), axis=0))

    @pytest.mark.parametrize(
        "taus",
        [
            np.array([]),
            np.array([0.1, 0.2, 0.3]),
            np.array([0.0, 0.1, 0.3]),
            np.array([0.0, -0.1, -0.2]),
            np.array([0.0, 0.0]),
            np.array([0.0, np.nan]),
            np.zeros((2, 2)),
        ],
    )
    def test_rejects_grid_that_is_not_uniform_from_zero(self, taus):
        with pytest.raises(ValueError, match="tau grid"):
            _fourier_sum(np.array([1.0]), np.array([1.0]), taus)
        with pytest.raises(ValueError, match="tau grid"):
            build_kernel_table(make_config(), taus)
