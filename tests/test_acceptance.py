"""Release gate: ten numbered criteria, one printed verdict line each.

Every test measures against a stated tolerance and prints
'criterion N: PASS/FAIL <detail>'; run with -s (or read captured output)
to see the lines. The tolerances are contractual, not aspirational; a
red test here means the package must not ship.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from dqdsim import cli
from dqdsim.boundstate import find_bound_states
from dqdsim.entanglement import fermionic_eof, steady_state_eof
from dqdsim.greens import (
    TimeGrid,
    bm_fluctuation,
    compute_fluctuation,
    pole_expansion_lorentzian,
    solve_dyson,
    steady_state_fluctuation,
    wbl_greens,
)
from dqdsim.model import (
    InvariantViolation,
    ModelConfig,
    ReservoirParams,
    SpectralKind,
    SystemParams,
)
from dqdsim.oracle import discretize, exact_greens
from dqdsim.spectral import _Lead, fermi_occupation
from dqdsim.state import (
    DensityBlocks,
    evolve_density,
    propagator_coefficients,
)

from conftest import make_config, random_density, random_steady_v
from oracle_reference import localized_eigenstates
from state_reference import steady_state_density

BANDWIDTHS = (0.5, 1.0, 2.0, 10.0)

_case_cache = {}


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _grid_for(d, t_max):
    # the kernel decays on 1/d, keep d*dt small; never coarser than 5e-3
    dt = min(5e-3, 0.0125 / d)
    return TimeGrid(t_max, int(round(t_max / dt)))


def _resonant_case(d):
    """Volterra solution of the resonant family over t in [0, 10]."""
    if d not in _case_cache:
        cfg = make_config(d=d)
        grid = _grid_for(d, 10.0)
        u = solve_dyson(cfg, grid)
        v = compute_fluctuation(u, cfg, grid)
        _case_cache[d] = (cfg, grid, u, v)
    return _case_cache[d]


def _pole_steady_eof(cfg) -> float:
    return steady_state_eof(
        steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg)
    )


def test_criterion_01_oracle_equivalence():
    details = []
    ok = True
    for d in BANDWIDTHS:
        start = time.monotonic()
        cfg, grid, u, v = _resonant_case(d)
        ex = exact_greens(discretize(cfg, 400), grid)
        du = float(np.max(np.abs(u - ex.u_seq)))
        dv = float(np.max(np.abs(v - ex.v_seq)))
        elapsed = time.monotonic() - start
        ok = ok and du <= 1e-2 and dv <= 1e-2 and elapsed <= 120.0
        details.append(f"d={d}: dU={du:.2e} dV={dv:.2e} {elapsed:.0f}s")
    _report(1, ok, "solver vs 400-mode bath (tol 1e-2); " + "; ".join(details))


def test_criterion_02_pole_expansion_equivalence():
    details = []
    ok = True
    for d in BANDWIDTHS:
        cfg, grid, u, _ = _resonant_case(d)
        expansion = pole_expansion_lorentzian(cfg)
        residue_gap = float(
            np.max(np.abs(sum(expansion.residues) - np.eye(2)))
        )
        du = float(np.max(np.abs(expansion.reconstruct(grid.times) - u)))
        ok = ok and du <= 1e-3 and residue_gap <= 1e-8
        details.append(f"d={d}: dU={du:.2e} residues={residue_gap:.1e}")
    _report(2, ok, "pole U vs Volterra U (tol 1e-3); " + "; ".join(details))


def test_criterion_03_steady_state_formulas(rng):
    details = []
    ok = True
    for d in BANDWIDTHS:
        cfg = make_config(d=d)
        grid = _grid_for(d, 30.0)
        u = solve_dyson(cfg, grid)
        v_late = compute_fluctuation(u, cfg, grid)[-1]
        v_s = steady_state_fluctuation(pole_expansion_lorentzian(cfg), cfg)
        gap = float(np.max(np.abs(v_late - v_s)))
        ok = ok and gap <= 2e-2
        details.append(f"d={d}: |V(30)-Vs|={gap:.2e}")

    worst = 0.0
    for _ in range(1000):
        v_s = random_steady_v(rng)
        direct = steady_state_eof(v_s)
        full = fermionic_eof(steady_state_density(v_s))
        worst = max(worst, abs(direct - full))
    ok = ok and worst <= 1e-10
    details.append(f"eof consistency worst={worst:.1e} (1000 draws)")
    _report(3, ok, "; ".join(details))


def test_criterion_04_maximal_entanglement():
    v_star = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    e_star = steady_state_eof(v_star)
    bell_plus = fermionic_eof(DensityBlocks.bell(+1))
    bell_minus = fermionic_eof(DensityBlocks.bell(-1))
    ok = (
        abs(e_star - 1.0) <= 1e-12
        and abs(bell_plus - 1.0) <= 1e-12
        and abs(bell_minus - 1.0) <= 1e-12
    )
    _report(
        4,
        ok,
        f"Vs=[[.5,.5],[.5,.5]] -> {e_star:.15f}; "
        f"bell blocks -> {bell_plus:.15f}/{bell_minus:.15f} (tol 1e-12)",
    )


def test_criterion_05_born_markov_null_result():
    worst_v = 0.0
    worst_e = 0.0
    for eps in np.linspace(0.0, 10.0, 41):
        cfg = make_config(
            eps1=float(eps), eps2=float(eps), mu=5.0, k_t=0.5,
            kind=SpectralKind.WIDE_BAND,
        )
        _, v_bm = bm_fluctuation(cfg, TimeGrid(1.0, 2))
        nbar = fermi_occupation(float(eps), 5.0, 0.5)
        worst_v = max(worst_v, float(np.max(np.abs(v_bm - nbar * np.eye(2)))))
        worst_e = max(worst_e, steady_state_eof(v_bm))
    ok = worst_v <= 1e-12 and worst_e <= 1e-10
    _report(
        5,
        ok,
        f"symmetric BM diagonal: |Vs - nbar*I|={worst_v:.1e} (tol 1e-12),"
        f" max eof={worst_e:.1e} (tol 1e-10), 41 points",
    )


SWEEP_TEMPLATE = """\
[system]
eps1 = 0.0
eps2 = 0.0
g = 0.5
[left]
gamma = 0.5
d = {d}
mu = 0.0
k_t = 0.5
[right]
gamma = 0.5
d = {d}
mu = 0.0
k_t = 0.5
[solver]
method = pole
[sweep]
axis1 = eps1,eps2:0.0:10.0:41
axis2 = mu1,mu2:0.0:10.0:41
"""


def test_criterion_06_resonance_symmetry(tmp_path):
    start = time.monotonic()
    details = []
    ok = True
    for d in (10.0, 0.5):
        cfg_path = tmp_path / f"sweep_{d}.cfg"
        out_path = tmp_path / f"sweep_{d}.tsv"
        cfg_path.write_text(SWEEP_TEMPLATE.format(d=d))
        code = cli.main(
            ["sweep", "--config", str(cfg_path), "--out", str(out_path),
             "--workers", "8"]
        )
        assert code == 0
        rows = [
            [float(x) for x in line.split("\t")]
            for line in out_path.read_text().splitlines()
            if line and not line.startswith(("#", "axis1"))
        ]
        assert len(rows) == 41 * 41
        best = max(rows, key=lambda r: r[2])
        off_diag = abs(best[0] - best[1])
        ok = ok and off_diag <= 0.25 + 1e-12
        details.append(
            f"d={d}: argmax at eps={best[0]:.2f} mu={best[1]:.2f}"
            f" (|eps-mu|={off_diag:.2f})"
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 900.0
    _report(6, ok, "; ".join(details) + f"; {elapsed:.0f}s of 900s budget")


def test_criterion_07_monotonic_trends():
    eofs = [
        _pole_steady_eof(make_config(d=2.0, k_t=kt)) for kt in (0.1, 0.5, 1.0)
    ]
    cooling = eofs[0] > eofs[1] > eofs[2]
    weak = _pole_steady_eof(make_config(d=0.5, k_t=0.5, g=0.5))
    strong = _pole_steady_eof(make_config(d=0.5, k_t=0.5, g=4.0))
    ok = cooling and strong > weak
    _report(
        7,
        ok,
        f"eof(kT=0.1,0.5,1.0)={eofs[0]:.4f}>{eofs[1]:.4f}>{eofs[2]:.4f};"
        f" eof(G=4)={strong:.4f} > eof(G=0.5)={weak:.4f}",
    )


def test_criterion_08_cutoff_self_energy(rng):
    res = ReservoirParams(gamma=0.6, bandwidth=1.0, mu=2.0, k_t=0.0, cutoff=0.8)
    kind = SpectralKind.CUTOFF_LORENTZIAN
    lo, hi = res.mu - res.cutoff, res.mu + res.cutoff
    below = lo - 0.05 - 6.0 * rng.random(50)
    above = hi + 0.05 + 6.0 * rng.random(50)
    worst = 0.0
    for w in np.concatenate([below, above]):
        ref, _ = integrate.quad(
            lambda wp: _Lead(res, kind).density(wp) / (2 * math.pi * (w - wp)),
            lo, hi, limit=400,
        )
        worst = max(worst, abs(_Lead(res, kind).self_energy(float(w))[0] - ref))
    upper = _Lead(res, kind).self_energy(hi + 1e-12)[0]
    lower = _Lead(res, kind).self_energy(lo - 1e-12)[0]
    signs = upper > 1.0 and lower < -1.0
    ok = worst <= 1e-6 and signs
    _report(
        8,
        ok,
        f"closed form vs quadrature worst={worst:.1e} (tol 1e-6, 100 points);"
        f" edge signs +{upper:.1f}/{lower:.1f}",
    )


# ten cutoff configurations spanning zero, one and two effective roots:
# (eps1, eps2, g, gamma, d, mu_l, mu_r, cut_l, cut_r, expected roots)
CENSUS = [
    (2.0, 2.0, 1.0, 0.5, 1.0, 2.0, 2.0, 0.5, 0.5, 2),
    (2.0, 2.0, 1.5, 0.5, 1.0, 2.0, 2.0, 0.5, 0.5, 2),
    (2.0, 2.0, 0.8, 0.5, 1.0, 2.0, 2.0, 0.5, 0.5, 2),
    (0.5, 3.5, 0.9, 0.5, 2.0, 2.0, 2.0, 1.0, 1.0, 2),
    (2.0, 2.0, 1.0, 0.5, 1.0, 2.0, 3.0, 0.5, 0.5, 1),
    (2.0, 2.0, 1.2, 0.5, 1.0, 2.0, 3.2, 0.5, 0.6, 1),
    (2.0, 2.0, 0.3, 0.5, 1.0, 2.0, 2.0, 2.0, 2.0, 0),
    (2.0, 2.0, 0.2, 0.5, 1.0, 2.0, 2.0, 3.0, 3.0, 0),
    (2.2, 1.8, 0.25, 0.6, 1.5, 2.0, 2.0, 2.5, 2.5, 0),
    (2.0, 2.0, 0.5, 0.5, 1.0, 2.0, 2.0, 1.2, 1.2, 0),
]


def _census_config(e1, e2, g, gam, d, mu_l, mu_r, cut_l, cut_r):
    return ModelConfig(
        system=SystemParams(eps1=e1, eps2=e2, g_coupling=g),
        left=ReservoirParams(gamma=gam, bandwidth=d, mu=mu_l, k_t=0.0, cutoff=cut_l),
        right=ReservoirParams(gamma=gam, bandwidth=d, mu=mu_r, k_t=0.0, cutoff=cut_r),
        spectral_kind=SpectralKind.CUTOFF_LORENTZIAN,
    )


def test_criterion_09_bound_state_equivalence():
    grid = TimeGrid(100.0, 10000)
    ok = True
    worst_energy = 0.0
    seen = [0, 0, 0]
    for *params, expected in CENSUS:
        cfg = _census_config(*params)
        roots = sorted(r.energy for r in find_bound_states(cfg))
        states = sorted(e for e, _ in localized_eigenstates(discretize(cfg, 400)))
        if len(roots) != expected or len(states) != expected:
            ok = False
            continue
        seen[min(expected, 2)] += 1
        for r_e, s_e in zip(roots, states):
            worst_energy = max(worst_energy, abs(r_e - s_e))
        u = solve_dyson(cfg, grid)
        norms = np.linalg.svd(u, compute_uv=False)[:, 0]
        plateau = float(norms[8000:].max())
        ok = ok and ((plateau > 0.05) == (expected >= 1))
    ok = ok and worst_energy <= 1e-3 and seen == [4, 2, 4]
    _report(
        9,
        ok,
        f"10 configs (4/2/4 with 0/1/2 roots): root-vs-oracle worst"
        f" {worst_energy:.1e} (tol 1e-3); plateau iff root holds",
    )


def _random_wideband_config(rng, unitary_limit):
    def g_draw():
        return complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))

    def lead():
        return ReservoirParams(
            gamma=0.0 if unitary_limit else float(rng.uniform(0.05, 2.0)),
            bandwidth=1.0,
            mu=float(rng.uniform(-2.0, 4.0)),
            k_t=0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.0)),
            cutoff=math.inf,
        )

    return ModelConfig(
        system=SystemParams(
            eps1=float(rng.uniform(-2.0, 4.0)),
            eps2=float(rng.uniform(-2.0, 4.0)),
            g_coupling=g_draw(),
        ),
        left=lead(),
        right=lead(),
        spectral_kind=SpectralKind.WIDE_BAND,
    )


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(99173)
    grid = TimeGrid(4.0, 40)
    identity_coeffs = propagator_coefficients(np.eye(2), np.zeros((2, 2)))
    violations = []
    for case in range(500):
        unitary_limit = case % 10 == 0
        cfg = _random_wideband_config(rng, unitary_limit)
        try:
            sol = wbl_greens(cfg, grid)  # validates U, V trajectories
        except InvariantViolation as exc:
            violations.append(f"case {case}: {exc}")
            continue
        if unitary_limit:
            gaps = np.abs(
                np.conj(np.transpose(sol.u_seq, (0, 2, 1))) @ sol.u_seq
                - np.eye(2)
            )
            if gaps.max() > 1e-8:
                violations.append(f"case {case}: U not unitary at gamma=0")
        rho0 = random_density(rng)
        fixed = evolve_density(rho0, identity_coeffs)
        if (
            np.max(np.abs(fixed.rho1 - rho0.rho1)) > 1e-12
            or np.max(np.abs(fixed.rho2 - rho0.rho2)) > 1e-12
        ):
            violations.append(f"case {case}: identity propagator moved the state")
        for k in range(0, 41, 4):
            try:
                coeffs = propagator_coefficients(sol.u_seq[k], sol.v_seq[k])
                rho_t = evolve_density(rho0, coeffs)  # re-validates blocks
            except InvariantViolation as exc:
                violations.append(f"case {case} t-index {k}: {exc}")
                continue
            if abs(rho_t.total_trace - 1.0) > 1e-8:
                violations.append(f"case {case} t-index {k}: trace drift")
            eof = fermionic_eof(rho_t)
            if not 0.0 <= eof <= 1.0:
                violations.append(f"case {case} t-index {k}: eof {eof} out of range")
    ok = not violations
    _report(
        10,
        ok,
        "500 randomized configurations, zero violations"
        if ok
        else f"{len(violations)} violations, first: {violations[0]}",
    )
