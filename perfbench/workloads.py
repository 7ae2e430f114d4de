"""Benchmark workloads: seeded dqdsim config files and their expectations.

Standard library only, so the orchestrator can import it without loading
numpy. Problem sizes (grid steps, sweep points, oracle modes) are fixed;
the seed only draws the physical parameters eps, g and mu from the stated
ranges around each operating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Seeded ranges: (low, high) around each operating point.
RANGES = {
    "evolve-lorentz": {"eps": (1.8, 2.2), "g": (0.4, 0.6), "mu": (1.8, 2.2)},
    # eps and mu are the pole sweep's own axes; only g is drawn there.
    "sweep-steady": {"g": (0.45, 0.55), "mu": (1.8, 2.2)},
    # Acceptance census row 1 (two bound states) and its neighbourhood.
    "gapped-verify": {"eps": (1.9, 2.1), "g": (0.9, 1.1), "mu": (1.9, 2.1)},
    "evolve-wideband": {"eps": (1.8, 2.2), "g": (0.4, 0.6), "mu": (1.8, 2.2)},
}


@dataclass(frozen=True)
class Command:
    """One dqdsim CLI call of a pass and what its output must satisfy."""

    sub: str  # evolve | sweep | classify | verify
    config: str  # config file text
    extra: tuple = ()  # argv after --config/--out
    rows: int = 0  # time-grid or sweep points the command delivers
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit_name: str  # what one delivered row is: steps or points
    build: object  # (params, small) -> list[Command]
    # Per-pass call counts of every traced layer; unlisted layers expect 0.
    calls: dict
    # Weights of the speed-calibration kernels (speed.py), after the shares
    # of the workload's layers in a traced pass.
    mix: dict


def _reservoir(section, gamma, mu, k_t, d=None, cut=None):
    lines = [f"[{section}]", f"gamma = {gamma!r}", f"mu = {mu!r}", f"k_t = {k_t!r}"]
    if d is not None:
        lines.append(f"d = {d!r}")
    if cut is not None:
        lines.append(f"omega_cut = {cut!r}")
    return "\n".join(lines)


def _config(eps1, eps2, g, mu, kind, gamma=0.5, k_t=0.5, d=None, cut=None,
            tail=""):
    return "\n".join(
        [
            "[system]",
            f"eps1 = {eps1!r}",
            f"eps2 = {eps2!r}",
            f"g = {g!r}",
            _reservoir("left", gamma, mu, k_t, d, cut),
            _reservoir("right", gamma, mu, k_t, d, cut),
            "[spectral]",
            f"kind = {kind}",
            tail.strip(),
            "",
        ]
    )


def _evolve_lorentz(p, small):
    n = 80 if small else 8000
    cfg = _config(
        p["eps"], p["eps"], p["g"], p["mu"], "lorentzian", d=2.0,
        tail=f"[grid]\nt_max = 10.0\nn_steps = {n}\n"
        "[solver]\nmethod = exact\n[initial]\nstate = bell_plus",
    )
    return [Command("evolve", cfg, rows=n + 1, expect={"n_steps": n, "t_max": 10.0})]


def _sweep_steady(p, small):
    # The 9x9 pole grid runs as one sweep per eps row, over the same 81
    # points in the same order, so that speed calibrations run between rows:
    # a single 10-20 s command left the machine's drift inside it unmeasured.
    k = 2 if small else 9
    out = []
    for i in range(k):
        eps = 10.0 * i / (k - 1)
        pole = _config(
            0.0, 0.0, p["g"], 0.0, "lorentzian", d=0.5,
            tail="[solver]\nmethod = pole\n[sweep]\n"
            f"axis1 = eps1,eps2:{eps!r}:{eps!r}:1\naxis2 = mu1,mu2:0.0:10.0:{k}",
        )
        out.append(Command("sweep", pole, ("--workers", "1"), rows=k,
                           expect={"points": k, "axes": 2}))
    m = 3 if small else 41
    wbl = _config(
        2.0, 2.0, p["g"], p["mu"], "wideband",
        tail=f"[solver]\nmethod = wbl\n[sweep]\naxis1 = eps1,eps2:0.0:4.0:{m}",
    )
    out.append(Command("sweep", wbl, ("--workers", "1"), rows=m,
                       expect={"points": m, "axes": 1}))
    return out


def _gapped_verify(p, small):
    n = 300 if small else 6000
    modes = 40 if small else 400
    tol = 1.0 if small else 0.05
    cfg = _config(
        p["eps"], p["eps"], p["g"], p["mu"], "cutoff_lorentzian", d=1.0,
        cut=0.5,
        tail=f"[grid]\nt_max = 50.0\nn_steps = {n}\n[solver]\nmethod = exact\n"
        f"[oracle]\nmodes = {modes}\ntol = {tol!r}",
    )
    return [
        Command("classify", cfg, rows=n + 1,
                expect={"roots": 2, "class": "OscillatingQuantumMemory"}),
        Command("verify", cfg, ("--oracle-modes", str(modes)), rows=n + 1,
                expect={"tol": tol}),
    ]


def _evolve_wideband(p, small):
    n = 40 if small else 2000
    out = []
    for method in ("wbl", "born_markov"):
        cfg = _config(
            p["eps"], p["eps"], p["g"], p["mu"], "wideband",
            tail=f"[grid]\nt_max = 10.0\nn_steps = {n}\n"
            f"[solver]\nmethod = {method}\n[initial]\nstate = bell_plus",
        )
        out.append(Command("evolve", cfg, rows=n + 1,
                           expect={"n_steps": n, "t_max": 10.0}))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve-lorentz",
            "steps",
            _evolve_lorentz,
            {
                "cli.main": 1,
                "spectral.build_kernel_table": 2,
                "greens.solve_dyson": 1,
                "greens.compute_fluctuation": 1,
                "state.propagator_coefficients": 8001,
                "state.evolve_density": 8001,
                "entanglement.fermionic_eof": 8001,
            },
            {"vector": 0.55, "interp": 0.45},
        ),
        Workload(
            "sweep-steady",
            "points",
            _sweep_steady,
            {
                "cli.main": 10,
                "greens.pole_expansion_lorentzian": 81,
                "greens.steady_state_fluctuation": 81,
                "greens.wbl_steady_fluctuation": 41,
                "entanglement.steady_state_eof": 122,
            },
            {"interp": 1.0},
        ),
        Workload(
            "gapped-verify",
            "steps",
            _gapped_verify,
            {
                "cli.main": 2,
                "boundstate.find_bound_states": 1,
                "spectral.build_kernel_table": 3,
                "greens.solve_dyson": 2,
                "greens.compute_fluctuation": 1,
                "oracle.discretize": 1,
                "oracle.exact_greens": 1,
            },
            {"dense": 0.7, "vector": 0.12, "interp": 0.18},
        ),
        Workload(
            "evolve-wideband",
            "steps",
            _evolve_wideband,
            {
                "cli.main": 2,
                "greens.wbl_greens": 2,
                "greens.bm_fluctuation": 1,
                "state.propagator_coefficients": 4002,
                "state.evolve_density": 4002,
                "entanglement.fermionic_eof": 4002,
            },
            {"vector": 0.9, "interp": 0.1},
        ),
    )
}


def draw_params(name: str, seed: int) -> dict:
    """Physical parameters of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    return {key: round(rng.uniform(lo, hi), 6) for key, (lo, hi) in RANGES[name].items()}


def commands(name: str, seed: int, small: bool = False) -> list:
    """The pass of one workload: full size, or the small warm-up variant."""
    return WORKLOADS[name].build(draw_params(name, seed), small)
