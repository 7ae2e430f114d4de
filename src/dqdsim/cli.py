"""Command-line front end: config parsing, experiment runs, data tables.

Subcommands: evolve (time series), sweep (1-D/2-D steady-state grids),
classify (bound-state census of a gapped spectrum), verify (cross-check a
solver against the discretized-bath oracle). Config files are flat
key = value lines under [section] headers; all energies in Gamma units.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .boundstate import classify_relaxation, find_bound_states
from .entanglement import fermionic_eof, steady_state_eof
from .greens import (
    GreensSolution,
    TimeGrid,
    _bm_stationary,
    _require_damping,
    bm_fluctuation,
    compute_fluctuation,
    pole_expansion_lorentzian,
    solve,
    solve_dyson,
    steady_state_fluctuation,
    wbl_greens,
    wbl_steady_fluctuation,
)
from .model import (
    ConfigError,
    InvariantViolation,
    ModelConfig,
    ReservoirParams,
    SolverError,
    SpectralKind,
    SystemParams,
    hermitian_part,
    max_singular_e,
)
from .oracle import discretize, exact_greens
from .spectral import _require_kernel_kind
from .state import DensityBlocks, evolve_density, propagator_coefficients

# name -> the DensityBlocks it starts from; "explicit" reads [initial] rho*.
_NAMED_STATES = {
    "vacuum": DensityBlocks.vacuum,
    "single1": lambda: DensityBlocks.single(1),
    "single2": lambda: DensityBlocks.single(2),
    "bell_plus": lambda: DensityBlocks.bell(+1),
    "bell_minus": lambda: DensityBlocks.bell(-1),
}
INITIAL_STATES = (*_NAMED_STATES, "explicit")

# sweep name -> (ModelConfig parts it sets, the field it sets on each part)
_SWEEP_FIELDS = {
    "eps1": (("system",), "eps1"),
    "eps2": (("system",), "eps2"),
    "mu1": (("left",), "mu"),
    "mu2": (("right",), "mu"),
    "g": (("system",), "g_coupling"),
    "d": (("left", "right"), "bandwidth"),
    "k_t": (("left", "right"), "k_t"),
    "gamma": (("left", "right"), "gamma"),
    "omega_cut": (("left", "right"), "cutoff"),
}
SWEEP_PARAMS = tuple(_SWEEP_FIELDS)


def _complex(raw: str) -> complex:
    return complex(raw.replace(" ", ""))


# parser -> the kind of value it expects, as its error message names it
_EXPECTED = {
    float: "a number",
    int: "an integer",
    _complex: "a real or complex number",
}

_LEAD_KEYS = {
    "gamma": (float, 1.0),
    "d": (float, 0.5),
    "mu": (float, 0.0),
    "k_t": (float, 0.0),
    "omega_cut": (float, math.inf),
}

# section -> key -> (parser, default); a None default marks a required key
_KEYS = {
    "system": {"eps1": (float, None), "eps2": (float, None), "g": (_complex, 0j)},
    "left": _LEAD_KEYS,
    "right": _LEAD_KEYS,
    "spectral": {"kind": (SpectralKind.from_name, SpectralKind.LORENTZIAN)},
    "grid": {"t_max": (float, None), "n_steps": (int, None)},
    "initial": {
        "state": (str, "single1"),
        **{
            f"{block}_{entry}": (float, 0.0)
            for block in ("rho1", "rho2")
            for entry in ("00", "11", "01_re", "01_im")
        },
    },
    "solver": {"method": (str, "exact")},
    "sweep": {"axis1": (str, None), "axis2": (str, None)},
    "oracle": {"modes": (int, 400), "tol": (float, 1e-2)},
}


@dataclass
class SweepAxis:
    """One swept parameter group: names share the same value grid."""

    names: tuple
    lo: float
    hi: float
    steps: int

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass
class ExperimentConfig:
    """Everything a run needs, resolved from one config file."""

    model: ModelConfig
    grid: TimeGrid | None
    initial: DensityBlocks
    method: str
    axes: list
    oracle_modes: int
    oracle_tol: float
    raw_items: list  # (section, key, value) in file order, for the output header


class _Table:
    """The config file's keys, read once and checked against _KEYS, with
    typed access and line-precise errors; data maps (section, key) to
    (value, line number) in file order."""

    def __init__(self, path: str):
        self.path = path
        self.data = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        section = None
        for no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in _KEYS:
                    known = ", ".join(sorted(_KEYS))
                    raise ConfigError(
                        f"{path}:{no}: unknown section [{section}] (known: {known})"
                    )
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{no}: expected 'key = value', got {line!r}")
            if section is None:
                raise ConfigError(f"{path}:{no}: key outside of any [section]")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _KEYS[section]:
                known = ", ".join(sorted(_KEYS[section]))
                raise ConfigError(
                    f"{path}:{no}: unknown key {key!r} in [{section}] (known: {known})"
                )
            if (section, key) in self.data:
                raise ConfigError(f"{path}:{no}: duplicate key {key!r} in [{section}]")
            if not value:
                raise ConfigError(f"{path}:{no}: empty value for {key!r}")
            self.data[section, key] = (value, no)

    def _fail(self, section, key, message):
        entry = self.data.get((section, key))
        where = f"{self.path}:{entry[1]}" if entry else self.path
        raise ConfigError(f"{where}: [{section}] {key}: {message}")

    def has(self, section, key):
        return (section, key) in self.data

    def get(self, section, key):
        """The parsed value of the key, or its default from _KEYS."""
        parse, default = _KEYS[section][key]
        entry = self.data.get((section, key))
        if entry is None:
            if default is None:
                raise ConfigError(
                    f"{self.path}: missing required key {key!r} in [{section}]"
                )
            return default
        try:
            return parse(entry[0])
        except ConfigError as exc:  # a parser's own refusal, such as the kind's
            self._fail(section, key, str(exc))
        except ValueError:
            self._fail(section, key, f"not {_EXPECTED[parse]}: {entry[0]!r}")

    def build(self, where, make, *args, **kwargs):
        """make(*args, **kwargs), with the ConfigError or InvariantViolation
        it raises raised again as a ConfigError that names the file, then
        where."""
        try:
            return make(*args, **kwargs)
        except (ConfigError, InvariantViolation) as exc:
            raise ConfigError(f"{self.path}: {where}{exc}")


def _reservoir_from(table: _Table, section: str) -> ReservoirParams:
    gamma, d, mu, k_t, cut = (table.get(section, key)
                              for key in ("gamma", "d", "mu", "k_t", "omega_cut"))
    return table.build(f"[{section}]: ", ReservoirParams,
                       gamma=gamma, bandwidth=d, mu=mu, k_t=k_t, cutoff=cut)


def _initial_from(table: _Table) -> DensityBlocks:
    name = table.get("initial", "state").lower()
    if name not in INITIAL_STATES:
        table._fail("initial", "state",
                    f"must be one of {', '.join(INITIAL_STATES)}; got {name!r}")
    if name in _NAMED_STATES:
        return _NAMED_STATES[name]()
    blocks = []
    for block in ("rho1", "rho2"):
        p00, p11, re, im = (
            table.get("initial", f"{block}_{entry}")
            for entry in ("00", "11", "01_re", "01_im")
        )
        off = re + 1j * im
        blocks.append(np.array([[p00, off], [np.conj(off), p11]], dtype=complex))
    return table.build("[initial] explicit blocks invalid: ", DensityBlocks, *blocks)


def _axis_from(table: _Table, key: str, taken: tuple = ()) -> SweepAxis:
    """The axis under [sweep] key; taken holds the names of the axes before
    it, and a name that is swept twice is refused."""
    parts = table.get("sweep", key).split(":")
    if len(parts) != 4:
        table._fail("sweep", key, "expected 'names:min:max:steps'")
    names = tuple(n.strip().lower() for n in parts[0].split(","))
    for i, n in enumerate(names):
        if n not in SWEEP_PARAMS:
            table._fail(
                "sweep",
                key,
                f"unknown parameter {n!r} (known: {', '.join(SWEEP_PARAMS)})",
            )
        if n in taken or n in names[:i]:
            table._fail("sweep", key, f"parameter {n!r} is swept more than once")
    try:
        lo, hi = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError:
        table._fail("sweep", key, "min/max must be numbers, steps an integer")
    if steps < 1:
        table._fail("sweep", key, f"steps must be >= 1, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        table._fail("sweep", key, f"min/max must be finite, got {lo!r}, {hi!r}")
    if steps == 1 and lo != hi:
        table._fail("sweep", key, f"one step needs min == max, got {lo!r}, {hi!r}")
    return SweepAxis(names=names, lo=lo, hi=hi, steps=steps)


def _grid_from(table: _Table) -> TimeGrid | None:
    if not (table.has("grid", "t_max") or table.has("grid", "n_steps")):
        return None
    t_max, n_steps = table.get("grid", "t_max"), table.get("grid", "n_steps")
    return table.build("[grid]: ", TimeGrid, t_max=t_max, n_steps=n_steps)


def load_experiment(path: str) -> ExperimentConfig:
    """Parse and validate one config file into an ExperimentConfig."""
    table = _Table(path)

    kind = table.get("spectral", "kind")
    eps1, eps2, g = (table.get("system", key) for key in ("eps1", "eps2", "g"))
    left, right = _reservoir_from(table, "left"), _reservoir_from(table, "right")
    system = table.build("", SystemParams, eps1=eps1, eps2=eps2, g_coupling=g)
    model = table.build("", ModelConfig, system=system, left=left, right=right,
                        spectral_kind=kind)
    grid = _grid_from(table)

    initial = _initial_from(table)

    method = table.get("solver", "method").lower()
    if method not in SOLVER_METHODS:
        table._fail("solver", "method",
                    f"must be one of {', '.join(SOLVER_METHODS)}; got {method!r}")

    axes = []
    if table.has("sweep", "axis1"):
        axes.append(_axis_from(table, "axis1"))
    if table.has("sweep", "axis2"):
        if not axes:
            table._fail("sweep", "axis2", "given without axis1")
        axes.append(_axis_from(table, "axis2", axes[0].names))

    modes = table.get("oracle", "modes")
    tol = table.get("oracle", "tol")
    # NaN would switch the verify gate off: every comparison with it is false
    if not tol > 0.0:
        table._fail("oracle", "tol", f"must be > 0 (inf allowed), got {tol!r}")
    return ExperimentConfig(
        model=model,
        grid=grid,
        initial=initial,
        method=method,
        axes=axes,
        oracle_modes=modes,
        oracle_tol=tol,
        raw_items=[(s, k, v) for (s, k), (v, _) in table.data.items()],
    )


def _apply_params(model: ModelConfig, values: dict) -> ModelConfig:
    """model with each sweep name in values set to its value, built with one
    replace per ModelConfig part that changes."""
    fields = {}
    for name, value in values.items():
        parts, name_field = _SWEEP_FIELDS[name]
        for part in parts:
            fields.setdefault(part, {})[name_field] = value
    return replace(
        model,
        **{part: replace(getattr(model, part), **changes) for part, changes in fields.items()},
    )


def _late_start(grid: TimeGrid) -> int:
    """The index of the first grid time at or after 0.8 t_max, the start of
    the late-time window [0.8 t_max, t_max]: ceil(4 n / 5) of n steps, in
    integer arithmetic."""
    return -(-4 * grid.n_steps // 5)


def _late_time_steady(model: ModelConfig, grid):
    """Exact V^s: the average V-bar of V(t) over [0.8 t_max, t_max], and its
    spread, the largest over the four entries of the RMS deviation
    sqrt(mean |V - V-bar|^2) on that window; undefined with no lead
    coupled. The wide band is refused before a missing grid, since no grid
    would let it run."""
    _require_kernel_kind(model.spectral_kind)
    _require_damping(model)
    if grid is None:
        raise ConfigError(
            "steady state of the exact solver needs a [grid] section"
            " (late-time average over [0.8 t_max, t_max])"
        )
    window = solve(model, grid).v_seq[_late_start(grid):]
    v_s = window.mean(axis=0)
    spread = float(np.max(window.std(axis=0)))  # complex std: the RMS deviation
    return hermitian_part(v_s), spread


def _pole_solution(model: ModelConfig, grid: TimeGrid) -> GreensSolution:
    u = pole_expansion_lorentzian(model).reconstruct(grid.times)
    return GreensSolution(grid, u, compute_fluctuation(u, model, grid))


def _bm_steady(model: ModelConfig, grid):
    """The Born-Markov V^s, bm_fluctuation's X; undefined with no lead coupled."""
    x = _bm_stationary(model)[1]
    _require_damping(model)
    return x, 0.0


class _Method(NamedTuple):
    evolve: Callable  # (model, grid) -> GreensSolution
    steady: Callable  # (model, grid or None) -> (V^s, late-time spread)


# Entries look the solvers up in this module when they run, never at
# import, so a caller that rebinds a module name (a tracer, a test) sees
# every call.
_METHODS = {
    "exact": _Method(lambda model, grid: solve(model, grid), _late_time_steady),
    "wbl": _Method(
        lambda model, grid: wbl_greens(model, grid),
        lambda model, grid: (wbl_steady_fluctuation(model), 0.0),
    ),
    "born_markov": _Method(
        lambda model, grid: GreensSolution(
            grid, wbl_greens(model, grid).u_seq, bm_fluctuation(model, grid)[0]
        ),
        _bm_steady,
    ),
    "pole": _Method(
        _pole_solution,
        lambda model, grid: (
            steady_state_fluctuation(pole_expansion_lorentzian(model), model),
            0.0,
        ),
    ),
}
SOLVER_METHODS = tuple(_METHODS)


def _steady_point(args):
    """Worker: one sweep grid point -> its row values."""
    idx, model, method, grid, axis_values = args
    try:
        v_s, spread = _METHODS[method].steady(model, grid)
        eof = steady_state_eof(v_s)
    except (SolverError, InvariantViolation) as exc:
        raise type(exc)(f"{_point_label(idx, axis_values)}: {exc}") from exc
    return (*axis_values, eof, v_s[0, 0].real, v_s[1, 1].real, v_s[0, 1].real,
            v_s[0, 1].imag, spread)


def _point_label(idx, axis_values) -> str:
    where = ", ".join(f"axis{i + 1} = {_fmt(v)}" for i, v in enumerate(axis_values))
    return f"sweep point {idx} ({where})"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _header(items) -> list:
    """The config echo that heads every output: '# section.key = value'."""
    return [f"# {section}.{key} = {value}" for section, key, value in items]


def _emit(out, header_items, columns, rows):
    lines = _header(header_items)
    lines.append("\t".join(columns))
    # every value in a row tuple is a float, which _fmt formats as %.12g
    row_format = "\t".join(["%.12g"] * len(columns))
    lines.extend(row_format % row for row in rows)
    _write(out, lines)


def _keep_contents(path, flags):
    """os.open for open(): mode "w" without O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _output(path):
    """The output file of a command, opened for _write before the command
    does any work, so that an unwritable path fails at once; None when no
    path is given (stdout). It is not truncated on opening: a run that fails
    before writing leaves an existing file's bytes as they were, and removes
    a file that it created."""
    if not path:
        yield None
        return
    created = not os.path.exists(path)
    try:
        fh = open(path, "w", encoding="utf-8", opener=_keep_contents)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except BaseException:
            if created and not fh.tell():
                os.remove(path)
            raise


def _write(out, lines):
    """Write the lines over the contents of out, an output file from
    _output, or to stdout when out is None."""
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write(text)
        # cut what is left of a longer earlier file; a pipe has no contents
        # to cut, and /dev/null, seekable, has size 0 but refuses a truncate
        if out.seekable() and out.tell() < os.fstat(out.fileno()).st_size:
            out.truncate()


def run_evolution(exp: ExperimentConfig, out) -> list:
    """Time-series table: t, entanglement, occupations, norms, purity,
    written to out (_write)."""
    if exp.grid is None:
        raise ConfigError("evolve needs a [grid] section")
    sol = _METHODS[exp.method].evolve(exp.model, exp.grid)
    u_norms = sol.u_norm.tolist()
    tr_v = np.trace(sol.v_seq, axis1=1, axis2=2).real.tolist()
    rows = []
    steps = zip(exp.grid.times.tolist(), sol.u_seq, sol.v_seq, tr_v, u_norms)
    for i, (t, u, v, tr, u_norm) in enumerate(steps):
        try:
            rho_t = evolve_density(exp.initial, propagator_coefficients(u, v))
            eof = fermionic_eof(rho_t)
        except (SolverError, InvariantViolation) as exc:
            raise type(exc)(f"evolve step {i} (t = {_fmt(t)}): {exc}") from exc
        n1, n2 = rho_t.occupations()
        rows.append((t, eof, tr, n1, n2, u_norm, rho_t.purity()))
    _emit(
        out,
        exp.raw_items,
        ["t", "eof", "tr_v", "n1", "n2", "u_norm", "purity"],
        rows,
    )
    return rows


def run_sweep(exp: ExperimentConfig, out, workers: int = 1) -> None:
    """Steady-state grid over one or two swept parameter groups, written
    to out (_write), on a process pool of at most workers (>= 1), one per
    point and per CPU: a forking pool starts them all at its first task."""
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    if not exp.axes:
        raise ConfigError("sweep needs [sweep] axis1 (and optionally axis2)")
    tasks = []
    points = itertools.product(*(axis.values for axis in exp.axes))
    for idx, values in enumerate(points):
        values = tuple(float(v) for v in values)
        try:
            model = _apply_params(exp.model, {
                name: value for axis, value in zip(exp.axes, values) for name in axis.names})
        except ConfigError as exc:
            raise ConfigError(f"{_point_label(idx, values)}: {exc}") from exc
        tasks.append((idx, model, exp.method, exp.grid, values))
    axis_cols = [f"axis{i + 1}" for i in range(len(exp.axes))]

    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: only a parallel sweep pays for the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map yields the rows in task order
            rows = list(pool.map(_steady_point, tasks, chunksize=8))
    else:
        rows = [_steady_point(t) for t in tasks]
    _emit(
        out,
        exp.raw_items,
        axis_cols + ["eof_s", "v00", "v11", "v01_re", "v01_im", "late_time_spread"],
        rows,
    )


def run_classify(exp: ExperimentConfig, out) -> None:
    """Bound-state census: roots, effectiveness data, relaxation class,
    written to out (_write)."""
    roots = find_bound_states(exp.model)
    cls = classify_relaxation(roots)
    lines = _header(exp.raw_items)
    lines.append("energy\tresidue_norm\tedge_distance")
    for r in roots:
        lines.append(
            f"{_fmt(r.energy)}\t{_fmt(float(np.max(np.abs(r.residue_weight))))}"
            f"\t{_fmt(r.edge_distance)}"
        )
    if exp.grid is not None:
        u = solve_dyson(exp.model, exp.grid)
        plateau = float(max_singular_e(u[_late_start(exp.grid):].reshape(-1, 4).T).max())
        lines.append(f"# late_time_u_norm_max = {_fmt(plateau)}")
    lines.append(f"# effective_roots = {cls.count}")
    lines.append(f"# relaxation_class = {cls.kind.value}")
    _write(out, lines)


def run_verify(exp: ExperimentConfig, out) -> None:
    """Solver-vs-oracle cross check on the configured grid; the report is
    written to out (_write) before a failed check raises."""
    if exp.grid is None:
        raise ConfigError("verify needs a [grid] section")
    k = exp.oracle_modes
    # the oracle runs first, so a config it rejects fails before the solver
    ex = exact_greens(discretize(exp.model, k), exp.grid)
    sol = _METHODS[exp.method].evolve(exp.model, exp.grid)
    du = float(np.max(np.abs(sol.u_seq - ex.u_seq)))
    dv = float(np.max(np.abs(sol.v_seq - ex.v_seq)))
    lines = [f"# oracle modes per lead: {k}"]
    lines.append(f"max |U - U_oracle| = {_fmt(du)}")
    lines.append(f"max |V - V_oracle| = {_fmt(dv)}")
    lines.append(f"tolerance = {_fmt(exp.oracle_tol)}")
    _write(out, lines)
    if max(du, dv) > exp.oracle_tol:
        raise SolverError(
            f"oracle cross-check failed: U error {du:.3e}, V error {dv:.3e}"
            f" exceed tolerance {exp.oracle_tol:.3e}"
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later main call in the process; parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="dqdsim",
        description=(
            "Exact decoherence and entanglement dynamics of a double quantum"
            " dot between two fermionic reservoirs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "time evolution table for one configuration"),
        ("sweep", "steady-state entanglement over a parameter grid"),
        ("classify", "bound-state census and relaxation class"),
        ("verify", "cross-check a solver against the discretized oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name == "sweep":
            p.add_argument(
                "--workers", type=int, default=1, help="parallel grid workers"
            )
        if name == "verify":
            p.add_argument(
                "--oracle-modes",
                type=int,
                default=None,
                help="bath modes per lead (overrides [oracle] modes)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        exp = load_experiment(args.config)
        if getattr(args, "oracle_modes", None) is not None:
            exp = replace(exp, oracle_modes=args.oracle_modes)
        # opened before any work, so an unwritable path fails at once
        with _output(args.out) as out:
            if args.command == "evolve":
                run_evolution(exp, out)
            elif args.command == "sweep":
                run_sweep(exp, out, workers=args.workers)
            elif args.command == "classify":
                run_classify(exp, out)
            elif args.command == "verify":
                run_verify(exp, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
