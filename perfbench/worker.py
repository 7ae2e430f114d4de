"""Benchmark worker: one fresh interpreter that runs one workload.

It imports dqdsim and loads the first config (printing ``ready``, the end of
set-up), runs a small warm-up pass, then repeats the workload's pass as one
closed-loop caller until the run's seconds are spent. Each command's output
file is checked after its pass, outside the timed region. The last line on
stdout is a JSON record for the orchestrator (perfbench/run.py).

With ``--probe`` it stops after ``ready``: a set-up sample.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads
from tracer import LAYER_NAMES, Tracer

# Outputs are compared with the reference of the default seed to this
# absolute tolerance. Exact rewrites the roadmap plans agree to ~3e-8 (pole
# closed form) or to rounding; a wrong number such as the 0.146 error in a
# wide-band V01 is far outside it.
REFERENCE_ATOL = 1e-6
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
PLATEAU_MIN = 0.05  # late-time |U| plateau that a bound state must keep
EVOLVE_COLUMNS = ["t", "eof", "tr_v", "n1", "n2", "u_norm", "purity"]
SWEEP_TAIL = ["eof_s", "v00", "v11", "v01_re", "v01_im", "late_time_spread"]
SLACK = 1e-9
MAX_PROBLEMS = 5  # reported per failed operation


def _read_table(path):
    comments, columns, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif columns is None:
                columns = line.split("\t")
            elif line:
                rows.append([float(x) for x in line.split("\t")])
    return comments, columns, rows


def _in_range(rows, col, lo, hi, what, problems):
    bad = [r[col] for r in rows if not lo - SLACK <= r[col] <= hi + SLACK]
    if bad:
        problems.append(f"{what} outside [{lo}, {hi}]: {bad[0]!r} ({len(bad)} rows)")


def _check_evolve(cmd, path, problems):
    _, columns, rows = _read_table(path)
    n = cmd.expect["n_steps"]
    if columns != EVOLVE_COLUMNS:
        problems.append(f"evolve columns {columns}")
        return None
    if len(rows) != n + 1:
        problems.append(f"evolve rows {len(rows)} != {n + 1}")
        return None
    if not all(math.isfinite(x) for r in rows for x in r):
        problems.append("evolve table holds a non-finite value")
        return None
    dt = cmd.expect["t_max"] / n
    if any(abs(r[0] - i * dt) > 1e-9 * cmd.expect["t_max"] for i, r in enumerate(rows)):
        problems.append("evolve time column is not the configured grid")
    _in_range(rows, 1, 0.0, 1.0, "eof", problems)
    _in_range(rows, 2, 0.0, 2.0, "tr_v", problems)
    _in_range(rows, 3, 0.0, 1.0, "n1", problems)
    _in_range(rows, 4, 0.0, 1.0, "n2", problems)
    _in_range(rows, 5, 0.0, 1.0 + 1e-6, "u_norm", problems)
    _in_range(rows, 6, 0.0, 1.0, "purity", problems)
    stride = max(1, n // 40)
    return {
        "rows": len(rows),
        "col_means": [sum(r[c] for r in rows) / len(rows) for c in range(len(columns))],
        "sample": rows[::stride],
    }


def _check_sweep(cmd, path, problems):
    _, columns, rows = _read_table(path)
    axes = cmd.expect["axes"]
    if columns != [f"axis{i + 1}" for i in range(axes)] + SWEEP_TAIL:
        problems.append(f"sweep columns {columns}")
        return None
    if len(rows) != cmd.expect["points"]:
        problems.append(f"sweep rows {len(rows)} != {cmd.expect['points']}")
        return None
    if not all(math.isfinite(x) for r in rows for x in r):
        problems.append("sweep table holds a non-finite value")
        return None
    _in_range(rows, axes, 0.0, 1.0, "eof_s", problems)
    _in_range(rows, axes + 1, 0.0, 1.0, "v00", problems)
    _in_range(rows, axes + 2, 0.0, 1.0, "v11", problems)
    return {"rows": rows}


def _check_classify(cmd, path, problems):
    comments, columns, rows = _read_table(path)
    tags = {}
    for line in comments:
        key, sep, value = line[1:].partition(" = ")
        if sep and "." not in key:
            tags[key.strip()] = value.strip()
    roots = int(tags.get("effective_roots", -1))
    kind = tags.get("relaxation_class")
    plateau = float(tags.get("late_time_u_norm_max", "nan"))
    if roots != cmd.expect["roots"] or len(rows) != roots:
        problems.append(f"classify found {roots} roots ({len(rows)} rows),"
                        f" expected {cmd.expect['roots']}")
    if kind != cmd.expect["class"]:
        problems.append(f"classify class {kind}, expected {cmd.expect['class']}")
    if not plateau > PLATEAU_MIN:
        problems.append(f"late-time |U| plateau {plateau} <= {PLATEAU_MIN} with bound states")
    return {"roots": rows, "plateau": plateau, "effective_roots": roots, "class": kind}


def _check_verify(cmd, path, problems):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                values[key.strip()] = float(value)
    du = values.get("max |U - U_oracle|", math.nan)
    dv = values.get("max |V - V_oracle|", math.nan)
    if not max(du, dv) <= cmd.expect["tol"]:
        problems.append(f"oracle error U {du} V {dv} above tol {cmd.expect['tol']}")
    return {"u_error": du, "v_error": dv}


CHECKS = {
    "evolve": _check_evolve,
    "sweep": _check_sweep,
    "classify": _check_classify,
    "verify": _check_verify,
}


def _compare(ref, got, where, problems):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            problems.append(f"{where}: keys differ from the reference")
            return
        for key in ref:
            _compare(ref[key], got[key], f"{where}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            problems.append(f"{where}: length differs from the reference")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, f"{where}[{i}]", problems)
    elif isinstance(ref, float):
        if not abs(ref - got) <= REFERENCE_ATOL:
            problems.append(f"{where}: {got!r} differs from reference {ref!r}"
                            f" by more than {REFERENCE_ATOL}")
    elif ref != got:
        problems.append(f"{where}: {got!r} != reference {ref!r}")


class Runner:
    """Runs passes of one workload and checks every command's output."""

    def __init__(self, cli, name, seed, workdir):
        self.cli = cli
        self.name = name
        self.full = workloads.commands(name, seed)
        self.warm = workloads.commands(name, seed, small=True)
        self.workdir = Path(workdir)
        self.reference = None
        if seed == workloads.DEFAULT_SEED and REFERENCE_PATH.is_file():
            self.reference = json.loads(REFERENCE_PATH.read_text()).get(name)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.summaries = []
        self.tracer = None

    def _argv(self, kind, i, cmd):
        cfg = self.workdir / f"{kind}-{i}.cfg"
        out = self.workdir / f"{kind}-{i}.out"
        return [cmd.sub, "--config", str(cfg), "--out", str(out), *cmd.extra], out

    def run_pass(self, kind="full", between=None):
        """Wall seconds of each command of one pass.

        ``between()`` runs after each command, outside the timed region.
        The outputs of a full pass are checked afterwards.
        """
        cmds = self.full if kind == "full" else self.warm
        argvs = [self._argv(kind, i, c) for i, c in enumerate(cmds)]
        codes, walls = [], []
        for argv, _ in argvs:
            if self.tracer is not None:
                self.tracer.command += 1
            start = time.perf_counter()
            try:
                codes.append(self.cli.main(argv))
            except Exception:  # an operation that crashes counts as failed
                traceback.print_exc()
                codes.append(None)
            walls.append(time.perf_counter() - start)
            if between is not None:
                between()
        if kind == "full":
            self._check(argvs, codes)
        return walls

    def _check(self, argvs, codes):
        summaries = []
        for i, (cmd, (_, out), code) in enumerate(zip(self.full, argvs, codes)):
            problems = []
            summary = None
            if code != 0:
                problems.append(f"exit code {code}")
            else:
                try:
                    summary = CHECKS[cmd.sub](cmd, out, problems)
                except (OSError, ValueError) as exc:
                    problems.append(f"unreadable output: {exc}")
                if self.reference is not None and summary is not None:
                    _compare(self.reference[i], summary, f"{cmd.sub}[{i}]", problems)
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(problems) > MAX_PROBLEMS:
                    more = len(problems) - MAX_PROBLEMS
                    problems = problems[:MAX_PROBLEMS] + [f"... and {more} more"]
                self.problems.extend(f"{self.name} {cmd.sub}[{i}]: {p}" for p in problems)
            summaries.append(summary)
        self.summaries = summaries

    def self_check(self, stats):
        """Per-pass call counts must equal the workload's expectations."""
        expected = workloads.WORKLOADS[self.name].calls
        wrong = [
            f"{layer}.calls = {stats[f'{layer}.calls']}, expected {expected.get(layer, 0)}"
            for layer in LAYER_NAMES
            if stats[f"{layer}.calls"] != expected.get(layer, 0)
        ]
        if wrong:
            self.failed += 1
            self.problems.extend(f"{self.name} trace self-check: {w}" for w in wrong)

    def oracle_err(self):
        errs = [max(s["u_error"], s["v_error"]) for s in self.summaries
                if s is not None and "u_error" in s]
        return max(errs) if errs else 0.0


def _measure(runner, seconds, trace, spans_path):
    """Timed passes, each command bracketed by speed calibrations.

    Returns the raw and speed-adjusted seconds of each pass, untraced and
    traced, every calibration's slowdown, and the traced passes' layer stats.
    """
    runner.run_pass("warm")
    out = {"passes": [], "adjusted": [], "traced_passes": [], "traced_adjusted": [],
           "slowdowns": [], "layers": []}
    mix = workloads.WORKLOADS[runner.name].mix
    slow = out["slowdowns"]

    def calibrate():
        slow.append(speed.slowdown(mix))

    def timed(kind):
        walls = runner.run_pass(between=calibrate)
        around = slow[-len(walls) - 1:]
        out[kind + "passes"].append(sum(walls))
        out[kind + "adjusted"].append(
            sum(w / (0.5 * (a + b)) for w, a, b in zip(walls, around, around[1:])))

    calibrate()
    tracer = Tracer()
    start = time.perf_counter()
    while not out["passes"] or time.perf_counter() - start < seconds:
        timed("")
        if not trace:
            continue
        tracer.reset()
        tracer.install()
        runner.tracer = tracer
        try:
            timed("traced_")
        finally:
            tracer.uninstall()
            runner.tracer = None
        stats = tracer.pass_stats()
        runner.self_check(stats)
        out["layers"].append(stats)
    if trace and spans_path:
        tracer.write_spans(spans_path)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory of the generated configs")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced passes' spans here")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    import dqdsim.cli as cli

    cli.load_experiment(str(Path(args.dir) / "full-0.cfg"))
    print("ready", flush=True)
    if args.probe:
        return 0

    runner = Runner(cli, args.workload, args.seed, args.dir)
    if args.write_reference:
        if args.seed != workloads.DEFAULT_SEED:
            parser.error("references are kept for the default seed only")
        runner.reference = None
        runner.run_pass()
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        refs = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
        refs[args.workload] = runner.summaries
        REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0

    record = _measure(runner, args.seconds, args.trace, args.spans)
    import numpy
    import scipy

    record.update({
        "rows_per_pass": sum(c.rows for c in runner.full),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "oracle_err": runner.oracle_err(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
