"""dqdsim benchmark: times the four CLI commands on seeded, fixed-size workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve-lorentz --seed 0 --seconds 12 --trace 0

``--workload all`` runs every workload in turn. With ``--trace 0`` the last
stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
Everything runs in one worker process (perfbench/worker.py) as a closed
loop: one caller whose next command starts when the last one finishes.
BLAS/OpenMP run with BLAS_THREADS threads. Results, the environment record
and traced spans are also written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREADS = 1
SETUP_LAUNCHES = 3  # fresh interpreters timed per run
RUN_TIMEOUT_S = 170.0
SETUP_MIX = {"python": 1.0}  # set-up is interpreter work: imports, module bodies
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_IMPORTS = {
    "setup.import_scipy_signal_s": "scipy.signal",
    "setup.import_scipy_optimize_s": "scipy.optimize",
    "setup.import_dqdsim_s": "dqdsim",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _kill(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _launch(args, env, deadline, importtime_log=None):
    """Start a worker; return (process, seconds until it printed ready).

    With importtime_log, the interpreter's -X importtime report goes there.
    """
    flags = ["-X", "importtime"] if importtime_log else []
    start = time.perf_counter()
    with open(importtime_log or os.devnull, "w") as log:
        proc = subprocess.Popen([sys.executable, *flags, str(WORKER), *args], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE,
                                stderr=log if importtime_log else None, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not start (got {line!r})")
        if time.perf_counter() > deadline:
            raise BenchError("time limit reached during set-up")
    except BaseException:
        _kill(proc)
        raise
    return proc, ready


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("time limit reached; worker stopped")
    finally:
        _kill(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _import_times(log):
    """Cumulative -X importtime seconds of the set-up modules."""
    found = {}
    for line in Path(log).read_text().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name in SETUP_IMPORTS.values() and name not in found:
                found[name] = int(parts[1]) * 1e-6
    return {key: found.get(mod, 0.0) for key, mod in SETUP_IMPORTS.items()}


def _median(values):
    return statistics.median(values) if values else 0.0


def _workdir(name, seed):
    """A fresh directory holding the workload's generated config files."""
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    for kind, small in (("full", False), ("warm", True)):
        for i, cmd in enumerate(workloads.commands(name, seed, small)):
            (work / f"{kind}-{i}.cfg").write_text(cmd.config)
    return work


def run_workload(name, seed, seconds, trace):
    """Set up, run and summarize one workload; returns (record, metrics)."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = _env()
    work = _workdir(name, seed)
    try:
        base = ["--workload", name, "--seed", str(seed), "--dir", str(work)]
        setup, setup_slowdowns, imports = [], [], []
        log = str(work / "importtime.log") if trace else None
        before = speed.slowdown(SETUP_MIX)
        for _ in range(SETUP_LAUNCHES):
            probe, ready = _launch(base + ["--probe"], env, deadline, log)
            _finish(probe, deadline)
            after = speed.slowdown(SETUP_MIX)
            setup.append(ready)
            setup_slowdowns.append(0.5 * (before + after))
            before = after
            if trace:
                imports.append(_import_times(log))
        spans = OUT_DIR / f"spans-{name}-seed{seed}.tsv"
        worker, _ = _launch(
            base + ["--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)],
            env, deadline)
        out = _finish(worker, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_launches"] = setup
    rec["setup_adjusted"] = [t / f for t, f in zip(setup, setup_slowdowns)]
    if trace:
        metrics = _layer_metrics(rec, imports)
    else:
        adjusted = rec["adjusted"]
        metrics = {
            "setup_s": (_median(rec["setup_adjusted"]), "s"),
            "wall_s": (_median(adjusted), "s"),
            "rows_per_s": (rec["rows_per_pass"] * len(adjusted) / sum(adjusted), "1/s"),
            "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        }
    return rec, metrics


def _layer_metrics(rec, imports):
    from tracer import EXTRA_STATS, LAYER_NAMES

    layers = rec["layers"]
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (layers[0][f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (_median([p[f"{layer}.self_s"] for p in layers]), "s")
        if layer in EXTRA_STATS:
            stat, unit = EXTRA_STATS[layer]
            metrics[f"{layer}.{stat}"] = (layers[0][f"{layer}.{stat}"], unit)
    metrics["cli.run_verify.oracle_err"] = (rec["oracle_err"], "1")
    for key in SETUP_IMPORTS:
        metrics[key] = (_median([i[key] for i in imports]), "s")
    metrics["trace.overhead_s"] = (
        _median(rec["traced_adjusted"]) - _median(rec["adjusted"]), "s")
    return metrics


def _environment(rec):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: str(BLAS_THREADS) for var in THREAD_VARS},
        "versions": rec["versions"],
        "git_commit": _git_commit(),
    }


def _report(name, seed, seconds, trace, rec, metrics):
    """Human-readable lines for one workload, and the saved result record."""
    w = workloads.WORKLOADS[name]
    passes = rec["passes"]
    env = _environment(rec)
    samples = {
        "setup_launches": len(rec["setup_launches"]),
        "passes": len(passes),
        "traced_passes": len(rec["traced_passes"]),
    }
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace}"
          f" params={workloads.draw_params(name, seed)}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(f"  samples {json.dumps(samples)}")
    if not trace:
        rate = metrics["rows_per_s"][0]
        lines = [
            ("setup_s", metrics["setup_s"][0], "s",
             f"speed-adjusted median of {samples['setup_launches']} launches;"
             f" raw median {_median(rec['setup_launches']):.4f}"),
            ("wall_s", metrics["wall_s"][0], "s",
             f"speed-adjusted median of {len(passes)} passes; raw median"
             f" {_median(passes):.4f}, range {min(passes):.4f}-{max(passes):.4f}"),
            (f"{w.unit_name}_per_s", rate, "1/s", "reported as rows_per_s"),
            ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "worker process"),
            ("fail_ratio", rec["failed"] / rec["attempted"], "ratio",
             f"{rec['failed']} of {rec['attempted']} operations"),
        ]
        if name == "gapped-verify":
            lines.append(("oracle_err", rec["oracle_err"], "1", "max |U-Uo|, |V-Vo|"))
        for key, value, unit, note in lines:
            print(f"  {key:<14} {value:<22.10g} {unit:<6} {note}")
    else:
        for key, (value, unit) in metrics.items():
            print(f"  {key:<46} {value:<22.10g} {unit}")
    for problem in rec["problems"]:
        print(f"  FAILED {problem}")
    saved = dict(rec, workload=name, seed=seed, seconds=seconds, trace=trace,
                 environment=env, samples=samples,
                 metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    path = OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(saved, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's checked outputs as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dqdsim" / "cli.py").is_file():
        print(f"perfbench: no dqdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    if args.write_reference:
        for name in names:
            work = _workdir(name, args.seed)
            try:
                done = subprocess.run(
                    [sys.executable, str(WORKER), "--workload", name, "--seed",
                     str(args.seed), "--dir", str(work), "--write-reference"],
                    cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if done.returncode != 0:
                return 1
        return 0

    attempted = failed = 0
    all_metrics = {}
    for name in names:
        try:
            rec, metrics = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        _report(name, args.seed, args.seconds, args.trace, rec, metrics)
        attempted += rec["attempted"]
        failed += rec["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            all_metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
