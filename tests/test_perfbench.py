"""The benchmark's own gate, run as a test.

One traced pass of every workload in perfbench/workloads.py at the default
seed: each command must exit 0 and pass its output checks, its outputs must
match perfbench/reference.json to the harness's tolerance, and the per-pass
call counts of the traced layers must equal the frozen ones. A failure here
is a failed operation of the benchmark.
"""

import sys
from pathlib import Path

import pytest

import dqdsim.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_pass_has_no_failed_operation(tmp_path, name):
    for i, cmd in enumerate(workloads.commands(name, workloads.DEFAULT_SEED)):
        (tmp_path / f"full-{i}.cfg").write_text(cmd.config)
    runner = worker.Runner(cli, name, workloads.DEFAULT_SEED, tmp_path)
    assert runner.reference is not None
    trace = tracer.Tracer()
    trace.install()
    runner.tracer = trace
    try:
        runner.run_pass()
    finally:
        trace.uninstall()
        runner.tracer = None
    runner.self_check(trace.pass_stats())
    assert runner.failed == 0, "\n".join(runner.problems)
    assert runner.attempted == len(runner.full)
