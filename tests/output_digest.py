"""Print one sha256 per benchmark workload command, for byte-identity checks.

Each line names the workload, the seed, the command's index in its pass and
its subcommand, then the sha256 of its exit code, stdout, stderr and output
file. Two trees print the same lines exactly when every output is
byte-identical, so one diff of two runs shows it:

    python tests/output_digest.py > a.txt    # in one tree
    python tests/output_digest.py > b.txt    # in the other
    diff a.txt b.txt

The commands are the full-size passes of perfbench/workloads.py, at the
seeds given on the command line (default 0 1 5 7), and dqdsim is imported
from this tree's src/. BLAS runs on one thread unless the environment says
otherwise, so that the bits do not depend on the thread count. The name does
not match test_*.py, so pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dqdsim import cli  # noqa: E402

DEFAULT_SEEDS = (0, 1, 5, 7)


def command_digest(cmd, name: str) -> str:
    """sha256 of one command run in the current directory: the config is
    written to name.cfg and the table to name.out, relative paths, so any
    path the output quotes is the same in every tree."""
    cfg, out = f"{name}.cfg", f"{name}.out"
    Path(cfg).write_text(cmd.config)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([cmd.sub, "--config", cfg, "--out", out, *cmd.extra])
    table = Path(out).read_bytes() if Path(out).exists() else b""
    digest = hashlib.sha256(f"exit {code}\n".encode())
    for part in (stdout.getvalue().encode(), stderr.getvalue().encode(), table):
        digest.update(f"{len(part)}\n".encode())
        digest.update(part)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=list(DEFAULT_SEEDS))
    args = parser.parse_args(argv)
    home = os.getcwd()
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    for i, cmd in enumerate(workloads.commands(workload, seed)):
                        digest = command_digest(cmd, f"cmd{i}")
                        print(f"{workload}\t{seed}\t{i}\t{cmd.sub}\t{digest}", flush=True)
                finally:
                    os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
