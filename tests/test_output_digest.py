"""tests/output_digest.py, the byte-identity check of the benchmark outputs:
one line with a sha256 per benchmark command, and the same lines when run
again."""

import re

import output_digest
import workloads


def test_one_repeatable_digest_per_benchmark_command(capsys):
    assert output_digest.main(["0"]) == 0
    first = capsys.readouterr().out.splitlines()
    want = [(name, "0", str(i), cmd.sub) for name in workloads.WORKLOADS
            for i, cmd in enumerate(workloads.commands(name, 0))]
    assert len(first) == len(want) == 15
    for line, key in zip(first, want):
        *fields, digest = line.split("\t")
        assert tuple(fields) == key
        assert re.fullmatch("[0-9a-f]{64}", digest)
    assert output_digest.main(["0"]) == 0
    assert capsys.readouterr().out.splitlines() == first
