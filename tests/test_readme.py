"""README's "Library use" block, run as written: the public per-step API
takes 2x2 arrays and gives the blocks back as 2x2 arrays."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    code = _library_use_block()
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    printed = [float(x) for x in out.getvalue().split()]
    assert len(printed) == 2
    assert all(0.0 <= x <= 1.0 for x in printed)
    # the blocks of the evolved state are 2x2 complex arrays
    rho = namespace["evolve_density"](namespace["rho0"], namespace["coeffs"])
    for block in (rho.rho1, rho.rho2):
        assert block.shape == (2, 2) and block.dtype == complex
