"""The README's library quick start runs and prints what it promises."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_prints_its_comment():
    code = _quick_start()
    promised = re.search(r"^# (True UniqueInteriorMax .*)$", code, re.M).group(1).split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().split()
    assert len(printed) == len(promised)
    assert printed[:2] == promised[:2]
    for got, want in zip(printed[2:], promised[2:]):
        assert math.isclose(float(got), float(want), rel_tol=1e-12), (got, want)
