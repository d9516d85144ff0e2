"""The runnable examples stay runnable.

Only the fast examples run here, plus the one multi-system day that
prints Amoeba's switch list from ``ServiceResult.switch_events`` (the
heavier tours are exercised by the benchmark suite through the same code
paths), and the README's quickstart snippet.
"""

import runpy
import sys
from pathlib import Path

import pytest

# runs the example scripts end to end: excluded from the quick tier
pytestmark = pytest.mark.slow


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
README = EXAMPLES.parent / "README.md"


def run_example(name: str, capsys) -> str:
    argv = sys.argv
    sys.argv = [name]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "completed queries" in out
    assert "deploy-mode switches" in out
    assert "reduction" in out


def test_multi_tenant_day(capsys):
    out = run_example("multi_tenant_day.py", capsys)
    assert "Amoeba's switches (time, target, load):" in out
    assert "-> serverless" in out
    assert "background services under Amoeba" in out


def test_contention_profiling(capsys):
    out = run_example("contention_profiling.py", capsys)
    assert "meter profiles" in out
    assert "hidden pressure" in out
    assert "lambda(mu)" in out


def test_capacity_planning(capsys):
    out = run_example("capacity_planning.py", capsys)
    assert "just-enough rentals" in out
    assert "containers needed" in out


def test_readme_quickstart(capsys):
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    assert len(capsys.readouterr().out.splitlines()) == 3
