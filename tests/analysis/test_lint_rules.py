"""Self-test corpus for the sim-kernel linter.

Each SIM rule has one bad fixture that must be flagged (and make the CLI
exit non-zero) and compliant code that must stay clean, including the
path exemptions and the inline ``# simlint: ignore[...]`` escape hatch.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import lint_file, lint_source, main
from repro.analysis.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"

BAD_FIXTURES = {
    "SIM001": FIXTURES / "bad" / "sim001_wall_clock.py",
    "SIM002": FIXTURES / "bad" / "sim002_stray_rng.py",
    "SIM003": FIXTURES / "bad" / "sim003_time_equality.py",
    "SIM004": FIXTURES / "bad" / "sim004_cancelled_reschedule.py",
    "SIM005": FIXTURES / "bad" / "sim005_mutable_default.py",
    "SIM006": FIXTURES / "bad" / "sim006_bare_except.py",
    "SIM007": FIXTURES / "bad" / "sim007_unfrozen_config.py",
    "SIM008": FIXTURES / "bad" / "sim" / "sim008_missing_annotation.py",
    "SIM009": FIXTURES / "bad" / "sim009_fault_prob_constant.py",
    "SIM010": FIXTURES / "bad" / "serverless" / "sim010_unbounded_queue.py",
    "SIM011": FIXTURES / "bad" / "experiments" / "sim011_closure_submit.py",
    "SIM017": FIXTURES / "bad" / "graph" / "sim017_retry_storm.py",
    "SIM018": FIXTURES / "bad" / "sim018_slow_uniform.py",
}

GOOD_FIXTURES = [
    FIXTURES / "good" / "clean_module.py",
    FIXTURES / "good" / "justified_ignores.py",
    FIXTURES / "good" / "fault_plan_probs.py",
    FIXTURES / "good" / "serverless" / "bounded_queues.py",
    FIXTURES / "good" / "experiments" / "picklable_submit.py",
    FIXTURES / "good" / "graph" / "budgeted_retry.py",
    FIXTURES / "allowed" / "experiments" / "__main__.py",
    FIXTURES / "allowed" / "sim" / "rng.py",
]


def test_every_rule_has_a_bad_fixture():
    assert set(BAD_FIXTURES) == {rule.id for rule in RULES}


@pytest.mark.parametrize("rule_id", sorted(BAD_FIXTURES))
def test_bad_fixture_trips_exactly_its_rule(rule_id):
    violations = lint_file(BAD_FIXTURES[rule_id])
    assert violations, f"{rule_id} fixture produced no violations"
    assert {v.rule_id for v in violations} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(BAD_FIXTURES))
def test_bad_fixture_fails_the_cli(rule_id, capsys):
    assert main([str(BAD_FIXTURES[rule_id])]) == 1
    out = capsys.readouterr().out
    assert rule_id in out


@pytest.mark.parametrize("path", GOOD_FIXTURES, ids=lambda p: p.name)
def test_good_fixture_is_clean(path):
    assert lint_file(path) == []


def test_cli_green_on_good_corpus():
    # named explicitly so every file runs at KERNEL scope, where each
    # justified ignore suppresses a real finding (none is a stale SIM016)
    assert main([str(path) for path in GOOD_FIXTURES]) == 0


def test_violation_render_format():
    (violation,) = lint_file(BAD_FIXTURES["SIM006"])
    rendered = violation.render()
    assert rendered.startswith(str(BAD_FIXTURES["SIM006"]))
    assert ":7:" in rendered and "SIM006" in rendered


def test_blanket_ignore_silences_every_rule():
    source = "def f(x=[]):  # simlint: ignore\n    return x\n"
    assert lint_source(source, "mod.py") == []


def test_targeted_ignore_only_silences_named_rule():
    source = "import time\n\n\ndef f(x=[]):  # simlint: ignore[SIM005]\n    return time.time()\n"
    violations = lint_source(source, "mod.py")
    assert {v.rule_id for v in violations} == {"SIM001"}


def test_ignore_on_other_line_does_not_apply():
    source = "# simlint: ignore[SIM005]\ndef f(x=[]):\n    return x\n"
    assert {v.rule_id for v in lint_source(source, "mod.py")} == {"SIM005"}


def test_reassignment_clears_cancelled_tracking():
    source = (
        "def replan(env, timer):\n"
        "    timer.cancel()\n"
        "    timer = env.timeout(1.0)\n"
        "    timer.succeed(None)\n"
    )
    assert lint_source(source, "mod.py") == []


def test_import_aliases_are_resolved():
    source = (
        "from numpy.random import default_rng\n"
        "from time import perf_counter as pc\n"
        "\n"
        "\n"
        "def f() -> float:\n"
        "    return default_rng().normal() + pc()\n"
    )
    rule_ids = sorted(v.rule_id for v in lint_source(source, "mod.py"))
    assert rule_ids == ["SIM001", "SIM002"]


def test_fault_prob_on_plan_field_is_not_flagged():
    source = (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Plan:\n"
        "    crash_prob: float = 0.01\n"
        "\n"
        "\n"
        "def gate(plan: Plan, draw: float) -> bool:\n"
        "    return draw < plan.crash_prob\n"
    )
    assert lint_source(source, "mod.py") == []


def test_local_fault_prob_binding_is_not_flagged():
    source = (
        "def gate(plan, draw: float) -> bool:\n"
        "    crash_prob = plan.crash_prob\n"
        "    return draw < crash_prob\n"
    )
    assert lint_source(source, "mod.py") == []


def test_unbounded_queue_is_path_scoped_to_platform_packages():
    source = "from collections import deque\n\nqueue = deque()\n"
    assert lint_source(source, "src/repro/sim/queueing.py") == []
    assert {v.rule_id for v in lint_source(source, "src/repro/iaas/service.py")} == {"SIM010"}


def test_bounded_deque_in_platform_package_is_clean():
    source = "from collections import deque\n\nqueue = deque(maxlen=64)\n"
    assert lint_source(source, "src/repro/iaas/service.py") == []


def test_executor_submission_is_path_scoped_to_experiments():
    source = (
        "def fan_out(pool, requests):\n"
        "    run = lambda r: r\n"
        "    return [pool.submit(run, r) for r in requests]\n"
    )
    assert lint_source(source, "src/repro/workloads/loadgen.py") == []
    assert {v.rule_id for v in lint_source(source, "src/repro/experiments/executor.py")} == {
        "SIM011"
    }


def test_module_level_def_submission_is_clean():
    source = (
        "def execute(request):\n"
        "    return request\n"
        "\n"
        "\n"
        "def fan_out(pool, requests):\n"
        "    return [pool.submit(execute, r) for r in requests]\n"
    )
    assert lint_source(source, "src/repro/experiments/executor.py") == []


def test_retry_loop_rule_is_path_scoped_to_call_path_packages():
    source = (
        "def call(dispatch, request):\n"
        "    while True:\n"
        "        if not dispatch(request):\n"
        "            continue\n"
        "        return True\n"
    )
    assert lint_source(source, "src/repro/workloads/loadgen.py") == []
    assert {v.rule_id for v in lint_source(source, "src/repro/graph/orchestrator.py")} == {
        "SIM017"
    }


def test_budgeted_retry_loop_is_clean():
    source = (
        "def call(dispatch, request, budget: int):\n"
        "    attempts = 0\n"
        "    while True:\n"
        "        attempts += 1\n"
        "        if not dispatch(request) and attempts < budget:\n"
        "            continue\n"
        "        return True\n"
    )
    assert lint_source(source, "src/repro/graph/orchestrator.py") == []


def test_event_loop_without_continue_is_not_a_retry_loop():
    source = (
        "def drain(queue_get):\n"
        "    while True:\n"
        "        item = queue_get()\n"
        "        if item is None:\n"
        "            break\n"
    )
    assert lint_source(source, "src/repro/graph/orchestrator.py") == []


def test_delegation_wrapper_is_not_recursion():
    source = (
        "class Facade:\n"
        "    def invoke(self, name):\n"
        "        return self.pool.invoke(name)\n"
    )
    assert lint_source(source, "src/repro/serverless/platform.py") == []


def test_depth_capped_recursion_is_clean():
    source = (
        "def fan_out(node, depth: int, max_depth: int):\n"
        "    if depth >= max_depth:\n"
        "        return\n"
        "    for child in node.children:\n"
        "        fan_out(child, depth + 1, max_depth)\n"
    )
    assert lint_source(source, "src/repro/graph/orchestrator.py") == []
    uncapped = (
        "def fan_out(node):\n"
        "    for child in node.children:\n"
        "        fan_out(child)\n"
    )
    assert {v.rule_id for v in lint_source(uncapped, "src/repro/graph/orchestrator.py")} == {
        "SIM017"
    }


def test_time_comparison_against_string_is_not_flagged():
    source = "def f(mode_time: str) -> bool:\n    return mode_time == 'iaas'\n"
    assert lint_source(source, "mod.py") == []


def test_slow_uniform_flags_only_the_no_argument_call():
    source = (
        "def f(stream, lo: float, hi: float) -> float:\n"
        "    a = stream.uniform()\n"
        "    b = stream.uniform(lo, hi) + stream.uniform(low=lo, high=hi)\n"
        "    return a + b + stream.random()\n"
    )
    found = lint_source(source, "src/repro/core/engine.py")
    assert [(v.rule_id, v.line) for v in found] == [("SIM018", 2)]


def test_slow_uniform_flags_a_bound_method():
    source = (
        "class G:\n"
        "    def __init__(self, stream) -> None:\n"
        "        self._uniform = stream.uniform\n"
        "        self._random = stream.random\n"
        "\n"
        "    def roll(self) -> float:\n"
        "        return self._uniform() + self._random()\n"
    )
    found = lint_source(source, "src/repro/core/engine.py")
    assert [(v.rule_id, v.line) for v in found] == [("SIM018", 3)]


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.id in out


def test_cli_missing_path_is_an_error(capsys):
    assert main(["does/not/exist.py"]) == 2


def test_syntax_error_is_a_hard_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main([str(broken)]) == 2


def test_repo_src_tree_is_clean():
    root = Path(__file__).resolve().parents[2]
    targets = [str(root / name) for name in ("src", "tests", "benchmarks")]
    assert main(targets) == 0, "the repo must satisfy every SIM/ARCH rule (see failures above)"
