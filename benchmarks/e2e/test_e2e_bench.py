"""Smoke test of the end-to-end benchmark (two smoke runs, 30-60 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402

#: per-layer metrics that are host times, so they differ run to run
_TIMED = (".self_share", "_us", "surfaces_s", "trace_overhead")


def _smoke(out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return _smoke(tmp / "a.json"), _smoke(tmp / "b.json")


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_harness():
    declared = _declared()
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for metric in declared["end_to_end"]:
        spec = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (spec.unit, spec.better)
        assert 0 < metric["bound"] <= 0.25
    # a bound lives either in BENCHMARK.json or in run.END_TO_END, never both
    gated = {name for name, spec in run.END_TO_END.items() if spec.bound is None}
    assert {m["name"] for m in declared["end_to_end"]} == gated
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


def test_layer_profile_counts_wrapped_calls_but_not_probes(tmp_path):
    """A wrapped Environment.run keeps its self time in ``sim``; a probe's reads do not count."""
    repro = tmp_path / "repro"
    harness = HERE / "workloads.py"
    wrapper = (str(harness), 1, "timed_run")
    env_run = (str(repro / "sim" / "environment.py"), 1, "run")
    rebalance = (str(repro / "cluster" / "resource_model.py"), 1, "_rebalance")
    probe = (str(harness), 2, "on_rebalance")
    active = (str(repro / "cluster" / "resource_model.py"), 2, "active_count")
    builtin = ("~", 0, "<built-in method builtins.len>")
    # pstats rows: (primitive calls, calls, self s, cumulative s, {caller: edge})
    stats = {
        wrapper: (1, 1, 0.01, 2.0, {}),
        env_run: (1, 1, 1.0, 2.0, {wrapper: (1, 1, 1.0, 2.0)}),
        rebalance: (10, 10, 0.5, 0.7, {env_run: (10, 10, 0.5, 0.7)}),
        probe: (10, 10, 0.05, 0.17, {rebalance: (10, 10, 0.05, 0.17)}),
        active: (10, 10, 0.02, 0.02, {probe: (10, 10, 0.02, 0.02)}),
        builtin: (20, 20, 0.2, 0.2, {rebalance: (10, 10, 0.1, 0.1), probe: (10, 10, 0.1, 0.1)}),
    }
    prof = layers.LayerProfile(stats, repro, HERE, probes=("on_rebalance",))
    assert prof.self_s["sim"] == pytest.approx(1.0)
    assert prof.calls["sim"] == 1
    assert prof.self_s["cluster"] == pytest.approx(0.6)
    assert prof.calls["cluster"] == 10
    assert sum(prof.self_s.values()) == pytest.approx(1.6)


def test_names_are_well_formed():
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_every_declared_metric_is_emitted(smoke_pair):
    declared = _declared()
    for doc in smoke_pair:
        for workload in run.WORKLOADS:
            result = doc["workloads"][workload]
            assert result["correct"], (workload, result["failures"], result["determinism_errors"])
            for metric in declared["end_to_end"]:
                assert metric["name"] in result["metrics"], (workload, metric["name"])
            for metric in declared["per_layer"]:
                assert metric["name"] in result["per_layer"], (workload, metric["name"])
        reductions = doc["workloads"]["sec7_matmul"]["metrics"]
        assert "cpu_reduction" in reductions and "mem_reduction" in reductions


def test_deterministic_metrics_repeat_exactly(smoke_pair):
    a, b = smoke_pair
    for workload in run.WORKLOADS:
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        assert ra["sim_digest"] == rb["sim_digest"], workload
        for name, spec in run.END_TO_END.items():
            if spec.simulated and name in ra["metrics"]:
                assert ra["metrics"][name]["values"] == rb["metrics"][name]["values"], (workload, name)
        for name, value in ra["per_layer"].items():
            if not name.endswith(_TIMED):
                assert rb["per_layer"][name] == value, (workload, name)
