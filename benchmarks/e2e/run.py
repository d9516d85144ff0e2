"""End-to-end benchmark of the Amoeba simulator: five workloads, one command.

    python3 benchmarks/e2e/run.py [--seed N] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py profile W [--seed N]
    python3 benchmarks/e2e/run.py compare BASE.json NEW.json

With no ``--workload`` it runs every workload three times, interleaved
round-robin after one discarded warm-up process, then once more under
cProfile, and prints each end-to-end metric (median, quartiles, sample
count), the per-layer profile, the correctness checks and a digest of the
simulated outputs.  With ``--workload`` it measures one workload for
about ``--seconds`` and prints, as its last line, one JSON object with the
metrics BENCHMARK.json declares (``--trace 1``: the per-layer ones).

Every repetition runs in a fresh single-threaded process
(``workloads.py``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from layers import LAYERS, OTHER
from workloads import WORKLOADS, calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "workloads.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SMOKE_SCALE = 1.0 / 20.0
ROUNDS = 3
#: the --workload form's median is never of fewer repetitions than this
MIN_REPETITIONS = 2
#: a repetition that outlives this is killed and counted as a failure
CHILD_TIMEOUT_S = 170.0

#: seconds workloads.calibration_s takes, between the simulator's steps, on
#: the reference machine: a quiet 2-vCPU Xeon (2.1 GHz) VM.  Every host
#: time is reported in seconds of that machine: measured × CAL_REF_S / the
#: mean calibration sampled during the same repetition (SpeedSampler).
CAL_REF_S = 0.0016


class Metric(NamedTuple):
    """An end-to-end metric and how ``compare`` judges it."""

    unit: str
    better: str
    #: simulated output: repeats exactly for a seed, so a pure speed-up
    #: leaves it bit-identical
    simulated: bool
    #: absolute minimum of the allowed worsening
    floor: float = 0.0
    #: share of the base median by which it may worsen before it is worse;
    #: None for the metrics BENCHMARK.json declares, which gives their bound
    bound: Optional[float] = None


END_TO_END: Dict[str, Metric] = {
    "wall_s_per_sim_hour": Metric("s", "lower", False),
    "us_per_query": Metric("us", "lower", False),
    "setup_s": Metric("s", "lower", False, floor=0.05),
    "peak_rss_mb": Metric("MB", "lower", False),
    "fail_frac": Metric("ratio", "lower", True, floor=1e-4, bound=0.01),
    "viol_frac": Metric("ratio", "lower", True, floor=1e-4, bound=0.01),
    "p50_over_qos": Metric("ratio", "lower", True),
    "p95_over_qos": Metric("ratio", "lower", True, bound=0.01),
    "cost_usd_per_kq": Metric("usd", "lower", True, bound=0.01),
    "cpu_reduction": Metric("ratio", "higher", True, bound=0.01),
    "mem_reduction": Metric("ratio", "higher", True, bound=0.01),
}
#: deterministic outputs printed beside the metrics, not gated
SIM_INFO = ("p99_over_qos", "latency_n", "openwhisk_viol_frac", "naive_viol_frac")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit."""
    units = {f"{layer}.self_share": "ratio" for layer in LAYERS + (OTHER,)}
    units.update({f"{layer}.calls_per_query": "calls/query" for layer in LAYERS})
    units.update(
        {
            "sim.heap_pushes_per_query": "pushes/query",
            "sim.rng_draws_per_query": "draws/query",
            "cluster.rebalances_per_query": "calls/query",
            "cluster.rebalance_us": "us",
            "cluster.timer_arms_per_completion": "ratio",
            "cluster.active_per_rebalance": "count",
            "serverless.cold_start_frac": "ratio",
            "serverless.invocations_per_query": "calls/query",
            "iaas.preemptions_noticed": "count",
            "iaas.replacements": "count",
            "workloads.trace_rate_calls_per_query": "calls/query",
            "telemetry.record_completion_us": "us",
            "core.surfaces_s": "s",
            "core.decisions_per_sim_hour": "1/h",
            "core.switches": "count",
            "overload.rejections_per_query": "ratio",
            "overload.breaker_trips": "count",
            "faults.injected_per_sim_hour": "1/h",
            "graph.retries_per_request": "ratio",
            "graph.backpressure_sheds": "count",
            "trace_overhead": "ratio",
        }
    )
    return units


PER_LAYER = per_layer_units()


def declared() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def bounds() -> Dict[str, float]:
    """The regression bound of every end-to-end metric."""
    gated = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    return {
        name: gated[name] if spec.bound is None else spec.bound
        for name, spec in END_TO_END.items()
    }


class RepetitionFailed(RuntimeError):
    """A workload process crashed, timed out or printed no record."""


# -- running repetitions ---------------------------------------------------------


def child_env() -> Dict[str, str]:
    """Serial, uncached, single-threaded settings for every repetition."""
    env = dict(os.environ)
    for name in ("REPRO_WORKERS", "REPRO_CACHE"):
        env.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: str, seed: int, scale: float, trace: bool) -> dict:
    """Run one repetition in a fresh process; returns its record."""
    cmd = [
        sys.executable,
        str(CHILD),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--trace", "1" if trace else "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"{workload}: repetition exceeded {CHILD_TIMEOUT_S:g}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RepetitionFailed(f"{workload}: exit {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def machine_context() -> Dict[str, object]:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_s": statistics.median(calibration_s() for _ in range(25)),
    }


# -- reduction --------------------------------------------------------------------


def ref_s(seconds: float, calibration_s: float) -> float:
    """Host seconds measured at a calibration, in seconds of the reference machine."""
    return seconds * CAL_REF_S / calibration_s


def host_metrics(rec: dict) -> Dict[str, float]:
    cal = rec["calibration_s"]
    wall = ref_s(rec["wall_s"], cal)
    return {
        "wall_s_per_sim_hour": wall / rec["sim_hours"],
        "us_per_query": 1e6 * wall / max(rec["queries"], 1),
        "setup_s": ref_s(rec["setup_s"], cal),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def sim_values(rec: dict) -> Dict[str, float]:
    """The deterministic end-to-end values of one repetition (None = n/a)."""
    sim = rec["sim"]
    failed = bool(rec["failures"])
    return {
        name: (1.0 if name == "fail_frac" and failed else sim.get(name))
        for name, metric in END_TO_END.items()
        if metric.simulated
    }


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and sample count (quartiles as statistics.quantiles)."""
    vals = list(values)
    q1 = q3 = vals[0]
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals), "values": vals}


def sim_digest(sim: Dict[str, float]) -> str:
    """sha256 over the float.hex of every simulated output, by name."""
    text = ";".join(f"{k}={float(v).hex()}" for k, v in sorted(sim.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def determinism_errors(records: Sequence[dict]) -> List[str]:
    """Every deterministic output must match the first repetition's."""
    errors = []
    first = records[0]
    for rec in records[1:]:
        label = "traced run" if rec["trace"] else "repetition"
        for key in ("sim", "counts"):
            for name, value in first[key].items():
                other = rec[key].get(name)
                if other != value:
                    errors.append(f"{label}: {key}.{name} {other!r} != {value!r}")
    return errors


def traced_calibration(untraced: Sequence[dict]) -> float:
    """The traced repetition is not sampled; the untraced ones beside it are."""
    return statistics.median(rec["calibration_s"] for rec in untraced)


def per_layer(traced: dict, untraced: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics of the traced run (surfaces and overhead: untraced).

    Host times are in reference seconds, like the end-to-end ones.
    """
    prof = traced["profile"]
    counts = traced["counts"]
    queries = max(traced["queries"], 1)
    hours = traced["sim_hours"]
    cal = traced_calibration(untraced)
    total = sum(prof["self_s"].values())
    out = {f"{layer}.self_share": t / total for layer, t in prof["self_s"].items()}
    out.update({f"{layer}.calls_per_query": n / queries for layer, n in prof["calls"].items()})
    rebalances = prof["rebalances"]
    out.update(
        {
            "sim.heap_pushes_per_query": counts["heap_pushes"] / queries,
            "sim.rng_draws_per_query": prof["rng_draws"] / queries,
            "cluster.rebalances_per_query": rebalances / queries,
            "cluster.rebalance_us": ref_s(prof["rebalance_us"], cal),
            "cluster.timer_arms_per_completion": counts["timer_arms"]
            / max(counts["machine_completions"], 1),
            "cluster.active_per_rebalance": prof["active_sum"] / max(rebalances, 1),
            "serverless.cold_start_frac": counts["cold_starts"] / max(counts["invocations"], 1),
            "serverless.invocations_per_query": counts["invocations"] / queries,
            "iaas.preemptions_noticed": counts["preemptions_noticed"],
            "iaas.replacements": counts["replacements"],
            "workloads.trace_rate_calls_per_query": prof["trace_rate_calls"] / queries,
            "telemetry.record_completion_us": ref_s(prof["record_completion_us"], cal),
            "core.surfaces_s": statistics.median(
                ref_s(r["surfaces_s"], r["calibration_s"]) for r in untraced
            ),
            "core.decisions_per_sim_hour": counts["decisions"] / hours,
            "core.switches": counts["switches"],
            "overload.rejections_per_query": counts["rejections"] / queries,
            "overload.breaker_trips": counts["breaker_trips"],
            "faults.injected_per_sim_hour": counts["faults_injected"] / hours,
            "graph.retries_per_request": counts["graph_retries"] / max(traced["offered"], 1),
            "graph.backpressure_sheds": counts["backpressure_sheds"],
            "trace_overhead": traced["wall_s"] / statistics.median(r["wall_s"] for r in untraced),
        }
    )
    return out


def reduce_workload(untraced: Sequence[dict], traced: Optional[dict]) -> dict:
    """One workload's metrics, checks and digest from its repetitions."""
    records = list(untraced) + ([traced] if traced is not None else [])
    failures = sorted({f for rec in records for f in rec["failures"]})
    mismatches = determinism_errors(records)
    metrics: Dict[str, dict] = {}
    hosts = [host_metrics(rec) for rec in untraced]
    for name in hosts[0]:
        metrics[name] = summary([h[name] for h in hosts])
    for name, value in sim_values(untraced[0]).items():
        if value is not None:
            metrics[name] = summary([value])
    info = {k: untraced[0]["sim"][k] for k in SIM_INFO if k in untraced[0]["sim"]}
    for key in ("wall_s", "calibration_s"):
        info[key] = statistics.median(rec[key] for rec in untraced)
    us_per_call = {}
    if traced is not None:
        prof = traced["profile"]
        cal = traced_calibration(untraced)
        us_per_call = {
            layer: ref_s(1e6 * prof["self_s"][layer] / calls, cal)
            for layer, calls in prof["calls"].items()
            if calls
        }
    return {
        "correct": not failures and not mismatches,
        "failures": failures,
        "determinism_errors": mismatches,
        "repetitions": len(untraced),
        "attempted": sum(rec["offered"] for rec in records),
        "sim_digest": sim_digest(untraced[0]["sim"]),
        "metrics": metrics,
        "info": info,
        "per_layer": per_layer(traced, untraced) if traced is not None else {},
        "layer_us_per_call": us_per_call,
    }


def crashed_workload(error: str) -> dict:
    """A workload whose repetition raised: every offered query failed."""
    return {
        "correct": False,
        "failures": [error],
        "determinism_errors": [],
        "repetitions": 0,
        "attempted": 0,
        "sim_digest": "",
        "metrics": {"fail_frac": summary([1.0])},
        "info": {},
        "per_layer": {},
        "layer_us_per_call": {},
    }


# -- printing -----------------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(name: str, result: dict) -> None:
    verdict = "correct" if result["correct"] else "FAILED"
    print(f"\n== {name}: {verdict}, {result['repetitions']} repetitions, sim_digest {result['sim_digest']}")
    for msg in result["failures"] + result["determinism_errors"]:
        print(f"   ! {msg}")
    print(f"   {'metric':<22} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for metric, s in result["metrics"].items():
        unit = END_TO_END[metric].unit
        print(
            f"   {metric:<22} {unit:<6} {fmt(s['median']):>12} {fmt(s['q1']):>12} "
            f"{fmt(s['q3']):>12} {s['n']:>3}"
        )
    if result["info"]:
        print("   info: " + ", ".join(f"{k}={fmt(v)}" for k, v in result["info"].items()))
    if result["per_layer"]:
        print_layers(result["per_layer"], result["layer_us_per_call"])


def print_layers(layer_metrics: Dict[str, float], us_per_call: Dict[str, float]) -> None:
    """The per-layer table (traced self-time share, calls/query, µs/call)."""
    print(f"   {'layer':<12} {'self_share':>10} {'calls/query':>12} {'us/call':>9}")
    for layer in LAYERS + (OTHER,):
        calls = layer_metrics.get(f"{layer}.calls_per_query")
        per_call = us_per_call.get(layer)
        print(
            f"   {layer:<12} {layer_metrics[f'{layer}.self_share']:>10.4f} "
            f"{fmt(calls) if calls is not None else '-':>12} "
            f"{f'{per_call:.3f}' if per_call is not None else '-':>9}"
        )
    rest = [k for k in PER_LAYER if not k.endswith((".self_share", ".calls_per_query"))]
    for metric in rest:
        print(f"   {metric:<38} {fmt(layer_metrics[metric]):>12} {PER_LAYER[metric]}")


# -- commands -------------------------------------------------------------------------


def run_all(seed: int, smoke: bool, out: Optional[str]) -> int:
    """The default command: every workload, interleaved, then traced."""
    context = machine_context()
    print("machine: " + ", ".join(f"{k}={fmt(v)}" for k, v in context.items()))
    scale = SMOKE_SCALE if smoke else 1.0
    rounds = 1 if smoke else ROUNDS
    crashed: Dict[str, str] = {}
    untraced: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    traced: Dict[str, dict] = {}
    if not smoke:
        try:
            spawn(WORKLOADS[0], seed, SMOKE_SCALE, False)  # warm-up, discarded
        except RepetitionFailed:
            pass  # the same workload's repetitions report it

    def attempt(workload: str, trace: bool) -> None:
        if workload in crashed:
            return
        try:
            rec = spawn(workload, seed, scale, trace)
        except RepetitionFailed as exc:
            crashed[workload] = str(exc)
            return
        if trace:
            traced[workload] = rec
        else:
            untraced[workload].append(rec)

    for _ in range(rounds):
        for workload in WORKLOADS:
            attempt(workload, trace=False)
    for workload in WORKLOADS:
        attempt(workload, trace=True)

    results = {
        w: crashed_workload(crashed[w]) if w in crashed else reduce_workload(untraced[w], traced[w])
        for w in WORKLOADS
    }
    for workload, result in results.items():
        print_workload(workload, result)
    if out:
        doc = {"seed": seed, "smoke": smoke, "context": context, "workloads": results}
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    ok = all(r["correct"] for r in results.values())
    print(f"\n{'all workloads correct' if ok else 'FAILED'}")
    return 0 if ok else 1


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload for about ``seconds``; last line is the JSON result.

    A repetition that crashes still gives a result line: not correct, and
    every query offered so far (at least one) counted as failed.
    """
    spec = declared()
    print("machine: " + ", ".join(f"{k}={fmt(v)}" for k, v in machine_context().items()))
    untraced: List[dict] = []
    try:
        if trace:
            untraced.append(spawn(workload, seed, 1.0, False))
            result = reduce_workload(untraced, spawn(workload, seed, 1.0, True))
        else:
            t0 = time.perf_counter()
            while True:
                started = time.perf_counter()
                untraced.append(spawn(workload, seed, 1.0, False))
                now = time.perf_counter()
                # after MIN_REPETITIONS, stop before one that would overrun
                if len(untraced) >= MIN_REPETITIONS and now - t0 + (now - started) > seconds:
                    break
            result = reduce_workload(untraced, None)
    except RepetitionFailed as exc:
        result = crashed_workload(str(exc))
        result["attempted"] = sum(rec["offered"] for rec in untraced)
    print_workload(workload, result)
    if trace:
        values = result["per_layer"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {k: s["median"] for k, s in result["metrics"].items()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    correct = result["correct"]
    attempted = max(result["attempted"], 1)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def profile(workload: str, seed: int) -> int:
    """Print the per-layer table of one workload (share, calls/query, µs/call)."""
    untraced = spawn(workload, seed, 1.0, False)
    result = reduce_workload([untraced], spawn(workload, seed, 1.0, True))
    print(f"{workload}: seed {seed}, {untraced['queries']} queries")
    print_layers(result["per_layer"], result["layer_us_per_call"])
    return 0 if result["correct"] else 1


def verdict(metric: str, base: dict, new: dict, bound: float) -> str:
    """better / worse / same / unresolved, by the choosing-metrics rule."""
    spec = END_TO_END.get(metric)
    if spec is None:
        return "-"
    if not spec.simulated and base["n"] < 2:
        return "unresolved"
    b, n = base["median"], new["median"]
    sign = 1.0 if spec.better == "lower" else -1.0
    worse_by = sign * (n - b)
    allowed = max(bound * abs(b), spec.floor)
    spread = base["q3"] - base["q1"]
    if spread > allowed:
        base_vals, new_vals = base.get("values", [b]), new.get("values", [n])
        if all(sign * (x - y) < 0 for x in new_vals for y in base_vals):
            return "better"
        return "unresolved"
    if worse_by > allowed:
        return "worse"
    if -worse_by > max(spread, 0.0) and n != b:
        return "better"
    return "same"


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    bound = bounds()
    print(f"{'workload':<15} {'metric':<38} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    worse = 0
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            continue
        b_metrics = {**base[workload]["metrics"], **{
            k: summary([v]) for k, v in base[workload]["per_layer"].items()}}
        n_metrics = {**new[workload]["metrics"], **{
            k: summary([v]) for k, v in new[workload]["per_layer"].items()}}
        for metric, b in b_metrics.items():
            if metric not in n_metrics:
                continue
            n = n_metrics[metric]
            ratio = n["median"] / b["median"] if b["median"] else float("nan")
            v = verdict(metric, b, n, bound.get(metric, 0.0))
            worse += v == "worse"
            print(f"{workload:<15} {metric:<38} {fmt(b['median']):>12} {fmt(n['median']):>12} "
                  f"{ratio:>9.4f}  {v}")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if argv and argv[0] == "profile":
        parser = argparse.ArgumentParser(prog="run.py profile")
        parser.add_argument("workload", choices=WORKLOADS)
        parser.add_argument("--seed", type=int, default=0)
        args = parser.parse_args(argv[1:])
        try:
            return profile(args.workload, args.seed)
        except RepetitionFailed as exc:
            print(f"repetition failed: {exc}", file=sys.stderr)
            return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="1/20 of every simulated length")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--workload", choices=WORKLOADS, help="measure only this workload")
    parser.add_argument("--seconds", type=float, help="with --workload (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="with --workload (default 0)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None:
        if args.seconds is not None or args.trace is not None:
            parser.error("--seconds and --trace apply only to --workload")
        return run_all(args.seed, args.smoke, args.out)
    if args.smoke or args.out:
        parser.error("--smoke and --out do not apply to --workload")
    seconds = 10.0 if args.seconds is None else args.seconds
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
