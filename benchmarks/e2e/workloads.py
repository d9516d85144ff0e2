"""The benchmark's five workloads, one repetition per process.

    python3 benchmarks/e2e/workloads.py --workload sec7_matmul --seed 0 [--scale 1] [--trace 1]

prints one JSON line: host timings, the simulated outputs, the failed
correctness checks and the counters read from the simulator.  ``run.py``
starts this script once per repetition, each time in a fresh process.

The simulator is driven only through its public entry points (the
scenario builders, ``run_amoeba``/``run_nameko``/``run_openwhisk``,
``run_graph``).  Counters are read from public attributes of the objects
a run builds; the probe collects those objects by wrapping constructors
and times ``Environment.run`` and the surface builder from outside.

A short calibration loop runs every quarter second of the timed part,
interrupting the simulator (``SpeedSampler``).  On a shared machine the
speed of the host swings by tens of percent, and the loop slows down with
it, so run.py divides host times by its mean time (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import heapq
import json
import pstats
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from layers import LayerProfile

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Fig. 11 bands the paper reports for CPU and memory reduction (§VII)
CPU_BAND = (0.291, 0.729)
MEM_BAND = (0.302, 0.849)
#: Amoeba's foreground QoS-violation ceiling on sec7_matmul
AMOEBA_VIOL_MAX = 0.05


def import_simulator():
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import repro
    import repro.experiments.dag  # noqa: F401  (imported before any profiling starts)
    import repro.experiments.fleet  # noqa: F401
    import repro.experiments.graphrun  # noqa: F401

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")
    return repro


@dataclass
class Outcome:
    """What one workload repetition produced, before reduction to metrics."""

    sim_seconds: float = 0.0
    #: user queries over all runs (graph runs: root requests): completed,
    #: offered, and dropped or abandoned
    completed: int = 0
    offered: int = 0
    dropped: int = 0
    #: latency / QoS target of every completed query of the system under
    #: test (Amoeba; the budgeted leg of a graph workload)
    ratios: List[float] = field(default_factory=list)
    violations: int = 0
    qos_completed: int = 0
    cost_usd: float = 0.0
    cost_queries: int = 0
    counts: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            (
                "decisions",
                "switches",
                "preemptions_noticed",
                "replacements",
                "graph_retries",
                "backpressure_sheds",
            ),
            0,
        )
    )
    info: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)


class Probe:
    """Counters and host timings taken from outside the simulator.

    Its wrappers pass straight through to the simulator.  The functions in
    ``PROBES`` read the simulator's state, so the profile leaves out the
    calls they make (layers.py).
    """

    PROBES = ("on_rebalance", "_harvest")

    def __init__(self, count_rebalances: bool):
        self.count_rebalances = count_rebalances
        self.sim_s = 0.0
        self.surfaces_s = 0.0
        self.counts: Dict[str, int] = {
            "heap_pushes": 0,
            "surface_builds": 0,
            "timer_arms": 0,
            "machine_completions": 0,
            "cold_starts": 0,
            "invocations": 0,
            "rejections": 0,
            "breaker_trips": 0,
            "faults_injected": 0,
        }
        self.rebalances = 0
        self.active_sum = 0
        self._built: Dict[str, list] = {}

    def install(self) -> None:
        import repro.core.runtime as runtime
        from repro.cluster.resource_model import MachineModel
        from repro.faults import FaultInjector
        from repro.overload import OverloadGovernor
        from repro.serverless.pool import FunctionState
        from repro.sim import Environment

        probe = self
        env_run = Environment.run

        def timed_run(env, until=None):
            t0 = time.perf_counter()
            try:
                return env_run(env, until)
            finally:
                probe.sim_s += time.perf_counter() - t0
                probe._harvest(env)

        Environment.run = timed_run

        build = runtime.build_surface_set

        def timed_build(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return build(*args, **kwargs)
            finally:
                probe.surfaces_s += time.perf_counter() - t0
                probe.counts["surface_builds"] += 1

        runtime.build_surface_set = timed_build

        for cls in (MachineModel, FunctionState, OverloadGovernor, FaultInjector):
            self._collect(cls)

    def _collect(self, cls: type) -> None:
        built = self._built.setdefault(cls.__name__, [])
        init = cls.__init__
        hook = self._rebalance_hook if cls.__name__ == "MachineModel" and self.count_rebalances else None

        def collecting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            built.append(obj)
            if hook is not None:
                obj.on_pressure_change = hook(obj)

        cls.__init__ = collecting_init

    def _rebalance_hook(self, machine) -> Callable[[float, tuple], None]:
        def on_rebalance(_now: float, _pressures: tuple) -> None:
            self.rebalances += 1
            self.active_sum += machine.active_count

        return on_rebalance

    def _harvest(self, env) -> None:
        """Read the counters of ``env`` and everything built since the last run."""
        c = self.counts
        c["heap_pushes"] += env.scheduled_total
        for m in self._built.get("MachineModel", ()):
            c["timer_arms"] += m.timer_arms
            c["machine_completions"] += m.completed
        for fs in self._built.get("FunctionState", ()):
            c["cold_starts"] += fs.cold_starts
            c["invocations"] += fs.completions
        for gov in self._built.get("OverloadGovernor", ()):
            c["rejections"] += gov.total_rejections
            c["breaker_trips"] += gov.breaker.trips if gov.breaker is not None else 0
        for inj in self._built.get("FaultInjector", ()):
            c["faults_injected"] += inj.stats.total_injected
        for built in self._built.values():
            built.clear()


# -- reduction of run results --------------------------------------------------


def absorb_services(out: Outcome, result) -> None:
    """Totals, conservation check and controller counts over every service."""
    for name, sr in result.services.items():
        m = sr.metrics
        if m.load.total < m.completed + m.failed:
            out.failures.append(
                f"{result.system}/{name}: {m.load.total} arrivals < "
                f"{m.completed} completed + {m.failed} dropped"
            )
        out.count("decisions", len(sr.decisions))
        out.count("switches", len(sr.switch_events))
        out.count("preemptions_noticed", m.preemptions["noticed"])
        out.count("replacements", m.preemptions["replaced"])


def absorb_flat(out: Outcome, result, foreground: str, under_test: bool) -> None:
    """Fold one flat run (Amoeba, Nameko or OpenWhisk) into ``out``."""
    out.sim_seconds += result.duration
    absorb_services(out, result)
    for sr in result.services.values():
        out.completed += sr.metrics.completed
        out.offered += sr.metrics.load.total
        out.dropped += sr.metrics.failed
    if under_test:
        m = result.services[foreground].metrics
        out.ratios.extend((m.latencies.values() / m.qos_target).tolist())
        out.violations += m.violations
        out.qos_completed += m.completed
        out.cost_usd += sum(sr.cost().total for sr in result.services.values())
        out.cost_queries += sum(sr.metrics.completed for sr in result.services.values())


def absorb_graph(out: Outcome, result, under_test: bool) -> None:
    """Fold one call-graph run into ``out`` (queries are root requests)."""
    g = result.graph
    out.sim_seconds += result.duration
    absorb_services(out, result)
    if g.offered < g.completed + g.failed:
        out.failures.append(
            f"graph: {g.offered} offered < {g.completed} completed + {g.failed} failed"
        )
    out.completed += g.completed
    out.offered += g.offered
    out.dropped += g.failed
    out.count("graph_retries", g.retries.get("attempted", 0))
    out.count("backpressure_sheds", g.total_backpressure_sheds)
    if under_test:
        out.ratios.extend(lat / g.e2e_target for lat in g.latencies)
        out.violations += g.violations
        out.qos_completed += g.completed
        out.cost_usd += sum(sr.cost().total for sr in result.services.values())
        out.cost_queries += g.completed


# -- the workloads ---------------------------------------------------------------


def sec7_matmul(seed: int, scale: float) -> Outcome:
    """§VII headline: matmul under Amoeba, Nameko and OpenWhisk in turn."""
    from repro.experiments import default_scenario, run_amoeba, run_nameko, run_openwhisk

    out = Outcome()
    scenario = default_scenario("matmul", day=3600.0 * scale, seed=seed)
    fg = scenario.foreground.name
    amoeba = run_amoeba(scenario)
    nameko = run_nameko(scenario)
    openwhisk = run_openwhisk(scenario)
    absorb_flat(out, amoeba, fg, under_test=True)
    absorb_flat(out, nameko, fg, under_test=False)
    absorb_flat(out, openwhisk, fg, under_test=False)
    cpu_ratio, mem_ratio = amoeba.services[fg].usage.normalized_to(nameko.services[fg].usage)
    out.info["cpu_reduction"] = 1.0 - cpu_ratio
    out.info["mem_reduction"] = 1.0 - mem_ratio
    viol_amoeba = amoeba.services[fg].metrics.violation_fraction
    viol_openwhisk = openwhisk.services[fg].metrics.violation_fraction
    out.info["openwhisk_viol_frac"] = viol_openwhisk
    if scale == 1.0:
        for name, value, (lo, hi) in (
            ("cpu_reduction", 1.0 - cpu_ratio, CPU_BAND),
            ("mem_reduction", 1.0 - mem_ratio, MEM_BAND),
        ):
            if not lo <= value <= hi:
                out.failures.append(f"{name} {value:.3f} outside the paper's [{lo}, {hi}]")
        if viol_amoeba > AMOEBA_VIOL_MAX:
            out.failures.append(f"Amoeba viol_frac {viol_amoeba:.4f} > {AMOEBA_VIOL_MAX}")
        if not viol_openwhisk > viol_amoeba:
            out.failures.append(
                f"OpenWhisk viol_frac {viol_openwhisk:.4f} not above Amoeba's {viol_amoeba:.4f}"
            )
    return out


def overload_storm(seed: int, scale: float) -> Outcome:
    """2.5x the nominal peak with the chaos fault mix: shedding and breaker."""
    from repro.experiments import run_amoeba
    from repro.experiments.scenarios import overload_scenario
    from repro.overload import OverloadPolicy

    out = Outcome()
    scenario = overload_scenario(
        "matmul",
        lambda_factor=2.5,
        policy=OverloadPolicy(),
        fault_scale=1.0,
        day=3600.0 * scale,
        seed=seed,
    )
    absorb_flat(out, run_amoeba(scenario), scenario.foreground.name, under_test=True)
    return out


def dag_cascade(seed: int, scale: float) -> Outcome:
    """4-deep chain with a mid-chain brownout: budgeted leg, then naive leg."""
    from repro.experiments.dag import dag_scenario
    from repro.experiments.graphrun import run_graph

    out = Outcome()
    budgeted = run_graph(dag_scenario(4, seed, day=600.0 * scale))
    naive = run_graph(dag_scenario(4, seed, day=600.0 * scale, resilient=False))
    absorb_graph(out, budgeted, under_test=True)
    absorb_graph(out, naive, under_test=False)
    b, n = budgeted.graph.violation_fraction, naive.graph.violation_fraction
    out.info["naive_viol_frac"] = n
    if scale == 1.0 and not b < n:
        out.failures.append(f"budgeted viol_frac {b:.4f} not below naive {n:.4f}")
    return out


def spot_flash(seed: int, scale: float) -> Outcome:
    """Half-spot rental with graceful preemptions plus flash-crowd spikes."""
    from repro.experiments import run_amoeba
    from repro.experiments.scenarios import spot_scenario

    out = Outcome()
    scenario = spot_scenario(
        "matmul",
        spot_fraction=0.5,
        preemption_prob=0.5,
        graceful=True,
        spike_magnitude=0.5,
        day=3600.0 * scale,
        seed=seed,
    )
    absorb_flat(out, run_amoeba(scenario), scenario.foreground.name, under_test=True)
    return out


def fleet_100(seed: int, scale: float) -> Outcome:
    """100 small independent services, each through run_amoeba, serially."""
    from repro.experiments import run_amoeba
    from repro.experiments.fleet import fleet_scenarios

    out = Outcome()
    for _svc, scenario in fleet_scenarios(100, day=300.0 * scale, seed=seed):
        absorb_flat(out, run_amoeba(scenario), scenario.foreground.name, under_test=True)
    return out


RUNNERS: Dict[str, Callable[[int, float], Outcome]] = {
    "sec7_matmul": sec7_matmul,
    "overload_storm": overload_storm,
    "dag_cascade": dag_cascade,
    "spot_flash": spot_flash,
    "fleet_100": fleet_100,
}
#: the workload names, in the order run.py runs them
WORKLOADS = tuple(RUNNERS)


def sim_metrics(out: Outcome) -> Dict[str, float]:
    """The simulated (deterministic) end-to-end outputs of one repetition."""
    import numpy as np

    ratios = np.asarray(out.ratios, dtype=float)
    p50 = p95 = p99 = 0.0
    if ratios.size:
        p50, p95, p99 = (float(q) for q in np.percentile(ratios, (50, 95, 99)))
    metrics = {
        "fail_frac": out.dropped / out.offered if out.offered else 0.0,
        "viol_frac": out.violations / out.qos_completed if out.qos_completed else 0.0,
        "p50_over_qos": p50,
        "p95_over_qos": p95,
        "p99_over_qos": p99,
        "latency_n": float(ratios.size),
        "cost_usd_per_kq": 1000.0 * out.cost_usd / out.cost_queries if out.cost_queries else 0.0,
    }
    metrics.update(out.info)
    return metrics


def profile_summary(profiler: cProfile.Profile, repro_dir: Path) -> Dict[str, object]:
    """Per-layer self time and calls, plus the few named functions we time."""
    prof = LayerProfile(pstats.Stats(profiler).stats, repro_dir, HERE, Probe.PROBES)
    return {
        "self_s": prof.self_s,
        "calls": prof.calls,
        "rng_draws": prof.primitive_calls(
            "sim/rng.py", ("exponential", "lognormal_around", "uniform", "draw")
        ),
        "trace_rate_calls": prof.primitive_calls("workloads/traces.py", ("rate",)),
        "rebalance_us": prof.us_per_call("cluster/resource_model.py", "_rebalance", cumulative=False),
        "record_completion_us": prof.us_per_call("telemetry.py", "record_completion", cumulative=True),
    }


class _Item:
    __slots__ = ("key", "slot")

    def __init__(self, key: float, slot: int) -> None:
        self.key = key
        self.slot = slot


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes here; it runs no simulator code.

    The loop allocates small objects and drives a heap and a dict, the
    kind of interpreter work the simulator does, so it slows down with the
    host the way the simulator does.
    """
    t0 = time.perf_counter()
    heap: list = []
    sums: Dict[int, float] = {}
    total = 0.0
    for i in range(2_000):
        item = _Item(i * 0.5, i % 97)
        heapq.heappush(heap, (item.key % 1013.0, i, item))
        sums[item.slot] = sums.get(item.slot, 0.0) + item.key
        if len(heap) > 256:
            total += heapq.heappop(heap)[2].key
    return time.perf_counter() - t0


class SpeedSampler:
    """Times ``calibration_s`` every ``INTERVAL_S`` of wall time, in this process.

    Other tenants of a shared machine slow it down by tens of percent, in
    phases of seconds to minutes.  A sample taken on the same CPU between
    the simulator's own steps sees the same slowdown, so the mean sample
    over a repetition measures how fast the machine was while it ran.
    Sampling costs about 1% of the wall time, in every repetition alike.
    A traced repetition is not sampled: the profiler would slow the loop
    down unlike the machine.
    """

    INTERVAL_S = 0.25

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, *_signal) -> None:
        self.samples.append(calibration_s())

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    @property
    def mean_s(self) -> float:
        """Harmonic mean of the samples.

        The machine does work at a rate ∝ 1/sample, and a fixed amount of
        work takes wall time ∝ 1/(mean rate), which is the harmonic mean.
        The arithmetic mean is larger whenever the rate varies, so it
        would shrink the slow repetitions too much.
        """
        return statistics.harmonic_mean(self.samples)


def run_once(workload: str, seed: int, scale: float, trace: bool) -> Dict[str, object]:
    """One repetition: build, run, reduce and check; returns the JSON record."""
    sampler = SpeedSampler()
    with contextlib.nullcontext() if trace else sampler:
        # set-up time starts here, so the simulator's imports count towards it
        started = time.perf_counter()
        repro = import_simulator()
        probe = Probe(count_rebalances=trace)
        probe.install()
        runner = RUNNERS[workload]
        profiler: Optional[cProfile.Profile] = cProfile.Profile() if trace else None
        if profiler is not None:
            profiler.enable()
        out = runner(seed, scale)
        sim = sim_metrics(out)
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - started
    record: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "wall_s": wall,
        # None when traced
        "calibration_s": sampler.mean_s if sampler.samples else None,
        "sim_s": probe.sim_s,
        "setup_s": wall - probe.sim_s,
        "surfaces_s": probe.surfaces_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_hours": out.sim_seconds / 3600.0,
        # finished = completed or dropped: the host does the work either way,
        # and completions alone swing with the seed where many requests are
        # abandoned (dag_cascade's budgeted leg)
        "queries": out.completed + out.dropped,
        "offered": out.offered,
        "sim": sim,
        "counts": {**probe.counts, **out.counts},
        "failures": out.failures,
    }
    if profiler is not None:
        summary = profile_summary(profiler, Path(repro.__file__).resolve().parent)
        summary["rebalances"] = probe.rebalances
        summary["active_sum"] = probe.active_sum
        record["profile"] = summary
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0.0 < args.scale <= 1.0:
        parser.error("seed must be >= 0 and scale in (0, 1]")
    record = run_once(args.workload, args.seed, args.scale, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
