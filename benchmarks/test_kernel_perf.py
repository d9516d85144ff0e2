"""Micro-benchmarks of the hot paths (true pytest-benchmark timing).

These are the performance-regression guards for the substrate itself:
the event loop, the contention engine's rebalance, the Erlang math and
the PCA fit are what every experiment's wall time is made of.

The scheduling guards at the bottom pin the completion scheme's
asymptotics (DESIGN.md §6): a rebalance costs O(classes), not O(active
executions); heap insertions per completed query stay O(1) amortized; and
a simulated hour stays cheap in wall time; and a latency-surface set is
built in one array solve, not one loop per grid cell.  The tracked
end-to-end numbers come from ``benchmarks/e2e/``.
"""

import time

import numpy as np

from repro.cluster.resource_model import (
    ContentionConfig,
    DemandVector,
    MachineModel,
    SensitivityVector,
)
from repro.core.monitor import pcr_fit
from repro.core.surfaces import build_surface_set
from repro.sim.environment import Environment
from repro.sim.queueing import max_arrival_rate
from repro.workloads.functionbench import BENCHMARKS
from tests.core import oracle_surfaces


def _discard(_duration: float) -> None:
    """Completion callback of executions whose duration nobody reads."""


def test_event_loop_throughput(benchmark):
    """Schedule-and-run of 20k timeout events."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(20000):
                yield env.timeout(0.001)

        env.process(ticker(env))
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 0


def test_machine_model_rebalance(benchmark):
    """Contended execute/finish churn: 2000 overlapping executions.

    Parameters keep the machine busy (~8 concurrent, pressure ≈ 0.5) but
    stable — the point is rebalance cost, not a saturation spiral.
    """
    demand = DemandVector(cpu=1.0, memory_mb=256.0)
    sens = SensitivityVector(cpu=1.0)

    def run():
        env = Environment()
        machine = MachineModel(env, cores=16.0, io_mbps=1000.0, net_mbps=1000.0)

        def feeder(env):
            for i in range(2000):
                machine.execute(0.05, demand, sens, _discard)
                yield env.timeout(0.007)

        env.process(feeder(env))
        env.run()
        return machine.active_count

    assert benchmark(run) == 0


def churn_s_per_rebalance(concurrency, machine_cls=MachineModel, executions=3000, reps=5):
    """Host seconds per rebalance of an execute/finish churn, best of ``reps``.

    Executions of two sensitivity classes arrive at a steady gap sized so
    that about ``concurrency`` are in flight, on a machine whose capacity
    scales with ``concurrency``: pressures, and so rates, are the same at
    every concurrency, and only the size of the active set differs.  Each
    execution causes exactly two rebalances (arrival and completion).
    """
    demand = DemandVector(cpu=1.0, io_mbps=1.0)
    classes = (SensitivityVector(cpu=1.0, io=0.2), SensitivityVector(cpu=0.5, io=1.0))
    work = 1.0
    best = float("inf")
    for _ in range(reps):
        env = Environment()
        machine = machine_cls(
            env, cores=2.0 * concurrency, io_mbps=2.0 * concurrency, net_mbps=1000.0
        )
        gap = work * 1.05 / concurrency  # slowdown at pressure 0.5 is ~1.05

        def feeder(env):
            for i in range(executions):
                machine.execute(
                    work * (0.5 + (i % 11) / 10.0), demand, classes[i & 1], _discard
                )
                yield env.timeout(gap)

        env.process(feeder(env))
        t0 = time.perf_counter()
        env.run()
        best = min(best, time.perf_counter() - t0)
        assert machine.completed == executions
    return best / (2 * executions)


def test_rebalance_cost_independent_of_active_set():
    """Scaling guard: 40x more executions in flight, about the same rebalance cost.

    A rebalance advances one virtual clock per sensitivity class, so its
    cost depends on the number of classes (two here), not on the number of
    executions in flight.  A kernel that walks every active execution
    (tests/cluster/oracle_kernel.py) costs 11-12x more per rebalance at
    ~400 in flight than at ~10.  The ratio is taken on one host, so
    machine speed cancels.
    """
    small = churn_s_per_rebalance(10)
    large = churn_s_per_rebalance(400)
    assert large / small < 3.0, (small, large)


def best_build_s(build, reps=5):
    """Host seconds to build the five FunctionBench surface sets, best of ``reps``."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for spec in BENCHMARKS.values():
            build(spec)
        best = min(best, time.perf_counter() - t0)
    return best


def test_surface_build_speed():
    """One array fixed-point solve per surface set beats the per-cell loop.

    The scalar oracle (tests/core/oracle_surfaces.py) runs one damped
    iteration per grid cell; the shipped builder iterates all 216 cells
    of a set at once and measured 3-6x faster.  Both run on one host, so
    machine speed cancels.
    """
    solver = best_build_s(build_surface_set)
    oracle = best_build_s(oracle_surfaces.build_surface_set)
    assert oracle / solver > 2.0, (solver, oracle)


def test_discriminant_evaluation(benchmark):
    """One controller decision's worth of Eq. 5 bisection."""

    def run():
        return max_arrival_rate(mu=2.5, n=8, qos=1.5, r=0.95)

    assert benchmark(run) > 0


def test_pcr_fit_speed(benchmark):
    """A PCA recalibration over a full feedback window."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(120, 3))
    y = X @ np.array([0.7, 0.2, 0.1]) + rng.normal(0, 0.01, 120)

    def run():
        return pcr_fit(X, y)

    w, _bias = benchmark(run)
    assert w.shape == (3,)


def test_record_completion_throughput(benchmark):
    """Telemetry fold of 20k completed queries (the per-query ledger cost).

    Every completed query on every platform funnels through
    ``ServiceMetrics.record_completion``, so its constant factor is paid
    more often than any other line in the repo.  The batch mixes warm and
    cold queries across both platforms to exercise the stage loop and the
    served-by tally on realistic shapes.
    """
    from repro.telemetry import ServiceMetrics
    from repro.workloads.loadgen import Query

    queries = []
    for i in range(20000):
        q = Query(qid=i, service="bench", t_submit=0.1 * i)
        q.t_complete = q.t_submit + 0.4 + 0.001 * (i % 7)
        q.breakdown = {"proc": 0.01, "queue": 0.02, "exec": 0.3, "post": 0.01}
        if i % 5 == 0:
            q.breakdown["cold"] = 0.5
            q.breakdown["load"] = 0.05
        q.served_by = "serverless" if i % 3 else "iaas"
        queries.append(q)

    def run():
        metrics = ServiceMetrics("bench", qos_target=0.5)
        for q in queries:
            metrics.record_completion(q)
        return metrics

    metrics = benchmark(run)
    assert metrics.completed == len(queries)
    assert metrics.served_by["iaas"] + metrics.served_by["serverless"] == len(queries)


def test_full_mixed_platform_minute(benchmark):
    """One simulated minute of a loaded serverless platform."""
    from repro.serverless.platform import ServerlessPlatform
    from repro.sim.rng import RngRegistry
    from repro.telemetry import ServiceMetrics
    from repro.workloads.functionbench import benchmark as bench_spec
    from repro.workloads.loadgen import LoadGenerator
    from repro.workloads.traces import ConstantTrace

    def run():
        env = Environment()
        rng = RngRegistry(seed=1)
        platform = ServerlessPlatform(env, rng)
        total = 0
        for name in ("float", "matmul", "dd"):
            spec = bench_spec(name)
            metrics = ServiceMetrics(name, spec.qos_target)
            platform.register(spec, metrics=metrics)
            LoadGenerator(env, name, ConstantTrace(8.0), platform.invoke, rng)
        env.run(until=60.0)
        return env.now

    assert benchmark(run) == 60.0


def _loaded_platform_hour(until=3600.0):
    """One simulated hour (or ``until`` seconds) of the three-function platform at 24 qps."""
    from repro.serverless.platform import ServerlessPlatform
    from repro.sim.rng import RngRegistry
    from repro.telemetry import ServiceMetrics
    from repro.workloads.functionbench import benchmark as bench_spec
    from repro.workloads.loadgen import LoadGenerator
    from repro.workloads.traces import ConstantTrace

    env = Environment()
    rng = RngRegistry(seed=1)
    platform = ServerlessPlatform(env, rng)
    all_metrics = []
    for name in ("float", "matmul", "dd"):
        spec = bench_spec(name)
        metrics = ServiceMetrics(name, spec.qos_target)
        platform.register(spec, metrics=metrics)
        LoadGenerator(env, name, ConstantTrace(8.0), platform.invoke, rng)
        all_metrics.append(metrics)
    t0 = time.perf_counter()
    env.run(until=until)
    wall = time.perf_counter() - t0
    completed = sum(m.completed for m in all_metrics)
    return env, platform.machine, completed, wall


def test_heap_entries_per_query_o1_amortized():
    """Scheduling guard: heap insertions per completed query stay O(1).

    Under the old per-execution reschedule scheme this ratio scaled with
    the concurrent set (O(N) pushes per set change); the single-timer
    engine holds it at a small constant (6.0 here: the arrival, the
    front-end, load and result-posting steps, and ~2 completion-timer
    arms; the machine calls each finisher directly, with no completion
    event).  The bound would catch any return to per-execution
    rescheduling, and any extra kernel event per query.
    """
    env, machine, completed, _wall = _loaded_platform_hour()
    assert completed > 50_000  # the scenario really is loaded
    entries_per_query = env.scheduled_total / completed
    arms_per_completion = machine.timer_arms / machine.completed
    assert entries_per_query < 6.5
    assert arms_per_completion < 3.0
    # dead entries never dominate the heap (compaction invariant)
    assert env.heap_size <= 2 * max(env.live_size, env._COMPACT_MIN)


def test_wall_time_per_simulated_hour(benchmark):
    """One simulated hour of the loaded platform, under the benchmark clock.

    The absolute ceiling is deliberately loose (CI machines vary wildly);
    ``benchmarks/e2e/`` tracks the precise wall-time trajectory.
    """

    def run():
        _env, _machine, completed, wall = _loaded_platform_hour()
        return completed, wall

    completed, wall = benchmark.pedantic(run, rounds=1, iterations=1)
    assert completed > 50_000
    assert wall < 90.0


def _frames_entered(subdir, run):
    """Python frames entered in ``src/repro/<subdir>`` during ``run()``, and its result."""
    import sys
    from pathlib import Path

    import repro

    root = str(Path(repro.__file__).resolve().parent / subdir)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def test_failed_attempt_call_budget():
    """Work guard for the failure path: Python calls into repro per node arrival.

    A short naive leg of the depth-4 dag cascade spends most arrivals on
    attempts that fail: rejected at the door by admission or the
    breaker's drop-tail, shed from a queue, then retried.  Every one of
    them must stay cheap.  The count of Python frames entered in
    ``src/repro`` does not depend on the machine, so it is a gate
    rather than a trajectory: it measured 60.8 per node arrival (73.0
    before the drop sites shared one path), and the bound allows 10%.
    """
    from repro.experiments.dag import dag_scenario
    from repro.graph.runtime import GraphRuntime

    gr = GraphRuntime(dag_scenario(4, seed=0, day=60.0, resilient=False))
    calls, _ = _frames_entered("", gr.run)
    arrivals = sum(m.metrics.load.total for m in gr.services.values())
    assert arrivals > 3000  # the storm really happened
    assert calls / arrivals <= 67.0, (calls, arrivals)


def test_rebalance_call_budget():
    """Work guard for the contention engine: cluster-layer frames per completion.

    A machine completion costs one arrival rebalance and one completion
    rebalance.  Each rebalance is one frame (the pressure vector, the
    slowdown and the stale timer's cancellation are inline) plus the
    armed completion timer, so the loaded three-function platform enters
    9.00 frames in ``src/repro/cluster`` per completion: 11.00 while each
    rebalance called ``pressures()``.  The count does not depend on the
    machine, so it is a gate rather than a trajectory.
    """
    calls, (_env, machine, _completed, _wall) = _frames_entered(
        "cluster", lambda: _loaded_platform_hour(until=300.0)
    )
    assert machine.completed > 5000  # the platform really is loaded
    assert calls / machine.completed <= 9.5, (calls, machine.completed)
