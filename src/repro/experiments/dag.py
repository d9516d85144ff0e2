"""The ``dag`` sweep: call-graph chains under cascade failure.

Drives :class:`~repro.graph.GraphScenario` chains through the standard
``run_many`` pool/cache machinery at a fixed overload factor with a
mid-chain brownout burst, and compares two retry disciplines per depth:

* **budgeted** — bounded attempts, deadline-aware give-up, deadline
  propagation and graph-aware backpressure on (the resilient stack);
* **naive** — a deadline-blind high-cap retry client with backpressure
  and propagation off (the retry-storm baseline).

The acceptance claim (the retry-storm gate in
``tests/experiments/test_dag.py``): at 2.5x overload on a 4-deep chain
the budgeted stack keeps the end-to-end QoS-violation rate
of completed requests under :data:`VIOLATION_BOUND` while the naive
baseline exceeds it and issues an order of magnitude more retries —
and both legs are ``float.hex``-deterministic across reruns and worker
counts.

CLI: ``python -m repro.experiments dag [--depth N --seed S --day D]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.experiments.executor import RunRequest, run_many
from repro.experiments.report import FigureResult
from repro.experiments.scenarios import sized_reservoir
from repro.graph import (
    BrownoutSpec,
    GraphScenario,
    GraphSummary,
    RetryPolicy,
    chain_topology,
)
from repro.overload import OverloadPolicy
from repro.workloads import ConstantTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.cache import RunCache

__all__ = ["dag_scenario", "dag_sweep", "storm_comparison"]

#: default simulated duration of one dag run, seconds
DAG_DAY = 240.0
#: chain-length ablation points
DEFAULT_DEPTHS = (1, 2, 4, 6)
#: offered load as a multiple of what the per-node rentals are sized for
OVERLOAD_FACTOR = 2.5
#: nominal per-node rate the rentals are sized for, queries/s
NOMINAL_RATE = 2.0
#: per-node end-to-end budget share used for the default target, seconds
E2E_PER_NODE = 0.75
#: acceptance bound on the budgeted stack's end-to-end violation
#: fraction (completed requests) at 2.5x overload, 4-deep chain
VIOLATION_BOUND = 0.10
#: interfering brownout load aimed at the mid-chain node, queries/s
BROWNOUT_RATE = 60.0


def dag_scenario(
    depth: int,
    seed: int = 0,
    day: float = DAG_DAY,
    factor: float = OVERLOAD_FACTOR,
    resilient: bool = True,
    benchmark_name: str = "matmul",
    e2e_target: Optional[float] = None,
    brownout_rate: float = BROWNOUT_RATE,
) -> GraphScenario:
    """A chain-of-``depth`` cascade scenario at ``factor``x overload.

    The rentals are sized for :data:`NOMINAL_RATE` while the root trace
    offers ``factor`` times that; the middle node additionally takes a
    :data:`BROWNOUT_RATE` interference burst over the middle half of the
    run.  ``resilient`` selects the budgeted/deadline-aware/backpressure
    stack; False selects the naive storm baseline.
    """
    topo = chain_topology(depth, benchmark_name)
    mid = topo.nodes[depth // 2].name
    return GraphScenario(
        name=f"dag-chain{depth}-{'budgeted' if resilient else 'naive'}",
        topology=topo,
        trace=ConstantTrace(NOMINAL_RATE * factor),
        e2e_target=e2e_target if e2e_target is not None else E2E_PER_NODE * depth,
        duration=day,
        seed=seed,
        retry=RetryPolicy.budgeted() if resilient else RetryPolicy.storm(),
        backpressure=resilient,
        propagate_deadlines=resilient,
        overload=OverloadPolicy(),
        iaas_peak_rate=NOMINAL_RATE,
        reservoir=sized_reservoir(ConstantTrace(NOMINAL_RATE * factor), day),
        brownout=BrownoutSpec(
            node=mid, t_start=0.25 * day, t_end=0.75 * day, rate=brownout_rate
        ),
    )


def storm_comparison(
    depth: int = 4,
    seed: int = 0,
    day: float = DAG_DAY,
    workers: Optional[int] = None,
    cache: Union["RunCache", None, bool] = None,
) -> Dict[str, GraphSummary]:
    """The budgeted-vs-naive pair behind the retry-storm acceptance gate."""
    requests = [
        RunRequest(system="graph", scenario=dag_scenario(depth, seed=seed, day=day)),
        RunRequest(
            system="graph", scenario=dag_scenario(depth, seed=seed, day=day, resilient=False)
        ),
    ]
    budgeted, naive = run_many(requests, workers=workers, cache=cache)
    assert budgeted.graph is not None and naive.graph is not None
    return {"budgeted": budgeted.graph, "naive": naive.graph}


def dag_sweep(
    day: float = DAG_DAY,
    seed: int = 0,
    depths: Sequence[int] = DEFAULT_DEPTHS,
    workers: Optional[int] = None,
    cache: Union["RunCache", None, bool] = None,
) -> FigureResult:
    """Chain-length ablation: budgeted vs naive resilience per depth.

    Every (depth, discipline) leg is one independent seeded graph run
    fanned out through :func:`~repro.experiments.executor.run_many`, so
    the table is ``float.hex``-identical for any worker count and every
    leg lands in the content-addressed run cache.
    """
    if not depths:
        raise ValueError("need at least one chain depth")
    requests = []
    for depth in depths:
        for resilient in (True, False):
            requests.append(
                RunRequest(
                    system="graph",
                    scenario=dag_scenario(depth, seed=seed, day=day, resilient=resilient),
                )
            )
    results = run_many(requests, workers=workers, cache=cache)
    rows: List[list] = []
    summaries: Dict[int, Dict[str, GraphSummary]] = {}
    for i, depth in enumerate(depths):
        pair = {}
        for j, label in enumerate(("budgeted", "naive")):
            summary = results[2 * i + j].graph
            assert summary is not None
            pair[label] = summary
            rows.append(
                [
                    depth,
                    label,
                    summary.e2e_target,
                    summary.offered,
                    summary.completed,
                    summary.failed,
                    summary.violations,
                    summary.violation_fraction,
                    summary.violation_fraction_with_failures,
                    summary.retries.get("attempted", 0),
                    summary.retries.get("exhausted", 0),
                    summary.retries.get("deadline_abandoned", 0),
                    summary.total_backpressure_sheds,
                    summary.p95(),
                ]
            )
        summaries[depth] = pair
    return FigureResult(
        figure="dag",
        title=(
            f"call-graph chains at {OVERLOAD_FACTOR:g}x overload with mid-chain "
            f"brownout (seed {seed}, day {day:g}s, matmul)"
        ),
        headers=[
            "depth",
            "retry",
            "e2e_qos",
            "offered",
            "completed",
            "failed",
            "viol",
            "viol_frac",
            "viol_w_fail",
            "r_attempted",
            "r_exhausted",
            "r_deadline",
            "bp_sheds",
            "e2e_p95",
        ],
        rows=rows,
        notes=(
            "budgeted = bounded deadline-aware retries + deadline propagation "
            "+ graph-aware backpressure; naive = deadline-blind 64-attempt "
            "client, no propagation, no backpressure.  viol_frac is over "
            "completed requests; viol_w_fail counts abandoned requests as "
            "violations.  r_* is the unified retries{kind} family summed over "
            "nodes; bp_sheds the dispatches shed at an edge whose target was "
            "browned out."
        ),
        extras={"summaries": summaries},
    )
