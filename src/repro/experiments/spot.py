"""The ``spot`` sweep: preemption rate x flash-crowd intensity frontier.

Spot-backed rentals buy the discounted :class:`~repro.cluster.SpotSpec`
share of every managed IaaS rental at the risk of reclamation; flash
crowds stack seeded spike trains on the diurnal trace.  This sweep scans
both axes through the standard :func:`~repro.experiments.executor.run_many`
pool/cache machinery and reports the QoS/cost frontier: how much of the
on-demand bill the spot share saves, and what the preemption and surge
machinery pay (or avoid paying) for it in QoS violations.

The acceptance claim (the preemption-storm gate in
``tests/experiments/test_spot.py``): with half the rental on spot
capacity and a guaranteed reclamation, the graceful
drain protocol keeps the QoS-violation fraction (drops counted as
violations) at or under :data:`GRACEFUL_VIOLATION_BOUND` while the
no-notice hard-kill baseline exceeds :data:`HARDKILL_VIOLATION_FLOOR`
on the same scenario — and both legs are ``float.hex``-deterministic
across reruns and worker counts.

CLI: ``python -m repro.experiments spot [--seed S --day D]``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.cluster.pricing import PricingModel
from repro.experiments.executor import RunRequest, run_many
from repro.experiments.report import FigureResult
from repro.experiments.runner import RunResult
from repro.experiments.scenarios import (
    PEAK_RATES,
    Scenario,
    concurrency_threshold,
    sized_reservoir,
    spot_scenario,
)
from repro.overload import OverloadPolicy
from repro.workloads import ConstantTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.cache import RunCache

__all__ = ["preemption_comparison", "spot_comparison_scenario", "spot_sweep"]

#: default simulated duration of one spot-sweep run, seconds
SPOT_DAY = 600.0
#: duration of the storm-gate comparison pair, seconds — short enough
#: that the reclamation window dominates the run
COMPARISON_DAY = 240.0
#: acceptance bound on the graceful-drain leg's violation fraction
#: (with drops counted as violations) at spot fraction 0.5
GRACEFUL_VIOLATION_BOUND = 0.10
#: floor the no-notice hard-kill baseline must exceed on the same
#: scenario for the drain protocol's value to be demonstrated
HARDKILL_VIOLATION_FLOOR = 0.25
#: preemption-probability axis of the sweep (per check interval)
PREEMPTION_GRID = (0.0, 0.5, 1.0)
#: flash-crowd magnitude axis, as a fraction of the nominal peak rate
SPIKE_GRID = (0.0, 0.5)
#: spot share of the rental used across the sweep and the gate
SPOT_FRACTION = 0.5


def spot_comparison_scenario(
    graceful: bool,
    name: str = "matmul",
    spot_fraction: float = SPOT_FRACTION,
    seed: int = 0,
    day: float = COMPARISON_DAY,
) -> Scenario:
    """One leg of the storm-gate pair: peak load pinned to the IaaS path.

    The foreground runs at its full nominal peak on a constant trace
    with the serverless concurrency threshold squeezed far below what
    that load needs, so neither the controller nor the emergency
    preemption hook can move the service off the doomed rental — the
    reclamation must be absorbed by the drain protocol (or not, on the
    hard-kill leg).  Reclamation is guaranteed at the first preemption
    check, so the damaged window is a fixed share of the short run.
    """
    peak = PEAK_RATES[name]
    base = spot_scenario(
        name,
        spot_fraction=spot_fraction,
        preemption_prob=1.0,
        graceful=graceful,
        day=day,
        seed=seed,
    )
    trace = ConstantTrace(peak)
    # a ceiling sized for ~30% of peak: serverless is never QoS-feasible
    # at this load, which pins the run to the spot-backed rental
    limit = concurrency_threshold(base.foreground, peak, fraction=0.3)
    return replace(
        base,
        trace=trace,
        limit=limit,
        background=(),
        ambient=(),
        reservoir=sized_reservoir(trace, day),
    )


def preemption_comparison(
    name: str = "matmul",
    spot_fraction: float = SPOT_FRACTION,
    seed: int = 0,
    day: float = COMPARISON_DAY,
    workers: Optional[int] = None,
    cache: Union["RunCache", None, bool] = None,
) -> Dict[str, RunResult]:
    """The graceful-vs-hard-kill pair behind the preemption-storm gate."""
    requests = [
        RunRequest(
            system="amoeba",
            scenario=spot_comparison_scenario(
                graceful, name=name, spot_fraction=spot_fraction, seed=seed, day=day
            ),
        )
        for graceful in (True, False)
    ]
    graceful_run, hardkill_run = run_many(requests, workers=workers, cache=cache)
    return {"graceful": graceful_run, "hardkill": hardkill_run}


def spot_sweep(
    day: float = SPOT_DAY,
    seed: int = 0,
    name: str = "matmul",
    probs: Sequence[float] = PREEMPTION_GRID,
    spikes: Sequence[float] = SPIKE_GRID,
    workers: Optional[int] = None,
    cache: Union["RunCache", None, bool] = None,
) -> FigureResult:
    """Preemption rate x spike intensity: the QoS/cost frontier table.

    Every (probability, spike, reclamation mode) cell is one seeded run
    fanned out through :func:`~repro.experiments.executor.run_many`
    (worker-count ``float.hex``-invariant, cache-eligible), plus one
    all-on-demand baseline per spike level for cost normalization.  All
    cells carry an enabled :class:`~repro.overload.OverloadPolicy`, so
    the surge detector and the preemption counters surface through the
    :class:`~repro.experiments.metrics.OverloadSummary`.
    """
    if not probs or not spikes:
        raise ValueError("need at least one preemption probability and one spike level")
    requests: List[RunRequest] = []
    cells: List[tuple] = []
    for spike in spikes:
        baseline = replace(
            spot_scenario(
                name, spot_fraction=SPOT_FRACTION, preemption_prob=0.0,
                spike_magnitude=spike, policy=OverloadPolicy(), day=day, seed=seed,
            ),
            spot=None,
            faults=None,
        )
        requests.append(RunRequest(system="amoeba", scenario=baseline))
        cells.append((0.0, spike, "ondemand"))
        for prob in probs:
            for graceful in (True, False):
                requests.append(
                    RunRequest(
                        system="amoeba",
                        scenario=spot_scenario(
                            name,
                            spot_fraction=SPOT_FRACTION,
                            preemption_prob=prob,
                            graceful=graceful,
                            spike_magnitude=spike,
                            policy=OverloadPolicy(),
                            day=day,
                            seed=seed,
                        ),
                    )
                )
                cells.append((prob, spike, "graceful" if graceful else "hardkill"))
    results = run_many(requests, workers=workers, cache=cache)

    pricing = PricingModel()
    baseline_cost: Dict[float, float] = {}
    for (prob, spike, mode), result in zip(cells, results):
        if mode == "ondemand":
            baseline_cost[spike] = result.services[name].cost(pricing).total

    rows: List[list] = []
    for (prob, spike, mode), result in zip(cells, results):
        fg = result.services[name]
        cost = fg.cost(pricing).total
        base = baseline_cost[spike]
        savings = 1.0 - cost / base if base > 0 else 0.0
        preempt = fg.metrics.preemptions
        rows.append(
            [
                prob,
                spike,
                mode,
                fg.metrics.violation_fraction,
                fg.metrics.violation_fraction_with_failures,
                preempt["noticed"],
                preempt["drained"],
                preempt["killed_inflight"],
                preempt["replaced"],
                sum(leg.emergency for leg in fg.switch_legs),
                sum(d.surge for d in fg.decisions),
                cost,
                savings,
            ]
        )
    return FigureResult(
        figure="spot",
        title=(
            f"spot preemption x flash crowds at spot fraction {SPOT_FRACTION:g} "
            f"(seed {seed}, day {day:g}s, {name})"
        ),
        headers=[
            "preempt_p",
            "spike",
            "mode",
            "viol_frac",
            "viol_w_fail",
            "noticed",
            "drained",
            "killed",
            "replaced",
            "em_switches",
            "surge_periods",
            "cost_usd",
            "savings",
        ],
        rows=rows,
        notes=(
            "preempt_p is the per-check reclamation probability of the spot "
            "share; spike the flash-crowd magnitude as a fraction of the "
            "nominal peak.  mode ondemand = all-on-demand baseline (the cost "
            "denominator per spike level); graceful = 120s-notice drain "
            "protocol; hardkill = no-notice reclamation.  viol_w_fail counts "
            "dropped queries as violations; savings is the cost reduction "
            "vs the same-spike on-demand baseline.  em_switches counts "
            "emergency serverless switch-ins taken on a preemption notice; "
            "surge_periods the controller periods with the flash-crowd "
            "detector tripped."
        ),
    )
