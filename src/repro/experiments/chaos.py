"""The chaos scenario: fault-rate sweep and QoS-violation deltas.

Runs the standard §VII scenario with the :data:`DEFAULT_CHAOS_PLAN`
scaled across a range of factors (0 = no faults) and reports, per scale:

* how many faults the injector actually fired, per class;
* the runtime's degradation-policy responses (retries, dropped queries,
  aborted switches, force-released drains, safe-mode periods);
* the foreground's QoS violation fraction — plain and counting dropped
  queries — and its *delta* against the zero-fault run of the same seed.

The zero-fault column doubles as the determinism gate: with every rate
at zero the injector makes no RNG draws, so that run is bit-identical to
a run with no fault layer at all (asserted by the chaos tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from repro.experiments.executor import RunRequest, run_many
from repro.experiments.report import FigureResult
from repro.experiments.runner import RunResult
from repro.faults import FaultPlan
from repro.experiments.scenarios import chaos_scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.cache import RunCache

__all__ = ["chaos_sweep"]

#: default fault-scale sweep: off, half, nominal, double
DEFAULT_SCALES: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)


def _fg_violations(result: RunResult, name: str) -> Tuple[float, float]:
    metrics = result.services[name].metrics
    return metrics.violation_fraction, metrics.violation_fraction_with_failures


def chaos_sweep(
    name: str = "matmul",
    day: float = 3600.0,
    seed: int = 0,
    scales: Sequence[float] = DEFAULT_SCALES,
    plan: Optional[FaultPlan] = None,
    workers: Optional[int] = None,
    cache: Union["RunCache", None, bool] = None,
) -> FigureResult:
    """Sweep fault-plan scales; report fault counts and QoS deltas.

    The per-scale runs are independent and fully seeded, so they fan out
    through :func:`~repro.experiments.executor.run_many` — ``workers``/
    ``cache`` default to the process-wide executor configuration, and
    the report is ``float.hex``-identical for any worker count.
    """
    if not scales:
        raise ValueError("need at least one fault scale")
    scenarios = [
        chaos_scenario(name, fault_scale=scale, plan=plan, day=day, seed=seed)
        for scale in scales
    ]
    results = run_many(
        [RunRequest(system="amoeba", scenario=scenario) for scenario in scenarios],
        workers=workers,
        cache=cache,
    )
    rows = []
    runs = {}
    baseline: Optional[Tuple[float, float]] = None
    for scale, scenario, result in zip(scales, scenarios, results):
        runs[scale] = result
        viol, viol_with_drops = _fg_violations(result, scenario.foreground.name)
        if baseline is None:
            baseline = (viol, viol_with_drops)
        fs = result.faults
        assert fs is not None  # chaos scenarios always attach a plan
        fg = result.services[scenario.foreground.name]
        legs = fg.switch_legs
        # the unified dropped{reason} family: chaos runs have no overload
        # layer, so every foreground drop must carry reason "crash"
        fg_drops = fg.metrics.drops
        rows.append(
            [
                scale,
                fs.total_injected,
                fs.query_retries,
                fs.queries_dropped,
                fg_drops["crash"],
                sum(leg.abort_reason is not None for leg in legs),
                len(fg.mode_timeline) - 1,
                sum(leg.forced_drain for leg in legs),
                sum(d.safe_mode for d in fg.decisions),
                viol,
                viol_with_drops,
                viol_with_drops - baseline[1],
            ]
        )
    return FigureResult(
        figure="chaos",
        title=f"fault sweep on {name!r} (seed {seed}, day {day:g}s)",
        headers=[
            "scale",
            "injected",
            "retries",
            "dropped",
            "fg_crash_drops",
            "aborted_sw",
            "switches",
            "forced_drains",
            "safe_periods",
            "viol_frac",
            "viol_w_drops",
            "delta_vs_0",
        ],
        rows=rows,
        notes=(
            "delta_vs_0 = QoS violation fraction (drops counted as violations) "
            "minus the zero-fault run's; scale 0 is the determinism baseline."
        ),
        extras={"runs": runs},
    )
