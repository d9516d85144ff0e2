"""Vendor-scale portfolio runs: many managed services on one platform.

The paper evaluates one managed benchmark at a time, but Amoeba "is a
system designed for Cloud vendors" (§III) — in production many managed
microservices share the serverless node, interact through its pressure,
and guard each other's QoS on switch-ins.  This extension runs the whole
Table III suite under one Amoeba runtime with phase-staggered diurnal
days and reports per-service QoS and savings.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core import AmoebaConfig, AmoebaRuntime
from repro.experiments.executor import RunRequest, run_many
from repro.experiments.report import FigureResult
from repro.experiments.scenarios import (
    PEAK_RATES,
    SERVERLESS_FRACTIONS,
    ambient_pressure_traces,
    concurrency_threshold,
)
from repro.experiments.scenarios import Scenario
from repro.workloads import AmbientTenants, DiurnalTrace, benchmark, benchmark_names

__all__ = ["portfolio_figure", "run_portfolio"]


def run_portfolio(
    day: float = 3600.0,
    seed: int = 0,
    config: Optional[AmoebaConfig] = None,
    names: Tuple[str, ...] = (),
    ambient: bool = True,
) -> Tuple[AmoebaRuntime, Dict[str, DiurnalTrace]]:
    """All (or the named) Table III services under one Amoeba runtime.

    Services' diurnal days are phase-staggered so their peaks do not
    coincide — each one's low window falls while others are busy, which
    is when the co-tenant guard earns its keep.  Returns the runtime
    (already run to ``day``) and each service's trace.
    """
    names = names if names else benchmark_names()
    rt = AmoebaRuntime(seed=seed, config=config)
    if ambient:
        # milder ambient pressure than the single-service scenarios: the
        # managed portfolio itself already populates the platform
        traces = {
            axis: replace_peak(trace, 0.6)
            for axis, trace in ambient_pressure_traces(day=day, seed=seed + 300)
        }
        AmbientTenants(rt.env, rt.serverless.machine, traces, rt.rng)
    out_traces: Dict[str, DiurnalTrace] = {}
    for i, name in enumerate(names):
        spec = benchmark(name)
        trace = DiurnalTrace(
            peak_rate=PEAK_RATES[name],
            seed=seed + 7 + i,
            phase=(i / len(names)) * day,
            day=day,
            noise_sigma=0.05,
        )
        limit = concurrency_threshold(spec, PEAK_RATES[name], SERVERLESS_FRACTIONS[name])
        rt.add_service(spec, trace, limit=limit)
        out_traces[name] = trace
    rt.run(until=day)
    return rt, out_traces


def replace_peak(trace: DiurnalTrace, factor: float) -> DiurnalTrace:
    """A copy of a diurnal trace with its peak scaled by ``factor``."""
    return DiurnalTrace(
        peak_rate=trace.peak_rate * factor,
        low_fraction=trace.low_fraction,
        morning_fraction=trace.morning_fraction,
        noise_sigma=trace.noise_sigma,
        seed=0,
        phase=trace.phase,
        day=trace.day,
    )


def portfolio_figure(day: float = 3600.0, seed: int = 0) -> FigureResult:
    """Portfolio run summarized against per-service Nameko baselines.

    The per-service baselines are independent seeded runs, so they fan
    out through :func:`~repro.experiments.executor.run_many` (and share
    the run cache with any other figure that needs them).
    """
    rt, traces = run_portfolio(day=day, seed=seed)
    # per-service Nameko baselines: the same trace, held rental
    scenarios = {
        name: Scenario(
            foreground=rt.services[name].spec,
            trace=traces[name],
            limit=8,
            background=(),
            duration=day,
            seed=seed,
        )
        for name in traces
    }
    baselines = run_many(
        [RunRequest(system="nameko", scenario=scenarios[name]) for name in traces]
    )
    rows = []
    extras = {}
    for name, baseline_run in zip(traces, baselines):
        svc = rt.services[name]
        usage = rt.service_usage(name)
        scenario = scenarios[name]
        baseline = baseline_run.foreground(scenario).usage
        cpu_ratio, mem_ratio = usage.normalized_to(baseline)
        p95_ratio = svc.metrics.latency_percentile(95) / svc.spec.qos_target
        extras[name] = {
            "cpu_ratio": cpu_ratio,
            "mem_ratio": mem_ratio,
            "switches": list(svc.engine.legs),
        }
        rows.append(
            [
                name,
                p95_ratio,
                svc.metrics.violation_fraction,
                cpu_ratio,
                mem_ratio,
                len(svc.engine.legs),
            ]
        )
    return FigureResult(
        figure="Portfolio",
        title="all Table III services managed concurrently by one Amoeba",
        headers=["service", "p95 / QoS", "violations", "cpu vs nameko", "mem vs nameko", "switches"],
        rows=rows,
        notes="extension beyond the paper's one-service-at-a-time evaluation",
        extras=extras,
    )
