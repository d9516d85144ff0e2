"""End-to-end call-graph runs (the ``dag`` workload family).

:func:`run_graph` is the graph counterpart of
:func:`~repro.experiments.runner.run_amoeba`: one fully seeded
:class:`~repro.graph.GraphScenario` in, one
:class:`~repro.experiments.runner.RunResult` out — per-node
ServiceResults exactly like a flat run's, plus the end-to-end
:class:`~repro.graph.GraphSummary` on ``result.graph``.  Requests are
pure data and results picklable, so graph runs ride the same
``run_many`` pool / run-cache machinery as every other system.
"""

from __future__ import annotations

from typing import Optional

from repro.core import AmoebaConfig
from repro.graph import GraphRuntime, GraphScenario
from repro.experiments.runner import RunResult, collect_service

__all__ = ["run_graph"]


def run_graph(
    scenario: GraphScenario,
    seed: Optional[int] = None,
    config: Optional[AmoebaConfig] = None,
    guard: bool = True,
) -> RunResult:
    """Run one call-graph scenario under full Amoeba management."""
    gr = GraphRuntime(scenario, seed=seed, config=config, guard=guard)
    gr.run()
    rt = gr.rt

    services = {
        name: collect_service(m.spec, m.metrics, m.iaas, rt.serverless, m.engine, m.controller)
        for name, m in gr.services.items()
    }
    return RunResult(
        system="graph",
        duration=scenario.duration,
        services=services,
        meter_overhead=rt.meter_overhead(),
        meter_overheads=rt.monitor.meter_overheads(),
        graph=gr.summary(),
    )
