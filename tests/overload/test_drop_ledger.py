"""Drop-ledger reconciliation: one drop path keeps every count in step.

Every dropped user query passes through ``repro.telemetry.drop_query``,
which counts it once in its service's ``drops{reason}`` family and in
``failed``, and feeds admission, shed and breaker drops to the
governor.  On whole runs with every overload mechanism busy, the three
ledgers must therefore agree exactly, service by service.
"""

from repro.core import AmoebaRuntime
from repro.experiments.dag import dag_scenario
from repro.experiments.scenarios import overload_scenario
from repro.graph.runtime import GraphRuntime
from repro.overload import OverloadPolicy
from repro.workloads import AmbientTenants

REJECTIONS = ("admission", "shed", "breaker")


def _storm_services():
    scenario = overload_scenario(
        "matmul", lambda_factor=2.5, policy=OverloadPolicy(), fault_scale=1.0, day=600.0
    )
    rt = AmoebaRuntime(
        seed=scenario.seed, faults=scenario.faults, overload=scenario.overload, spot=scenario.spot
    )
    if scenario.ambient:
        AmbientTenants(rt.env, rt.serverless.machine, dict(scenario.ambient), rt.rng)
    for spec, trace, limit in scenario.background:
        rt.add_background(spec, trace, limit=limit, reservoir=scenario.reservoir)
    rt.add_service(
        scenario.foreground,
        scenario.trace,
        limit=scenario.limit,
        sizing_rate=scenario.iaas_peak_rate,
        reservoir=scenario.reservoir,
    )
    rt.run(until=scenario.duration)
    return [*rt.services.values(), *rt.background.values()]


def _dag_services(resilient):
    gr = GraphRuntime(dag_scenario(4, seed=0, day=120.0, resilient=resilient))
    gr.run()
    return list(gr.services.values())


def _reconcile(services):
    dropped = 0
    for svc in services:
        m, gov = svc.metrics, svc.overload
        assert m.failed == m.drops.total, svc.spec.name
        assert gov is not None
        for reason in REJECTIONS:
            assert gov.rejections[reason] == m.drops[reason], (svc.spec.name, reason)
        dropped += m.failed
    return dropped


def test_overload_storm_ledgers_agree():
    services = _storm_services()
    assert len(services) > 1  # the co-tenants are reconciled too
    assert _reconcile(services) > 0


def test_dag_pair_ledgers_agree():
    for resilient in (True, False):
        assert _reconcile(_dag_services(resilient)) > 0
