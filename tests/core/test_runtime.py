"""AmoebaRuntime end-to-end wiring."""

import pytest

from repro.core.config import AmoebaConfig
from repro.core.engine import DeployMode
from repro.core.runtime import AmoebaRuntime
from repro.workloads.functionbench import benchmark
from repro.workloads.traces import ConstantTrace, DiurnalTrace

FAST = AmoebaConfig(min_sample_period=10.0, max_sample_period=10.0, min_dwell=30.0)


def test_monitor_started_with_meters():
    rt = AmoebaRuntime(seed=1)
    assert set(rt.serverless.pool.registered()) == {"meter_cpu", "meter_io", "meter_net"}


def test_add_service_wires_everything():
    rt = AmoebaRuntime(seed=1, config=FAST)
    svc = rt.add_service(benchmark("float"), ConstantTrace(5.0))
    assert svc.engine.mode is DeployMode.IAAS
    assert svc.iaas.state.value == "running"
    assert "float" in rt.serverless.pool.registered()
    assert rt.monitor.surfaces("float").service == "float"


def test_duplicate_service_rejected():
    rt = AmoebaRuntime(seed=1)
    rt.add_service(benchmark("float"), ConstantTrace(5.0))
    with pytest.raises(ValueError):
        rt.add_service(benchmark("float"), ConstantTrace(5.0))
    with pytest.raises(ValueError):
        rt.add_background(benchmark("float"), ConstantTrace(1.0))


def test_background_always_serverless():
    rt = AmoebaRuntime(seed=1, config=FAST)
    bg = rt.add_background(benchmark("dd"), ConstantTrace(2.0))
    rt.run(until=120.0)
    assert bg.metrics.completed > 100
    assert rt.serverless.pool.state("dd").completions == bg.metrics.completed


def test_service_usage_combines_both_sides():
    rt = AmoebaRuntime(seed=2, config=FAST)
    svc = rt.add_service(benchmark("float"), ConstantTrace(4.0), limit=6)
    rt.run(until=400.0)
    usage = rt.service_usage("float")
    iaas = svc.iaas.ledger.snapshot()
    sls = rt.serverless.function_ledger("float").snapshot()
    assert usage.cpu_core_seconds == pytest.approx(
        iaas.cpu_core_seconds + sls.cpu_core_seconds
    )
    # switched to serverless at low load: both sides saw some usage
    assert iaas.cpu_core_seconds > 0
    assert sls.cpu_core_seconds > 0


def test_meter_overhead_reported():
    rt = AmoebaRuntime(seed=1)
    rt.run(until=200.0)
    total = rt.meter_overhead()
    per_meter = rt.monitor.meter_overheads()
    assert total == pytest.approx(sum(per_meter.values()))
    assert 0.0 < total < 0.02


def test_nop_config_disables_warm_reuse():
    rt = AmoebaRuntime(seed=1, config=FAST.variant_nop())
    rt.add_service(benchmark("float"), ConstantTrace(3.0), limit=6)
    fs = rt.serverless.pool.state("float")
    assert fs.keep_alive == 0.0


def test_full_diurnal_run_meets_qos():
    """The headline claim on one compressed day: QoS met, resources saved."""
    rt = AmoebaRuntime(seed=3)
    trace = DiurnalTrace(peak_rate=20.0, day=1800.0, seed=5)
    svc = rt.add_service(benchmark("float"), trace, limit=5)
    rt.run(until=1800.0)
    m = svc.metrics
    assert m.completed > 5000
    assert m.latency_percentile(95) <= svc.spec.qos_target
    usage = rt.service_usage("float")
    # strictly less than holding the whole rental all day
    full_rental = svc.iaas.sizing.rented_cores
    assert usage.mean_cores < full_rental


def test_deterministic_given_seed():
    def run_once():
        rt = AmoebaRuntime(seed=11, config=FAST)
        svc = rt.add_service(benchmark("float"), ConstantTrace(5.0), limit=6)
        rt.run(until=200.0)
        return (
            svc.metrics.completed,
            svc.metrics.latency_percentile(95),
            len(svc.engine.legs),
        )

    assert run_once() == run_once()
