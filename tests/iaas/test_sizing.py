"""Just-enough IaaS sizing."""

import pytest

from repro.cluster.resource_model import ContentionConfig
from repro.iaas.sizing import SizingResult, effective_service_time, size_service
from repro.iaas.vm import VMFlavor
from repro.workloads.functionbench import benchmark, benchmark_names


def test_sizing_result_properties():
    r = size_service(benchmark("float"), peak_rate=30.0)
    assert r.rented_cores == r.vm_count * r.flavor.cores
    assert r.rented_memory_mb == r.vm_count * r.flavor.memory_mb
    assert r.workers >= 1 and r.vm_count >= 1


def test_validation():
    with pytest.raises(ValueError):
        size_service(benchmark("float"), peak_rate=0.0)
    with pytest.raises(ValueError):
        size_service(benchmark("float"), peak_rate=1.0, qos_margin=0.0)


def test_higher_peak_needs_no_fewer_resources():
    lo = size_service(benchmark("matmul"), peak_rate=5.0)
    hi = size_service(benchmark("matmul"), peak_rate=20.0)
    assert hi.rented_cores >= lo.rented_cores
    assert hi.workers >= lo.workers


def test_all_benchmarks_sizable_at_default_peaks():
    from repro.experiments.scenarios import PEAK_RATES

    for name in benchmark_names():
        r = size_service(benchmark(name), peak_rate=PEAK_RATES[name])
        assert r.vm_count <= 10  # sane scale


def test_bandwidth_bound_services_rent_more_cores_than_they_use():
    """cloud_stor rents for NIC bandwidth, not CPU (Fig. 2's story)."""
    spec = benchmark("cloud_stor")
    r = size_service(spec, peak_rate=12.0)
    peak_cpu_demand = 12.0 * spec.exec_time * spec.demand.cpu
    assert r.rented_cores > 3 * peak_cpu_demand


def test_effective_service_time_grows_with_workers():
    spec = benchmark("matmul")
    cfg = ContentionConfig()
    f = VMFlavor()
    s1 = effective_service_time(spec, workers=2, vm_count=1, flavor=f, contention=cfg)
    s2 = effective_service_time(spec, workers=4, vm_count=1, flavor=f, contention=cfg)
    assert s2 > s1 > spec.exec_time


def test_effective_service_time_validation():
    with pytest.raises(ValueError):
        effective_service_time(
            benchmark("float"), workers=0, vm_count=1, flavor=VMFlavor(), contention=ContentionConfig()
        )


def test_unsizable_raises():
    spec = benchmark("float").with_qos(0.0809)  # nearly no headroom over exec
    with pytest.raises(ValueError):
        size_service(spec, peak_rate=500.0, max_vms=2)


def test_sized_deployment_meets_qos_in_simulation():
    """The sizing promise, checked end-to-end at peak load."""
    from repro.iaas.platform import IaaSPlatform
    from repro.sim.environment import Environment
    from repro.sim.rng import RngRegistry
    from repro.telemetry import ServiceMetrics
    from repro.workloads.loadgen import LoadGenerator
    from repro.workloads.traces import ConstantTrace

    spec = benchmark("float")
    env = Environment()
    rng = RngRegistry(seed=2)
    platform = IaaSPlatform(env, rng)
    metrics = ServiceMetrics("float", spec.qos_target)
    platform.deploy(spec, peak_rate=30.0, metrics=metrics)
    LoadGenerator(env, "float", ConstantTrace(30.0), platform.invoke, rng)
    env.run(until=200.0)
    assert metrics.completed > 4000
    assert metrics.latency_percentile(95) <= spec.qos_target


def test_fleet_scale_sizing_survives_large_n():
    """Sizing at hundreds of qps walks worker counts into the hundreds.

    Before the log-space Eq. 1 rewrite the inner qos_satisfied probe
    could hit the pi0 underflow (ValueError: math domain error) once n
    crossed ~700; this pins the large-N path end to end.
    """
    spec = benchmark("float")
    sizing = size_service(spec, peak_rate=500.0, max_vms=512)
    n, k = sizing.workers, sizing.vm_count
    assert n >= 1 and k >= 1
    # the chosen rental really is QoS-feasible at peak
    from repro.sim.queueing import qos_satisfied

    s_eff = effective_service_time(spec, n, k, sizing.flavor, ContentionConfig())
    assert qos_satisfied(500.0, 1.0 / s_eff, n, spec.qos_target * 0.90)
