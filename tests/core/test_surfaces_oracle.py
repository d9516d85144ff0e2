"""Differential test: the array surface solver against the scalar oracle.

``repro.core.surfaces`` solves every cell of a surface set in one array
iteration; ``tests/core/oracle_surfaces.py`` keeps the per-cell scalar loop
it replaced.  The solver mirrors ``ContentionConfig.slowdown`` term for
term, so every cell must match the oracle in ``float.hex``, including
cells that exhaust ``max_iter`` and keep their damped iterate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resource_model import ContentionConfig, DemandVector, SensitivityVector
from repro.cluster.spec import CLUSTER_TABLE_II, NodeSpec
from repro.core.surfaces import build_surface_set, service_time_fixed_point
from repro.experiments.scenarios import PEAK_RATES
from repro.workloads import MicroserviceSpec
from repro.workloads.functionbench import BENCHMARKS
from tests.core import oracle_surfaces

NAMES = sorted(BENCHMARKS)


def cell_hexes(surface_set):
    return [[x.hex() for x in s.values.ravel().tolist()] for s in surface_set.surfaces]


def assert_sets_identical(*args, **kwargs):
    new = build_surface_set(*args, **kwargs)
    old = oracle_surfaces.build_surface_set(*args, **kwargs)
    assert cell_hexes(new) == cell_hexes(old)
    assert (new.solo_latency, new.alpha) == (old.solo_latency, old.alpha)
    for a, b in zip(new.surfaces, old.surfaces):
        assert a.pressures.tolist() == b.pressures.tolist()
        assert a.loads.tolist() == b.loads.tolist()


@pytest.mark.parametrize("name", NAMES)
def test_default_grid_matches_oracle(name):
    assert_sets_identical(BENCHMARKS[name])


@pytest.mark.parametrize("name", NAMES)
def test_runtime_grid_matches_oracle(name):
    """The grid AmoebaRuntime builds: Table II serverless node, 2x peak load."""
    assert_sets_identical(
        BENCHMARKS[name], node=CLUSTER_TABLE_II.serverless_node, load_max=2.0 * PEAK_RATES[name]
    )


def test_cell_that_exhausts_max_iter_keeps_the_damped_iterate():
    """cloud_stor at cpu pressure 1.2 and ~0.51 load_max never meets the tolerance."""
    spec = BENCHMARKS["cloud_stor"]
    node = NodeSpec(name="serverless")
    caps = (node.cores, node.disk_mbps, node.net_mbps)
    cfg = ContentionConfig()
    surface = build_surface_set(spec).surfaces[0]
    i, j = 6, 5
    assert surface.pressures[i] == pytest.approx(1.2)
    assert surface.loads[j] / surface.loads[-1] == pytest.approx(0.51, abs=0.01)
    ext, load = (float(surface.pressures[i]), 0.0, 0.0), float(surface.loads[j])
    capped = oracle_surfaces.service_time_fixed_point(spec, ext, load, caps, cfg, max_iter=200)
    # one more iteration moves the result, so the 200-iteration loop fell through
    assert capped != oracle_surfaces.service_time_fixed_point(spec, ext, load, caps, cfg, max_iter=201)
    assert float(surface.values[i, j]).hex() == capped.hex()
    assert service_time_fixed_point(spec, ext, load, caps, cfg).hex() == capped.hex()


def maybe_zero(hi):
    return st.one_of(st.just(0.0), st.floats(0.0, hi))


@st.composite
def specs(draw):
    exec_time = draw(st.floats(0.002, 2.0))
    return MicroserviceSpec(
        name="drawn",
        exec_time=exec_time,
        exec_sigma=0.1,
        demand=DemandVector(
            cpu=draw(maybe_zero(4.0)), io_mbps=draw(maybe_zero(400.0)), net_mbps=draw(maybe_zero(400.0))
        ),
        sensitivity=SensitivityVector(
            cpu=draw(maybe_zero(3.0)), io=draw(maybe_zero(3.0)), net=draw(maybe_zero(3.0))
        ),
        qos_target=exec_time * 10.0,
    )


@st.composite
def contention_configs(draw):
    knee = draw(st.floats(0.1, 1.5))
    return ContentionConfig(
        linear=draw(maybe_zero(0.6)),
        quad=draw(maybe_zero(12.0)),
        knee=knee,
        overlap=draw(st.floats(0.0, 1.0)),
        pressure_cap=knee + draw(st.floats(0.05, 3.0)),
    )


@settings(max_examples=50, deadline=None)
@given(
    spec=specs(),
    contention=contention_configs(),
    pressure_max=st.floats(0.2, 3.0),
    pressure_points=st.integers(2, 9),
    load_max=st.one_of(st.none(), st.floats(0.5, 500.0)),
    load_points=st.integers(2, 8),
)
def test_drawn_specs_match_oracle(spec, contention, pressure_max, pressure_points, load_max, load_points):
    assert_sets_identical(
        spec,
        contention=contention,
        pressure_max=pressure_max,
        pressure_points=pressure_points,
        load_max=load_max,
        load_points=load_points,
    )


def test_one_cell_call_matches_oracle():
    spec = BENCHMARKS["matmul"]
    node = NodeSpec(name="t")
    caps = (node.cores, node.disk_mbps, node.net_mbps)
    cfg = ContentionConfig()
    for ext in ((0.0, 0.0, 0.0), (1.5, 0.3, 0.0), (0.2, 2.0, 1.1)):
        for load in (0.0, 10.0, 100.0):
            got = service_time_fixed_point(spec, ext, load, caps, cfg)
            want = oracle_surfaces.service_time_fixed_point(spec, ext, load, caps, cfg)
            assert isinstance(got, float) and got.hex() == want.hex()


def test_negative_load_rejected_by_the_set_builder():
    with pytest.raises(ValueError, match="load must be >= 0"):
        build_surface_set(BENCHMARKS["float"], load_max=-1.0)
