"""Latency surfaces: fixed point, interpolation, measured-vs-analytic."""

import numpy as np
import pytest

from repro.cluster.resource_model import ContentionConfig
from repro.cluster.spec import NodeSpec
from repro.core.surfaces import (
    LatencySurface,
    SurfaceSet,
    build_surface_set,
    measured_surface,
    service_time_fixed_point,
)
from repro.workloads.functionbench import benchmark

NODE = NodeSpec(name="t")
CAPS = (NODE.cores, NODE.disk_mbps, NODE.net_mbps)
CFG = ContentionConfig()


class TestFixedPoint:
    def test_zero_load_zero_pressure_is_exec_time(self):
        spec = benchmark("float")
        s = service_time_fixed_point(spec, (0.0, 0.0, 0.0), 0.0, CAPS, CFG)
        assert s == pytest.approx(spec.exec_time)

    def test_grows_with_external_pressure(self):
        spec = benchmark("float")
        vals = [
            service_time_fixed_point(spec, (p, 0.0, 0.0), 0.0, CAPS, CFG)
            for p in (0.0, 0.5, 1.0, 1.5)
        ]
        assert vals == sorted(vals)
        assert vals[-1] > vals[0]

    def test_grows_with_own_load(self):
        spec = benchmark("matmul")
        vals = [
            service_time_fixed_point(spec, (0.0, 0.0, 0.0), v, CAPS, CFG)
            for v in (0.0, 10.0, 40.0, 80.0)
        ]
        assert vals == sorted(vals)

    def test_insensitive_axis_ignored(self):
        spec = benchmark("float")  # io sensitivity 0.05, tiny
        base = service_time_fixed_point(spec, (0.0, 0.0, 0.0), 0.0, CAPS, CFG)
        with_io = service_time_fixed_point(spec, (0.0, 1.0, 0.0), 0.0, CAPS, CFG)
        assert with_io < base * 1.05

    def test_converges_at_heavy_load(self):
        spec = benchmark("matmul")
        s = service_time_fixed_point(spec, (1.5, 0.0, 0.0), 100.0, CAPS, CFG)
        assert np.isfinite(s)
        assert s > spec.exec_time

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            service_time_fixed_point(benchmark("float"), (0, 0, 0), -1.0, CAPS, CFG)


class TestLatencySurface:
    def surface(self):
        p = np.array([0.0, 1.0])
        v = np.array([0.0, 10.0])
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        return LatencySurface("s", 0, p, v, z)

    def test_exact_on_grid_nodes(self):
        s = self.surface()
        assert s.predict(0.0, 0.0) == 1.0
        assert s.predict(1.0, 0.0) == 3.0
        assert s.predict(0.0, 10.0) == 2.0
        assert s.predict(1.0, 10.0) == 4.0

    def test_bilinear_midpoint(self):
        assert self.surface().predict(0.5, 5.0) == pytest.approx(2.5)

    def test_clamped_outside_grid(self):
        s = self.surface()
        assert s.predict(-1.0, -5.0) == 1.0
        assert s.predict(9.0, 99.0) == 4.0

    def test_predict_matches_numpy_reference(self):
        """The plain-float lookup equals the numpy clip/searchsorted version bit for bit."""

        def reference(s, pressure, load):
            p = float(np.clip(pressure, s.pressures[0], s.pressures[-1]))
            v = float(np.clip(load, s.loads[0], s.loads[-1]))
            i = int(np.searchsorted(s.pressures, p, side="right")) - 1
            j = int(np.searchsorted(s.loads, v, side="right")) - 1
            i = min(max(i, 0), s.pressures.size - 2)
            j = min(max(j, 0), s.loads.size - 2)
            p0, p1 = s.pressures[i], s.pressures[i + 1]
            v0, v1 = s.loads[j], s.loads[j + 1]
            fp = (p - p0) / (p1 - p0)
            fv = (v - v0) / (v1 - v0)
            z = s.values
            return float(
                z[i, j] * (1 - fp) * (1 - fv)
                + z[i + 1, j] * fp * (1 - fv)
                + z[i, j + 1] * (1 - fp) * fv
                + z[i + 1, j + 1] * fp * fv
            )

        rng = np.random.default_rng(5)
        for name in ("float", "cloud_stor"):
            for s in build_surface_set(benchmark(name)).surfaces:
                # 10% beyond each end of both grids exercises the clamps;
                # the grid nodes themselves hit the bisect boundaries
                ps = rng.uniform(-0.1, 1.1, 300) * s.pressures[-1]
                vs = rng.uniform(-0.1, 1.1, 300) * s.loads[-1]
                points = list(zip(ps.tolist(), vs.tolist()))
                points += [(p, v) for p in s.pressures.tolist() for v in s.loads.tolist()]
                for p, v in points:
                    got = s.predict(p, v)
                    assert isinstance(got, float)
                    assert got.hex() == reference(s, p, v).hex(), (name, s.axis, p, v)

    def test_validation(self):
        p = np.array([0.0, 1.0])
        v = np.array([0.0, 10.0])
        with pytest.raises(ValueError):
            LatencySurface("s", 0, p, v, np.ones((3, 2)))
        with pytest.raises(ValueError):
            LatencySurface("s", 0, p[::-1], v, np.ones((2, 2)))
        with pytest.raises(ValueError):
            LatencySurface("s", 0, p, v, np.zeros((2, 2)))


class TestSurfaceSet:
    def test_build_produces_three_axes(self):
        ss = build_surface_set(benchmark("dd"))
        assert len(ss.surfaces) == 3
        assert ss.solo_latency == benchmark("dd").exec_time
        assert ss.alpha > 0

    def test_axis_latencies_reflect_sensitivity(self):
        ss = build_surface_set(benchmark("dd"))  # io-heavy
        L = ss.axis_latencies((1.2, 1.2, 1.2), 5.0)
        assert L[1] > L[0]  # io degradation dominates for dd
        assert L[1] > L[2]

    def test_axis_latencies_at_zero(self):
        ss = build_surface_set(benchmark("float"))
        L = ss.axis_latencies((0.0, 0.0, 0.0), 0.0)
        assert np.allclose(L, benchmark("float").exec_time, rtol=1e-6)

    def test_wrong_axis_order_rejected(self):
        ss = build_surface_set(benchmark("float"))
        with pytest.raises(ValueError):
            SurfaceSet(
                service="x",
                surfaces=(ss.surfaces[1], ss.surfaces[0], ss.surfaces[2]),
                solo_latency=1.0,
                alpha=0.0,
            )

    def test_monotone_in_pressure(self):
        ss = build_surface_set(benchmark("matmul"))
        vals = [ss.surfaces[0].predict(p, 5.0) for p in (0.0, 0.4, 0.8, 1.2, 1.6)]
        assert vals == sorted(vals)


class TestMeasuredSurface:
    def test_measured_close_to_analytic(self):
        """Mini-simulation profiling agrees with the closed-form surface."""
        spec = benchmark("float")
        surf = measured_surface(
            spec, axis=0, pressures=(0.0, 1.0), loads=(0.0, 4.0), duration=60.0, seed=2
        )
        analytic = build_surface_set(spec)
        for i, p in enumerate(surf.pressures):
            for j, v in enumerate(surf.loads):
                expected = analytic.surfaces[0].predict(float(p), float(v))
                assert float(surf.values[i, j]) == pytest.approx(expected, rel=0.2)
