"""Test-only oracle: the scalar latency-surface builder, kept verbatim.

This is the ``service_time_fixed_point`` / ``build_surface_set`` pair that
``repro.core.surfaces`` shipped before the array solve: every grid cell
runs its own damped fixed-point loop through ``ContentionConfig.slowdown``.
It is slow (one Python loop per cell) but obviously right, so the
differential tests in this package require the shipped solver to match
it bit for bit.  It is never imported by ``src/``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cluster import ContentionConfig, NodeSpec
from repro.core.meters import expected_platform_overhead
from repro.core.surfaces import LatencySurface, SurfaceSet
from repro.serverless import ServerlessConfig
from repro.workloads import MicroserviceSpec

__all__ = ["build_surface_set", "service_time_fixed_point"]


def service_time_fixed_point(
    spec: MicroserviceSpec,
    external: Tuple[float, float, float],
    load: float,
    capacities: Tuple[float, float, float],
    contention: ContentionConfig,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Self-consistent contended service time at ``load`` queries/s.

    Solves ``s = exec · slowdown(sens, external + own(s))`` where
    ``own(s)`` is the pressure of the service's own ``load·s`` concurrent
    executions.  Damped iteration; the pressure cap in the contention
    config bounds the map, so it always converges.
    """
    if load < 0:
        raise ValueError(f"load must be >= 0, got {load}")
    d = spec.demand
    per_query = (d.cpu / capacities[0], d.io_mbps / capacities[1], d.net_mbps / capacities[2])
    s = spec.exec_time
    for _ in range(max_iter):
        busy = load * s
        p = (
            external[0] + busy * per_query[0],
            external[1] + busy * per_query[1],
            external[2] + busy * per_query[2],
        )
        s_new = spec.exec_time * contention.slowdown(spec.sensitivity, p)
        if abs(s_new - s) < tol * spec.exec_time:
            return s_new
        s = 0.5 * (s + s_new)
    return s



def build_surface_set(
    spec: MicroserviceSpec,
    node: Optional[NodeSpec] = None,
    contention: Optional[ContentionConfig] = None,
    cfg: Optional[ServerlessConfig] = None,
    pressure_max: float = 1.6,
    pressure_points: int = 9,
    load_max: Optional[float] = None,
    load_points: int = 8,
) -> SurfaceSet:
    """Analytic surfaces over a (pressure × load) grid (runtime default).

    ``load_max`` defaults to the load that would saturate the service's
    most-demanded resource axis on its own.
    """
    node = node if node is not None else NodeSpec(name="serverless")
    contention = contention if contention is not None else ContentionConfig()
    cfg = cfg if cfg is not None else ServerlessConfig()
    capacities = (node.cores, node.disk_mbps, node.net_mbps)
    if load_max is None:
        d = spec.demand
        per_query = max(
            d.cpu / capacities[0], d.io_mbps / capacities[1], d.net_mbps / capacities[2], 1e-9
        )
        load_max = 1.0 / (per_query * spec.exec_time)
    p_grid = np.linspace(0.0, pressure_max, pressure_points)
    # quadratic spacing: dense where controllers actually operate (low
    # loads), sparse toward self-saturation, so bilinear interpolation
    # does not overshoot on the convex surface
    v_grid = load_max * (np.linspace(0.0, 1.0, load_points) ** 2)

    surfaces = []
    for axis in range(3):
        z = np.empty((p_grid.size, v_grid.size))
        for i, p in enumerate(p_grid):
            ext = [0.0, 0.0, 0.0]
            ext[axis] = float(p)
            for j, v in enumerate(v_grid):
                z[i, j] = service_time_fixed_point(
                    spec, (ext[0], ext[1], ext[2]), float(v), capacities, contention
                )
        surfaces.append(
            LatencySurface(service=spec.name, axis=axis, pressures=p_grid, loads=v_grid, values=z)
        )
    return SurfaceSet(
        service=spec.name,
        surfaces=(surfaces[0], surfaces[1], surfaces[2]),
        solo_latency=spec.exec_time,
        alpha=expected_platform_overhead(spec, cfg),
    )
