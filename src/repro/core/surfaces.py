"""Per-microservice latency surfaces L(P, V_u) (paper §IV-B step 1, Fig. 9).

For each resource axis, a surface maps *(platform pressure on that axis,
the microservice's own load)* to the microservice's expected per-query
**service latency** — contended execution time, excluding queueing and
platform overheads (queueing is the M/M/N model's job; overheads are
Eq. 6's α).  The own-load axis matters because a service at load V keeps
``V·s`` containers busy (Little's law), and those containers pressure
the platform too — a self-interference fixed point that
:func:`service_time_fixed_point` resolves.

As with the meter profiles, surfaces can be built analytically (instant,
runtime default) or by measurement (mini-simulation per grid point; the
Fig. 9 bench uses it, and a test checks the two agree).  The analytic
builder solves every cell of a set's three surfaces in one array
iteration that repeats ``ContentionConfig.slowdown`` term for term, so
each cell is bit-identical to a per-cell scalar loop.  Lookups are
scalar: :meth:`LatencySurface.predict` runs once per controller decision
and interpolates over plain-float copies of the grid.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.cluster import ContentionConfig, NodeSpec
from repro.core.meters import expected_platform_overhead
from repro.serverless import ServerlessConfig
from repro.workloads import MicroserviceSpec

__all__ = [
    "LatencySurface",
    "SurfaceSet",
    "build_surface_set",
    "measured_surface",
    "service_time_fixed_point",
]


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
    config bounds the map, so it always converges.  A one-cell call into
    the solver :func:`build_surface_set` uses for a whole grid.
    """
    ext = np.array(external, dtype=float).reshape(3, 1)
    loads = np.array([load], dtype=float)
    return float(_solve_fixed_points(spec, ext, loads, capacities, contention, tol, max_iter)[0])


def _solve_fixed_points(
    spec: MicroserviceSpec,
    external: np.ndarray,
    loads: np.ndarray,
    capacities: Tuple[float, float, float],
    contention: ContentionConfig,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> np.ndarray:
    """:func:`service_time_fixed_point` for every cell at once.

    ``external`` has shape ``(3, n)`` and ``loads`` shape ``(n,)``.  Each
    cell runs ``ContentionConfig.slowdown``'s arithmetic term for term and
    in the same order, so every value is bit-identical to the scalar
    iteration.  A cell leaves the working set with ``s_new`` once it
    converges; cells still open after ``max_iter`` keep the damped ``s``.
    """
    if np.any(loads < 0):
        raise ValueError(f"load must be >= 0, got {loads.min()}")
    d = spec.demand
    # column vectors: each axis row scales by its own demand and sensitivity
    per_query = np.array(
        [d.cpu / capacities[0], d.io_mbps / capacities[1], d.net_mbps / capacities[2]]
    ).reshape(3, 1)
    sens = np.array(spec.sensitivity.as_tuple()).reshape(3, 1)
    exec_time = spec.exec_time
    lin, quad, knee, cap = contention.linear, contention.quad, contention.knee, contention.pressure_cap
    co_overlap = 1.0 - contention.overlap
    eps = tol * exec_time
    out = np.empty(loads.size)
    open_cells = np.arange(loads.size)
    s = np.full(loads.size, exec_time)
    for _ in range(max_iter):
        # rows are the cpu, io and net axes of ContentionConfig.slowdown
        p = np.minimum(external + (loads * s) * per_query, cap)
        e = np.maximum(p - knee, 0.0)
        deg = sens * (lin * p + quad * e * e)
        total = deg[0] + deg[1] + deg[2]  # slowdown()'s summation order
        worst = deg.max(axis=0)
        s_new = exec_time * (1.0 + worst + co_overlap * (total - worst))
        done = np.abs(s_new - s) < eps
        if done.any():
            out[open_cells[done]] = s_new[done]
            left = ~done
            open_cells, external, loads = open_cells[left], external[:, left], loads[left]
            s, s_new = s[left], s_new[left]
            if open_cells.size == 0:
                return out
        s = 0.5 * (s + s_new)
    out[open_cells] = s
    return out


@dataclass(frozen=True)
class LatencySurface:
    """One Fig. 9 panel: service latency over (axis pressure, own load)."""

    service: str
    axis: int
    pressures: np.ndarray
    loads: np.ndarray
    values: np.ndarray  # shape (len(pressures), len(loads))
    # plain-float copies for predict(), which runs on every controller
    # decision and feedback row: list indexing and bisect beat numpy
    # scalar calls there, with the same arithmetic
    _p: List[float] = field(init=False, repr=False, compare=False)
    _v: List[float] = field(init=False, repr=False, compare=False)
    _z: List[List[float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.pressures, dtype=float)
        v = np.asarray(self.loads, dtype=float)
        z = np.asarray(self.values, dtype=float)
        if p.ndim != 1 or v.ndim != 1 or z.shape != (p.size, v.size):
            raise ValueError("surface dimensions are inconsistent")
        if np.any(np.diff(p) <= 0) or np.any(np.diff(v) <= 0):
            raise ValueError("surface grids must be strictly increasing")
        if np.any(z <= 0):
            raise ValueError("surface latencies must be positive")
        object.__setattr__(self, "pressures", p)
        object.__setattr__(self, "loads", v)
        object.__setattr__(self, "values", z)
        object.__setattr__(self, "_p", p.tolist())
        object.__setattr__(self, "_v", v.tolist())
        object.__setattr__(self, "_z", z.tolist())

    def predict(self, pressure: float, load: float) -> float:
        """Bilinear interpolation, clamped to the profiled grid."""
        ps, vs, z = self._p, self._v, self._z
        p = min(max(float(pressure), ps[0]), ps[-1])
        v = min(max(float(load), vs[0]), vs[-1])
        i = min(max(bisect_right(ps, p) - 1, 0), len(ps) - 2)
        j = min(max(bisect_right(vs, v) - 1, 0), len(vs) - 2)
        p0, p1 = ps[i], ps[i + 1]
        v0, v1 = vs[j], vs[j + 1]
        fp = (p - p0) / (p1 - p0)
        fv = (v - v0) / (v1 - v0)
        return (
            z[i][j] * (1 - fp) * (1 - fv)
            + z[i + 1][j] * fp * (1 - fv)
            + z[i][j + 1] * (1 - fp) * fv
            + z[i + 1][j + 1] * fp * fv
        )


@dataclass(frozen=True)
class SurfaceSet:
    """All three surfaces of one microservice plus its Eq. 6 constants."""

    service: str
    surfaces: Tuple[LatencySurface, LatencySurface, LatencySurface]
    #: L₀: solo-run service latency (single uncontended query)
    solo_latency: float
    #: α: mean per-query platform overhead
    alpha: float

    def __post_init__(self) -> None:
        if len(self.surfaces) != 3:
            raise ValueError("need exactly three surfaces (cpu, io, net)")
        for axis, s in enumerate(self.surfaces):
            if s.axis != axis:
                raise ValueError(f"surface at position {axis} claims axis {s.axis}")
        if self.solo_latency <= 0 or self.alpha < 0:
            raise ValueError("solo_latency must be positive and alpha >= 0")

    def axis_latencies(self, pressures: Tuple[float, float, float], load: float) -> np.ndarray:
        """(L₁, L₂, L₃): predicted service latency per contended axis."""
        return np.array(
            [self.surfaces[i].predict(pressures[i], load) for i in range(3)], dtype=float
        )


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

    # every cell of the three axes in one solve: axis-major, then
    # pressure, then load; each axis's pressure sits on its own row only
    n_p, n_v = p_grid.size, v_grid.size
    cells = n_p * n_v
    external = np.zeros((3, 3 * cells))
    for axis in range(3):
        external[axis, axis * cells : (axis + 1) * cells] = np.repeat(p_grid, n_v)
    loads = np.tile(v_grid, 3 * n_p)
    z = _solve_fixed_points(spec, external, loads, capacities, contention).reshape(3, n_p, n_v)
    surfaces = [
        LatencySurface(service=spec.name, axis=axis, pressures=p_grid, loads=v_grid, values=z[axis])
        for axis in range(3)
    ]
    return SurfaceSet(
        service=spec.name,
        surfaces=(surfaces[0], surfaces[1], surfaces[2]),
        solo_latency=spec.exec_time,
        alpha=expected_platform_overhead(spec, cfg),
    )


def measured_surface(
    spec: MicroserviceSpec,
    axis: int,
    pressures: "ArrayLike",
    loads: "ArrayLike",
    node: Optional[NodeSpec] = None,
    contention: Optional[ContentionConfig] = None,
    cfg: Optional[ServerlessConfig] = None,
    duration: float = 120.0,
    seed: int = 11,
) -> LatencySurface:
    """One surface by mini-simulation (paper's co-location profiling).

    For each (pressure, load) cell, a fresh platform runs the service at
    Poisson ``load`` with a standing background demand injected on
    ``axis``; the cell value is the mean *execution-stage* latency (the
    pool's ``exec`` breakdown), matching the analytic surfaces'
    exclusion of queueing and overheads.
    """
    from repro.serverless.platform import ServerlessPlatform
    from repro.sim.environment import Environment
    from repro.sim.events import Event
    from repro.sim.rng import RngRegistry
    from repro.telemetry import ServiceMetrics
    from repro.workloads.loadgen import LoadGenerator, Query
    from repro.workloads.traces import ConstantTrace

    node = node if node is not None else NodeSpec(name="profiling")
    contention = contention if contention is not None else ContentionConfig()
    cfg = cfg if cfg is not None else ServerlessConfig()
    capacities = (node.cores, node.disk_mbps, node.net_mbps)
    p_grid = np.asarray(pressures, dtype=float)
    v_grid = np.asarray(loads, dtype=float)
    from repro.cluster.resource_model import DemandVector

    z = np.empty((p_grid.size, v_grid.size))
    for i, p in enumerate(p_grid):
        for j, v in enumerate(v_grid):
            env = Environment()
            rng = RngRegistry(seed=seed + 101 * i + j)
            platform = ServerlessPlatform(env, rng, node=node, config=cfg, contention=contention)
            metrics = ServiceMetrics(spec.name, spec.qos_target)
            platform.register(spec, metrics=metrics)
            background = DemandVector(
                cpu=capacities[0] * p if axis == 0 else 0.0,
                io_mbps=capacities[1] * p if axis == 1 else 0.0,
                net_mbps=capacities[2] * p if axis == 2 else 0.0,
            )
            platform.machine.inject_background(background)
            exec_times: list[float] = []

            def sink(q: Query, exec_times: list[float] = exec_times) -> None:
                pass

            if v > 0:
                collected: list[Query] = []

                def submit(q: Query, platform: ServerlessPlatform = platform) -> None:
                    platform.invoke(q)

                LoadGenerator(env, spec.name, ConstantTrace(float(v)), submit, rng)
                env.run(until=duration)
                mean_exec = metrics.breakdown_sums["exec"] / max(metrics.completed, 1)
            else:
                # a few solo queries
                def solo(
                    env: Environment = env, platform: ServerlessPlatform = platform
                ) -> Iterator[Event]:
                    for k in range(10):
                        q = Query(qid=k, service=spec.name, t_submit=env.now)
                        platform.invoke(q)
                        yield env.timeout(2.0)

                env.process(solo())
                env.run(until=40.0)
                mean_exec = metrics.breakdown_sums["exec"] / max(metrics.completed, 1)
            z[i, j] = max(mean_exec, 1e-6)
    # iron sampling noise into monotone-in-pressure curves
    z = np.maximum.accumulate(z, axis=0)
    return LatencySurface(service=spec.name, axis=axis, pressures=p_grid, loads=v_grid, values=z)
