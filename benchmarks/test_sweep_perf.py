"""Sweep-level perf guards: executor fan-out and warm-cache replay.

The reference workload is the chaos fault-scale sweep plus the overload
factor sweep at ``day=300`` — 8 independent seeded runs, the shape every
figure regenerator reduces to.  Three measured legs:

* **serial cold** — ``workers=1``, cache off: the pre-executor baseline;
* **parallel cold** — ``workers=4`` into a fresh cache: the fan-out path
  (its speedup over serial is core-count-bound, so the ≥2x guard only
  applies when the host actually offers ≥4 usable cores);
* **warm replay** — the same sweep against the now-populated cache: must
  execute nothing (0 stores, all hits) and beat serial ≥2x everywhere,
  CPU-starved CI included.

All three legs must agree ``float.hex``-for-hex — the guard would catch
a merge-order or cache-serialization bug before any figure does.
"""

import os
import time

from repro.experiments.cache import RunCache
from repro.experiments.chaos import chaos_sweep
from repro.experiments.overload import overload_sweep

_DAY = 300.0
_SCALES = (0.0, 0.5, 1.0, 2.0)
_FACTORS = (1.0, 2.0)
_RUNS = len(_SCALES) + 2 * len(_FACTORS)


def _full_sweep(workers, cache):
    chaos = chaos_sweep(
        "matmul", day=_DAY, seed=0, scales=_SCALES, workers=workers, cache=cache
    )
    overload = overload_sweep(
        "matmul", day=_DAY, seed=0, factors=_FACTORS, workers=workers, cache=cache
    )
    return chaos, overload


def _row_hexes(figures):
    return [
        [x.hex() if isinstance(x, float) else x for x in row]
        for figure in figures
        for row in figure.rows
    ]


def test_sweep_parallel_and_cache_speedup(tmp_path):
    usable_cores = len(os.sched_getaffinity(0))

    t0 = time.perf_counter()
    serial = _full_sweep(workers=1, cache=False)
    serial_s = time.perf_counter() - t0

    cold = RunCache(tmp_path / "cache")  # real code salt: the production key
    t0 = time.perf_counter()
    parallel = _full_sweep(workers=4, cache=cold)
    parallel_s = time.perf_counter() - t0
    assert cold.stores == _RUNS and cold.hits == 0

    warm = RunCache(tmp_path / "cache")
    t0 = time.perf_counter()
    replay = _full_sweep(workers=4, cache=warm)
    warm_s = time.perf_counter() - t0
    assert warm.stores == 0 and warm.hits == _RUNS, "warm replay must execute nothing"

    # bit-determinism across all three legs
    assert _row_hexes(serial) == _row_hexes(parallel) == _row_hexes(replay)

    parallel_speedup = serial_s / parallel_s
    warm_speedup = serial_s / warm_s
    # the cache replay dodges every simulation, so it must win even on a
    # single-core host; the fan-out win needs actual cores to exist
    assert warm_speedup >= 2.0, f"warm cache replay only {warm_speedup:.2f}x over serial"
    if usable_cores >= 4:
        assert parallel_speedup >= 2.0, (
            f"workers=4 only {parallel_speedup:.2f}x over serial on {usable_cores} cores"
        )
