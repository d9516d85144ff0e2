"""Seeded golden arrival streams for the load generator.

Three traces, each driven through one :class:`LoadGenerator` on a fresh
environment, cover the thinning paths that matter:

* ``sec7`` — the §VII matmul diurnal trace (the benchmark's headline
  run), where most candidates are accepted;
* ``step`` — a step trace with a 20 s zero-rate step, long enough that
  thinning rejects far more consecutive candidates than one planning
  pass examines;
* ``brownout`` — the dag experiment's interference shape, a rectangular
  burst on a zero base, where every candidate before the burst is
  rejected.

``tests/workloads/test_loadgen_golden.py`` pins the first ``N_ARRIVALS``
submit times of each in ``float.hex``.  Regenerate them with
``PYTHONPATH=src python tests/workloads/golden_arrivals.py``.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.loadgen import LoadGenerator
from repro.workloads.traces import BurstTrace, ConstantTrace, DiurnalTrace, StepTrace, Trace

#: submit times pinned per trace
N_ARRIVALS = 200
SEED = 0

#: trace factories by case name; each runs long enough for N_ARRIVALS
CASES: Dict[str, Callable[[], Trace]] = {
    "sec7": lambda: DiurnalTrace(peak_rate=12.0, seed=7, day=7200.0, noise_sigma=0.05),
    "step": lambda: StepTrace([(0.0, 5.0), (10.0, 0.0), (30.0, 8.0)]),
    "brownout": lambda: BurstTrace(ConstantTrace(0.0), [(60.0, 120.0, 60.0)]),
}

#: simulated horizon per case (every case submits N_ARRIVALS well before it)
HORIZON = 200.0


def submit_times(case: str, seed: int = SEED, generator: type = LoadGenerator) -> list[float]:
    """The first ``N_ARRIVALS`` submit times of ``case`` under ``generator``."""
    env = Environment()
    times: list[float] = []
    generator(env, "svc", CASES[case](), lambda q: times.append(q.t_submit), RngRegistry(seed))
    env.run(until=HORIZON)
    assert len(times) >= N_ARRIVALS, (case, len(times))
    return times[:N_ARRIVALS]


if __name__ == "__main__":
    for name in CASES:
        hexes = [t.hex() for t in submit_times(name)]
        print(f"    {name!r}: [")
        for i in range(0, len(hexes), 4):
            print("        " + " ".join(f'"{h}",' for h in hexes[i : i + 4]))
        print("    ],")
