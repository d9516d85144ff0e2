"""Per-layer attribution of a cProfile run of the simulator.

The layers are the ``repro`` packages (``repro/telemetry.py`` is a layer
of its own).  A profiled function defined under ``repro/<layer>/`` is
charged to that layer.  Everything else -- C builtins, numpy, the
standard library -- has its self time charged to the layer that called
it, following the profile's caller edges (through any chain of non-repro
callers), so the shares of the layers plus ``other`` sum to 1.

Functions of the benchmark itself are not program time: their self time,
and that of the C functions they call, is left out of the totals.  Most
of them are pass-through wrappers (around ``Environment.run``, the
surface builder, constructors), so the repro functions they call are
counted as usual.  Only the calls a *probe* makes -- a harness function
that reads the simulator's state, such as a counter property -- are left
out as well, with their self time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple

#: the repro packages a workload executes, in dependency order
LAYERS = (
    "sim",
    "cluster",
    "serverless",
    "iaas",
    "workloads",
    "telemetry",
    "core",
    "overload",
    "faults",
    "graph",
    "experiments",
)
OTHER = "other"
_HARNESS = "<harness>"

#: pstats key: (filename, first line, function name)
Func = Tuple[str, int, str]


class LayerProfile:
    """A cProfile run split by layer, plus lookups of single functions."""

    def __init__(
        self,
        stats: Mapping[Func, tuple],
        repro_dir: Path,
        harness_dir: Path,
        probes: Iterable[str],
    ):
        """``probes``: names of the harness functions that are probes."""
        self._stats = stats
        self._repro = str(repro_dir.resolve()) + "/"
        self._harness = str(harness_dir.resolve()) + "/"
        self._probes = frozenset(probes)
        self._owners: Dict[Func, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        for func, (cc, _nc, tt, _ct, callers) in stats.items():
            home = self.home(func)
            if home == _HARNESS:
                continue
            if home in self.calls:
                # a caller edge is (calls, primitive calls, self time, cumulative)
                probed = [edge for caller, edge in callers.items() if self._is_probe(caller)]
                self.calls[home] += cc - sum(edge[1] for edge in probed)
                self.self_s[home] += tt - sum(edge[2] for edge in probed)
                continue
            for caller, edge in callers.items():
                for layer, weight in self._owner(caller).items():
                    if layer != _HARNESS:
                        self.self_s[layer] += edge[2] * weight
            if not callers:
                self.self_s[OTHER] += tt

    def home(self, func: Func) -> str:
        """The layer a function is defined in, the harness, or ``other``."""
        filename = func[0]
        if filename.startswith(self._harness):
            return _HARNESS
        if not filename.startswith(self._repro):
            return OTHER
        top = filename[len(self._repro):].split("/", 1)[0]
        top = top[:-3] if top.endswith(".py") else top
        return top if top in LAYERS else OTHER

    def _is_probe(self, func: Func) -> bool:
        return func[2] in self._probes and self.home(func) == _HARNESS

    def _owner(self, func: Func) -> Dict[str, float]:
        """Who is responsible for calls into ``func``, as layer weights."""
        home = self.home(func)
        if home != OTHER:
            return {home: 1.0}
        cached = self._owners.get(func)
        if cached is not None:
            return cached
        self._owners[func] = {OTHER: 1.0}  # cycle guard while resolving
        callers = self._stats[func][4] if func in self._stats else {}
        weights: Dict[str, float] = {}
        total = sum(edge[3] for edge in callers.values())
        for caller, edge in callers.items():
            share = edge[3] / total if total > 0 else 1.0 / len(callers)
            for layer, w in self._owner(caller).items():
                weights[layer] = weights.get(layer, 0.0) + share * w
        resolved = weights or {OTHER: 1.0}
        self._owners[func] = resolved
        return resolved

    def functions(self, path_suffix: str, names: Iterable[str]) -> Iterable[tuple]:
        """pstats rows of the repro functions ``names`` in ``path_suffix``."""
        wanted = set(names)
        for func, row in self._stats.items():
            if func[2] in wanted and func[0].startswith(self._repro) and func[0].endswith(path_suffix):
                yield row

    def primitive_calls(self, path_suffix: str, names: Iterable[str]) -> int:
        return sum(row[0] for row in self.functions(path_suffix, names))

    def us_per_call(self, path_suffix: str, name: str, cumulative: bool) -> float:
        """Traced µs per call (self time, or cumulative when asked)."""
        calls = 0
        seconds = 0.0
        for cc, nc, tt, ct, _ in self.functions(path_suffix, (name,)):
            calls += nc
            seconds += ct if cumulative else tt
        return 1e6 * seconds / calls if calls else 0.0
