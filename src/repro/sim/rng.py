"""Named, reproducible random-number substreams.

Every stochastic input in an experiment (arrival processes, service-time
jitter, cold-start durations, trace noise, ...) draws from its own
``numpy.random.Generator``.  Substreams are derived from a single root
seed plus the stream's name via ``numpy.random.SeedSequence.spawn``-style
keying, so:

* two streams with different names are statistically independent;
* the same (seed, name) pair always produces the same sequence,
  regardless of the order in which other streams were created or used.

This is what makes whole experiments bit-reproducible while still letting
components create their RNGs lazily.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Optional, Set

import numpy as np

__all__ = ["RngRegistry"]

#: normal draws a lognormal sampler takes per refill of its block
SAMPLER_BLOCK = 32


class RngRegistry:
    """Factory for named, independently seeded RNG substreams."""

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: names whose stream has one owning reader (kept out of _streams)
        self._owned: Set[str] = set()

    @property
    def seed(self) -> int:
        """The root seed all substreams are derived from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            if name in self._owned:
                raise RuntimeError(f"stream {name!r} is owned; only its owner may read it")
            gen = self._streams[name] = self._new_stream(name)
        return gen

    def owned_stream(self, name: str) -> np.random.Generator:
        """A generator for ``name`` whose caller is its only reader.

        Once owned, ``stream(name)``, :meth:`lognormal_around` and any
        second owner of ``name`` raise, and owning a name that
        :meth:`stream` already handed out raises too.  An owner may
        therefore draw ahead of the simulated clock (a lognormal sampler
        draws in blocks, a load generator plans its next arrival): no
        other component's draws can interleave with its own.
        """
        self._claim(name)
        return self._new_stream(name)

    def _claim(self, name: str) -> None:
        if name in self._owned or name in self._streams:
            raise RuntimeError(f"stream {name!r} already has a reader; an owned stream has no other")
        self._owned.add(name)

    def _new_stream(self, name: str) -> np.random.Generator:
        # key the SeedSequence on a stable hash of the name so stream
        # identity does not depend on creation order
        key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
        return np.random.default_rng(seq)

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

    def lognormal_around(self, name: str, median: float, sigma: float) -> float:
        """One lognormal draw with the given *median* from stream ``name``.

        Lognormal with small sigma is our default "noisy but positive"
        duration model (cold starts, code loading, per-query jitter).
        """
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return float(median * np.exp(self.stream(name).normal(0.0, sigma)))

    def lognormal_sampler(self, name: str, median: float, sigma: float) -> Callable[[], float]:
        """A zero-argument sampler equivalent to :meth:`lognormal_around`.

        Hot paths call this once and keep the returned callable: each draw
        then skips the stream-name formatting and registry lookup while
        producing the bit-identical sequence ``lognormal_around`` would.

        The sampler owns stream ``name`` (see :meth:`owned_stream`) and
        draws it in blocks of :data:`SAMPLER_BLOCK` normals from the first
        call on (numpy's ``Generator`` gives the same values in one array
        call as in that many scalar ones).  ``exp`` stays per element: a
        vectorised ``exp`` may round differently.
        """
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        self._claim(name)
        exp = np.exp
        # the stream is built on the first refill, so a sampler that never
        # draws costs nothing; pending draws sit next-one-last for pop()
        normal: Optional[Callable[..., Any]] = None
        block: list[float] = []

        def draw() -> float:
            nonlocal normal
            if not block:
                if normal is None:
                    normal = self._new_stream(name).normal
                block.extend(reversed(normal(0.0, sigma, SAMPLER_BLOCK).tolist()))
            return float(median * exp(block.pop()))

        return draw

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw on ``[low, high)`` from stream ``name``."""
        if high < low:
            raise ValueError(f"empty interval [{low}, {high})")
        return float(self.stream(name).uniform(low, high))
