"""Intra-procedural use-def machinery for the flow rules.

A deliberately small dataflow core: lexical scope frames mapping names
to *origin tags* (what kind of value the name was last bound to, e.g.
``rng-factory``, ``rng``, ``set``), with ``global`` declarations tracked
per function.  :mod:`repro.analysis.rules_flow` assigns tags when it
sees constructions and consumes them when a tagged value flows somewhere
it must not (an RNG escaping to module state, a set feeding a float
accumulation).  Flow-insensitive beyond straight-line rebinding — no
branches are joined — which keeps it fast, deterministic, and honest:
every tag corresponds to a literal binding the reviewer can see.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

__all__ = ["ScopeTracker"]


class ScopeTracker:
    """Name -> origin-tag bindings across a lexical scope stack."""

    def __init__(self) -> None:
        #: innermost frame last; frame 0 is module scope
        self._frames: List[Dict[str, str]] = [{}]
        #: per-function sets of names declared ``global``
        self._globals: List[Set[str]] = [set()]

    # -- scope lifecycle ---------------------------------------------------
    def push(self) -> None:
        """Enter a function/class scope."""
        self._frames.append({})
        self._globals.append(set())

    def pop(self) -> None:
        """Leave the innermost scope."""
        self._frames.pop()
        self._globals.pop()

    @property
    def depth(self) -> int:
        """Nesting depth; 0 at module scope."""
        return len(self._frames) - 1

    # -- bindings ----------------------------------------------------------
    def declare_global(self, names: List[str]) -> None:
        self._globals[-1].update(names)

    def is_global(self, name: str) -> bool:
        """Whether ``name`` is declared ``global`` in the current scope."""
        return name in self._globals[-1]

    def bind(self, name: str, tag: Optional[str]) -> None:
        """Bind ``name`` to ``tag`` (None clears: a rebind to plain data)."""
        frame = self._frames[0] if self.is_global(name) else self._frames[-1]
        if tag is None:
            frame.pop(name, None)
        else:
            frame[name] = tag

    def lookup(self, name: str) -> Optional[str]:
        """Tag of ``name``, searching enclosing scopes innermost-first."""
        if self.is_global(name):
            return self._frames[0].get(name)
        for frame in reversed(self._frames):
            if name in frame:
                return frame[name]
        return None
