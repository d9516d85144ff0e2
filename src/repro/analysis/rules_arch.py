"""ARCH rules: package-layering invariants over the whole-program model.

The enforced direction is the *measured* reality of the codebase, not
the aspirational sketch in the issue tracker: ``repro.core`` is the
composition root (the Amoeba runtime wires platforms, workloads, faults
and telemetry together), so it sits near the top, directly under
``experiments``.  The full linearization, bottom (imported by everyone)
to top (imports everyone):

    sim, analysis < cluster, faults, overload < workloads < telemetry
        < serverless, iaas < core < graph < experiments

Imports must flow strictly downward; two packages on the same layer may
not import each other (that is how the ``workloads <-> core`` and
``workloads <-> serverless`` cycles crept in before this pass existed).
``python -m repro.analysis.lint --list-rules`` prints each rule with the
invariant it protects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.graph import cycles, topological_order
from repro.analysis.model import ImportRecord, ModuleRecord
from repro.analysis.rules import Rule, Violation

__all__ = ["ARCH_RULES", "LAYERS", "check_architecture", "prove_acyclic"]

ARCH_RULES: Tuple[Rule, ...] = (
    Rule(
        "ARCH001",
        "upward or lateral package import (layering violation)",
        "the Eq. 1-5 kernel stays pure because dependencies flow one way: "
        "sim < {cluster, faults, overload} < workloads < telemetry < "
        "{serverless, iaas} < core < graph < experiments; an upward or "
        "same-layer import lets a lower layer observe composition-root "
        "state and breaks the bit-identity argument for sharded runs",
    ),
    Rule(
        "ARCH002",
        "package-level import cycle",
        "a cycle makes import order (and therefore module-level "
        "initialization order) depend on the entry point; the run cache "
        "salts over source content assuming a well-founded module DAG",
    ),
    Rule(
        "ARCH003",
        "kernel package imports repro.experiments",
        "experiments is the driver layer (CLIs, sweeps, caching, figures); "
        "kernel code importing it would let host-facing concerns (argv, "
        "wall-clock timing, worker pools) leak into seed-reproducible "
        "simulation state — this rule checks *every* import, including "
        "function-local ones",
    ),
    Rule(
        "ARCH004",
        "deep import bypasses a package's __init__ public API",
        "a package's __all__ is its supported surface; reaching for "
        "repro.pkg.module internals couples callers to file layout and "
        "skips the facade where deprecations and laziness live — import "
        "the name from repro.pkg instead (names absent from __all__ stay "
        "legal to deep-import)",
    ),
)

#: the analyzed root package
ROOT = "repro"

#: enforced linearization: imports must go to a strictly lower layer.
#: ``analysis`` is an island (imports nothing, imported by nothing at
#: runtime); it sits at the bottom with ``sim``.
LAYERS: Dict[str, int] = {
    "sim": 0,
    "analysis": 0,
    "cluster": 1,
    "faults": 1,
    "overload": 1,
    "workloads": 2,
    "telemetry": 3,
    "serverless": 4,
    "iaas": 4,
    "core": 5,
    "graph": 6,
    "experiments": 7,
}


def _package_of(module: Optional[str]) -> Optional[str]:
    """The root-child package a dotted repro module belongs to."""
    if module is None:
        return None
    parts = module.split(".")
    if parts[0] != ROOT or len(parts) < 2:
        return None
    return parts[1]


def _target_package(record: ImportRecord) -> Optional[str]:
    parts = record.module.split(".")
    if parts[0] != ROOT or len(parts) < 2:
        return None
    return parts[1]


def package_graph(modules: Sequence[ModuleRecord]) -> Dict[str, Set[str]]:
    """Module-scope package digraph ``{package: {imported package}}``."""
    graph: Dict[str, Set[str]] = {}
    for record in modules:
        pkg = _package_of(record.module)
        if pkg is None:
            continue
        graph.setdefault(pkg, set())
        for imp in record.imports:
            if not imp.toplevel:
                continue
            target = _target_package(imp)
            if target is not None and target != pkg:
                graph[pkg].add(target)
    return graph


def prove_acyclic(modules: Sequence[ModuleRecord]) -> Optional[List[str]]:
    """A topological order of the package graph, or None when it cycles."""
    return topological_order(package_graph(modules))


def check_architecture(modules: Sequence[ModuleRecord]) -> List[Violation]:
    """Run ARCH001-ARCH004 over the whole-program module table."""
    violations: List[Violation] = []
    facades: Dict[str, Set[str]] = {}
    for record in modules:
        if record.is_init and record.module is not None:
            parts = record.module.split(".")
            if len(parts) == 2 and parts[0] == ROOT and record.exports is not None:
                facades[parts[1]] = set(record.exports)

    # one representative site per package edge, for the cycle report
    edge_sites: Dict[Tuple[str, str], Tuple[str, int, int]] = {}

    for record in sorted(modules, key=lambda r: r.path):
        pkg = _package_of(record.module)
        for imp in record.imports:
            target = _target_package(imp)
            # ARCH003 guards every import, from any repro module
            if (
                pkg is not None
                and pkg != "experiments"
                and target == "experiments"
            ):
                violations.append(
                    Violation(
                        path=record.path,
                        line=imp.line,
                        col=imp.col,
                        rule_id="ARCH003",
                        message=(
                            f"kernel package '{pkg}' imports {imp.module}; the "
                            "experiments driver layer must never be visible from "
                            "kernel code (host timing/argv/pools would leak into "
                            "seed-reproducible state)"
                        ),
                    )
                )
            if not imp.toplevel or pkg is None or target is None or target == pkg:
                continue
            edge_sites.setdefault((pkg, target), (record.path, imp.line, imp.col))
            # ARCH001: layering direction
            src_layer = LAYERS.get(pkg)
            dst_layer = LAYERS.get(target)
            if src_layer is None or dst_layer is None:
                unknown = pkg if src_layer is None else target
                violations.append(
                    Violation(
                        path=record.path,
                        line=imp.line,
                        col=imp.col,
                        rule_id="ARCH001",
                        message=(
                            f"package '{unknown}' is not in the layer table; "
                            "register new packages in repro.analysis.rules_arch."
                            "LAYERS (and DESIGN.md §12) before importing across "
                            "package boundaries"
                        ),
                    )
                )
            elif dst_layer >= src_layer:
                direction = "upward" if dst_layer > src_layer else "lateral (same-layer)"
                violations.append(
                    Violation(
                        path=record.path,
                        line=imp.line,
                        col=imp.col,
                        rule_id="ARCH001",
                        message=(
                            f"{direction} import: '{pkg}' (layer {src_layer}) imports "
                            f"'{target}' (layer {dst_layer}); dependencies must flow "
                            "strictly downward — move the shared code below both "
                            "packages or invert the dependency with an injected hook"
                        ),
                    )
                )
            # ARCH004: deep import bypassing the facade
            if target != ROOT and len(imp.module.split(".")) >= 3 and imp.names:
                facade = facades.get(target)
                if facade:
                    bypassed = sorted(set(imp.names) & facade)
                    if bypassed:
                        names = ", ".join(bypassed)
                        violations.append(
                            Violation(
                                path=record.path,
                                line=imp.line,
                                col=imp.col,
                                rule_id="ARCH004",
                                message=(
                                    f"deep import of {names} from {imp.module}; "
                                    f"these names are public API of repro.{target} — "
                                    f"import them from the facade "
                                    f"(from repro.{target} import {names})"
                                ),
                            )
                        )

    # ARCH002: one violation per cycle, anchored at the first edge site
    graph = package_graph(modules)
    for component in cycles(graph):
        members = set(component)
        sites = sorted(
            site
            for edge, site in edge_sites.items()
            if edge[0] in members and edge[1] in members
        )
        chain = " -> ".join(list(component) + [component[0]])
        path, line, col = sites[0] if sites else ("<unknown>", 1, 0)
        violations.append(
            Violation(
                path=path,
                line=line,
                col=col,
                rule_id="ARCH002",
                message=(
                    f"package import cycle: {chain}; module initialization "
                    "order becomes entry-point-dependent — break the cycle by "
                    "moving shared code downward or injecting the upward call"
                ),
            )
        )

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations
