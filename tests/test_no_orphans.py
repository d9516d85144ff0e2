"""Orphan guard: every public definition in ``src/repro`` has a reader.

A public module-level function or class, or a public method of a public
class, must be used somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside its own body and outside other orphans.  A use is a
name, an attribute or an equal string constant (``getattr``), matched by
name; ``__all__`` lists and imports (re-exports) are not uses.
``repro.analysis`` is not scanned: ``ast.NodeVisitor`` calls its
``visit_*`` methods by name.  Names kept on purpose are in ``KEEP``.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEEP = {  # reason -> names kept without a reader in src/benchmarks/examples
    "the paper's M/M/N model (Eqs. 1-5), re-exported by repro.core": (
        "discriminant_lambda", "erlang_pi0", "erlang_pin", "log_erlang_pi0", "mean_wait", "wait_cdf"
    ),
    "scalar oracle of the vectorised surface solve": ("service_time_fixed_point",),
    "trace and DAG fixtures; SampledTrace replays a recorded load": (
        "SampledTrace", "StepTrace", "fanout_topology"
    ),
    "drive the retry-storm and preemption acceptance gates": (
        "storm_comparison", "preemption_comparison"
    ),
    "the tests' run_with_step_budget steps the kernel to catch livelocks": ("step", "peek"),
    "accessors and helpers that unit tests pin": (
        "any_faults", "container_memory_in_use", "critical_path_cost", "current_cores",
        "current_memory_mb", "describe", "feedback_count", "memory_in_use_mb",
        "predicted_sojourn", "refit_count", "registered", "sinks", "slowdown_for",
        "warm_count", "with_scale",
    ),
}


def _public_defs(body, methods=True):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if methods and isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body, methods=False)


def _uses(tree):
    exports = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exports.update(id(n) for n in ast.walk(node.value))
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "value", None)
        if isinstance(name, str) and id(node) not in exports:
            yield name, node.lineno


def _orphans(defining, using, keep=frozenset()):
    """(orphans, kept names that are used): both trees map path -> ast.Module."""
    spans = {}  # name -> [(path, first line, last line)] of its definitions
    for path, tree in defining.items():
        for node in _public_defs(tree.body):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            spans.setdefault(node.name, []).append((path, first, node.end_lineno))
    uses = [(name, path, line) for path, tree in using.items() for name, line in _uses(tree) if name in spans]
    orphans: set = set()
    while True:  # a use inside an orphan is no use either: repeat until stable
        dead = [span for name in orphans for span in spans[name]]
        used = {
            name
            for name, path, line in uses
            if not any(p == path and a <= line <= b for p, a, b in spans[name] + dead)
        }
        if set(spans) - used - keep == orphans:
            return orphans, keep & used, set(spans)
        orphans = set(spans) - used - keep


def test_every_public_definition_has_a_reader():
    def parse(paths):
        return {path: ast.parse(path.read_text()) for path in paths}

    src = sorted((ROOT / "src" / "repro").rglob("*.py"))
    defining = parse(p for p in src if "analysis" not in p.relative_to(ROOT).parts)
    using = parse(p for top in ("src", "benchmarks", "examples") for p in sorted((ROOT / top).rglob("*.py")))
    keep = {name for names in KEEP.values() for name in names}
    orphans, used_keep, defined = _orphans(defining, using, keep)
    assert not orphans, f"public definitions nothing in src/benchmarks/examples uses: {sorted(orphans)}"
    assert not used_keep, f"KEEP names that now have a reader: {sorted(used_keep)}"
    assert keep <= defined, f"KEEP names that are gone: {sorted(keep - defined)}"


def _check(source, keep=frozenset()):
    tree = ast.parse(textwrap.dedent(source))
    return _orphans({"m": tree}, {"m": tree}, keep)[0]


def test_guard_ignores_exports_imports_and_a_definitions_own_body():
    assert _check("""
        from m import solo
        __all__ = ["solo"]
        def solo(n):
            return solo(n - 1) if n else 0
    """) == {"solo"}


def test_guard_counts_calls_attributes_and_getattr_strings():
    assert not _check("""
        class Box:
            def get(self): return 1
            def put(self): return 2
        def main():
            return Box().get() + getattr(Box(), "put")()
        main()
    """)


def test_guard_finds_names_only_orphans_use_and_honours_keep():
    source = """
        def leaf(): return 1
        def branch(): return leaf()
        def kept(): return 2
    """
    assert _check(source) == {"leaf", "branch", "kept"}
    assert _check(source, keep={"kept"}) == {"leaf", "branch"}
