"""Orphan guard: every public definition in ``src/repro`` has a reader.

A public module-level function or class, or a public method of a public
class, must be used somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside its own body and outside other orphans.  A use is a
name, an attribute, or a string constant passed as the attribute name of
``getattr``/``setattr``/``hasattr``, matched by name; other strings
(``__all__`` lists, name tables) and imports (re-exports) are not uses.
``visit_*`` methods count as used: ``ast.NodeVisitor`` calls them by
name.  Names kept on purpose are in ``KEEP``.
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
    "simlint's per-file entry point, driven by its rule tests": ("lint_file",),
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
            if not methods and node.name.startswith("visit_"):
                continue  # ast.NodeVisitor dispatches to it by name
            yield node
            if methods and isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body, methods=False)


_ATTR_BUILTINS = ("getattr", "setattr", "hasattr")


def _uses(tree):
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name is not None:
            yield name, node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _ATTR_BUILTINS:
            attr = node.args[1] if len(node.args) > 1 else None
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                yield attr.value, attr.lineno


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
    defining = parse(src)
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


def test_guard_counts_no_other_string_constants():
    assert _check("""
        class Event:
            def trigger(self): return 1
            def fire(self): return 2
        ARM_METHODS = {"trigger"}
        print(getattr(Event(), "fire")(), "trigger", getattr("trigger", "upper")())
    """) == {"trigger"}


def test_guard_finds_names_only_orphans_use_and_honours_keep():
    source = """
        def leaf(): return 1
        def branch(): return leaf()
        def kept(): return 2
    """
    assert _check(source) == {"leaf", "branch", "kept"}
    assert _check(source, keep={"kept"}) == {"leaf", "branch"}


def test_guard_treats_node_visitor_methods_as_used():
    assert _check("""
        class Walker:
            def visit_Call(self, node): return node
            def walk(self): return 1
        Walker()
    """) == {"walk"}
