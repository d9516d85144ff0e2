"""Determinism dataflow rules SIM012-SIM015 (use-def pass).

These rules track values from their origin instead of pattern-matching
single call sites, which is what lets them catch the indirections the
per-site SIM002 check structurally cannot:

* SIM012 — an RNG *factory* is bound to a name and constructed later
  (``make = np.random.default_rng; rng = make()``).  Direct calls are
  SIM002's territory; SIM012 only fires where the factory reference
  travelled through a binding first.
* SIM013 — a registry stream (or any constructed RNG) escapes into
  module globals or class attributes.  Streams are per-run state owned
  by the runtime; module/class state outlives the run and is shared
  across services, so an escaped stream breaks both replay determinism
  and the run cache's claim that (config, scenario, seed) determines
  the result.
* SIM014 — iteration over a ``set`` (or values of a dict keyed from
  one) feeding a float accumulation in kernel packages.  Set iteration
  order is hash-seed/insertion-history dependent, and float addition is
  not associative: the same elements in a different order produce
  different bits, which the ``float.hex`` identity gates will flag as
  nondeterminism long after the real cause is forgotten.
* SIM015 — ``os.environ``/``sys.argv``/``sys.stdin`` reads inside
  ``sim/``/``core/``: host-environment state must enter through config
  dataclasses at the experiments layer, never mid-simulation.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import ScopeTracker
from repro.analysis.rules import (
    Rule,
    Violation,
    _dotted_name,
    _path_matches,
    _path_segments,
    _terminal_name,
)

__all__ = ["FLOW_RULES", "FlowVisitor"]

FLOW_RULES: Tuple[Rule, ...] = (
    Rule(
        "SIM012",
        "RNG constructed through a bound factory reference outside sim/rng.py",
        "all randomness must flow through named RngRegistry streams; "
        "binding random.Random / numpy.random.default_rng to a name and "
        "calling it later creates the same unseeded-stream hazard SIM002 "
        "flags at direct call sites, one indirection away",
    ),
    Rule(
        "SIM013",
        "RNG or registry stream stored in module/class state (stream escape)",
        "streams are per-run values owned by the runtime; a stream (or "
        "RNG) parked in a module global or class attribute outlives the "
        "run and is shared across services, so replays and cached runs "
        "stop being functions of (config, scenario, seed)",
    ),
    Rule(
        "SIM014",
        "set iteration feeding float accumulation in kernel code",
        "set/frozenset iteration order depends on hashes and insertion "
        "history, and float addition is not associative — accumulate "
        "over a sorted() or list-ordered container so the Eq. 1-7 "
        "pipeline's float.hex bit-identity survives",
    ),
    Rule(
        "SIM015",
        "os.environ / sys state read inside sim/ or core/",
        "host environment must enter through config dataclasses at the "
        "experiments layer; an environ/argv/stdin read in kernel code "
        "makes simulated results depend on the invoking shell",
    ),
)

#: canonical names that construct a stdlib/numpy RNG (SIM012 factories)
_RNG_FACTORIES = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.MT19937",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
}

#: the one module allowed to construct RNGs (mirrors rules._RNG_ALLOWED)
_RNG_ALLOWED = ("sim/rng.py",)

#: path segments marking kernel packages for SIM014/SIM015
_KERNEL_PACKAGES = {"core", "sim"}

#: host-state expressions banned in kernel code (SIM015)
_HOST_STATE_READS = {"os.environ", "sys.argv", "sys.stdin"}
_HOST_STATE_CALLS = {"os.getenv"}

# origin tags
_TAG_FACTORY = "rng-factory"
_TAG_RNG = "rng"
_TAG_STREAM = "rng-stream"
_TAG_SET = "set"
_TAG_DICT_FROM_SET = "dict-from-set"


class FlowVisitor(ast.NodeVisitor):
    """Single-pass use-def checker for SIM012-SIM015 over one module."""

    def __init__(self, path: str):
        self.path = path
        self.violations: List[Violation] = []
        self._aliases: Dict[str, str] = {}
        self._scopes = ScopeTracker()
        self._class_depth = 0
        self._function_depth = 0
        self._rng_exempt = _path_matches(path, _RNG_ALLOWED)
        self._kernel = bool(_KERNEL_PACKAGES & _path_segments(path))

    # -- helpers -----------------------------------------------------------
    def _report(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=rule_id,
                message=message,
            )
        )

    def _canonical(self, dotted: Optional[str]) -> Optional[str]:
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        base = self._aliases.get(root)
        if base is None:
            return dotted
        return f"{base}.{rest}" if rest else base

    # -- import tracking ---------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    self._aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._scopes.declare_global(list(node.names))

    # -- origin classification ---------------------------------------------
    def _value_tag(self, value: ast.AST) -> Optional[str]:
        """Origin tag of an expression, or None for plain data."""
        if isinstance(value, ast.Name):
            return self._scopes.lookup(value.id)
        if isinstance(value, (ast.Attribute,)):
            canonical = self._canonical(_dotted_name(value))
            if canonical in _RNG_FACTORIES:
                return _TAG_FACTORY
            return None
        if isinstance(value, (ast.Set, ast.SetComp)):
            return _TAG_SET
        if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            left = self._value_tag(value.left)
            right = self._value_tag(value.right)
            if _TAG_SET in (left, right):
                return _TAG_SET
            return None
        if isinstance(value, ast.Call):
            return self._call_tag(value)
        return None

    def _call_tag(self, call: ast.Call) -> Optional[str]:
        canonical = self._canonical(_dotted_name(call.func))
        if canonical in _RNG_FACTORIES:
            return _TAG_RNG
        if isinstance(call.func, ast.Name):
            bound = self._scopes.lookup(call.func.id)
            if bound == _TAG_FACTORY:
                return _TAG_RNG
        if isinstance(call.func, ast.Attribute) and call.func.attr == "stream":
            return _TAG_STREAM
        callee = _terminal_name(call.func)
        if callee in ("set", "frozenset"):
            return _TAG_SET
        if callee == "dict" and call.args and self._value_tag(call.args[0]) == _TAG_SET:
            return _TAG_DICT_FROM_SET
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "fromkeys"
            and _terminal_name(call.func.value) == "dict"
            and call.args
            and self._value_tag(call.args[0]) == _TAG_SET
        ):
            return _TAG_DICT_FROM_SET
        return None

    def _is_rng_valued(self, tag: Optional[str]) -> bool:
        return tag in (_TAG_RNG, _TAG_STREAM)

    # -- SIM012 (factory-indirection construction) -------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if not self._rng_exempt and isinstance(node.func, ast.Name):
            bound = self._scopes.lookup(node.func.id)
            if bound == _TAG_FACTORY:
                self._report(
                    node,
                    "SIM012",
                    f"'{node.func.id}' holds an RNG factory; calling it constructs "
                    "an RNG outside repro.sim.rng — draw from a named registry "
                    "stream (registry.stream(<name>)) instead",
                )
        if self._kernel:
            canonical = self._canonical(_dotted_name(node.func))
            if canonical in _HOST_STATE_CALLS:
                self._report(
                    node,
                    "SIM015",
                    f"call to {canonical}() reads the host environment in kernel "
                    "code; route host configuration through a frozen config "
                    "dataclass built at the experiments layer",
                )
            self._check_set_reduction(node)
        self.generic_visit(node)

    def _check_set_reduction(self, node: ast.Call) -> None:
        """``sum(<set>)`` / ``math.fsum(<set>)`` in kernel code (SIM014)."""
        canonical = self._canonical(_dotted_name(node.func))
        if canonical not in ("sum", "math.fsum") or not node.args:
            return
        if self._iterates_unordered(node.args[0]):
            self._report(
                node,
                "SIM014",
                f"{canonical}() over a set accumulates floats in hash order; "
                "wrap the iterable in sorted(...) so the reduction order is "
                "deterministic",
            )

    def _iterates_unordered(self, iterable: ast.AST) -> bool:
        """Does ``iterable`` walk a set (or a dict keyed from one)?"""
        tag = self._value_tag(iterable)
        if tag == _TAG_SET:
            return True
        if isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Attribute):
            if iterable.func.attr in ("values", "keys", "items"):
                receiver_tag = self._value_tag(iterable.func.value)
                return receiver_tag == _TAG_DICT_FROM_SET
        return False

    # -- SIM015 (host-state reads) -----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._kernel:
            canonical = self._canonical(_dotted_name(node))
            if canonical in _HOST_STATE_READS:
                self._report(
                    node,
                    "SIM015",
                    f"{canonical} read in kernel code; host environment must "
                    "enter through config dataclasses at the experiments layer",
                )
                return  # do not double-report nested chains
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self._kernel and isinstance(node.ctx, ast.Load):
            canonical = self._canonical(node.id)
            if canonical in _HOST_STATE_READS:
                self._report(
                    node,
                    "SIM015",
                    f"{canonical} (imported as '{node.id}') read in kernel code; "
                    "host environment must enter through config dataclasses at "
                    "the experiments layer",
                )

    # -- SIM013 (stream escape) + binding upkeep ---------------------------
    def _handle_binding(self, target: ast.AST, value: ast.AST, node: ast.AST) -> None:
        tag = self._value_tag(value)
        if isinstance(target, ast.Name):
            escapes_module_state = (
                self._function_depth == 0 or self._scopes.is_global(target.id)
            )
            if self._is_rng_valued(tag) and escapes_module_state and not self._rng_exempt:
                where = (
                    "class attribute"
                    if self._class_depth > 0 and self._function_depth == 0
                    else "module global"
                )
                kind = "registry stream" if tag == _TAG_STREAM else "RNG"
                self._report(
                    node,
                    "SIM013",
                    f"{kind} stored in {where} '{target.id}'; streams are "
                    "per-run state owned by the runtime — module/class state "
                    "outlives the run and is shared across services, breaking "
                    "replay and run-cache soundness",
                )
            self._scopes.bind(target.id, tag)
        elif isinstance(target, ast.Attribute):
            base = _terminal_name(target.value)
            if (
                self._is_rng_valued(tag)
                and not self._rng_exempt
                and isinstance(target.value, ast.Name)
                and target.value.id == "cls"
            ):
                kind = "registry stream" if tag == _TAG_STREAM else "RNG"
                self._report(
                    node,
                    "SIM013",
                    f"{kind} stored on class attribute 'cls.{target.attr}' "
                    f"(via {base}); class state is shared across services and "
                    "runs — keep streams on the per-run instance",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_binding(element, value, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_binding(target, node.value, node)
        # dispatch on the value itself (not its children) so a Call RHS
        # still reaches visit_Call for the SIM012/SIM015 checks
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_binding(node.target, node.value, node)
            self.visit(node.value)

    # -- SIM014 (set-iteration accumulation) -------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._kernel and self._iterates_unordered(node.iter):
            accumulation = self._find_accumulation(node.body)
            if accumulation is not None:
                self._report(
                    node,
                    "SIM014",
                    "iterating a set while accumulating on line "
                    f"{accumulation.lineno}; set order depends on hashes and "
                    "float addition is not associative — iterate sorted(...) "
                    "so the result is bit-stable",
                )
        self.generic_visit(node)

    @staticmethod
    def _find_accumulation(body: List[ast.stmt]) -> Optional[ast.AST]:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.AugAssign) and isinstance(
                    sub.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    return sub
        return None

    # -- scope bookkeeping -------------------------------------------------
    def _enter_scope(self, node: ast.AST, is_function: bool) -> None:
        self._scopes.push()
        if is_function:
            self._function_depth += 1
        else:
            self._class_depth += 1
        try:
            self.generic_visit(node)
        finally:
            if is_function:
                self._function_depth -= 1
            else:
                self._class_depth -= 1
            self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node, is_function=True)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node, is_function=True)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter_scope(node, is_function=True)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_scope(node, is_function=False)
