"""The SIM rule set: domain invariants of the discrete-event kernel.

Each rule protects one leg of the determinism contract that the paper's
QoS pipeline (discriminant Eq. 5, sample-period Eq. 8, prewarm Eq. 7)
rests on.  Rules are deliberately narrow: they encode *this repo's*
conventions (all randomness flows through ``sim/rng.py``'s named streams,
all time flows through ``Environment.now``), not generic style.

The checker is a single source-order AST pass (`InvariantVisitor`);
``NodeVisitor`` recursion follows ``ast.iter_child_nodes``, which yields
children in source order, so statement-ordering rules like SIM004 see
code in the order it executes within a straight-line body.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["RULES", "Rule", "Violation", "InvariantVisitor"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, what it enforces, and why."""

    id: str
    summary: str
    #: the kernel/paper invariant the rule protects (shown by --list-rules)
    invariant: str


RULES: Tuple[Rule, ...] = (
    Rule(
        "SIM001",
        "wall-clock read or real sleep in simulation code",
        "simulated time is Environment.now only; time.time()/sleep() make "
        "latencies depend on host speed (allowed only in the CLI driver "
        "experiments/__main__.py, which times the *host* run)",
    ),
    Rule(
        "SIM002",
        "RNG constructed or drawn outside sim/rng.py",
        "all randomness must flow through named RngRegistry streams so a "
        "single root seed reproduces every draw regardless of creation "
        "order (paper Eqs. 5-7 QoS numbers are seed-conditioned)",
    ),
    Rule(
        "SIM003",
        "== / != comparison on a simulated-time expression",
        "simulated timestamps are accumulated floats; exact equality is "
        "representation-dependent — compare with <=, >=, or an epsilon",
    ),
    Rule(
        "SIM004",
        "cancelled Event re-armed or passed back to the scheduler",
        "Event.cancel() revokes the heap entry lazily; re-triggering or "
        "re-scheduling the same object corrupts heap accounting "
        "(_note_cancelled bookkeeping) — create a fresh Event instead",
    ),
    Rule(
        "SIM005",
        "mutable default argument",
        "a shared default list/dict/set leaks state between calls and "
        "between simulation runs, breaking run-to-run independence",
    ),
    Rule(
        "SIM006",
        "bare `except:` clause",
        "swallowing BaseException hides StopSimulation control flow and "
        "kernel bugs; catch the specific exception",
    ),
    Rule(
        "SIM007",
        "config dataclass is not frozen",
        "configs are hashed, shared across runs, and compared in ablation "
        "sweeps; in-place mutation would silently fork experiment setups",
    ),
    Rule(
        "SIM008",
        "public core/ or sim/ function without a return annotation",
        "kernel APIs are contracts; unannotated returns let time/rate "
        "unit mixups (seconds vs. queries/s) slip through the type gate",
    ),
    Rule(
        "SIM009",
        "fault probability folded into control flow as a module constant",
        "fault rates must travel through a FaultPlan and be drawn from a "
        "named RngRegistry stream (repro.faults); a module-level constant "
        "compared in control flow cannot be swept, scaled to zero, or "
        "reproduced from the root seed",
    ),
    Rule(
        "SIM010",
        "unbounded queue in platform code (serverless/ or iaas/)",
        "overload protection (repro.overload) assumes every request queue "
        "is depth-bounded; a bare deque()/list backlog grows without limit "
        "under lambda >> capacity, wedging open-loop runs — pass maxlen=, "
        "enforce an explicit bound at enqueue, or justify with "
        "'# simlint: ignore[SIM010]'",
    ),
    Rule(
        "SIM011",
        "lambda/nested function submitted to an executor in experiments code",
        "sweep fan-out crosses a process boundary: ProcessPoolExecutor "
        "tasks pickle by qualified name, so only module-level callables "
        "survive the trip — a lambda or closure would crash the parallel "
        "path that the serial fallback never exercises; pass a "
        "module-level function and move per-run variation into the "
        "RunRequest data",
    ),
    Rule(
        "SIM017",
        "unbounded retry loop or uncapped recursive fan-out in call-path code",
        "retries amplify load exactly when the system is least able to "
        "absorb it: a 'while True' retry loop with no attempt bound, or "
        "direct recursion with no depth cap, turns one slow node into a "
        "cascade (the retry-storm failure mode the dag resilience gate "
        "measures) — bound attempts against a budget (see "
        "graph.RetryPolicy) and compare recursion against a depth cap",
    ),
    Rule(
        "SIM018",
        "no-argument .uniform() draw on a stream",
        "Generator.uniform() with no arguments returns exactly what "
        ".random() returns (the same [0, 1) double from the same stream "
        "position) at about 4.6x the call cost; per-candidate and "
        "per-query Bernoulli rolls run millions of times a day, so draw "
        "them with .random() (a bound `roll = gen.uniform` is flagged "
        "too, since its later calls hide the missing arguments)",
    ),
)

RULE_IDS: Set[str] = {rule.id for rule in RULES}


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and how to fix it."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: RULE message`` display form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


#: wall-clock entry points, by canonical dotted name (SIM001)
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: files (path suffixes) where wall-clock reads are legitimate: the CLI
#: driver reports how long the *host* took to run each experiment
_WALL_CLOCK_ALLOWED = ("experiments/__main__.py",)

#: the one module allowed to construct numpy/stdlib RNGs (SIM002)
_RNG_ALLOWED = ("sim/rng.py",)

#: identifiers that denote simulated-time values (SIM003)
_TIME_NAME_RE = re.compile(r"^(now|t_\w+|\w*_time|\w*deadline\w*)$")

#: attribute calls that (re-)arm an event on the heap (SIM004)
_EVENT_ARM_METHODS = {"succeed", "fail"}
_SCHEDULER_FUNCS = {"schedule", "schedule_callback", "_enqueue"}

#: AST nodes that build a fresh mutable object per evaluation (SIM005)
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}

#: path segments that mark kernel packages for SIM008
_ANNOTATED_PACKAGES = {"core", "sim"}

#: path segments marking platform packages whose queues must be bounded
#: (SIM010) — these are exactly the layers the overload policy guards
_BOUNDED_QUEUE_PACKAGES = {"serverless", "iaas"}

#: binding names that denote a request queue/backlog (SIM010)
_QUEUE_NAME_RE = re.compile(r"(?i)^\w*(queue|backlog|pending|waiting)\w*$")

#: path segments whose executor submissions must be picklable (SIM011):
#: the experiments package is where run fan-out crosses process bounds
_EXECUTOR_PACKAGES = {"experiments"}

#: attribute-call names that hand a callable to an executor (SIM011);
#: bare builtin map() stays in-process and is exempt
_EXECUTOR_SUBMIT_METHODS = {"submit", "map"}

#: path segments marking call-path packages whose retries must be
#: budgeted (SIM017) — exactly the layers where one node's retries
#: become another node's offered load, so an unbounded client storms
_RETRY_SCOPED_PACKAGES = {"serverless", "iaas", "graph"}

#: operand names that evidence an attempt/retry budget guard (SIM017)
_RETRY_GUARD_RE = re.compile(r"(?i)^\w*(attempt|retr|tries|budget)\w*$")

#: operand names that evidence a recursion depth cap (SIM017); an
#: attempt budget also counts — bounded either way
_DEPTH_GUARD_RE = re.compile(r"(?i)^\w*(depth|level|hop|attempt|retr|tries|budget)\w*$")

#: names that look like a fault-injection probability/rate (SIM009);
#: matched against module-level constant bindings only — FaultPlan
#: *fields* (class scope) are the sanctioned home for these numbers.
#: Preemption and flash-crowd knobs are included: a spot reclamation
#: rate or spike probability hard-coded next to the control flow it
#: gates is exactly as unsweepable as a crash rate
_FAULT_PROB_NAME_RE = re.compile(
    r"(?i)^\w*(fault|fail(ure)?|crash|outage|drop|loss"
    r"|preempt(ion)?|reclaim|spike|surge|crowd)\w*_(prob(ability)?|rate|p)$"
)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _path_matches(path: str, suffixes: Tuple[str, ...]) -> bool:
    norm = path.replace("\\", "/")
    return any(norm.endswith(suffix) for suffix in suffixes)


def _path_segments(path: str) -> Set[str]:
    return set(path.replace("\\", "/").split("/"))


class InvariantVisitor(ast.NodeVisitor):
    """Single-pass checker for all SIM rules over one module."""

    def __init__(self, path: str):
        self.path = path
        self.violations: List[Violation] = []
        #: local alias -> canonical dotted module/attribute name
        self._aliases: Dict[str, str] = {}
        self._wall_clock_exempt = _path_matches(path, _WALL_CLOCK_ALLOWED)
        self._rng_exempt = _path_matches(path, _RNG_ALLOWED)
        self._annotations_apply = bool(_ANNOTATED_PACKAGES & _path_segments(path))
        self._queue_bounds_apply = bool(_BOUNDED_QUEUE_PACKAGES & _path_segments(path))
        self._executor_rules_apply = bool(_EXECUTOR_PACKAGES & _path_segments(path))
        self._retry_rules_apply = bool(_RETRY_SCOPED_PACKAGES & _path_segments(path))
        #: scope stack of {name -> def line} for unpicklable callables
        #: (lambda bindings anywhere, nested defs) — SIM011 lookups walk it
        self._unpicklable_callables: List[Dict[str, int]] = [{}]
        #: stack of per-function {name -> cancel line} maps for SIM004
        self._cancelled_stack: List[Dict[str, int]] = []
        self._function_depth = 0
        self._class_depth = 0
        #: module-level fault-probability constants {name -> def line} (SIM009)
        self._fault_prob_consts: Dict[str, int] = {}
        #: ids of `.uniform` attribute nodes that are called in place (SIM018)
        self._called_uniform: Set[int] = set()

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
        """Resolve the chain root through recorded import aliases."""
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

    # -- SIM001 / SIM002 / SIM004 / SIM018 (calls) -------------------------
    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._canonical(_dotted_name(node.func))
        if canonical is not None:
            if not self._wall_clock_exempt and canonical in _WALL_CLOCK_CALLS:
                self._report(
                    node,
                    "SIM001",
                    f"call to {canonical}() reads the wall clock; use Environment.now "
                    "/ Environment.timeout for simulated time (host timing belongs in "
                    "experiments/__main__.py)",
                )
            if not self._rng_exempt and (
                canonical.startswith("random.") or canonical.startswith("numpy.random.")
            ):
                self._report(
                    node,
                    "SIM002",
                    f"call to {canonical}() bypasses the RngRegistry; draw from a named "
                    "stream (registry.stream(<name>)) so one root seed reproduces "
                    "every sequence",
                )
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "uniform":
            self._called_uniform.add(id(func))
            if not node.args and not node.keywords:
                self._report(
                    node,
                    "SIM018",
                    ".uniform() with no arguments is .random() at about 4.6x the cost; "
                    "call .random() for the same [0, 1) draw",
                )
        self._check_cancelled_use(node)
        if self._executor_rules_apply:
            self._check_executor_submission(node)
        self.generic_visit(node)

    # -- SIM018 (bound .uniform) --------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        # `roll = gen.uniform` binds the method for later no-argument calls,
        # which the call check above cannot see through
        if node.attr == "uniform" and isinstance(node.ctx, ast.Load) and id(node) not in self._called_uniform:
            self._report(
                node,
                "SIM018",
                ".uniform bound for later calls; bind .random for [0, 1) rolls "
                "(same draw at a fraction of the cost) or call .uniform(low, high) directly",
            )
        self.generic_visit(node)

    # -- SIM011 (unpicklable executor submissions) -------------------------
    def _check_executor_submission(self, node: ast.Call) -> None:
        """Flag ``pool.submit(lambda: ...)`` / closures in experiments/."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _EXECUTOR_SUBMIT_METHODS):
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                self._report(
                    node,
                    "SIM011",
                    f"lambda passed to .{func.attr}(); executor tasks pickle by "
                    "qualified name, so only a module-level function crosses the "
                    "process boundary — move it to module scope and carry per-run "
                    "variation in the RunRequest",
                )
                continue
            if isinstance(arg, ast.Name):
                line = self._lookup_unpicklable(arg.id)
                if line is not None:
                    self._report(
                        node,
                        "SIM011",
                        f"'{arg.id}' (nested function/lambda from line {line}) passed "
                        f"to .{func.attr}(); it cannot pickle to a worker process — "
                        "define it at module level and carry per-run variation in "
                        "the RunRequest",
                    )

    def _lookup_unpicklable(self, name: str) -> Optional[int]:
        for frame in reversed(self._unpicklable_callables):
            if name in frame:
                return frame[name]
        return None

    def _check_cancelled_use(self, node: ast.Call) -> None:
        """SIM004: flag re-arming or re-scheduling of a cancelled event."""
        if not self._cancelled_stack:
            return
        cancelled = self._cancelled_stack[-1]
        func = node.func
        if isinstance(func, ast.Attribute):
            target = _terminal_name(func.value)
            if func.attr == "cancel" and isinstance(func.value, (ast.Name, ast.Attribute)):
                if target is not None:
                    cancelled[target] = node.lineno
                return
            if func.attr in _EVENT_ARM_METHODS and target in cancelled:
                self._report(
                    node,
                    "SIM004",
                    f"'{target}' was cancelled on line {cancelled[target]}; calling "
                    f".{func.attr}() on it re-arms a dead heap entry — create a fresh "
                    "Event/Timeout instead",
                )
                return
            if func.attr in _SCHEDULER_FUNCS:
                self._flag_cancelled_args(node, cancelled)
        elif isinstance(func, ast.Name) and func.id in _SCHEDULER_FUNCS:
            self._flag_cancelled_args(node, cancelled)

    def _flag_cancelled_args(self, node: ast.Call, cancelled: Dict[str, int]) -> None:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            name = _terminal_name(arg)
            if name in cancelled:
                self._report(
                    node,
                    "SIM004",
                    f"'{name}' was cancelled on line {cancelled[name]}; passing it back "
                    "to the scheduler corrupts cancelled-entry accounting — schedule a "
                    "fresh Event instead",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        # rebinding a name clears its cancelled status (fresh object)
        if self._cancelled_stack:
            cancelled = self._cancelled_stack[-1]
            for target in node.targets:
                name = _terminal_name(target)
                if name in cancelled:
                    del cancelled[name]
        for target in node.targets:
            self._record_fault_prob_const(target, node.value)
            self._check_unbounded_queue(target, node.value, node)
            self._track_lambda_binding(target, node.value, node)
        self.generic_visit(node)

    def _track_lambda_binding(self, target: ast.AST, value: ast.AST, node: ast.AST) -> None:
        """Track ``name = lambda ...`` bindings for SIM011 (rebind clears)."""
        if not isinstance(target, ast.Name):
            return
        frame = self._unpicklable_callables[-1]
        if isinstance(value, ast.Lambda):
            frame[target.id] = getattr(node, "lineno", 1)
        else:
            frame.pop(target.id, None)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_fault_prob_const(node.target, node.value)
            self._check_unbounded_queue(node.target, node.value, node)
            self._track_lambda_binding(node.target, node.value, node)
        self.generic_visit(node)

    # -- SIM010 (unbounded platform queues) --------------------------------
    def _check_unbounded_queue(self, target: ast.AST, value: ast.AST, node: ast.AST) -> None:
        """Flag ``queue = deque()`` / ``backlog = []`` in serverless|iaas."""
        if not self._queue_bounds_apply:
            return
        name = _terminal_name(target)
        if name is None or not _QUEUE_NAME_RE.match(name):
            return
        if self._is_unbounded_queue_value(value):
            self._report(
                node,
                "SIM010",
                f"'{name}' binds an unbounded queue; platform backlogs must be "
                "depth-bounded (deque(maxlen=...), or an explicit bound enforced "
                "at enqueue with a '# simlint: ignore[SIM010]' justification) so "
                "open-loop overload cannot grow state without limit",
            )

    def _is_unbounded_queue_value(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.ListComp)):
            return True
        if not isinstance(value, ast.Call):
            return False
        callee = _terminal_name(value.func)
        if callee == "list":
            return True
        if callee == "deque":
            return not self._deque_is_bounded(value)
        if callee == "field":
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    factory = kw.value
                    if _terminal_name(factory) in ("deque", "list"):
                        return True
                    if isinstance(factory, ast.Lambda):
                        return self._is_unbounded_queue_value(factory.body)
        return False

    @staticmethod
    def _deque_is_bounded(call: ast.Call) -> bool:
        if len(call.args) >= 2:  # deque(iterable, maxlen)
            return True
        for kw in call.keywords:
            if kw.arg == "maxlen":
                return not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
        return False

    # -- SIM009 (fault probabilities as module constants) ------------------
    def _record_fault_prob_const(self, target: ast.AST, value: ast.AST) -> None:
        """Remember ``CRASH_PROB = 0.01``-style module-level bindings.

        Class scope is exempt: (Ann)Assigns there are dataclass fields,
        and a ``FaultPlan`` field is exactly where the number belongs.
        """
        if self._function_depth > 0 or self._class_depth > 0:
            return
        if not (
            isinstance(target, ast.Name)
            and _FAULT_PROB_NAME_RE.match(target.id)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, (int, float))
            and not isinstance(value.value, bool)
        ):
            return
        self._fault_prob_consts[target.id] = target.lineno

    def _check_fault_prob_use(self, operand: ast.AST, node: ast.AST) -> bool:
        if not (isinstance(operand, ast.Name) and operand.id in self._fault_prob_consts):
            return False
        self._report(
            node,
            "SIM009",
            f"'{operand.id}' (module constant, line "
            f"{self._fault_prob_consts[operand.id]}) gates control flow; fault "
            "probabilities must live on a FaultPlan and be drawn via a named "
            "RngRegistry stream (FaultInjector) so runs stay seed-reproducible "
            "and sweepable to zero",
        )
        return True

    def visit_If(self, node: ast.If) -> None:
        self._check_fault_prob_use(node.test, node)
        self.generic_visit(node)

    # -- SIM003 (time equality) / SIM009 (fault-prob comparisons) ----------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for operand in operands:
            if self._check_fault_prob_use(operand, node):
                break
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side, other in ((lhs, rhs), (rhs, lhs)):
                name = _terminal_name(side)
                if name is None or not _TIME_NAME_RE.match(name):
                    continue
                # `x == None` is a different bug (ruff E711), and equality
                # against a string/bool is not a float-time comparison
                if isinstance(other, ast.Constant) and not isinstance(other.value, (int, float)):
                    continue
                op_text = "==" if isinstance(op, ast.Eq) else "!="
                self._report(
                    node,
                    "SIM003",
                    f"'{name}' {op_text} ... compares simulated time exactly; "
                    "accumulated float timestamps are not exactly representable — "
                    "use <=, >=, or math.isclose with an explicit tolerance",
                )
                break
        self.generic_visit(node)

    # -- SIM005 / SIM008 (function definitions) ----------------------------
    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and _terminal_name(default.func) in _MUTABLE_FACTORIES
            ):
                self._report(
                    node,
                    "SIM005",
                    f"function '{node.name}' has a mutable default argument; the object "
                    "is shared across calls and simulation runs — default to None and "
                    "construct inside the body",
                )
                break
        if (
            self._annotations_apply
            and self._function_depth == 0
            and node.returns is None
            and (not node.name.startswith("_") or node.name == "__init__")
        ):
            self._report(
                node,
                "SIM008",
                f"public function '{node.name}' lacks a return annotation; kernel APIs "
                "must state their contract (use '-> None' for procedures)",
            )
        if self._retry_rules_apply:
            self._check_uncapped_recursion(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self._enter_function(node)

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._function_depth > 0:
            # a def inside a function is a closure: remember it for SIM011
            self._unpicklable_callables[-1][node.name] = node.lineno
        self._cancelled_stack.append({})
        self._unpicklable_callables.append({})
        self._function_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._function_depth -= 1
            self._unpicklable_callables.pop()
            self._cancelled_stack.pop()

    # -- SIM017 (unbounded retry loops / uncapped recursion) ---------------
    def visit_While(self, node: ast.While) -> None:
        """Flag ``while True:`` retry loops with no attempt-budget guard.

        A retry loop is a constant-true loop that ``continue``s (re-runs
        the attempt); it is budgeted if any comparison inside it names an
        attempt/retry/budget-ish operand.  Loops that never ``continue``
        (event loops, generators draining ``yield``) are not retry loops.
        """
        if (
            self._retry_rules_apply
            and isinstance(node.test, ast.Constant)
            and bool(node.test.value)
            and self._own_continues(node)
            and not self._has_guard_compare(node, _RETRY_GUARD_RE)
        ):
            self._report(
                node,
                "SIM017",
                "'while True' retry loop with no attempt budget; an unbounded "
                "client re-offers load exactly when the callee is overloaded "
                "and storms the call path — bound attempts (e.g. 'attempts < "
                "policy.max_attempts') or justify with "
                "'# simlint: ignore[SIM017]'",
            )
        self.generic_visit(node)

    @staticmethod
    def _own_continues(loop: ast.While) -> bool:
        """True iff the loop body has a ``continue`` targeting *this* loop."""
        stack: List[ast.AST] = list(loop.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, ast.Continue):
                return True
            if isinstance(
                stmt,
                (ast.While, ast.For, ast.AsyncFor, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                continue  # a continue in there targets the inner loop/frame
            stack.extend(ast.iter_child_nodes(stmt))
        return False

    @staticmethod
    def _has_guard_compare(root: ast.AST, pattern: "re.Pattern[str]") -> bool:
        """True if any comparison under ``root`` names a guard-ish operand."""
        for sub in ast.walk(root):
            if isinstance(sub, ast.Compare):
                for operand in [sub.left, *sub.comparators]:
                    name = _terminal_name(operand)
                    if name is not None and pattern.match(name):
                        return True
        return False

    @staticmethod
    def _is_recursive_call(func: ast.AST, name: str) -> bool:
        """``name(...)`` or ``self/cls.name(...)`` — NOT ``other.name(...)``.

        Delegation wrappers (``def invoke(self): return self.pool.invoke(...)``)
        share the method name with the callee but do not recurse.
        """
        if isinstance(func, ast.Name):
            return func.id == name
        if isinstance(func, ast.Attribute) and func.attr == name:
            return isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
        return False

    def _check_uncapped_recursion(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Flag direct recursion with no depth-cap comparison (SIM017)."""
        calls_self = any(
            isinstance(sub, ast.Call) and self._is_recursive_call(sub.func, node.name)
            for sub in ast.walk(node)
        )
        if calls_self and not self._has_guard_compare(node, _DEPTH_GUARD_RE):
            self._report(
                node,
                "SIM017",
                f"'{node.name}' recurses with no depth cap; recursive fan-out "
                "without a bound turns one call into an unbounded cascade — "
                "compare against a depth/level limit (or an attempt budget) "
                "before recursing, or justify with '# simlint: ignore[SIM017]'",
            )

    # -- SIM006 (bare except) ----------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node,
                "SIM006",
                "bare 'except:' catches BaseException, including the kernel's "
                "StopSimulation control flow — name the exception type",
            )
        self.generic_visit(node)

    # -- SIM007 (frozen config dataclasses) --------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_config_dataclass(node) and not self._dataclass_frozen(node):
            self._report(
                node,
                "SIM007",
                f"config dataclass '{node.name}' must be @dataclass(frozen=True); "
                "configs are shared across runs and hashed by ablation sweeps",
            )
        self._class_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._class_depth -= 1

    def _is_config_dataclass(self, node: ast.ClassDef) -> bool:
        if not self._has_dataclass_decorator(node):
            return False
        return node.name.endswith("Config") or _path_matches(self.path, ("config.py",))

    def _has_dataclass_decorator(self, node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if _terminal_name(target) == "dataclass":
                return True
        return False

    def _dataclass_frozen(self, node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and _terminal_name(deco.func) == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        return False
