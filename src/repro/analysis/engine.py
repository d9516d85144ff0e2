"""The whole-program lint engine: one straight pass.

:func:`run_engine` runs four steps in order:

* **Discovery** — ``os.walk``-style traversal with real directory
  pruning, deterministic ordering, and per-file scope assignment: files
  under ``tests/``/``benchmarks/`` get the relaxed TEST scope, everything
  else (and every explicitly named file) the full KERNEL scope.
* **Per-file analysis** — the :class:`InvariantVisitor` rules plus the
  :mod:`repro.analysis.rules_flow` dataflow pass, with inline
  ``# simlint: ignore[...]`` suppression anchored to *statement spans*
  (a directive on a ``def`` line silences a violation reported on its
  decorator, and a directive on any line of a multi-line statement
  covers the whole statement).
* **Whole-program pass** — the module table feeds the ARCH layering
  rules (:mod:`repro.analysis.rules_arch`).  ARCH findings cannot be
  suppressed: the only fix is the import itself.
* **SIM016** — directives that suppressed nothing are stale-ignore
  errors.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.model import ModuleRecord, collect_imports, module_exports, module_name
from repro.analysis.rules import RULES, InvariantVisitor, Rule, Violation
from repro.analysis.rules_arch import ARCH_RULES, check_architecture, prove_acyclic
from repro.analysis.rules_flow import FLOW_RULES, FlowVisitor

__all__ = [
    "ALL_RULES",
    "FileAnalysis",
    "Report",
    "SCOPE_KERNEL",
    "SCOPE_TEST",
    "STALE_IGNORE_RULE",
    "analyze_source",
    "iter_python_files",
    "run_engine",
]

#: directories never worth descending into (pruned, not post-filtered)
_SKIP_DIR_NAMES = {
    "__pycache__",
    ".git",
    ".mypy_cache",
    ".pytest_cache",
    ".ruff_cache",
    ".repro_cache",
    ".hypothesis",
}

#: the corpus of deliberately-broken rule fixtures: pruned whenever it is
#: reached by directory walk (linting it explicitly still works)
_FIXTURE_DIR = ("analysis", "fixtures")

#: matches the blanket directive or the bracketed form with rule ids
_IGNORE_RE = re.compile(r"#\s*simlint:\s*ignore(?:\[(?P<ids>[A-Z0-9,\s]+)\])?")

SCOPE_KERNEL = "kernel"
SCOPE_TEST = "test"

#: rules enforced on tests/ and benchmarks/: the leak-across-runs pair
#: (shared mutable defaults, swallowed control flow) plus stale ignores;
#: kernel-convention rules would drown test code in false positives
#: (tests legitimately build RNGs, read clocks around benchmarks, etc.)
_TEST_SCOPE_RULES = {"SIM005", "SIM006"}

STALE_IGNORE_RULE = Rule(
    "SIM016",
    "stale '# simlint: ignore' directive suppresses nothing",
    "an ignore that no longer matches any violation is camouflage: it "
    "documents a hazard that no longer exists and will silently swallow "
    "the next real finding on that statement — delete it (or fix the "
    "rule list in the brackets)",
)

#: every rule the engine can emit, in report order
ALL_RULES: Tuple[Rule, ...] = RULES + FLOW_RULES + (STALE_IGNORE_RULE,) + ARCH_RULES

#: compound statements whose suppression span is the *header* only
#: (directive on the def/if line must not blanket the whole body)
_COMPOUND_STMTS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


@dataclass
class Directive:
    """One inline ignore comment and whether it earned its keep."""

    line: int
    col: int
    #: None = blanket ignore; otherwise the bracketed rule ids
    ids: Optional[Tuple[str, ...]]
    used: bool = False


@dataclass
class FileAnalysis:
    """Everything the engine needs to remember about one analyzed file."""

    path: str
    violations: List[Violation] = field(default_factory=list)
    directives: List[Directive] = field(default_factory=list)
    module: Optional[ModuleRecord] = None
    broken: Optional[str] = None


# -- discovery ---------------------------------------------------------------


def _prune(dirnames: List[str], parent: Path) -> None:
    keep = []
    for name in dirnames:
        if name in _SKIP_DIR_NAMES:
            continue
        if name == _FIXTURE_DIR[1] and parent.name == _FIXTURE_DIR[0]:
            continue
        keep.append(name)
    dirnames[:] = sorted(keep)


def iter_python_files(paths: Iterable[Path]) -> Iterable[Tuple[Path, str]]:
    """Yield ``(file, scope)`` pairs in deterministic order.

    Directories are walked with genuine pruning: a skipped directory is
    never descended into.  Explicitly named files are always yielded at
    KERNEL scope, whatever their location — only walk-*discovered* files
    under a ``tests``/``benchmarks`` segment are demoted to TEST scope.
    """
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            root_is_test = bool({"tests", "benchmarks"} & set(path.parts))
            for dirpath, dirnames, filenames in os.walk(path):
                here = Path(dirpath)
                _prune(dirnames, here)
                rel_parts = here.relative_to(path).parts
                in_tests = root_is_test or bool({"tests", "benchmarks"} & set(rel_parts))
                for name in sorted(filenames):
                    if not name.endswith(".py"):
                        continue
                    file_path = here / name
                    if file_path in seen:
                        continue
                    seen.add(file_path)
                    yield file_path, SCOPE_TEST if in_tests else SCOPE_KERNEL
        elif path.suffix == ".py" and path not in seen:
            seen.add(path)
            yield path, SCOPE_KERNEL


# -- suppression -------------------------------------------------------------


def _parse_directive(text: str, line: int, col_base: int) -> Optional[Directive]:
    match = _IGNORE_RE.search(text)
    if match is None:
        return None
    ids = match.group("ids")
    parsed: Optional[Tuple[str, ...]] = None
    if ids is not None:
        parsed = tuple(part.strip() for part in ids.split(",") if part.strip())
    return Directive(line=line, col=col_base + match.start(), ids=parsed)


def _collect_directives(source: str) -> List[Directive]:
    """Every ignore directive in ``source``, from real comment tokens.

    Tokenizing (rather than scanning raw lines) keeps a ``# simlint:
    ignore`` *mention* inside a docstring or string literal from being
    treated as a live directive — the stale-ignore audit (SIM016) would
    otherwise flag prose that documents the escape hatch.
    """
    directives: List[Directive] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            directive = _parse_directive(token.string, token.start[0], token.start[1])
            if directive is not None:
                directives.append(directive)
    except (tokenize.TokenError, IndentationError):
        # fall back to the historical line scan for untokenizable input
        directives = []
        for lineno, text in enumerate(source.splitlines(), start=1):
            directive = _parse_directive(text, lineno, 0)
            if directive is not None:
                directives.append(directive)
    return directives


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        for deco in getattr(node, "decorator_list", []):
            start = min(start, deco.lineno)
        body = getattr(node, "body", None)
        if isinstance(node, _COMPOUND_STMTS) and body:
            end = max(node.lineno, body[0].lineno - 1)
        else:
            end = node.end_lineno or node.lineno
        spans.append((start, end))
    return spans


def _span_for_line(spans: Sequence[Tuple[int, int]], line: int) -> Tuple[int, int]:
    """The innermost statement span containing ``line``."""
    best: Optional[Tuple[int, int]] = None
    for start, end in spans:
        if start <= line <= end:
            if best is None or (end - start, -start) < (best[1] - best[0], -best[0]):
                best = (start, end)
    return best if best is not None else (line, line)


def _apply_suppression(
    violations: List[Violation],
    directives: List[Directive],
    spans: Sequence[Tuple[int, int]],
) -> List[Violation]:
    """The violations no directive covers; marks the directives that hit."""
    kept: List[Violation] = []
    by_line: Dict[int, List[Directive]] = {}
    for directive in directives:
        by_line.setdefault(directive.line, []).append(directive)
    for violation in violations:
        start, end = _span_for_line(spans, violation.line)
        hit = None
        for line in range(start, end + 1):
            for directive in by_line.get(line, ()):
                if directive.ids is None or violation.rule_id in directive.ids:
                    hit = directive
                    break
            if hit is not None:
                break
        if hit is not None:
            hit.used = True
        else:
            kept.append(violation)
    return kept


# -- per-file analysis -------------------------------------------------------


def analyze_source(
    source: str,
    path: str,
    *,
    scope: str = SCOPE_KERNEL,
    fs_path: Optional[Path] = None,
) -> FileAnalysis:
    """Run every per-file pass over one module's source text."""
    analysis = FileAnalysis(path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        analysis.broken = f"{path}:{exc.lineno or 1}:0: cannot parse: {exc.msg}"
        return analysis

    visitor = InvariantVisitor(path)
    visitor.visit(tree)
    violations = list(visitor.violations)
    if scope == SCOPE_KERNEL:
        flow = FlowVisitor(path)
        flow.visit(tree)
        violations.extend(flow.violations)
    else:
        violations = [v for v in violations if v.rule_id in _TEST_SCOPE_RULES]
    violations.sort(key=lambda v: (v.line, v.col, v.rule_id))

    analysis.directives = _collect_directives(source)
    analysis.violations = _apply_suppression(
        violations, analysis.directives, _statement_spans(tree)
    )

    resolve_from = fs_path if fs_path is not None else Path(path)
    is_init = resolve_from.name == "__init__.py"
    dotted = module_name(resolve_from) if resolve_from.exists() else None
    analysis.module = ModuleRecord(
        path=path,
        module=dotted,
        imports=collect_imports(tree, dotted, is_init),
        exports=module_exports(tree) if is_init else None,
        is_init=is_init,
    )
    return analysis


def _analyze_file(path: Path, scope: str) -> FileAnalysis:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return FileAnalysis(path=str(path), broken=f"{path}:1:0: cannot read: {exc}")
    return analyze_source(source, str(path), scope=scope, fs_path=path)


def _stale_ignores(analysis: FileAnalysis) -> List[Violation]:
    stale: List[Violation] = []
    for directive in analysis.directives:
        if directive.used:
            continue
        listed = f"[{', '.join(directive.ids)}]" if directive.ids is not None else ""
        stale.append(
            Violation(
                path=analysis.path,
                line=directive.line,
                col=directive.col,
                rule_id="SIM016",
                message=(
                    f"stale directive 'simlint: ignore{listed}' suppresses "
                    "nothing on this statement; delete it so it cannot "
                    "mask the next real finding"
                ),
            )
        )
    return stale


# -- the engine --------------------------------------------------------------


@dataclass
class Report:
    """One engine run's complete outcome."""

    errors: List[Violation] = field(default_factory=list)
    #: files that could not be read or parsed (exit code 2)
    broken: List[str] = field(default_factory=list)
    #: the acyclicity proof: packages in dependency order (None = cycle)
    package_order: Optional[List[str]] = None


def run_engine(paths: Sequence[Path]) -> Report:
    """Lint ``paths`` end to end; the CLI renders the returned report."""
    report = Report()
    analyses: List[FileAnalysis] = []
    for file_path, scope in iter_python_files(paths):
        analysis = _analyze_file(file_path, scope)
        if analysis.broken is not None:
            report.broken.append(analysis.broken)
        else:
            analyses.append(analysis)

    violations: List[Violation] = []
    for analysis in analyses:
        violations.extend(analysis.violations)
        violations.extend(_stale_ignores(analysis))

    modules = [a.module for a in analyses if a.module is not None]
    violations.extend(check_architecture(modules))
    report.package_order = prove_acyclic(modules)

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    report.errors = violations
    return report
