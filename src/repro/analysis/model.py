"""Project model: parsed-module table with resolved imports.

The whole-program passes (ARCH layering, import cycles, facade-bypass
detection) need more than one file's AST: they need to know, for every
module in the analyzed tree, *what module it is* (its dotted name,
resolved by walking ``__init__.py`` chains up from the file) and *what it
imports* (with relative imports resolved against that name).  This
module builds that table; :mod:`repro.analysis.graph` condenses it to a
package-level digraph and :mod:`repro.analysis.rules_arch` judges it.

Everything here is pure data: records are frozen dataclasses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = [
    "ImportRecord",
    "ModuleRecord",
    "collect_imports",
    "module_exports",
    "module_name",
]


@dataclass(frozen=True)
class ImportRecord:
    """One import statement, with its target resolved to a dotted module.

    ``toplevel`` marks imports that execute (or are declared, for
    ``TYPE_CHECKING`` blocks) at module scope — the layering rules
    consider only those, while ARCH003 (experiments leakage) considers
    every import including function-local ones.
    """

    #: absolute dotted module the statement targets (relative imports
    #: already resolved against the importing module's package)
    module: str
    #: names bound by ``from module import a, b`` ("*" kept literally);
    #: empty for plain ``import module``
    names: Tuple[str, ...]
    line: int
    col: int
    toplevel: bool


@dataclass(frozen=True)
class ModuleRecord:
    """One analyzed file's identity and imports."""

    #: path as reported in findings (relative to the lint invocation)
    path: str
    #: dotted module name, or None when the file is not inside a package
    module: Optional[str]
    imports: Tuple[ImportRecord, ...] = ()
    #: the module's ``__all__`` (facade surface), when statically visible
    exports: Optional[Tuple[str, ...]] = None
    is_init: bool = False


def module_name(path: Path) -> Optional[str]:
    """Dotted module name for ``path``, by walking ``__init__.py`` chains.

    ``src/repro/core/engine.py`` resolves to ``repro.core.engine`` because
    ``core/`` and ``repro/`` carry ``__init__.py`` and ``src/`` does not.
    Returns None for a file whose own directory is not a package (the
    file is then a top-level script/module outside any package tree).
    """
    path = path.resolve()
    parts: List[str] = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if len(parts) == 1 and path.name != "__init__.py":
        return None
    if path.name == "__init__.py":
        parts = parts[1:]
        if not parts:
            return None
    return ".".join(reversed(parts))


def _resolve_relative(importer: Optional[str], is_init: bool, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted target of ``node``, or None when unresolvable."""
    if node.level == 0:
        return node.module
    if importer is None:
        return None
    parts = importer.split(".")
    # level 1 = the importing module's own package; each extra level
    # climbs one package higher
    base = parts if is_init else parts[:-1]
    if node.level > 1:
        if node.level - 1 >= len(base):
            return None
        base = base[: len(base) - (node.level - 1)]
    prefix = ".".join(base)
    if node.module:
        return f"{prefix}.{node.module}" if prefix else node.module
    return prefix or None


def collect_imports(
    tree: ast.Module, importer: Optional[str], is_init: bool
) -> Tuple[ImportRecord, ...]:
    """Every import in ``tree``, with module-scope statements marked.

    "Module scope" includes statements nested in module-level ``if``
    blocks (``if TYPE_CHECKING:`` and friends) and ``try`` fallbacks —
    lexically top-level knowledge counts for layering even when it does
    not execute at import time.
    """
    toplevel_ids = set()
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            toplevel_ids.add(id(stmt))
        elif isinstance(stmt, ast.If):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
            stack.extend(stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)

    records: List[ImportRecord] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                records.append(
                    ImportRecord(
                        module=alias.name,
                        names=(),
                        line=node.lineno,
                        col=node.col_offset,
                        toplevel=id(node) in toplevel_ids,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(importer, is_init, node)
            if target is None:
                continue
            records.append(
                ImportRecord(
                    module=target,
                    names=tuple(alias.name for alias in node.names),
                    line=node.lineno,
                    col=node.col_offset,
                    toplevel=id(node) in toplevel_ids,
                )
            )
    records.sort(key=lambda record: (record.line, record.col, record.module))
    return tuple(records)


def module_exports(tree: ast.Module) -> Optional[Tuple[str, ...]]:
    """The statically-declared ``__all__`` of a module, when present."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        return None
                    if isinstance(value, (list, tuple, set)):
                        return tuple(str(name) for name in value)
    return None
