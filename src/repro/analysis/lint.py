"""The sim-kernel linter CLI: ``python -m repro.analysis.lint <paths>``.

Front-end over :mod:`repro.analysis.engine`.  Walks the given
files/directories, runs the per-file SIM rules plus the whole-program
ARCH layering pass, honours inline ``# simlint: ignore[SIM00x]`` escape
hatches (anchored to the enclosing statement, so a directive on a
``def`` line covers findings on its decorators and a directive anywhere
in a multi-line statement covers the whole statement), flags stale
directives as SIM016, and prints one ``path:line:col: RULE message``
line per finding.  Exits 1 on any finding, 2 on an unreadable or
unparsable file.  Pure standard library, so it runs in any environment
the repo itself runs in.

:func:`lint_source` and :func:`lint_file` run the same per-file rules
on one module at KERNEL scope and raise :class:`BrokenModule` for
unparsable input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Sequence

from repro.analysis.engine import ALL_RULES, analyze_source, run_engine
from repro.analysis.rules import Violation

__all__ = ["BrokenModule", "lint_file", "lint_source", "main"]


class BrokenModule(Exception):
    """Raised when a file cannot be parsed (reported as a hard error)."""


def lint_source(source: str, path: str) -> List[Violation]:
    """Lint one module's source text; ``path`` scopes path-based rules."""
    analysis = analyze_source(source, path)
    if analysis.broken is not None:
        raise BrokenModule(analysis.broken)
    return analysis.violations


def lint_file(path: Path) -> List[Violation]:
    """Lint one file on disk."""
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.summary}")
        lines.append(f"        {rule.invariant}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=(
            "Check simulation-kernel invariants (SIM001..SIM018) and "
            "architecture layering (ARCH001..ARCH004)."
        ),
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories to lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule and its invariant, then exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis.lint src)")

    missing = [str(p) for p in args.paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = run_engine(args.paths)
    if report.broken:
        for message in report.broken:
            print(message, file=sys.stderr)
        return 2

    for violation in report.errors:
        print(violation.render())
    if report.errors:
        count = len(report.errors)
        print(f"simlint: {count} violation{'s' if count != 1 else ''} found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
