#!/usr/bin/env bash
# The single development gate: every PR must pass this locally and in CI.
#
#   1. simlint — the repo's own whole-program analyzer: sim-kernel
#                invariants SIM001..SIM018 plus the ARCH001..ARCH004
#                import-graph layering rules (DESIGN.md §7 and §12) over
#                src/ + tests/ + benchmarks/; a stale ignore directive
#                (SIM016) is an error, and SIM018 flags a no-argument
#                .uniform() draw or a bound .uniform in src/ (the same
#                value as .random() at about 4.6x the call cost).  Always runs; pure stdlib,
#                so there is no environment where it can't.
#   2. mypy    — strict typing on repro.sim / repro.core /
#                repro.serverless / repro.overload (config in
#                pyproject.toml).  Skipped with a warning when mypy is
#                not installed.
#   3. ruff    — baseline style layer (config in pyproject.toml).
#                Skipped with a warning when ruff is not installed.
#   4. pytest  — the quick test tier (slow end-to-end benches excluded;
#                run `pytest` with no -m filter for the full tier).  It
#                holds every determinism and acceptance gate: zero-rate
#                layers bit-identical to no layer, any worker count
#                bit-identical to serial, large-N Erlang accuracy, and
#                the overload, retry-storm and preemption-storm bounds.
#
# Usage: scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== simlint: whole-program invariants + architecture =="
python -m repro.analysis.lint src tests benchmarks

echo "== mypy: strict typing gate =="
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy
else
    echo "warning: mypy not installed; skipping the typing gate" >&2
fi

echo "== ruff: baseline style =="
if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    ruff check src
else
    echo "warning: ruff not installed; skipping the style gate" >&2
fi

echo "== pytest: quick tier =="
python -m pytest -x -q -m "not slow"

echo "== all gates green =="
