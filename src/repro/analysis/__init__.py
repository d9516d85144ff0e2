"""Static analysis for the simulation kernel's correctness contract.

The reproduction's headline guarantee — bit-identical per-query latencies
for a given ``(seed, scenario)`` pair — is a *whole-repo* property: one
stray wall-clock read, one unseeded RNG, or one float-equality test on
simulated time silently breaks it, and the QoS/capacity numbers derived
from the discriminant function (paper Eqs. 5-7) stop being reproducible.

``repro.analysis`` encodes those invariants as machine-checked rules over
the Python AST, organised as a whole-program framework:

* per-file syntactic rules ``SIM001`` ... ``SIM011`` (``rules``), an
  intra-procedural dataflow pass ``SIM012`` ... ``SIM015`` tracking RNG
  and set-origin values (``dataflow`` + ``rules_flow``), and stale-ignore
  auditing ``SIM016``;
* whole-program architecture rules ``ARCH001`` ... ``ARCH004`` over the
  resolved import graph: layering direction, cycle detection, kernel
  isolation from ``experiments``, and facade enforcement (``model`` +
  ``graph`` + ``rules_arch``);
* one straight pass (``engine``): discover files, run the per-file
  rules, then the ARCH pass, then the SIM016 audit;
* ``python -m repro.analysis.lint src tests benchmarks`` lints the repo,
  prints one line per finding and exits non-zero on any finding;
* each rule carries a fix-it message and traces back to the invariant it
  protects (see ``engine.ALL_RULES`` and DESIGN.md §7/§12);
* an intentional SIM violation is silenced inline with
  ``# simlint: ignore[SIM00x]`` plus a one-line justification (anchored
  to the enclosing statement); ARCH findings have no escape hatch, so
  the only fix is the import itself.

The linter is self-hosted: it depends only on the standard library, so it
runs anywhere the repo runs (CI, the ``scripts/check.sh`` gate, editors).
"""

from __future__ import annotations

# NOTE: repro.analysis.lint is deliberately not imported here — importing
# it from the package __init__ would shadow `python -m repro.analysis.lint`
# (runpy warns when the submodule is already in sys.modules).
from repro.analysis.engine import ALL_RULES, Report, run_engine
from repro.analysis.rules import RULES, Rule, Violation
from repro.analysis.rules_arch import ARCH_RULES
from repro.analysis.rules_flow import FLOW_RULES

__all__ = [
    "ALL_RULES",
    "ARCH_RULES",
    "FLOW_RULES",
    "RULES",
    "Report",
    "Rule",
    "Violation",
    "run_engine",
]
