"""Amoeba itself: the paper's contribution.

* :mod:`repro.sim.queueing` (re-exported here) — the M/M/N model
  (Eqs. 1–5): stationary
  distribution, waiting-time CDF, r-ile waits, and the discriminant
  function λ(μ) that decides whether serverless deployment can meet a
  QoS target.
* :mod:`repro.core.meters` — the three contention meters and their
  profiled latency-vs-pressure curves (Fig. 8), plus curve inversion for
  the measurement step.
* :mod:`repro.core.surfaces` — per-microservice latency surfaces
  L(P, V_u) (Fig. 9) with analytic and measured builders.
* :mod:`repro.core.mu_model` — Eq. 6: the contention-corrected
  per-container processing capacity μ, and the pessimistic additive
  variant used by the Amoeba-NoM ablation.
* :mod:`repro.core.monitor` — the multi-resource contention monitor:
  meter scheduling, heartbeat ingestion, PCA weight calibration (§VI-A)
  and the Eq. 8 sample-period rule.
* :mod:`repro.core.prewarm` — Eq. 7 prewarm sizing.
* :mod:`repro.core.engine` — the hybrid execution engine (routing and
  the prewarm→ack→flip→drain switch protocol, §V-B).
* :mod:`repro.core.controller` — the contention-aware deployment
  controller (§IV) with the co-tenant QoS guard (§III).
* :mod:`repro.core.runtime` — the Amoeba facade and its ablation
  variants (NoM, NoP).
* :mod:`repro.core.invariants` — the kernel invariant monitor
  (conservation, clock monotonicity, no-wedge liveness) every system's
  run ends through.
"""

from typing import Any

from repro.core.config import AmoebaConfig
from repro.sim.queueing import (
    discriminant_lambda,
    erlang_c,
    erlang_pi0,
    erlang_pin,
    max_arrival_rate,
    min_servers,
    qos_satisfied,
    sojourn_quantile,
    wait_cdf,
    wait_quantile,
)


def __getattr__(name: str) -> Any:
    # lazy: the runtime pulls in the platform packages; importing it
    # eagerly here would make every `import repro.core` pay for the
    # whole dependency tree (and ARCH layering treats core as the top
    # kernel layer — see repro.analysis.rules_arch)
    if name == "AmoebaRuntime":
        from repro.core.runtime import AmoebaRuntime

        return AmoebaRuntime
    if name in ("InvariantMonitor", "InvariantViolation"):
        from repro.core import invariants

        return getattr(invariants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AmoebaConfig",
    "AmoebaRuntime",
    "InvariantMonitor",
    "InvariantViolation",
    "discriminant_lambda",
    "erlang_c",
    "erlang_pi0",
    "erlang_pin",
    "max_arrival_rate",
    "min_servers",
    "qos_satisfied",
    "sojourn_quantile",
    "wait_cdf",
    "wait_quantile",
]
