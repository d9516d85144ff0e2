"""Serverless front end: per-query platform overheads before dispatch.

Every invocation pays an authentication/scheduling overhead before it
reaches the container pool's FIFO queue (paper Fig. 4's "processing"
stage; code loading and result posting are paid inside the container and
accounted by the pool).  The front end also stamps arrival telemetry so
the controller's load estimate reflects offered load, not completed load.
"""

from __future__ import annotations

from repro.serverless.pool import ContainerPool
from repro.serverless.config import ServerlessConfig
from repro.sim import Environment, RngRegistry
from repro.telemetry import drop_query
from repro.workloads import Query

__all__ = ["Frontend"]


class Frontend:
    """Entry point for invocations on the serverless platform."""

    def __init__(
        self,
        env: Environment,
        pool: ContainerPool,
        config: ServerlessConfig,
        rng: RngRegistry,
    ) -> None:
        self.env = env
        self.pool = pool
        self.config = config
        self.rng = rng
        #: per-service overhead samplers, built lazily (stream identity is
        #: name-keyed, so caching the sampler changes no draw sequence)
        self._proc_draw: dict = {}

    def invoke(self, query: Query) -> None:
        """Accept one query: pay the processing overhead, then enqueue.

        The admission delay is a plain scheduled callback, not a process —
        one query is three kernel events cheaper that way.  Drawing the
        overhead here instead of at a process bootstrap keeps the
        per-service RNG stream's draw order keyed to invoke() order, which
        is the order the bootstrap events replayed anyway.

        Admission happens *before* the overhead draw, yet draw order is
        preserved for the bit-identity gates: a disabled policy rejects
        nothing, so the per-service stream sees the same invoke() order.
        """
        fs = self.pool.state(query.service)
        now = self.env.now
        metrics = fs.metrics
        if metrics is not None:
            metrics.record_arrival(now, query.canary)
        gov = fs.overload
        if gov is not None:
            # the pool's n_max is only computed if the M/M/N check is reached
            reason = gov.admit(
                len(fs.queue), fs.n_busy, fs.capacity, gov.mu_serverless, now, query.local_budget(now)
            )
            if reason is not None:
                # rejected at the door (reason admission/breaker)
                drop_query(query, reason, now, "serverless", metrics, gov)
                return
        if not query.canary:
            # conservation census: terminal paths in the pool decrement
            fs.user_in_flight += 1
        draw = self._proc_draw.get(query.service)
        if draw is None:
            draw = self._proc_draw[query.service] = self.rng.lognormal_sampler(
                f"proc/{query.service}",
                self.config.proc_overhead_median,
                self.config.proc_overhead_sigma,
            )
        proc = draw()

        def deliver() -> None:
            query.breakdown["proc"] = proc
            self.pool._submit(fs, query)

        self.env.schedule_callback(proc, deliver)
