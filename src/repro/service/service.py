"""The query service: windows in, scheduled shared execution out.

:class:`QueryService` composes the whole serving story: timed
submissions (optionally carrying a priority and a deadline) collect in
an :class:`~repro.service.admission.AdmissionQueue` (grid or adaptive
windows), each window's bound chunk plans are ordered by a scheduling
policy (``fifo`` / ``balanced`` / deadline-aware ``edf``), executed
with cross-query sense sharing and -- when ``result_cache`` is on --
the engine's cross-window :class:`~repro.ssd.query_engine.ResultCache`
consulted first, and every chunk job is replayed through one exact
event simulation so latencies, deadline conformance, and the
bottleneck resource are simulation-accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.expressions import Expression, operand_names
from repro.flash.faults import RecoveryPolicy
from repro.service.admission import AdmissionQueue, Submission
from repro.service.health import (
    QUARANTINED,
    ChipHealthTracker,
    HealthConfig,
)
from repro.service.metrics import LatencySummary, ServiceStats
from repro.service.scheduler import (
    POLICIES,
    QueryInfo,
    job_directives,
    schedule_window,
)
from repro.ssd.controller import QueryResult, SmallSsd
from repro.ssd.events import (
    ArbitrationConfig,
    JobTable,
    StageJob,
    simulate_stages,
)
from repro.ssd.ftl import UnknownVectorError
from repro.ssd.maintenance import MaintenanceConfig, MaintenanceManager
from repro.ssd.query_engine import ChunkTask


@dataclass(frozen=True)
class ServedQuery:
    """One query's journey through the service."""

    query_id: int
    client: str
    expr: Expression
    submitted_us: float
    #: When the query's admission window closed (execution eligible).
    admitted_us: float
    #: When its last chunk left the external link.
    completed_us: float
    #: Functional result; ``n_senses``/``latency_us`` count only the
    #: flash work actually spent on this query (shared senses are
    #: billed to the query that executed them; cache-served chunks
    #: were paid for by a previous window).
    result: QueryResult
    #: Chunk tasks of this query served by another query's sense in
    #: the same window.
    shared_chunks: int
    #: Chunk tasks of this query served from the cross-window result
    #: cache.
    cached_chunks: int = 0
    priority: int = 0
    deadline_us: float | None = None
    #: Typed fault the query surfaced (``None`` on success); a failed
    #: query carries an empty result vector.
    error: Exception | None = None
    #: Extra recovered sense attempts spent on this query's chunks.
    retries: int = 0
    #: Chunk executions served on the degraded V_TH path.
    degraded_chunks: int = 0
    #: Virtual recovery time (backoff + stalls) charged to this
    #: query's pipeline jobs.  Retry-plane only: parity reconstruction
    #: time is reported separately in ``reconstruction_us`` so
    #: "recovered via retry" and "recovered via parity" stay
    #: distinguishable.
    fault_overhead_us: float = 0.0
    #: Chunk results of this query rebuilt from parity after a chip
    #: failure, and the survivor chip time those rebuilds charged to
    #: this query's pipeline jobs.
    reconstructed_chunks: int = 0
    reconstruction_us: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def fault_affected(self) -> bool:
        """Whether any fault-plane mechanism touched this query."""
        return (
            self.error is not None
            or self.retries > 0
            or self.degraded_chunks > 0
            or self.fault_overhead_us > 0.0
            or self.reconstructed_chunks > 0
            or self.reconstruction_us > 0.0
        )

    @property
    def wait_us(self) -> float:
        """Time spent queued before the window closed."""
        return self.admitted_us - self.submitted_us

    @property
    def latency_us(self) -> float:
        """Submission-to-delivery service latency."""
        return self.completed_us - self.submitted_us

    @property
    def deadline_met(self) -> bool | None:
        """Whether the query completed by its deadline (``None`` for
        best-effort queries that stated none)."""
        if self.deadline_us is None:
            return None
        return self.completed_us <= self.deadline_us


@dataclass(frozen=True)
class ServiceReport:
    """Everything one :meth:`QueryService.run` produced."""

    queries: tuple[ServedQuery, ...]
    stats: ServiceStats

    def latencies_us(self, client: str | None = None) -> list[float]:
        return [
            q.latency_us
            for q in self.queries
            if client is None or q.client == client
        ]

    def client_latency(self, client: str) -> LatencySummary:
        return LatencySummary.from_latencies(self.latencies_us(client))


class _QueryState:
    """Mutable per-query accumulator while a run executes.

    Keeps only what completion needs -- the result length, the
    template-hit flag, the chunk pieces and the costs -- never the
    bound plans: those belong to the query's window and die with it.
    """

    __slots__ = (
        "submission", "n_bits", "template_hit", "pieces", "n_senses",
        "energy_nj", "chip_busy", "shared_chunks", "cached_chunks",
        "admitted_us", "completed_us", "error", "retries",
        "degraded_chunks", "fault_us", "reconstructed_chunks",
        "reconstruction_us",
    )

    def __init__(
        self, submission, n_bits=0, template_hit=False, n_chunks=0
    ) -> None:
        self.submission = submission
        self.n_bits = n_bits
        self.template_hit = template_hit
        self.pieces: list[np.ndarray | None] = [None] * n_chunks
        self.n_senses = 0
        self.energy_nj = 0.0
        self.chip_busy: dict[int, float] = {}
        self.shared_chunks = 0
        self.cached_chunks = 0
        self.admitted_us = 0.0
        self.completed_us = 0.0
        self.error: Exception | None = None
        self.retries = 0
        self.degraded_chunks = 0
        self.fault_us = 0.0
        self.reconstructed_chunks = 0
        self.reconstruction_us = 0.0


class QueryService:
    """Accepts timed query submissions, serves them in scheduled,
    sense-shared admission windows (see the package docstring).

    Service-level options beyond the admission/scheduling basics:

    ``result_cache`` / ``result_cache_size``
        Enable the engine's cross-window
        :class:`~repro.ssd.query_engine.ResultCache`: windows consult
        it before dedup, so traffic repeating earlier windows' shapes
        skips the sensing engine entirely.  The cache lives on the
        engine and survives across :meth:`run` calls (and across
        services sharing one SSD); it is invalidated by any layout
        generation movement (register/unregister/program/erase).
        Off by default -- the synchronous ``SmallSsd.query`` oracle
        and existing baselines stay cache-free.
        ``result_cache_size=None`` (the default) adopts the shared
        cache as-is; an explicit size resizes it for every sharer.

    ``tenant_weights``
        ``client name -> weight`` shares for the ``edf`` policy's
        weighted-fair drain of deadline-free traffic (default weight
        1.0).

    ``adaptive_window`` (+ ``min_window_us`` / ``max_window_us`` /
    ``target_window_queries``)
        Let the admission controller retune ``window_us`` to the
        observed arrival rate (see
        :class:`~repro.service.admission.AdmissionQueue`).

    ``preemption`` (+ ``suspend_cost_us`` / ``resume_cost_us`` /
    ``max_suspends``)
        Replay every window's chunk jobs through the *arbitrated*
        event simulation instead of the FCFS sweep: deadline queries
        become urgent non-preemptible job streams that may suspend
        in-flight preemptible bulk senses at a contended die or
        channel (EDF order, starvation-capped at ``max_suspends``
        suspensions per sense, each costing the configured
        suspend/resume penalties).  The report then carries
        preemption counts, overhead, and per-resource utilization.
        Off by default: without it the simulation is the exact FCFS
        baseline every existing result was measured on.

    ``recovery`` / ``health``
        Fault tolerance (:mod:`repro.flash.faults`,
        :mod:`repro.service.health`).  When the SSD carries an active
        :class:`~repro.flash.faults.FaultInjector`, windows execute
        under bounded retry/backoff with degraded-mode (V_TH path)
        fallback -- an explicit
        :class:`~repro.flash.faults.RecoveryPolicy` overrides the
        default.  Every window's per-chip error rates feed an EWMA
        circuit breaker (:class:`~repro.service.health.ChipHealthTracker`)
        that marks sick chips degraded (served on the safe V_TH path,
        priced by the scheduler) or quarantined (parked; their tasks
        fail fast with ``ChipUnavailableError``); any quarantine
        transition bumps the chip's directory generation so bound
        plans and cached results rebind before service resumes.

    ``maintenance``
        The background maintenance plane
        (:mod:`repro.ssd.maintenance`).  Pass ``True`` for the default
        :class:`~repro.ssd.maintenance.MaintenanceConfig`, a config,
        or an existing
        :class:`~repro.ssd.maintenance.MaintenanceManager`.  Per
        window the manager paces garbage collection against free-block
        pressure (low/high watermarks) and its copy/erase work joins
        the event simulation as preemptible,
        :data:`~repro.ssd.events.MAINTENANCE_PRIORITY` background jobs
        -- under ``preemption`` an urgent sense suspends an in-flight
        GC copy.  Stuck bad blocks are scrubbed out of the allocation
        pool up front, and when the health tracker quarantines a chip
        its live vectors drain to healthy chips during probation.
        ``ServiceStats`` then reports blocks reclaimed, pages
        migrated, wear spread, and the background overhead.  Off by
        default: without it no data ever moves and free blocks are
        never reclaimed.
    """

    def __init__(
        self,
        ssd: SmallSsd,
        *,
        window_us: float = 200.0,
        max_window_queries: int | None = None,
        policy: str = "balanced",
        share_senses: bool = True,
        result_cache: bool = False,
        result_cache_size: int | None = None,
        tenant_weights: dict[str, float] | None = None,
        adaptive_window: bool = False,
        min_window_us: float | None = None,
        max_window_us: float | None = None,
        target_window_queries: int = 8,
        preemption: bool = False,
        suspend_cost_us: float = 0.0,
        resume_cost_us: float = 0.0,
        max_suspends: int = 2,
        recovery: RecoveryPolicy | None = None,
        health: HealthConfig | None = None,
        maintenance: (
            MaintenanceManager | MaintenanceConfig | bool | None
        ) = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        self.ssd = ssd
        self.engine = ssd.engine
        #: Retry/backoff/degradation policy for fault recovery.  An
        #: explicit policy is always honoured; ``None`` adopts the
        #: default :class:`~repro.flash.faults.RecoveryPolicy`
        #: whenever the SSD carries an active fault injector (the
        #: engine itself disables recovery when injection is off, so
        #: the fault-free path is untouched either way).
        self.recovery = recovery
        #: Per-chip EWMA health tracking + quarantine breaker; always
        #: on (a fault-free run simply never observes an error).
        self.health = ChipHealthTracker(len(ssd.chips), config=health)
        self.policy = policy
        self.share_senses = share_senses
        #: Arbitration config the event replay runs under; ``None``
        #: keeps the exact FCFS sweep (the measured baseline).
        self.arbitration: ArbitrationConfig | None = (
            ArbitrationConfig(
                suspend_cost_s=suspend_cost_us * 1e-6,
                resume_cost_s=resume_cost_us * 1e-6,
                max_suspends=max_suspends,
            )
            if preemption
            else None
        )
        self.use_result_cache = result_cache
        if result_cache:
            self.engine.enable_result_cache(result_cache_size)
        #: Background maintenance plane (GC/wear/migration); ``None``
        #: disables it and leaves every existing path untouched.
        if maintenance is None or maintenance is False:
            self.maintenance: MaintenanceManager | None = None
        elif isinstance(maintenance, MaintenanceManager):
            self.maintenance = maintenance
        elif isinstance(maintenance, MaintenanceConfig):
            self.maintenance = ssd.maintenance(maintenance)
        else:
            self.maintenance = ssd.maintenance()
        self.tenant_weights = dict(tenant_weights or {})
        self.admission = AdmissionQueue(
            window_us=window_us,
            max_queries=max_window_queries,
            adaptive=adaptive_window,
            min_window_us=min_window_us,
            max_window_us=max_window_us,
            target_queries=target_window_queries,
        )
        self._next_id = 0

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------

    def submit(
        self,
        expr: Expression,
        *,
        at_us: float,
        client: str = "client",
        priority: int = 0,
        deadline_us: float | None = None,
    ) -> int:
        """Enqueue one query arriving at virtual time ``at_us``;
        returns its query id.  ``deadline_us`` is absolute virtual
        time; the ``edf`` policy schedules toward it and the report
        grades it (other policies record but ignore it).

        A query the service could never execute is rejected here, so
        it cannot take the rest of the trace down inside :meth:`run`:
        an operand the SSD does not store raises
        :class:`~repro.ssd.ftl.UnknownVectorError` (a ``KeyError``);
        operands of different lengths, an expression without operands
        and non-finite times raise ``ValueError``."""
        names = sorted(operand_names(expr))
        if not names:
            raise ValueError("expression references no operands")
        self.ssd.ftl.validate_co_located(names)
        query_id = self._next_id
        self.admission.submit(
            Submission(
                query_id=query_id,
                client=client,
                expr=expr,
                submitted_us=at_us,
                priority=priority,
                deadline_us=deadline_us,
            )
        )
        self._next_id += 1
        return query_id

    def submit_traffic(self, submissions) -> list[int]:
        """Enqueue a traffic trace -- ``(at_us, client, expr)`` triples
        or the 5-field ``(at_us, client, expr, priority, deadline_us)``
        items :func:`repro.service.clients.generate_traffic` emits."""
        ids = []
        for item in submissions:
            at_us, client, expr = item[0], item[1], item[2]
            priority = item[3] if len(item) > 3 else 0
            deadline_us = item[4] if len(item) > 4 else None
            ids.append(
                self.submit(
                    expr,
                    at_us=at_us,
                    client=client,
                    priority=priority,
                    deadline_us=deadline_us,
                )
            )
        return ids

    # ------------------------------------------------------------------
    # Execution side
    # ------------------------------------------------------------------

    def _estimate(self, task: ChunkTask) -> float:
        executor = self.ssd.controllers[task.chip].executor
        return executor.estimate_latency_us(task.plan)

    def _query_info(self, submission: Submission) -> QueryInfo:
        return QueryInfo(
            client=submission.client,
            priority=submission.priority,
            deadline_us=submission.deadline_us,
            weight=self.tenant_weights.get(submission.client, 1.0),
        )

    def run(self) -> ServiceReport:
        """Serve every pending submission and drain the queue.

        Windows execute in close order; every window's chunk jobs
        enter one shared event simulation with ``ready_at`` equal to
        the window close time, so cross-window contention (a window
        queuing behind the previous one's stragglers) is exact.  A
        query whose operand was deleted after :meth:`submit` fails
        alone: its ``ServedQuery.error`` is the
        :class:`~repro.ssd.ftl.UnknownVectorError`.
        """
        windows = self.admission.windows()
        states: dict[int, _QueryState] = {}
        jobs = JobTable()
        #: Query id per job; ``None`` marks background maintenance
        #: jobs, which complete in the simulation but belong to no
        #: query.
        job_owner: list[int | None] = []
        n_chunk_tasks = 0
        shared_plans = 0
        shared_senses = 0
        cached_plans = 0
        cached_senses = 0
        total_senses = 0
        fault_retries = 0
        degraded_senses = 0
        fault_overhead_us = 0.0
        reconstructed_plans = 0
        reconstruction_senses = 0
        reconstruction_overhead_us = 0.0
        chips_lost = 0
        #: Whether any chip error (or chip loss) has been observed this
        #: run -- only then do health weights feed the FTL's stripe
        #: allocation, keeping fault-free runs byte-identical to an SSD
        #: that never heard of health.
        errors_seen = False
        #: With parity striping on the SSD, the engine's phase-two
        #: reconstruction replaces chip-loss failures with parity-
        #: rebuilt results, and the scheduler prices offline chips'
        #: tasks as degraded work instead of parking them.
        reconstruct = bool(getattr(self.ssd, "parity", False))
        injector = getattr(self.ssd, "fault_injector", None)
        recovery = self.recovery
        if (
            recovery is None
            and injector is not None
            and injector.active
        ):
            recovery = RecoveryPolicy()
        faults_before = injector.faults_injected if injector else 0
        quarantines_before = self.health.quarantines
        manager = self.maintenance
        if manager is not None:
            maint_before = replace(manager.stats)
            # Stuck bad blocks never re-enter the allocation pool.
            manager.scrub_bad_blocks()

        #: Background chip microseconds pending inside the event
        #: simulation, per chip -- the scheduler prices this into its
        #: cross-chip interleave so foreground tails avoid dies busy
        #: with GC.
        pending_gc_busy: dict[int, float] = {}

        def enqueue_background(background: list[StageJob]) -> None:
            jobs.extend(background)
            job_owner.extend([None] * len(background))
            for job in background:
                resource = job.resources[0]
                if resource.startswith("chip"):
                    chip = int(resource[4:])
                    pending_gc_busy[chip] = (
                        pending_gc_busy.get(chip, 0.0)
                        + job.durations[0] * 1e6
                    )

        for window in windows:
            ready_s = window.close_us * 1e-6
            # Fail-stop detection: a chip that went offline since the
            # last window (``SmallSsd.kill_chip``) is quarantined
            # permanently *before* scheduling -- waiting for error
            # statistics would burn windows of failed traffic.  The
            # placement-event generation bump and the probation drain
            # happen here, mirroring the EWMA quarantine path below.
            for chip_id, chip in enumerate(self.ssd.chips):
                if not getattr(chip, "offline", False):
                    continue
                if self.health.is_permanent(chip_id):
                    continue
                chips_lost += 1
                errors_seen = True
                if self.health.force_quarantine(chip_id, permanent=True):
                    self.ssd.controllers[chip_id].directory.generation += 1
                if manager is not None:
                    enqueue_background(
                        manager.drain_chip(
                            chip_id,
                            healthy=self.health.survivors(exclude=chip_id),
                            ready_at_s=ready_s,
                        )
                    )
            tasks: list[ChunkTask] = []
            info: dict[int, QueryInfo] = {}
            for submission in window.submissions:
                try:
                    prepared = self.engine.prepare(submission.expr)
                except UnknownVectorError as error:
                    # An operand deleted after submit: this query
                    # fails at admission, the rest of the trace runs.
                    state = states[submission.query_id] = _QueryState(
                        submission
                    )
                    state.error = error
                    state.admitted_us = window.close_us
                    state.completed_us = window.close_us
                    continue
                state = _QueryState(
                    submission,
                    prepared.n_bits,
                    prepared.template_hit,
                    prepared.n_chunks,
                )
                state.admitted_us = window.close_us
                states[submission.query_id] = state
                info[submission.query_id] = self._query_info(submission)
                tasks.extend(prepared.tasks(query=submission.query_id))
            degraded_chips = self.health.degraded
            offline_chips = self.health.offline
            ordered = schedule_window(
                tasks,
                self._estimate,
                policy=self.policy,
                share=self.share_senses,
                info=info,
                degraded=degraded_chips,
                offline=offline_chips,
                gc_busy=pending_gc_busy,
                reconstruct=reconstruct,
            )
            outcomes = self.engine.execute_tasks(
                ordered,
                share=self.share_senses,
                use_cache=self.use_result_cache,
                recovery=recovery,
                degraded=degraded_chips,
                offline=offline_chips,
                reconstruct=reconstruct,
            )
            n_chunk_tasks += len(ordered)
            # The scheduler's intent, threaded into the event replay:
            # deadline queries arbitrate EDF-style and may suspend
            # preemptible bulk (harmless no-ops under the FCFS sweep).
            directives = {
                query_id: job_directives(meta)
                for query_id, meta in info.items()
            }
            chip_obs: dict[int, list[int]] = {}
            for outcome in outcomes:
                task = outcome.task
                state = states[task.query]
                state.pieces[task.chunk] = outcome.data
                state.n_senses += outcome.n_senses
                state.energy_nj += outcome.energy_nj
                state.chip_busy[task.chip] = (
                    state.chip_busy.get(task.chip, 0.0)
                    + outcome.latency_us
                )
                total_senses += outcome.n_senses
                if outcome.error is not None and state.error is None:
                    state.error = outcome.error
                state.retries += outcome.retries
                state.fault_us += outcome.recovery_us
                fault_retries += outcome.retries
                fault_overhead_us += outcome.recovery_us
                if outcome.reconstructed:
                    # Recovered via parity: counted apart from the
                    # retry plane so the report separates "recovered
                    # via retry" from "recovered via parity".  The
                    # survivor reads ride ``recovery_work`` (leader
                    # only; shared followers paid nothing) and are
                    # charged to the right dies below.
                    state.reconstructed_chunks += 1
                    reconstructed_plans += 1
                    if not outcome.shared:
                        reconstruction_senses += outcome.n_senses
                    for rchip, busy_us in outcome.recovery_work:
                        state.chip_busy[rchip] = (
                            state.chip_busy.get(rchip, 0.0) + busy_us
                        )
                        state.reconstruction_us += busy_us
                        reconstruction_overhead_us += busy_us
                if outcome.degraded:
                    state.degraded_chunks += 1
                if outcome.cached:
                    state.cached_chunks += 1
                    cached_plans += 1
                    cached_senses += task.plan.n_senses
                elif outcome.shared:
                    state.shared_chunks += 1
                    shared_plans += 1
                    shared_senses += task.plan.n_senses
                else:
                    if outcome.degraded:
                        degraded_senses += 1
                    if task.chip not in offline_chips:
                        # One real recovered execution: every attempt
                        # is an operation; faulted attempts (and a
                        # surfaced failure) are errors.  Parked tasks
                        # never touched the chip, so they do not feed
                        # its health signal.
                        obs = chip_obs.setdefault(task.chip, [0, 0])
                        obs[0] += outcome.retries + 1
                        # A reconstructed chunk means the chip failed
                        # its attempt even though the query recovered
                        # -- the health signal must still see the
                        # failure.
                        obs[1] += outcome.retries + (
                            1
                            if outcome.error is not None
                            or outcome.reconstructed
                            else 0
                        )
                priority, deadline_s, preemptible = directives[task.query]
                self.engine.stage_job(
                    jobs,
                    task.chip,
                    outcome.latency_us,
                    ready_at_s=ready_s,
                    priority=priority,
                    deadline_s=deadline_s,
                    preemptible=preemptible,
                    fault_delay_us=outcome.recovery_us,
                )
                job_owner.append(task.query)
                for rchip, busy_us in outcome.recovery_work:
                    # Survivor reads of a parity reconstruction occupy
                    # real dies: they join the event simulation as
                    # query-owned jobs, so the query's completion time
                    # and the survivors' utilization both see them.
                    self.engine.stage_job(
                        jobs,
                        rchip,
                        busy_us,
                        ready_at_s=ready_s,
                        priority=priority,
                        deadline_s=deadline_s,
                        preemptible=preemptible,
                    )
                    job_owner.append(task.query)
            transitions = self.health.observe_window(
                {
                    chip: (ops, errors)
                    for chip, (ops, errors) in chip_obs.items()
                }
            )
            if any(obs[1] for obs in chip_obs.values()):
                errors_seen = True
            if errors_seen:
                # Wear/error-history-driven placement: feed the
                # breaker's EWMA into the FTL's stripe allocation so
                # *new* chunk columns skew away from sick chips (dead
                # chips get weight 0 and receive nothing).  Until the
                # first error this never runs, and the FTL clears
                # uniform weights to ``None`` -- the fault-free stripe
                # stays the pure ``c % n`` layout, byte-identical.
                self.ssd.ftl.set_chip_health(
                    {
                        chip: (
                            0.0
                            if self.health.state(chip) == QUARANTINED
                            else max(
                                0.05,
                                1.0 - self.health.error_rate(chip),
                            )
                        )
                        for chip in range(self.health.n_chips)
                    }
                )
            moved_before = (
                0
                if manager is None
                else manager.stats.pages_migrated
                + manager.stats.blocks_reclaimed
                + manager.stats.columns_rebuilt
            )
            for chip, old, new in transitions:
                if QUARANTINED in (old, new):
                    # Placement event: entering quarantine parks the
                    # chip, leaving re-admits it -- either way every
                    # bound plan and cached result stamped against
                    # the old world must rebind (same contract as
                    # register/unregister).
                    self.ssd.controllers[chip].directory.generation += 1
                if new == QUARANTINED and manager is not None:
                    # Probation drain: migrate the parked chip's live
                    # vectors to chips still in service, so the next
                    # windows answer from healthy silicon instead of
                    # failing the chip's tasks.
                    survivors = self.health.survivors(exclude=chip)
                    enqueue_background(
                        manager.drain_chip(
                            chip, healthy=survivors, ready_at_s=ready_s
                        )
                    )
            if manager is not None:
                # Pace GC against free-block pressure: background
                # copy/erase jobs become ready at this window's close
                # and compete with later windows' foreground work.
                enqueue_background(manager.run_cycle(ready_at_s=ready_s))
                if manager.pending_rebuild:
                    # Rebuild-on-repair: re-materialize columns and
                    # parity pages lost with a dead chip from the
                    # surviving group members, paced per window by the
                    # maintenance budget.
                    enqueue_background(
                        manager.rebuild_cycle(
                            healthy=self.health.survivors(),
                            ready_at_s=ready_s,
                        )
                    )
                moved = (
                    manager.stats.pages_migrated
                    + manager.stats.blocks_reclaimed
                    + manager.stats.columns_rebuilt
                ) != moved_before
                if moved and self.engine.result_cache is not None:
                    # Relocation went stale on whole swaths of cached
                    # entries at once; drop them in bulk so the LRU
                    # capacity keeps working for live results.
                    self.engine.result_cache.prune_stale()

        # Every window executed: only now drain the admission queue,
        # so an exception above (e.g. a query over non-co-located
        # vectors) leaves the pending submissions intact for a retry.
        self.admission = self.admission.empty_clone()

        report = simulate_stages(jobs, arbitration=self.arbitration)
        for completion_s, owner in zip(report.completion_times, job_owner):
            if owner is None:
                continue  # background maintenance job, no query
            state = states[owner]
            state.completed_us = max(state.completed_us, completion_s * 1e6)

        served = tuple(
            self._served(state) for state in sorted(
                states.values(), key=lambda s: s.submission.query_id
            )
        )
        stats = self._stats(
            served,
            n_windows=len(windows),
            n_chunk_tasks=n_chunk_tasks,
            n_senses=total_senses,
            shared_plans=shared_plans,
            shared_senses=shared_senses,
            cached_plans=cached_plans,
            cached_senses=cached_senses,
            makespan_us=report.makespan * 1e6,
            bottleneck=report.bottleneck,
            preemptions=report.preemptions,
            preemption_overhead_us=report.preemption_overhead * 1e6,
            resource_utilization=report.utilizations(),
            faults_injected=(
                injector.faults_injected - faults_before if injector else 0
            ),
            fault_retries=fault_retries,
            degraded_senses=degraded_senses,
            quarantines=self.health.quarantines - quarantines_before,
            fault_overhead_us=fault_overhead_us,
            reconstructed_plans=reconstructed_plans,
            reconstruction_senses=reconstruction_senses,
            reconstruction_overhead_us=reconstruction_overhead_us,
            chips_lost=chips_lost,
            **self._maintenance_kwargs(
                manager, maint_before if manager is not None else None
            ),
        )
        return ServiceReport(queries=served, stats=stats)

    def _maintenance_kwargs(
        self, manager: MaintenanceManager | None, before
    ) -> dict:
        """This run's maintenance deltas plus the SSD's wear spread."""
        wear = self.ssd.wear_summary()
        out = {
            "wear_min": wear.pe_min,
            "wear_max": wear.pe_max,
            "wear_mean": wear.pe_mean,
        }
        if manager is None:
            return out
        for name in (
            "blocks_reclaimed", "pages_migrated", "blocks_retired",
            "chips_drained", "columns_rebuilt",
        ):
            out[name] = getattr(manager.stats, name) - getattr(before, name)
        out["maintenance_overhead_us"] = manager.stats.busy_us - before.busy_us
        return out

    def _served(self, state: _QueryState) -> ServedQuery:
        submission = state.submission
        if state.error is not None:
            # A failed query has no assembled result (some chunks
            # never produced data); it still reports the flash work
            # and sim time its attempts cost.
            bits = np.zeros(0, dtype=np.uint8)
        else:
            bits = self.engine.assemble_bits(state, state.pieces)
        result = QueryResult(
            bits=bits,
            n_senses=state.n_senses,
            latency_us=max(state.chip_busy.values(), default=0.0),
            energy_nj=state.energy_nj,
            makespan_us=state.completed_us - state.admitted_us,
            template_hit=state.template_hit,
        )
        return ServedQuery(
            query_id=submission.query_id,
            client=submission.client,
            expr=submission.expr,
            submitted_us=submission.submitted_us,
            admitted_us=state.admitted_us,
            completed_us=state.completed_us,
            result=result,
            shared_chunks=state.shared_chunks,
            cached_chunks=state.cached_chunks,
            priority=submission.priority,
            deadline_us=submission.deadline_us,
            error=state.error,
            retries=state.retries,
            degraded_chunks=state.degraded_chunks,
            fault_overhead_us=state.fault_us,
            reconstructed_chunks=state.reconstructed_chunks,
            reconstruction_us=state.reconstruction_us,
        )

    @staticmethod
    def _stats(served: tuple[ServedQuery, ...], **counters) -> ServiceStats:
        """The run's :class:`ServiceStats`: ``counters`` are the run's
        own tallies, passed through by field name; the latency,
        throughput, deadline and failure figures derive from
        ``served``."""
        latency = LatencySummary.from_latencies(
            [q.latency_us for q in served]
        )
        if served:
            span_us = max(q.completed_us for q in served) - min(
                q.submitted_us for q in served
            )
        else:
            span_us = 0.0
        throughput = len(served) / (span_us * 1e-6) if span_us > 0 else 0.0
        with_deadline = [q for q in served if q.deadline_us is not None]
        fault_attributed_misses = sum(
            1
            for q in with_deadline
            if q.deadline_met is False and q.fault_affected
        )
        return ServiceStats(
            n_queries=len(served),
            template_hits=sum(q.result.template_hit for q in served),
            n_deadlines=len(with_deadline),
            deadlines_met=sum(bool(q.deadline_met) for q in with_deadline),
            latency=latency,
            throughput_qps=throughput,
            span_us=span_us,
            queries_failed=sum(1 for q in served if q.error is not None),
            fault_attributed_misses=fault_attributed_misses,
            **counters,
        )
