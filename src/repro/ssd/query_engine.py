"""Plan-template query engine: plan once, bind per chunk, pipeline.

``SmallSsd.query`` stripes every operand vector identically, so chunk
``c`` of each operand sits at the *same relative layout* on its chip
as chunk 0 does on chip 0: same string-group co-location, same
inversion flags, only the physical wordline addresses differ.  The
seed implementation ignored this and re-ran the full planner for every
chunk, making query cost ``O(chunks x plan)``.  This engine exploits
it:

1. **Template cache** -- for each (expression, layout signature) pair
   the engine plans once, against a chunk-0 view of the directory, and
   lifts the result into a relocatable
   :class:`~repro.core.planner.PlanTemplate`.  Templates live in an
   LRU cache (``cache_size`` entries), so a stream of repeated query
   shapes never replans.  The layout signature is the per-vector
   (group, inversion) tuple from the FTL -- two queries share a
   template only when their operands are placed congruently.
2. **Bind step** -- each chunk binds the template against a
   :class:`_ChunkDirectory` view of its chip's operand directory,
   resolving operand names to that chunk's wordline addresses in
   O(operands).  A bind failure (layout drift, e.g. hand-placed
   operands) falls back to a per-chunk replan instead of failing the
   query.
3. **Per-chip queues** -- bound plans are grouped by chip and drained
   through each chip's :class:`~repro.core.mws.MwsExecutor` queue;
   chips are independent in a real SSD, so functional latency
   aggregates as the per-chip maximum.  Bound queues are themselves
   LRU-cached against the FTL *layout generation* (operand addresses
   are immutable once registered), so a repeat query re-binds nothing;
   any vector registration/unregistration bumps the generation and
   forces a re-bind.  Chunk results stay bit-packed (``uint64`` words,
   :mod:`repro.flash.packing`) through the replay and are unpacked
   once at the result boundary.
4. **Event-simulated makespan** -- every executed chunk also becomes a
   row of a :class:`~repro.ssd.events.JobTable` (die sense -> channel
   DMA -> external link) fed through the exact timeline simulator, so the
   *functional* result carries the *pipelined* makespan the
   performance model would predict -- one code path for both.
5. **Shared-sense execution** -- :meth:`QueryEngine.prepare` exposes a
   query's bound per-chunk plans as :class:`ChunkTask`\\ s, and
   :meth:`QueryEngine.execute_tasks` drains an arbitrary multi-query
   task list with *cross-query sense sharing*: bound plans are
   identical-by-value (frozen dataclasses down to the MWS command
   bytes), so per chip a dict keyed on the plan detects that two
   queries ask for the same sensing operation; the sense runs once
   and its packed result words fan out to every subscribing task
   (MWS already serves many operands in one sense -- this extends the
   reuse across *queries* of one admission window).  The service
   layer (:mod:`repro.service`) builds windows and schedules on top
   of this path.
6. **Window-at-a-time batched execution** -- ``execute_tasks`` dedups
   first, then runs each chip's surviving unique queue through
   :meth:`~repro.core.mws.MwsExecutor.execute_batch`: the whole
   queue's packed operand rows collapse into a few tensor reduces
   (:meth:`~repro.flash.sensing.SensingEngine.sense_batch`) and the
   latch protocol replays lane-parallel
   (:meth:`~repro.flash.latches.LatchBank.capture_batch`), so Python
   dispatch per window is O(chips), not O(senses) -- wall-clock
   window throughput finally tracks chip count the way simulated
   throughput does.  Error-injecting chips batch through the V_TH
   compare with the per-sense loop's exact draw schedule, and
   ``batch=False`` forces the per-sense loop for benchmarking.

7. **Cross-window result caching** -- sense sharing only helps
   *within* one ``execute_tasks`` call; an identical query arriving
   in a later admission window re-senses from scratch.  A
   :class:`ResultCache` (opt-in,
   :meth:`QueryEngine.enable_result_cache`) memoizes each executed
   plan's packed result words keyed on the same bound-plan value
   identity the dedup uses, stamped with the layout generation of its
   chip (FTL vector generation + per-chip directory generation +
   :meth:`~repro.flash.array.PlaneArray.content_version`, the
   plane-level sum of per-block ``layout_version`` counters).  Any
   register/unregister *or* program/erase anywhere moves the stamp
   and the entry falls back to a fresh sense -- the cache can serve a
   stale word only if data mutates without bumping a generation
   counter, which is exactly the contract (``docs/architecture.md``)
   every writer including a future GC/migrator must keep.  With the cache
   consulted *before* dedup, a repeat window skips the sensing engine
   entirely: second-submission wall-clock is dict lookups plus the
   event simulation.

Query cost becomes ``O(plan + chunks x (bind + sense))``, with the
plan term amortized to zero across a stream by the template cache,
the sense term deduplicated across identical queries of a window,
repeat windows served from the cross-window result cache, and the
surviving senses executed as per-chip vectorized batches.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.core.expressions import Expression, evaluate, operand_names
from repro.core.planner import (
    Plan,
    Planner,
    PlanTemplate,
    StoredOperand,
    TemplateBindError,
)
from repro.flash.errors import (
    ChipUnavailableError,
    FlashFault,
    ReconstructionError,
    RetryExhaustedError,
)
from repro.flash.faults import RecoveryPolicy
from repro.flash.packing import pack_bits, unpack_rows
from repro.ssd.config import SsdConfig, table1_config
from repro.ssd.events import JobTable, simulate_stages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ssd.controller import QueryResult, SmallSsd


class _ChunkDirectory:
    """Directory view exposing one chunk's placements under the base
    vector names.

    ``SmallSsd`` stores chunk ``c`` of vector ``v`` as chip operand
    ``v@c``; planning and binding against this view lets the planner
    and templates speak base names, which is what makes the resulting
    template relocatable across chunks.
    """

    def __init__(self, controller, chunk: int) -> None:
        self._lookup = controller.directory.lookup
        self._suffix = f"@{chunk}"

    def lookup(self, name: str) -> StoredOperand:
        return self._lookup(name + self._suffix)

    def __contains__(self, name: str) -> bool:
        try:
            self.lookup(name)
        except KeyError:
            return False
        return True


@dataclass(frozen=True)
class EngineStats:
    """Counters exposing how much planning the cache amortized and how
    many sensing operations cross-query sharing avoided."""

    planner_invocations: int
    template_hits: int
    template_misses: int
    bind_fallbacks: int
    cached_templates: int
    #: Chunk tasks served from another task's identical sense (no
    #: flash operation ran for them).
    shared_plans: int = 0
    #: Sensing operations those shared tasks would have cost.
    shared_senses: int = 0
    #: Python-level executor dispatches ``execute_tasks`` issued: one
    #: per chip queue on the batched path, one per unique plan on the
    #: per-sense loop -- the quantity window batching collapses from
    #: O(senses) to O(chips).
    executor_dispatches: int = 0
    #: Chunk results rebuilt from parity after a chip failure (first
    #: occurrences and sharing followers alike), and the survivor
    #: sense operations the first occurrences cost.
    reconstructed_plans: int = 0
    reconstruction_senses: int = 0
    #: Unique plans whose packed sense rows were replayed from the
    #: cross-window :class:`StackCache` (latch replay and charging
    #: still ran; only the sensing re-derivation was skipped).
    stack_reuse_hits: int = 0
    #: Per-profile operand tensors the sensing engine concatenated
    #: fresh during batched windows -- the quantity stack reuse
    #: collapses on repeat windows.
    restacked_tensors: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one query stream pushed through the engine."""

    results: tuple["QueryResult", ...]
    makespan_us: float
    bottleneck: str


class ChunkTask(NamedTuple):
    """One bound per-chunk plan, attributed to a caller-scoped query.

    The identity that matters for cross-query sense sharing is
    ``(chip, plan)``: :class:`~repro.core.planner.Plan` is a frozen
    value object down to the MWS command targets, so two tasks whose
    plans compare equal ask the chip for the *same* sensing operation.

    A ``NamedTuple`` for the same reason as :class:`ChunkOutcome`: the
    service builds one per chunk per query per window, and tuple
    construction is the cheapest immutable record Python offers.
    """

    query: int
    chunk: int
    chip: int
    plan: Plan
    #: The source expression, carried for the parity reconstruction
    #: path: when the chip is gone the bound plan is useless (its
    #: addresses point at dead cells), but the expression can be
    #: re-evaluated host-side over parity-reconstructed operand
    #: chunks.  Deliberately *not* part of ``share_key`` -- sharing is
    #: a property of the sensing operation, not of who asked.
    expr: Expression | None = None

    @property
    def share_key(self) -> tuple[int, Plan]:
        return (self.chip, self.plan)


class ChunkOutcome(NamedTuple):
    """What executing (or sharing) one :class:`ChunkTask` produced.

    ``data`` is the chunk's result page as packed ``uint64`` words.  A
    ``shared`` outcome spent
    no flash time: its sense already ran for an identical earlier task
    of the same chip, and ``n_senses``/``latency_us``/``energy_nj``
    are zero accordingly (the window-level counters thus sum to the
    *actual* hardware cost).  A ``cached`` outcome likewise spent no
    flash time, but its words came from a *previous* window via the
    cross-window :class:`ResultCache` rather than from a sibling task
    of this call.

    A ``NamedTuple`` rather than a dataclass: one outcome is built per
    chunk task per window (thousands per service run), and tuple
    construction is the cheapest immutable record Python offers.

    The trailing fields belong to the fault-recovery plane and stay at
    their defaults everywhere injection is off: ``retries`` counts
    failed sense attempts that were re-executed, ``recovery_us`` is
    the *simulated* non-chip recovery time (retry backoff plus
    injected stalls -- chip time of failed attempts is already in
    ``latency_us``), ``degraded`` marks a result served by the V_TH
    read-retry path, and ``error`` carries the typed
    :class:`~repro.flash.errors.FlashFault` when every recovery route
    failed (``data`` is ``None`` then).
    """

    task: ChunkTask
    data: np.ndarray | None
    n_senses: int
    latency_us: float
    energy_nj: float
    shared: bool
    cached: bool = False
    retries: int = 0
    recovery_us: float = 0.0
    degraded: bool = False
    error: Exception | None = None
    #: Parity reconstruction plane (``execute_tasks(...,
    #: reconstruct=True)`` on a parity-striped SSD): ``reconstructed``
    #: marks a result rebuilt host-side by XOR of surviving peer
    #: chunks and parity after the chip failed; ``recovery_work`` is
    #: the real sense time that reconstruction charged to *survivor*
    #: chips as ``(chip, busy_us)`` pairs (``latency_us`` stays zero
    #: -- the task's own chip did no work), which the service replays
    #: into the event simulation so degraded reads slow the timeline
    #: exactly where the reads happened.
    reconstructed: bool = False
    recovery_work: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class CacheStats:
    """Lifetime counters of one :class:`ResultCache`."""

    #: Lookups served from a valid entry (no flash work ran).
    hits: int
    #: Lookups that found nothing valid (includes invalidations).
    misses: int
    #: Entries dropped because their layout stamp went stale.
    invalidations: int
    #: Sensing operations the hits would have cost on the chips.
    senses_avoided: int
    #: Live entries.
    entries: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """Cross-window memo of packed per-chunk sense results.

    Sense sharing (:meth:`QueryEngine.execute_tasks`) deduplicates
    identical bound plans *within* one call; this cache extends the
    reuse across calls -- i.e. across admission windows of the query
    service, and across entire service runs sharing one SSD.  Entries
    are keyed on the same ``(chip, plan)`` value identity the dedup
    uses: :class:`~repro.core.planner.Plan` is frozen down to the MWS
    command bytes, so two equal keys ask the chip for the *same*
    sensing operation over the *same* physical cells.

    **Invalidation contract.**  A cached word is only as fresh as the
    cells it was sensed from.  Every entry therefore carries the
    layout stamp of its chip at execution time:

    ``(FlashTranslationLayer.generation,``
    ``  OperandDirectory.generation,``
    ``  PlaneArray.content_version())``

    -- bumped respectively on any vector register/unregister at the
    controller level, any per-chip operand register/unregister, and
    any program/erase of any block on the chip
    (:attr:`~repro.flash.array.BlockArray.layout_version`).  A lookup
    whose stamp no longer matches evicts the entry and re-senses; the
    invalidation is deliberately conservative -- the FTL component is
    SSD-global (any vector register/unregister anywhere invalidates
    every chip's entries), while the directory and content components
    are per chip (chip-local churn drops only that chip's entries) --
    because serving one stale packed word
    is strictly worse than re-sensing a window.  Any future garbage
    collector or data migrator that moves cells MUST bump one of
    these counters (programming/erasing through the chip does so
    automatically); see ``docs/architecture.md``.

    Stamps are snapshotted once per :meth:`begin_epoch` (the engine
    calls it at the top of every ``execute_tasks``), not per lookup --
    nothing programs mid-window, and the snapshot keeps the per-task
    lookup at dict speed.

    The cache stays **off under error injection**
    (``SmallSsd.inject_errors``): those chips sense through the
    stochastic V_TH plane, where memoizing a draw would change the
    error statistics.
    """

    def __init__(self, ssd: "SmallSsd", *, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.ssd = ssd
        self.capacity = capacity
        #: (chip, plan) -> (layout stamp, packed words, n_senses).
        self._entries: OrderedDict[
            tuple[int, Plan], tuple[tuple, np.ndarray, int]
        ] = OrderedDict()
        self._epoch: dict[int, tuple] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._senses_avoided = 0

    def _stamp(self, chip: int) -> tuple:
        ssd = self.ssd
        return (
            ssd.ftl.generation,
            ssd.controllers[chip].directory.generation,
            ssd.chips[chip].plane_array.content_version(),
        )

    def begin_epoch(self) -> None:
        """Snapshot every chip's current layout stamp.  Lookups compare
        against the snapshot, so a window's worth of gets costs one
        stamp computation per chip, not per task."""
        epoch = {
            chip: self._stamp(chip) for chip in range(len(self.ssd.chips))
        }
        self._epoch = epoch

    def _epoch_of(self, chip: int) -> tuple:
        """The chip's snapshotted stamp (taken now if it has none)."""
        epoch = self._epoch.get(chip)
        if epoch is None:
            epoch = self._epoch[chip] = self._stamp(chip)
        return epoch

    def get(self, chip: int, plan: Plan) -> np.ndarray | None:
        """The plan's memoized packed result words, or ``None`` when
        absent or stale (the stale entry is evicted)."""
        key = (chip, plan)
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        stamp, words, n_senses = entry
        if stamp != self._epoch_of(chip):
            del self._entries[key]
            self._invalidations += 1
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        self._senses_avoided += n_senses
        return words

    def put(
        self, chip: int, plan: Plan, words: np.ndarray, n_senses: int
    ) -> None:
        """Memoize one executed plan's packed result words.

        The words are frozen (``writeable=False``): the same array
        object fans out to every future hit, and an in-place mutation
        by any subscriber would poison the cache in a way no layout
        stamp could catch -- better to fail the mutator loudly.
        """
        words.setflags(write=False)
        key = (chip, plan)
        self._entries[key] = (self._epoch_of(chip), words, n_senses)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def prune_stale(self) -> int:
        """Bulk-drop every entry whose layout stamp no longer matches
        its chip's *current* stamp; returns how many were dropped.

        :meth:`get` already evicts stale entries lazily, but under
        sustained relocation churn (the maintenance plane's GC
        copybacks, probation drains) whole swaths of entries go stale
        at once and would otherwise pin LRU capacity until each key
        happens to be looked up again.  The service calls this after
        any window in which maintenance moved data, so the cache's
        capacity keeps working for live entries."""
        stamps = {
            chip: self._stamp(chip)
            for chip in range(len(self.ssd.chips))
        }
        dead = [
            key
            for key, (stamp, _, _) in self._entries.items()
            if stamp != stamps[key[0]]
        ]
        for key in dead:
            del self._entries[key]
        self._invalidations += len(dead)
        return len(dead)

    def resize(self, capacity: int) -> None:
        """Change the entry bound, evicting LRU entries when
        shrinking."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self._epoch.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            senses_avoided=self._senses_avoided,
            entries=len(self._entries),
        )


class StackCache:
    """Cross-window reuse of per-plan packed sense rows (the "stack
    cache" of the word-wide speed story).

    The batched packed path stacks every window's operand rows into
    per-profile tensors and reduces them
    (:meth:`~repro.flash.sensing.SensingEngine.sense_batch_stacks`)
    -- even when the window repeats plans a previous window already
    sensed.  The :class:`ResultCache` only helps on exact plan
    repeats *and* changes the outcome envelope (cached hits report
    zero flash cost); this cache instead memoizes each plan's raw
    packed **sense rows** and lets
    :meth:`~repro.core.mws.MwsExecutor.execute_batch_reuse` skip just
    the sensing for reused plans while the latch replay, cost
    charges, and read-disturb accounting still run every window --
    so a window sharing any prefix (or subset) of a previous window's
    plans skips restacking those tensors and stays bit-, float-, and
    counter-identical to a fresh batched drain.

    **Invalidation contract** (``docs/architecture.md``): entries are
    stamped per chip with

    ``(FlashTranslationLayer.generation,``
    ``  OperandDirectory.generation,``
    ``  PlaneArray.content_version(), fault injector identity)``

    and the whole chip's memo drops the moment the stamp moves -- any
    vector register/unregister, per-chip operand churn, program/erase
    (GC relocation, wear leveling, migration included), or
    fault-injector (re)attachment.  Conservative by design: reusing
    one stale sense row is strictly worse than restacking a window.

    The cache engages only on error-free SSDs through the batched
    drain; the V_TH error plane draws fresh noise per sense
    and memoizes only its draw-independent schedule
    (:class:`~repro.flash.sensing.VthBatchSchedule`, same contract).
    Each entry lives on its plan (``Plan._stack_rows``), so it lives
    exactly as long as the plan: plans the engine's bound-plan cache
    (or the result cache) still holds keep their rows, and a plan that
    served one query frees its rows with it.  An entry counts only
    while it carries its chip's current token; a new token -- the
    stamp moved, or the chip stored ``capacity`` entries under the old
    one (clear-on-full, like the sensing row cache; default 4096) --
    drops the chip's memo at once.
    """

    def __init__(self, ssd: "SmallSsd", *, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.ssd = ssd
        self.capacity = capacity
        #: chip -> [layout/content stamp, entry token, entries stored
        #: under the token].
        self._chips: dict[int, list] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    def _stamp(self, chip: int) -> tuple:
        ssd = self.ssd
        return (
            ssd.ftl.generation,
            ssd.controllers[chip].directory.generation,
            ssd.chips[chip].plane_array.content_version(),
            ssd.chips[chip].fault_injector,
        )

    def execute(
        self, executor, chip: int, plans: list[Plan]
    ) -> tuple[list, int] | None:
        """Run one chip window through
        :meth:`~repro.core.mws.MwsExecutor.execute_batch_reuse`
        against this cache's (stamp-validated) entries.  Returns
        ``(results, reused_plan_count)`` or ``None`` when the window
        has no batched equivalent."""
        stamp = self._stamp(chip)
        state = self._chips.get(chip)
        if state is None or state[0] != stamp:
            if state is not None:
                self._invalidations += 1
            state = self._chips[chip] = [stamp, object(), 0]

        def lookup(plan):
            entry = plan.__dict__.get("_stack_rows")
            if entry is not None and entry[0] is state[1]:
                return entry[1], entry[2]
            return None

        def store(plan, rows, reads):
            if state[2] >= self.capacity:
                state[1] = object()
                state[2] = 0
            object.__setattr__(
                plan, "_stack_rows", (state[1], rows, reads)
            )
            state[2] += 1

        outcome = executor.execute_batch_reuse(plans, lookup, store)
        if outcome is None:
            return None
        results, reused = outcome
        self._hits += reused
        self._misses += len(plans) - reused
        return results, reused

    def entries(self, chip: int) -> int:
        """Entries stored under the chip's current token (test/
        introspection hook; some may have died with their plans)."""
        state = self._chips.get(chip)
        return 0 if state is None else state[2]

    def clear(self) -> None:
        self._chips.clear()

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            senses_avoided=0,
            entries=sum(state[2] for state in self._chips.values()),
        )


@dataclass(frozen=True)
class PreparedQuery:
    """A query planned and bound, ready for (shared) execution.

    ``planned`` is threaded explicitly from the template/bind steps --
    it is *not* inferred from global planner counters, so preparing
    many queries back to back (exactly what a service admission window
    does) attributes cache hits to the right query.
    """

    expr: Expression
    n_bits: int
    n_chunks: int
    queues: dict[int, list[tuple[int, Plan]]]
    planned: bool

    @property
    def template_hit(self) -> bool:
        return not self.planned

    def tasks(self, query: int) -> list[ChunkTask]:
        """Flatten the per-chip queues into attributed chunk tasks."""
        return [
            ChunkTask(
                query=query,
                chunk=chunk,
                chip=chip,
                plan=plan,
                expr=self.expr,
            )
            for chip, queue in sorted(self.queues.items())
            for chunk, plan in queue
        ]


class QueryEngine:
    """Executes query streams against a :class:`SmallSsd` with
    plan-once/bind-per-chunk dispatch (see module docstring)."""

    def __init__(
        self,
        ssd: "SmallSsd",
        *,
        cache_size: int = 64,
        config: SsdConfig | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.ssd = ssd
        self.cache_size = cache_size
        #: Timing/bandwidth parameters for the pipelined makespan; the
        #: functional chips are tiny, so the event simulation scales
        #: their measured sense times with configured bus bandwidths.
        self.config = config or table1_config()
        self._templates: OrderedDict[object, PlanTemplate] = OrderedDict()
        #: (template key, n_chunks) -> (layout generation, bound
        #: queues).  Operand addresses are immutable once registered,
        #: so bound plans stay valid until the layout generation moves
        #: -- any FTL vector *or* per-chip directory operand being
        #: registered/unregistered (the latter catches controller-level
        #: hand-placement drift); then they re-bind.
        self._bound: OrderedDict[
            object, tuple[tuple, dict[int, list[tuple[int, Plan]]]]
        ] = OrderedDict()
        self._planner_invocations = 0
        self._template_hits = 0
        self._template_misses = 0
        self._bind_fallbacks = 0
        self._shared_plans = 0
        self._shared_senses = 0
        self._executor_dispatches = 0
        self._reconstructed_plans = 0
        self._reconstruction_senses = 0
        #: Cross-window result cache; opt-in via
        #: :meth:`enable_result_cache` and consulted only by
        #: ``execute_tasks(..., use_cache=True)`` -- the synchronous
        #: ``query``/``query_batch`` paths never use it, so they stay
        #: the always-fresh oracle the property suites compare against.
        self.result_cache: ResultCache | None = None
        #: Cross-window stack cache (always attached; ``stack_reuse``
        #: gates whether the batched drain consults it).  Reuse is
        #: exact -- it skips only the re-derivation of deterministic
        #: packed sense rows -- so it defaults on; ``stack_reuse =
        #: False`` forces fresh stacking (the bench baseline and the
        #: property-suite oracle).
        self.stack_cache = StackCache(ssd)
        self.stack_reuse = True
        self._stack_reuse_hits = 0
        self._restacked_tensors = 0
        #: chip -> (DMA s, link s, resource names): see _stage_constants.
        self._stage_cache: dict[int, tuple[float, float, tuple]] = {}

    # ------------------------------------------------------------------
    # Template cache
    # ------------------------------------------------------------------

    def _layout_signature(self, names: list[str]) -> tuple:
        """(name, group, inverted) per operand: two queries may share a
        template only when their operands are placed congruently."""
        lookup = self.ssd.ftl.lookup
        signature = []
        for name in names:
            record = lookup(name)
            signature.append((name, record.group, record.inverted))
        return tuple(signature)

    def template_for(
        self, expr: Expression, names: list[str] | None = None
    ) -> PlanTemplate:
        """Fetch or build the relocatable template for ``expr``.

        ``names`` may pass the pre-sorted operand names when the caller
        already extracted them (per-query hot path)."""
        return self._template_for(expr, names)[0]

    def _template_for(
        self, expr: Expression, names: list[str] | None = None
    ) -> tuple[PlanTemplate, bool]:
        """Like :meth:`template_for`, but additionally reports whether
        fetching the template *planned* (cache miss).  The flag is
        threaded explicitly to the caller instead of being inferred
        from counter deltas, so interleaved query preparation (the
        service window path) attributes hits correctly."""
        if names is None:
            names = sorted(operand_names(expr))
        if not names:
            raise ValueError("expression references no operands")
        key = (expr, self._layout_signature(names))
        cached = self._templates.get(key)
        if cached is not None:
            self._templates.move_to_end(key)
            self._template_hits += 1
            return cached, False
        self._template_misses += 1
        controller = self.ssd.controllers[self.ssd.ftl.chip_of_chunk(0)]
        planner = Planner(
            _ChunkDirectory(controller, 0),
            block_limit=controller.planner.block_limit,
        )
        template = planner.plan_template(expr)
        self._planner_invocations += 1
        self._templates[key] = template
        while len(self._templates) > self.cache_size:
            self._templates.popitem(last=False)
        return template, True

    def enable_result_cache(
        self, capacity: int | None = None
    ) -> ResultCache:
        """Attach (or return the already-attached) cross-window
        :class:`ResultCache`.  The cache lives on the engine, so every
        service front-end over the same SSD shares one warm cache --
        and a repeat submission of an identical traffic window skips
        the sensing engine entirely.

        ``capacity=None`` means "whatever is there" (the 4096-entry
        default when creating); an *explicit* capacity resizes the
        shared cache in place (shrinking evicts LRU entries).  Only
        explicit requests resize, so a second service enabling the
        cache with defaults cannot silently evict a sibling's warm
        entries."""
        cache = self.result_cache
        if cache is None:
            cache = ResultCache(
                self.ssd,
                capacity=4096 if capacity is None else capacity,
            )
            self.result_cache = cache
        elif capacity is not None and cache.capacity != capacity:
            cache.resize(capacity)
        return cache

    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            planner_invocations=self._planner_invocations,
            template_hits=self._template_hits,
            template_misses=self._template_misses,
            bind_fallbacks=self._bind_fallbacks,
            cached_templates=len(self._templates),
            shared_plans=self._shared_plans,
            shared_senses=self._shared_senses,
            executor_dispatches=self._executor_dispatches,
            reconstructed_plans=self._reconstructed_plans,
            reconstruction_senses=self._reconstruction_senses,
            stack_reuse_hits=self._stack_reuse_hits,
            restacked_tensors=self._restacked_tensors,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _layout_generation(self) -> tuple:
        """Current placement world: the FTL's vector generation plus
        every chip directory's operand generation.  Any registration
        or unregistration anywhere moves it, invalidating cached bound
        plans."""
        return (
            self.ssd.ftl.generation,
            tuple(
                controller.directory.generation
                for controller in self.ssd.controllers
            ),
        )

    def _bound_queues(
        self,
        expr: Expression,
        template: PlanTemplate,
        n_chunks: int,
        names: list[str] | None = None,
    ) -> tuple[dict[int, list[tuple[int, Plan]]], bool]:
        """Bind the template for every chunk and queue the plans per
        chip, falling back to a replan when a chunk's layout drifted
        from the template's.  Returns ``(queues, planned)`` where
        ``planned`` reports whether any bind-failure replan ran --
        threaded explicitly so callers never infer it from counters.

        Bound queues are LRU-cached against the FTL layout generation:
        a repeat query whose placement world has not changed reuses its
        resolved per-chunk plans without touching the directories.
        """
        if names is None:
            names = sorted(operand_names(expr))
        key = (expr, self._layout_signature(names), n_chunks)
        generation = self._layout_generation()
        cached = self._bound.get(key)
        if cached is not None and cached[0] == generation:
            self._bound.move_to_end(key)
            return cached[1], False
        planned = False
        queues: dict[int, list[tuple[int, Plan]]] = {}
        for chunk in range(n_chunks):
            chip = self.ssd.ftl.chip_of_chunk(chunk)
            controller = self.ssd.controllers[chip]
            view = _ChunkDirectory(controller, chunk)
            try:
                plan = template.bind(view)
            except TemplateBindError:
                planner = Planner(
                    view, block_limit=controller.planner.block_limit
                )
                plan = planner.plan(expr)
                self._planner_invocations += 1
                self._bind_fallbacks += 1
                planned = True
            queues.setdefault(chip, []).append((chunk, plan))
        self._bound[key] = (generation, queues)
        while len(self._bound) > self.cache_size:
            self._bound.popitem(last=False)
        return queues, planned

    def prepare(self, expr: Expression) -> PreparedQuery:
        """Plan (or fetch) and bind ``expr`` without executing it.

        The returned :class:`PreparedQuery` carries the bound per-chunk
        plans and an explicit ``planned`` flag (template build or any
        bind-failure replan), so callers preparing many queries before
        executing any -- the service admission-window path -- still
        attribute cache hits to the right query.
        """
        names = sorted(operand_names(expr))
        if not names:
            raise ValueError("expression references no operands")
        self.ssd.ftl.validate_co_located(names)
        record = self.ssd.ftl.lookup(names[0])
        template, template_planned = self._template_for(expr, names)
        queues, bind_planned = self._bound_queues(
            expr, template, record.n_chunks, names=names
        )
        return PreparedQuery(
            expr=expr,
            n_bits=record.n_bits,
            n_chunks=record.n_chunks,
            queues=queues,
            planned=template_planned or bind_planned,
        )

    def _stage_constants(self, chip: int) -> tuple[float, float, tuple]:
        """Per-chip static parts of a chunk's pipeline job (transfer
        durations and resource names).  Memoized: the service emits
        one job per chunk task per window, and only the sense duration
        varies between them."""
        cached = self._stage_cache.get(chip)
        if cached is None:
            c = self.config
            chunk_bytes = self.ssd.page_bits / 8
            cached = (
                chunk_bytes / c.channel_bw_bytes_per_s,
                chunk_bytes / c.external_bw_bytes_per_s,
                (f"chip{chip}", f"chan{chip % c.n_channels}", "ext"),
            )
            self._stage_cache[chip] = cached
        return cached

    def stage_job(
        self,
        jobs: JobTable,
        chip: int,
        latency_us: float,
        *,
        ready_at_s: float = 0.0,
        priority: float = 0.0,
        deadline_s: float | None = None,
        preemptible: bool = True,
        fault_delay_us: float = 0.0,
    ) -> None:
        """Append the pipeline job of one chunk result to ``jobs``:
        die sense -> channel DMA -> external link (durations in
        seconds, the event simulator's unit).  ``ready_at_s`` lets
        window streams arrive on the virtual clock instead of all at
        t=0.

        ``priority``/``deadline_s``/``preemptible`` thread scheduling
        directives into the arbitrated simulator
        (:func:`~repro.ssd.events.simulate_stages` with an
        :class:`~repro.ssd.events.ArbitrationConfig`): a deadline job
        outranks every non-deadline job at a contended die or channel
        and may suspend an in-flight preemptible sense; the legacy
        FCFS sweep ignores all three.

        ``fault_delay_us`` is the chunk's recovery time (retry backoff
        plus injected stalls, :attr:`ChunkOutcome.recovery_us`): the
        simulator extends the die stage by it, so fault recovery lands
        exactly in the simulated timeline."""
        dma_s, ext_s, resources = self._stage_constants(chip)
        jobs.add(
            ready_at_s,
            (latency_us * 1e-6, dma_s, ext_s),
            resources,
            priority,
            deadline_s,
            preemptible,
            fault_delay_us * 1e-6,
        )

    def _execute_recovered(
        self,
        executor,
        task: ChunkTask,
        injector,
        policy: RecoveryPolicy,
        force_degraded: bool,
    ) -> ChunkOutcome:
        """Execute one task's plan under the fault-recovery policy.

        Chip cost fields of the outcome are counter deltas across
        *every* attempt -- a failed sense still occupied the die --
        while ``recovery_us`` holds the controller-side backoff and
        injected stalls (charged to the event simulation, not the
        chip).  All fault draws come from the chip's own
        deterministic stream.
        """
        chip, plan = task.chip, task.plan
        counters = executor.chip.counters
        busy_before = counters.busy_us
        energy_before = counters.energy_nj
        senses_before = counters.senses
        recovery_us = 0.0
        retries = 0
        degraded = False
        error: Exception | None = None
        result = None
        if force_degraded:
            # A health-degraded chip serves directly on the careful
            # V_TH margin-read path, immune to transient sense faults.
            degraded = True
            try:
                result = executor.execute_degraded(
                    plan, extra_senses=policy.degraded_extra_senses
                )
            except FlashFault as fault:
                error = fault
        else:
            attempt = 0
            while True:
                attempt += 1
                recovery_us += injector.draw_stall(chip)
                faulted = injector.draw_sense_fault(chip)
                try:
                    result = executor.execute(plan)
                except FlashFault as fault:
                    # Persistent (bad block): retrying cannot help.
                    error = fault
                    retries = attempt - 1
                    break
                if not faulted:
                    retries = attempt - 1
                    break
                # Transient failure: the attempt's chip time is spent,
                # its data is discarded.
                result = None
                if attempt > policy.max_retries:
                    retries = policy.max_retries
                    if policy.degraded_mode:
                        degraded = True
                        try:
                            result = executor.execute_degraded(
                                plan,
                                extra_senses=policy.degraded_extra_senses,
                            )
                        except FlashFault as fault:
                            error = fault
                    else:
                        error = RetryExhaustedError(
                            f"sense retry exhausted after {attempt} "
                            f"attempts on chip {chip}",
                            attempts=attempt,
                        )
                    break
                recovery_us += policy.backoff_us(attempt)
        if result is None and error is None:  # pragma: no cover
            error = RetryExhaustedError(
                f"sense recovery failed on chip {chip}", attempts=retries + 1
            )
        data = None
        if result is not None:
            data = result.words
        return ChunkOutcome(
            task,
            data,
            counters.senses - senses_before,
            counters.busy_us - busy_before,
            counters.energy_nj - energy_before,
            False,
            False,
            retries,
            recovery_us,
            degraded,
            error,
        )

    def execute_tasks(
        self,
        tasks: Iterable[ChunkTask],
        *,
        share: bool = True,
        batch: bool = True,
        use_cache: bool = False,
        recovery: RecoveryPolicy | None = None,
        degraded: Iterable[int] = (),
        offline: Iterable[int] = (),
        reconstruct: bool = False,
    ) -> list[ChunkOutcome]:
        """Drain a multi-query chunk-task list with cross-query sense
        sharing and window-at-a-time batched execution.

        Tasks are grouped per chip preserving the given order (the
        scheduler's per-chip schedule).  With ``use_cache`` on and a
        :class:`ResultCache` attached (:meth:`enable_result_cache`),
        each task first consults the cross-window cache -- *before*
        dedup, so a window repeating an earlier window's plans never
        reaches the sensing engine at all; hits come back as
        ``cached`` outcomes at zero flash cost.  The cache stays off
        under error injection (see :class:`ResultCache`).

        The drain is then dedup-first: with ``share`` on, a task whose
        ``(chip, plan)`` identity matches an earlier task of the same
        call executes nothing -- only the surviving *unique* plans
        form the chip's queue, in first-appearance order (exactly the
        sequence the flash would have sensed), and each executed
        sense's packed result words fan out to every subscribing task
        at zero flash cost.  Executed results are inserted into the
        cache for later windows.

        With ``batch`` on (the default) each chip's queue runs through
        :meth:`~repro.core.mws.MwsExecutor.execute_batch` -- one
        vectorized dispatch per chip instead of one per sense.  On an
        error-injecting SSD the queue batches through the V_TH
        compare with the scalar loop's exact stochastic draw
        schedule, falling back to per-sense execution only for queues
        with no batched equivalent (MLC targets, cross-plane XOR).
        ``batch=False`` forces the per-sense loop
        (the wall-clock baseline the batch benchmarks compare
        against); ``share=False`` is the unshared oracle.  Results and
        modeled cost counters are identical across all combinations;
        caching and sharing only change *where* a result comes from,
        never its bits.

        The last three parameters form the fault-recovery plane (see
        :mod:`repro.flash.faults`).  With ``recovery`` set *and* an
        active injector attached to the SSD, each unique plan executes
        through the retry/backoff/degraded policy on the scalar path
        (per-plan fault draws need per-plan execution); chips listed in
        ``degraded`` serve directly on the V_TH margin-read path
        (batched through
        :meth:`~repro.core.mws.MwsExecutor.execute_degraded_batch`
        when ``batch`` is on and the queue has a batched equivalent --
        the margin path draws no fault decisions, and its V_TH draws
        keep the per-plan loop's schedule, so batching it is exact), and
        chips listed in ``offline`` (quarantined) fail fast -- their
        tasks come back as error outcomes carrying
        :class:`~repro.flash.errors.ChipUnavailableError` without
        touching the die.  An inactive (or absent) injector ignores
        ``recovery`` entirely, so the fault-free window is the same
        batched drain as ever, float for float.

        With ``reconstruct`` on and parity striping enabled on the
        SSD, a second pass runs after every chip has drained: tasks
        that failed with :class:`ChipUnavailableError` or
        :class:`RetryExhaustedError` get their operand chunks rebuilt
        by XOR of surviving peers and parity, the expression is
        re-evaluated host-side, and the outcome comes back
        ``reconstructed`` with the survivor chips' real sense time in
        ``recovery_work``.  The pass walks the tasks in order, so
        reconstruction is deterministic.  Without failures (or
        with parity off) it is a no-op -- the fault-free window stays
        float-identical.
        """
        # Error injection turns off both cross-window memos: a cached
        # result or sense row would replay one stochastic draw instead
        # of drawing fresh errors.
        error_free = not self.ssd.inject_errors
        cache = self.result_cache if use_cache and error_free else None
        if cache is not None:
            cache.begin_epoch()
        # Stack reuse also needs the batched drain; the recover branch
        # runs scalar / degraded paths that never restack anyway.
        stacks = (
            self.stack_cache
            if error_free and batch and self.stack_reuse
            else None
        )
        injector = getattr(self.ssd, "fault_injector", None)
        if recovery is not None and (
            injector is None or not injector.active
        ):
            recovery = None
        degraded_chips = frozenset(degraded)
        offline_chips = frozenset(offline)
        order: list[ChunkTask] = (
            tasks if isinstance(tasks, list) else list(tasks)
        )
        per_chip: dict[int, list[int]] = {}
        for position, task in enumerate(order):
            queue = per_chip.get(task.chip)
            if queue is None:
                per_chip[task.chip] = [position]
            else:
                queue.append(position)
        outcomes: list[ChunkOutcome | None] = [None] * len(order)
        outcome = ChunkOutcome  # local binding: window hot loop

        for chip, positions in per_chip.items():
            if chip in offline_chips or getattr(
                self.ssd.chips[chip], "offline", False
            ):
                # Quarantined or fail-stopped: fail fast without
                # touching the die (the scheduler already parked
                # quarantined chips at the window tail; a chip that
                # died *mid-window* is caught here before its queue
                # raises out of the drain).
                for position in positions:
                    outcomes[position] = outcome(
                        order[position], None, 0, 0.0, 0.0, False,
                        error=ChipUnavailableError(
                            f"chip {chip} is quarantined", chip=chip
                        ),
                    )
                continue
            executor = self.ssd.controllers[chip].executor
            sensing = self.ssd.chips[chip].sensing
            chip_degraded = chip in degraded_chips
            recover = recovery is not None or chip_degraded
            pending = positions
            # Cross-window cache first: a hit never reaches dedup or
            # the executor, so a fully repeated window costs no flash
            # work and no executor dispatch.
            if cache is not None:
                pending = []
                for position in positions:
                    task = order[position]
                    words = cache.get(chip, task.plan)
                    if words is not None:
                        outcomes[position] = outcome(
                            task, words, 0, 0.0, 0.0, False, True
                        )
                    else:
                        pending.append(position)
                if not pending:
                    continue
            # Dedup next: unique plans in first-appearance order,
            # subscribers remembered by their executing position.
            unique: list[int] = []
            followers: list[tuple[int, int]] = []
            first_at: dict[Plan, int] = {}
            if share:
                for position in pending:
                    plan = order[position].plan
                    first = first_at.get(plan)
                    if first is not None:
                        followers.append((position, first))
                    else:
                        first_at[plan] = position
                        unique.append(position)
            else:
                unique = pending
            dispatched_before = executor.dispatches
            restacked_before = sensing.restacked_tensors
            if recover:
                # Fault recovery needs per-plan draws and retries, so
                # the queue runs scalar through the policy -- except
                # the health-degraded margin-read path, which draws no
                # fault decisions and batches through the V_TH compare
                # when possible (None falls back to the scalar loop:
                # bad blocks, MLC, cross-plane XOR).
                policy = (
                    recovery if recovery is not None else RecoveryPolicy()
                )
                batched = None
                if chip_degraded and batch:
                    batched = executor.execute_degraded_batch(
                        [order[p].plan for p in unique],
                        extra_senses=policy.degraded_extra_senses,
                    )
                if batched is not None:
                    for position, result in zip(unique, batched):
                        task = order[position]
                        data = result.words
                        outcomes[position] = outcome(
                            task, data, result.n_senses,
                            result.latency_us, result.energy_nj,
                            False, degraded=True,
                        )
                        if cache is not None:
                            cache.put(chip, task.plan, data, result.n_senses)
                    unique = []
                for position in unique:
                    task = order[position]
                    done = outcomes[position] = self._execute_recovered(
                        executor, task, injector, policy, chip_degraded
                    )
                    if (
                        cache is not None
                        and done.error is None
                        and done.data is not None
                    ):
                        cache.put(chip, task.plan, done.data, done.n_senses)
            else:
                queue = [order[position].plan for position in unique]
                results = None
                if batch and stacks is not None and queue:
                    # Cross-window stack reuse: plans already sensed
                    # under the current stamp replay their packed
                    # rows; only the miss plans reach the flash.
                    # Latch replay and charging still run for the
                    # whole queue, so outcomes and counters stay
                    # identical to a fresh batch.
                    reused = stacks.execute(executor, chip, queue)
                    if reused is not None:
                        results, reuse_hits = reused
                        self._stack_reuse_hits += reuse_hits
                if results is None:
                    if batch:
                        results = executor.execute_batch(queue)
                    else:
                        results = [executor.execute(plan) for plan in queue]
                for position, result in zip(unique, results):
                    task = order[position]
                    data = result.words
                    outcomes[position] = outcome(
                        task, data, result.n_senses,
                        result.latency_us, result.energy_nj, False,
                    )
                    if cache is not None:
                        cache.put(chip, task.plan, data, result.n_senses)
            # The executor reports its own dispatch count, so the stat
            # stays truthful when execute_batch falls back to the
            # per-sense loop (MLC targets, cross-plane XOR).
            self._executor_dispatches += (
                executor.dispatches - dispatched_before
            )
            self._restacked_tensors += (
                sensing.restacked_tensors - restacked_before
            )
            self._shared_plans += len(followers)
            for position, first in followers:
                prior = outcomes[first]
                self._shared_senses += prior.n_senses
                outcomes[position] = outcome(
                    order[position], prior.data, 0, 0.0, 0.0, True,
                    False, 0, 0.0, prior.degraded, prior.error,
                )
        if reconstruct and getattr(self.ssd, "parity", False):
            self._reconstruct_failures(order, outcomes, cache)
        return outcomes

    def _reconstruct_task(
        self, task: ChunkTask
    ) -> tuple[np.ndarray, int, float, tuple[tuple[int, float], ...]]:
        """Rebuild one failed chunk task's result from parity.

        Every operand chunk of the task is reconstructed by XOR of its
        surviving rotation-group peers and parity page
        (:meth:`SmallSsd.reconstruct_chunk_bits`), then the expression
        is evaluated host-side over the rebuilt operand bits -- the
        same envelope the degraded V_TH fallback uses, so the result
        is bit-identical to what the lost chip would have computed.
        Returns ``(data, n_senses, energy_nj, recovery_work)`` where
        the cost fields are counter deltas measured across *all*
        chips: reconstruction's survivor reads are real senses and are
        charged to the chips that performed them.
        """
        ssd = self.ssd
        before = [
            (
                chip.counters.senses,
                chip.counters.busy_us,
                chip.counters.energy_nj,
            )
            for chip in ssd.chips
        ]
        env = {
            name: ssd.reconstruct_chunk_bits(name, task.chunk)
            for name in sorted(operand_names(task.expr))
        }
        bits = evaluate(task.expr, env)
        data = pack_bits(bits)
        n_senses = 0
        energy_nj = 0.0
        work: list[tuple[int, float]] = []
        for chip_id, (s0, b0, e0) in enumerate(before):
            counters = ssd.chips[chip_id].counters
            n_senses += counters.senses - s0
            energy_nj += counters.energy_nj - e0
            busy = counters.busy_us - b0
            if busy > 0.0:
                work.append((chip_id, busy))
        return data, n_senses, energy_nj, tuple(work)

    def _reconstruct_failures(
        self,
        order: list[ChunkTask],
        outcomes: list[ChunkOutcome | None],
        cache: ResultCache | None,
    ) -> None:
        """Phase two of ``execute_tasks(..., reconstruct=True)``: walk
        the outcomes in task order and replace chip-loss/retry-
        exhaustion failures with parity-reconstructed results.  First
        occurrence per ``share_key`` pays the survivor reads; repeats
        fan out as shared outcomes, mirroring the sense-sharing
        contract of phase one.  A task whose reconstruction itself
        fails (parity off for the vector, double fault on a survivor)
        keeps its original typed error outcome.
        """
        memo: dict[tuple[int, Plan], ChunkOutcome | None] = {}
        reconstructed = 0
        senses = 0
        for position, prior in enumerate(outcomes):
            if prior is None or prior.error is None:
                continue
            task = prior.task
            if task.expr is None or not isinstance(
                prior.error, (ChipUnavailableError, RetryExhaustedError)
            ):
                continue
            key = task.share_key
            if key in memo:
                first = memo[key]
                if first is None:
                    continue
                outcomes[position] = ChunkOutcome(
                    task, first.data, 0, 0.0, 0.0, True, False,
                    prior.retries, prior.recovery_us, reconstructed=True,
                )
                reconstructed += 1
                continue
            try:
                data, n_senses, energy_nj, work = self._reconstruct_task(
                    task
                )
            except (ReconstructionError, KeyError):
                memo[key] = None
                continue
            # The task's own chip spent nothing (it is gone); survivor
            # time rides recovery_work so the service charges the
            # right dies in the event simulation.
            fresh = ChunkOutcome(
                task, data, n_senses, 0.0, energy_nj, False, False,
                prior.retries, prior.recovery_us,
                reconstructed=True, recovery_work=work,
            )
            outcomes[position] = fresh
            memo[key] = fresh
            reconstructed += 1
            senses += n_senses
            if cache is not None:
                # Valid under the invalidation contract: survivor
                # reads are senses, not programs, so no layout stamp
                # moved; when the service later quarantines the dead
                # chip its directory generation bump drops the entry.
                cache.put(task.chip, task.plan, data, n_senses)
        if reconstructed:
            self._reconstructed_plans += reconstructed
            self._reconstruction_senses += senses

    def assemble_bits(
        self, prepared: PreparedQuery, pieces: list[np.ndarray | None]
    ) -> np.ndarray:
        """Concatenate per-chunk result pages (packed words) into the
        query's result bit vector, truncated to its true
        length -- the single unpack at the result boundary.  Only
        ``prepared.n_bits`` is read, so any record carrying the
        query's length will do (the service passes its per-query
        state, which does not keep the bound plans)."""
        present = [p for p in pieces if p is not None]
        if not present:
            return np.empty(0, np.uint8)
        bits = unpack_rows(np.vstack(present), self.ssd.page_bits).ravel()
        return bits[: prepared.n_bits]

    def _execute(
        self, expr: Expression, job_sink: JobTable
    ) -> "QueryResult":
        """Run one query functionally; append its pipeline jobs (one
        per chunk) to ``job_sink`` for event simulation."""
        from repro.ssd.controller import QueryResult

        prepared = self.prepare(expr)
        pieces: list[np.ndarray | None] = [None] * prepared.n_chunks
        chip_busy: dict[int, float] = {}
        n_senses = 0
        energy_nj = 0.0
        for outcome in self.execute_tasks(
            prepared.tasks(query=0), share=False
        ):
            if outcome.error is not None:
                # The synchronous path has no degraded fallback left to
                # try: surface the typed fault to the caller.
                raise outcome.error
            task = outcome.task
            # Chunk results stay packed through the replay; the single
            # unpack happens at the result boundary in assemble_bits.
            pieces[task.chunk] = outcome.data
            n_senses += outcome.n_senses
            energy_nj += outcome.energy_nj
            chip_busy[task.chip] = (
                chip_busy.get(task.chip, 0.0) + outcome.latency_us
            )
            self.stage_job(
                job_sink,
                task.chip,
                outcome.latency_us,
                fault_delay_us=outcome.recovery_us,
            )
        return QueryResult(
            bits=self.assemble_bits(prepared, pieces),
            n_senses=n_senses,
            latency_us=max(chip_busy.values(), default=0.0),
            energy_nj=energy_nj,
            # Served without any planning: neither a template build nor
            # a bind-failure replan ran for this query (threaded
            # explicitly from prepare -- not a counter delta, which
            # would misattribute hits when queries interleave).
            template_hit=prepared.template_hit,
        )

    def query(self, expr: Expression) -> "QueryResult":
        """Evaluate one expression; the result carries the pipelined
        makespan of its own chunk job stream."""
        from dataclasses import replace

        jobs = JobTable()
        result = self._execute(expr, jobs)
        report = simulate_stages(jobs)
        return replace(result, makespan_us=report.makespan * 1e6)

    def query_batch(self, exprs: Iterable[Expression]) -> BatchResult:
        """Evaluate a stream of queries and pipeline *all* their chunk
        jobs through the shared resources at once -- the makespan is
        what a controller interleaving the stream would achieve, not
        the sum of isolated queries."""
        from dataclasses import replace

        jobs = JobTable()
        results: list["QueryResult"] = []
        spans: list[tuple[int, int]] = []
        for expr in exprs:
            start = len(jobs)
            results.append(self._execute(expr, jobs))
            spans.append((start, len(jobs)))
        # An empty stream is a valid (if boring) batch: service
        # admission windows with no admitted queries push one through
        # without special-casing.
        report = simulate_stages(jobs)
        finished = [
            replace(
                result,
                makespan_us=max(report.completion_times[lo:hi]) * 1e6,
            )
            for result, (lo, hi) in zip(results, spans)
        ]
        return BatchResult(
            results=tuple(finished),
            makespan_us=report.makespan * 1e6,
            bottleneck=report.bottleneck,
        )
