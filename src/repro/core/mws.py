"""Plan executor: runs MWS command plans on the functional chip.

Two execution strategies share one cost model:

* :meth:`MwsExecutor.execute` drives the chip scalar-fashion, one
  sense at a time -- the reference semantics and the per-sense V_TH
  oracle every batched path is property-tested against.
* :meth:`MwsExecutor.execute_batch` drains a whole queue of plans
  *batch-first*: on an error-free chip every sense of every plan is
  evaluated in one vectorized
  :meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch` pass,
  the latch protocol replays per ISCM-signature group through
  :meth:`~repro.flash.latches.LatchBank.capture_batch`, and the
  timing/energy counters are charged plan-by-plan in the exact scalar
  order -- so results, latch end-state, and every counter are
  bit-for-bit identical to ``execute_many`` while Python dispatch
  drops from O(senses) to O(signature groups).

Error-injecting chips ride the same batch shape through the V_TH
compare (:meth:`MwsExecutor.execute_degraded_batch` over
:meth:`~repro.flash.chip.NandFlashChip.execute_sense_batch_vth`): the
window's stochastic perturbation draws happen in one vectorized pass
whose draw schedule is identical to the scalar per-sense loop's, so
the corrupted bits -- and everything downstream of them (ECC retries,
recovery decisions) -- are the same bits either way.  Degraded-mode
recovery on error-free chips batches through the same method.  Every
path latches and returns packed ``uint64`` words.
"""

from __future__ import annotations

from operator import is_

import numpy as np

from repro.core.planner import Plan, SenseStep, XorStep
from repro.flash.chip import NandFlashChip
from repro.flash.packing import unpack_words
from repro.flash.timing import TimingModel


class ExecutionResult:
    """Result of one in-flash computation.

    The result page is held packed (``uint64`` words), so
    controller-side pipelines stay packed; ``bits`` is the unpacked
    view direct library users read, converted on first access.

    A slotted plain class: one is built per executed plan on every
    drain, and slot stores cost about a quarter of a frozen
    dataclass's per-field ``object.__setattr__``.
    """

    __slots__ = (
        "n_senses",
        "latency_us",
        "energy_nj",
        "n_bits",
        "words",
        "_bits",
    )

    def __init__(
        self,
        n_senses: int,
        latency_us: float,
        energy_nj: float,
        n_bits: int,
        words: np.ndarray,
    ) -> None:
        self.n_senses = n_senses
        self.latency_us = latency_us
        self.energy_nj = energy_nj
        self.n_bits = n_bits
        self.words = words
        self._bits: np.ndarray | None = None

    @property
    def bits(self) -> np.ndarray:
        """Unpacked 0/1 result page (uint8)."""
        if self._bits is None:
            self._bits = unpack_words(self.words, self.n_bits)
        return self._bits


def _batch_info(plan: Plan) -> tuple | None:
    """Memoized batch-execution metadata of one plan.

    Returns ``(group_key, capture_steps, charges, commands)`` where
    ``group_key`` is the hash-cheap ``(plane, ISCM-code tuple)`` lane
    grouping key, ``capture_steps`` the flag sequence
    :meth:`~repro.flash.latches.LatchBank.capture_batch` consumes,
    ``charges`` the per-step ``(n_wordlines, n_blocks)`` cost profile
    (``None`` marking a latch XOR), and ``commands`` the plan's sense
    commands in step order -- or ``None`` when the plan has no batched
    equivalent (a rogue cross-plane XOR, left to the scalar protocol).
    The derivation runs once per plan; codes, capture steps and
    charges depend only on the plan's template, so plans bound from
    one template share them.
    """
    cached = plan.__dict__.get("_batch_info", False)
    if cached is not False:
        return cached
    template = plan.__dict__.get("_template")
    shape = None if template is None else template.__dict__.get("_shape")
    codes: list[int] = []
    capture_steps: list = []
    charges: list[tuple[int, int] | None] = []
    commands: list = []
    for step in plan.steps:
        if isinstance(step, SenseStep):
            commands.append(step.command)
            if shape is not None:
                continue
            iscm = step.command.iscm
            codes.append(
                (iscm.inverse << 3)
                | (iscm.init_sense << 2)
                | (iscm.init_cache << 1)
                | iscm.transfer
            )
            capture_steps.append(iscm)
            charges.append((step.n_wordlines, step.n_blocks))
        elif isinstance(step, XorStep):
            if step.plane != plan.plane:
                object.__setattr__(plan, "_batch_info", None)
                return None
            codes.append(-1)
            capture_steps.append(None)
            charges.append(None)
        else:  # pragma: no cover - plans only hold the two kinds
            raise TypeError(f"unknown plan step {step!r}")
    if shape is None:
        shape = (tuple(codes), tuple(capture_steps), tuple(charges))
        if template is not None:
            object.__setattr__(template, "_shape", shape)
    info = ((plan.plane, shape[0]), shape[1], shape[2], tuple(commands))
    object.__setattr__(plan, "_batch_info", info)
    return info


class MwsExecutor:
    """Drives a :class:`NandFlashChip` through a command plan."""

    def __init__(self, chip: NandFlashChip) -> None:
        self.chip = chip
        self.timing = TimingModel()
        #: Python-level dispatches this executor performed: +1 per
        #: scalar ``execute`` call, +1 per batched queue.  The query
        #: engine reads deltas of this, so the count stays truthful
        #: even when ``execute_batch`` falls back to the scalar loop.
        self.dispatches = 0
        #: Window-identity layout memo: (infos, (commands, sense_base,
        #: lane_groups)) of the last window.  One window deep, like
        #: ``_window_memo``: repeats of the last window are the steady
        #: state, and pinning older windows would keep their plans'
        #: metadata alive after the plans themselves are gone.
        self._layout_memo: tuple | None = None
        #: Steady-state window replay memo (see execute_batch_reuse):
        #: (plans, per-plan rows, per-plan C-latch rows, latch op
        #: marks).  One window deep -- repeats of the *last* window
        #: are the service steady state.
        self._window_memo: tuple | None = None

    def execute(self, plan: Plan) -> ExecutionResult:
        return self._execute_scalar(plan)

    def execute_many(self, plans: list[Plan]) -> list[ExecutionResult]:
        """Drain a queue of plans on this chip in order, one sense at
        a time (the scalar reference loop the batched path is measured
        against)."""
        return [self.execute(plan) for plan in plans]

    def execute_degraded(
        self, plan: Plan, *, extra_senses: int = 0
    ) -> ExecutionResult:
        """Execute a plan on the V_TH read-retry path (degraded mode).

        The fault-recovery fallback: every sense evaluates through the
        per-cell V_TH comparison (``force_vth``) instead of the word
        reduce -- on an error-free chip this is bit-identical to
        :meth:`execute`, just slower, and it sidesteps the word reduce
        a transient sense fault condemned.  ``extra_senses``
        models the margin-read ladder real firmware walks per sense
        (each charged at the step's own MWS shape), so degraded
        latency/energy honestly exceed the healthy path.
        """
        return self._execute_scalar(
            plan, force_vth=True, extra_senses=extra_senses
        )

    def _execute_scalar(
        self, plan: Plan, *, force_vth: bool = False, extra_senses: int = 0
    ) -> ExecutionResult:
        self.dispatches += 1
        chip = self.chip
        busy_before = chip.counters.busy_us
        energy_before = chip.counters.energy_nj
        senses_before = chip.counters.senses
        for step in plan.steps:
            if isinstance(step, SenseStep):
                chip.execute_sense(
                    list(step.command.targets),
                    step.command.iscm,
                    force_vth=force_vth,
                )
                for _ in range(extra_senses):
                    chip.charge_sense(step.n_wordlines, step.n_blocks)
            elif isinstance(step, XorStep):
                chip.xor_command(step.plane)
            else:  # pragma: no cover - plans only hold the two kinds
                raise TypeError(f"unknown plan step {step!r}")
        return ExecutionResult(
            n_senses=chip.counters.senses - senses_before,
            latency_us=chip.counters.busy_us - busy_before,
            energy_nj=chip.counters.energy_nj - energy_before,
            n_bits=chip.geometry.page_size_bits,
            words=chip.output_cache_words(plan.plane),
        )

    def execute_batch(self, plans: list[Plan]) -> list[ExecutionResult]:
        """Drain a queue of plans batch-first (see module docstring).

        On an error-injecting chip the queue batches through the V_TH
        compare instead (:meth:`execute_degraded_batch`, draw-schedule
        identical to the scalar loop), falling back to the scalar loop
        only for queues with no batched equivalent (cross-plane XOR,
        MLC targets, injected bad blocks) -- so callers can always
        route through this entry point.  On an error-free chip:

        1. every plan's sense commands are flattened plan-major and
           evaluated in one :meth:`NandFlashChip.execute_sense_batch`
           call;
        2. plans sharing a ``(plane, ISCM step signature)`` replay the
           latch protocol together as one ``capture_batch`` lane
           group, and the queue's last plan per plane lands its final
           latch state in the bank exactly as scalar execution would;
        3. counters are charged plan-by-plan in scalar step order, so
           per-plan latency/energy deltas -- and the chip counters
           themselves -- are float-identical to ``execute_many``.
        """
        chip = self.chip
        if not plans:
            return []
        if chip.inject_errors:
            results = self.execute_degraded_batch(plans)
            if results is not None:
                return results
            return self.execute_many(plans)
        # ------------------------------------------------------------
        # 1. Flatten senses plan-major; group lanes by step signature
        #    (memoized per plan -- bound plans recur across windows).
        # ------------------------------------------------------------
        infos = self._batch_infos(plans)
        if infos is None:
            # A rogue cross-plane XOR has no batched equivalent; let
            # the scalar protocol judge the whole queue.
            return self.execute_many(plans)
        self.dispatches += 1
        commands, sense_base, lane_groups = self._batch_layout(infos)
        words = chip.execute_sense_batch(commands)
        # ------------------------------------------------------------
        # 2. Latch replay per (plane, signature) lane group.
        # ------------------------------------------------------------
        plan_words = self._replay_latches(
            plans, infos, words, sense_base, lane_groups
        )
        # ------------------------------------------------------------
        # 3. Cost accounting, plan-by-plan in scalar step order.
        # ------------------------------------------------------------
        return self._charge_results(infos, plan_words)

    def execute_batch_reuse(
        self,
        plans: list[Plan],
        lookup,
        store,
    ) -> tuple[list[ExecutionResult], int] | None:
        """:meth:`execute_batch` with cross-window sense-row reuse.

        ``lookup(plan)`` returns a :class:`~repro.core.planner.Plan`'s
        memoized ``(sense rows, (block, n_wordlines) read pairs)``
        from an earlier window, or ``None``; ``store(plan, rows,
        reads)`` is called for every plan sensed fresh so the caller
        can extend the memo.
        The caller (:class:`repro.ssd.query_engine.StackCache`) owns
        staleness: it hands in entries only while its layout/content
        stamp is unchanged, which is exactly when the error-free word
        reduce would re-derive identical rows.

        Only the *sensing* of reused plans is skipped -- the latch
        protocol replays over the whole window (so per-plane landing
        state is what scalar execution would leave), cost counters
        charge plan-by-plan, read disturb is re-applied from the
        memoized pairs (``note_read`` is a pure counter), and the
        dispatch count moves by one exactly as a fresh batch would.
        Returns ``(results, reused_plan_count)``, or ``None`` when
        the queue has no batched equivalent or the chip injects errors
        (caller falls back to :meth:`execute_batch`).

        An exact *steady-state* repeat -- every plan hit, the same
        plan/row population as the previous window through this
        executor, and no latch activity on the landing planes since
        (``LatchBank.ops`` marks) -- additionally skips the latch
        replay itself: the replay is a pure function of (plans, rows),
        so its cached per-plan C-latch rows are bit-identical, and the
        banks already hold the landing state the replay would copy in.
        Cost charging and read-disturb accounting still run per
        window (their float accumulation order is part of the
        contract), so counters stay identical too.
        """
        chip = self.chip
        if not plans or chip.inject_errors:
            return None
        infos = self._batch_infos(plans)
        if infos is None:
            return None
        commands, sense_base, lane_groups = self._batch_layout(infos)
        plan_rows: list = [None] * len(plans)
        hit_reads: list = []
        miss_slices: list[tuple[int, int, int]] = []
        miss_commands: list = []
        for index, info in enumerate(infos):
            entry = lookup(plans[index])
            if entry is not None:
                plan_rows[index] = entry[0]
                hit_reads.append(entry[1])
            else:
                start = len(miss_commands)
                miss_commands.extend(info[3])
                miss_slices.append(
                    (index, start, start + len(info[3]))
                )
        memo = self._window_memo
        if (
            not miss_commands
            and memo is not None
            and len(memo[0]) == len(plans)
            and all(a is b for a, b in zip(memo[0], plans))
            and all(a is b for a, b in zip(memo[1], plan_rows))
            and all(
                chip.latches[plane].ops == mark
                for plane, mark in memo[3]
            )
        ):
            for reads in hit_reads:
                for block, n_wordlines in reads:
                    block.note_read(n_wordlines)
            self.dispatches += 1
            return (
                self._charge_results(infos, memo[2]),
                len(hit_reads),
            )
        if miss_commands:
            # Fresh senses charge their own read disturb inside
            # execute_sense_batch; reused plans re-apply theirs below.
            sensed = chip.execute_sense_batch(miss_commands)
            plane_array = chip.plane_array
            for index, start, stop in miss_slices:
                rows = sensed[start:stop]
                reads = tuple(
                    (plane_array.block(address), len(wordlines))
                    for command in infos[index][3]
                    for address, wordlines in command.targets
                )
                plan_rows[index] = rows
                store(plans[index], rows, reads)
        for reads in hit_reads:
            for block, n_wordlines in reads:
                block.note_read(n_wordlines)
        self.dispatches += 1
        words = (
            plan_rows[0]
            if len(plan_rows) == 1
            else np.concatenate(plan_rows, axis=0)
        )
        plan_words = self._replay_latches(
            plans, infos, words, sense_base, lane_groups
        )
        # Memoize this window's replay for the steady-state repeat:
        # valid only while the same plan and row objects recur and the
        # landed planes' latch op marks are untouched.
        self._window_memo = (
            tuple(plans),
            tuple(plan_rows),
            plan_words,
            tuple(
                (plane, chip.latches[plane].ops)
                for plane in {plan.plane for plan in plans}
            ),
        )
        return (
            self._charge_results(infos, plan_words),
            len(hit_reads),
        )

    def execute_degraded_batch(
        self, plans: list[Plan], *, extra_senses: int = 0
    ) -> list[ExecutionResult] | None:
        """Batch a queue through the per-cell V_TH compare.

        The batched counterpart of :meth:`execute_degraded`, and the
        batch path of every error-injecting chip: sensing for the whole
        queue runs in one :meth:`NandFlashChip.execute_sense_batch_vth`
        pass (``force_vth``) -- with the stochastic draw schedule of the
        scalar per-sense loop preserved exactly, and bit-identical to
        the word reduce on an error-free chip -- and the latch protocol
        and cost counters replay per plan as the error-free batch does.
        The margin-read ladder (``extra_senses``) charges per step
        exactly as the scalar loop does.  Returns ``None`` (nothing
        executed, no RNG consumed) when the queue must stay scalar: a
        cross-plane XOR, an MLC target, or any plan targeting an
        injected bad block (the scalar loop's per-plan ``FlashFault``
        semantics are preserved by never batching such a queue).
        """
        chip = self.chip
        if not plans:
            return None
        infos = self._batch_infos(plans)
        if infos is None:
            return None
        commands, sense_base, lane_groups = self._batch_layout(infos)
        injector = chip.fault_injector
        if injector is not None:
            for command in commands:
                for block_addr, _ in command.targets:
                    if injector.is_bad_block(
                        chip.fault_chip_id, block_addr
                    ):
                        return None
        words = chip.execute_sense_batch_vth(commands)
        if words is None:
            return None
        # Committed: the window's draws happened, batch-schedule equal
        # to the scalar loop's.
        self.dispatches += 1
        plan_words = self._replay_latches(
            plans, infos, words, sense_base, lane_groups
        )
        return self._charge_results(
            infos, plan_words, extra_senses=extra_senses
        )

    # ------------------------------------------------------------------
    # Shared batch machinery
    # ------------------------------------------------------------------

    @staticmethod
    def _batch_infos(plans: list[Plan]) -> list[tuple] | None:
        """Batch metadata of every plan, or ``None`` when any plan has
        no batched equivalent (a rogue cross-plane XOR)."""
        infos = []
        for plan in plans:
            info = plan.__dict__.get("_batch_info", False)
            if info is False:
                info = _batch_info(plan)
            if info is None:
                return None
            infos.append(info)
        return infos

    def _batch_layout(
        self,
        infos: list[tuple],
    ) -> tuple[list, list[int], dict[tuple, list[int]]]:
        """Flatten sense commands plan-major and group plan lanes by
        their ``(plane, ISCM signature)`` key.

        Memoized on the window's info identity, one window deep:
        infos are pinned on their plans, so a repeat of the last
        window presents the same objects and gets the same layout back
        -- including the *same command list object*, which is what
        lets the chip key its V_TH schedule cache on window identity.
        """
        memo = self._layout_memo
        if (
            memo is not None
            and len(memo[0]) == len(infos)
            and all(map(is_, memo[0], infos))
        ):
            return memo[1]
        commands: list = []
        sense_base: list[int] = []
        lane_groups: dict[tuple, list[int]] = {}
        for index, (gkey, _, _, plan_commands) in enumerate(infos):
            sense_base.append(len(commands))
            commands.extend(plan_commands)
            lane_groups.setdefault(gkey, []).append(index)
        layout = (commands, sense_base, lane_groups)
        self._layout_memo = (infos, layout)
        return layout

    def _replay_latches(
        self,
        plans: list[Plan],
        infos: list[tuple],
        words: np.ndarray,
        sense_base: list[int],
        lane_groups: dict[tuple, list[int]],
    ) -> list[np.ndarray]:
        """Replay the latch protocol per lane group and return each
        plan's final C-latch row.  ``words`` holds one packed
        ``uint64`` row per flattened sense command."""
        chip = self.chip
        last_on_plane: dict[int, int] = {}
        for index, plan in enumerate(plans):
            last_on_plane[plan.plane] = index
        out: list[np.ndarray] = [None] * len(plans)  # type: ignore[list-item]
        for (plane, _), members in lane_groups.items():
            capture_steps = infos[members[0]][1]
            matrices = []
            ordinal = 0
            for step in capture_steps:
                if step is None:
                    continue
                rows = np.asarray(
                    [sense_base[i] + ordinal for i in members]
                )
                matrices.append(words[rows])
                ordinal += 1
            landing = last_on_plane[plane]
            cache_rows = chip.latches[plane].capture_batch(
                capture_steps,
                matrices,
                land_lane=(
                    members.index(landing) if landing in members else None
                ),
            )
            for lane, i in enumerate(members):
                out[i] = cache_rows[lane]
        return out

    def _charge_results(
        self,
        infos: list[tuple],
        plan_words: list[np.ndarray],
        *,
        extra_senses: int = 0,
    ) -> list[ExecutionResult]:
        """Charge counters plan-by-plan in scalar step order and build
        the per-plan results.

        Performs the same sequence of counter additions the scalar
        loop performs -- including one extra ``charge_sense``-shaped
        addition per sense per margin read (``extra_senses``, the
        degraded ladder) -- so per-plan latency/energy deltas and the
        chip counters themselves stay float-identical
        (charge_sense/charge_xor inlined with the memoized cost cache
        -- queue hot loop).
        """
        chip = self.chip
        counters = chip.counters
        cost_cache = chip._mws_cost_cache
        charge_sense = chip.charge_sense
        xor_cost = chip.power.read_energy_nj(1.0)
        n_bits = chip.geometry.page_size_bits
        result = ExecutionResult
        results = []
        for index, (_, _, charges, _) in enumerate(infos):
            busy_before = counters.busy_us
            energy_before = counters.energy_nj
            senses_before = counters.senses
            for charge in charges:
                if charge is None:  # latch XOR
                    counters.busy_us += 1.0
                    counters.energy_nj += xor_cost
                    continue
                for _ in range(1 + extra_senses):
                    cost = cost_cache.get(charge)
                    if cost is None:
                        charge_sense(charge[0], charge[1])
                        continue
                    counters.senses += 1
                    counters.wordlines_sensed += charge[0]
                    counters.busy_us += cost[0]
                    counters.energy_nj += cost[1]
            # The plan's result leaves the chip exactly once, as in
            # the scalar path's output_cache call.
            counters.transfers_out += 1
            results.append(
                result(
                    counters.senses - senses_before,
                    counters.busy_us - busy_before,
                    counters.energy_nj - energy_before,
                    n_bits,
                    plan_words[index],
                )
            )
        return results

    def estimate_latency_us(self, plan: Plan) -> float:
        """Latency of a plan from the physically derived tMWS model,
        without executing it.

        Memoized on the plan's template (on the plan itself when it
        was planned directly): the estimate depends only on the sense
        profile, which every plan bound from one template shares, and
        the service scheduler estimates every window's buckets from
        this -- the model walk runs once per template, not per plan.
        The memo holds one ``(timing, estimate)`` pair per
        ``TimingModel`` instance that asked -- one per chip executor,
        since a template binds plans on every chip -- so swapping in a
        differently parameterized model recomputes instead of serving
        a stale value.
        """
        owner = plan.__dict__.get("_template", plan)
        memo = owner.__dict__.get("_est_latency_us", ())
        for timing, total in memo:
            if timing is self.timing:
                return total
        total = 0.0
        for wordlines, blocks in owner.sense_profile():
            total += self.timing.t_mws_us(wordlines, blocks)
        object.__setattr__(
            owner, "_est_latency_us", memo + ((self.timing, total),)
        )
        return total
