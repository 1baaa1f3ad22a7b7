"""SSD-level drains through the per-cell V_TH compare.

Every chip senses in one of two ways: the word reduce over its packed
rows (error-free chips) or the V_TH compare, which perturbs (when
injecting errors) and compares each cell against the read reference
and packs the result at the sense boundary.  On an error-free chip at
zero VREF offset the two are bit-identical, and
``MwsExecutor.execute_degraded`` / ``execute_degraded_batch`` force the
compare.  With no margin-read ladder (``extra_senses=0``) they issue
the same commands and charge the same counters as the word path, so
the functions below give the reference bits and costs the production
drain (``QueryEngine.execute_tasks`` / ``SmallSsd.query``) must match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.chip import IscmFlags
from repro.ssd.query_engine import ChunkOutcome


def vth_execute_tasks(ssd, tasks, *, share=True, batch=True):
    """``execute_tasks`` on the V_TH compare.

    Per chip, the unique plans (first appearance, when ``share``) run
    through ``execute_degraded_batch`` -- or ``execute_degraded`` per
    plan without ``batch``, or when the queue has no batched
    equivalent -- and repeats share the first result at zero cost.
    Returns one :class:`~repro.ssd.query_engine.ChunkOutcome` per task,
    in task order.
    """
    order = list(tasks)
    per_chip: dict[int, list[int]] = {}
    for position, task in enumerate(order):
        per_chip.setdefault(task.chip, []).append(position)
    outcomes: list[ChunkOutcome | None] = [None] * len(order)
    for chip, positions in per_chip.items():
        executor = ssd.controllers[chip].executor
        unique: list[int] = []
        followers: list[tuple[int, int]] = []
        first_at: dict = {}
        for position in positions:
            plan = order[position].plan
            if share and plan in first_at:
                followers.append((position, first_at[plan]))
                continue
            first_at[plan] = position
            unique.append(position)
        plans = [order[position].plan for position in unique]
        results = executor.execute_degraded_batch(plans) if batch else None
        if results is None:
            results = [executor.execute_degraded(plan) for plan in plans]
        for position, result in zip(unique, results):
            outcomes[position] = ChunkOutcome(
                order[position],
                result.words,
                result.n_senses,
                result.latency_us,
                result.energy_nj,
                False,
            )
        for position, first in followers:
            outcomes[position] = ChunkOutcome(
                order[position], outcomes[first].data, 0, 0.0, 0.0, True
            )
    return outcomes


@dataclass(frozen=True)
class VthQueryResult:
    bits: np.ndarray
    n_senses: int
    latency_us: float
    energy_nj: float


def vth_query(ssd, expr, *, batch=False) -> VthQueryResult:
    """``SmallSsd.query`` on the V_TH compare: the same bits, sense
    count, per-chip-maximum latency and energy, without the event
    simulation."""
    prepared = ssd.engine.prepare(expr)
    outcomes = vth_execute_tasks(
        ssd, prepared.tasks(query=0), share=False, batch=batch
    )
    pieces = [None] * prepared.n_chunks
    chip_busy: dict[int, float] = {}
    for outcome in outcomes:
        pieces[outcome.task.chunk] = outcome.data
        chip_busy[outcome.task.chip] = (
            chip_busy.get(outcome.task.chip, 0.0) + outcome.latency_us
        )
    return VthQueryResult(
        bits=ssd.engine.assemble_bits(prepared, pieces),
        n_senses=sum(o.n_senses for o in outcomes),
        latency_us=max(chip_busy.values(), default=0.0),
        energy_nj=sum(o.energy_nj for o in outcomes),
    )


def vth_read_vector(ssd, name) -> np.ndarray:
    """``SmallSsd.read_vector`` with every page read sensed through
    the V_TH compare (``force_vth``) and de-randomized on the bit
    page."""
    record = ssd.ftl.lookup(name)
    pieces = []
    for placement in record.placements:
        controller = ssd.controllers[placement.chip]
        chip = controller.chip
        stored = controller.stored(f"{name}@{placement.chunk}")
        address = stored.address
        chip.execute_sense(
            [(address.block_address, (address.wordline,))],
            IscmFlags(inverse=stored.inverted),
            force_vth=True,
        )
        bits = chip.output_cache(address.plane)
        meta = chip.plane_array.block(address.block_address).metadata[
            address.wordline
        ]
        if meta.programmed and meta.randomized:
            index = meta.randomizer_page_index
            if index is None:
                index = chip.page_index(address)
            bits = chip.randomizer.derandomize(bits, index)
        pieces.append(bits)
    return np.concatenate(pieces)[: record.n_bits]
