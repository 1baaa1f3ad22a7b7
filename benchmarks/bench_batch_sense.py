"""Window-at-a-time batched execution vs the per-sense dispatch loop.

PR 3's service layer dedups senses across an admission window, but
still *executed* the surviving unique plans one Python dispatch at a
time: ``execute_tasks`` looped task-by-task, each sense walking the
chip's block/latch protocol per call.  The batched data plane stacks
every sense of a chip's queue into one ``uint64`` tensor
(``SensingEngine.sense_batch``), replays the latch protocol
lane-parallel (``LatchBank.capture_batch``), and drops executor
dispatch to one per chip (``MwsExecutor.execute_batch``) -- the move
in-DRAM bulk bitwise engines make when they issue whole batches of
row-wide operations as a few wide primitives.

This bench pushes one 64-chunk mixed service window (16 queries, the
``bench_service`` stream shape) through ``execute_tasks`` twice on
twin SSDs -- ``batch=True`` vs ``batch=False`` -- and measures:

* wall-clock speedup of the batched window (gated, >= 3x locally);
* Python executor dispatches per window (chips vs unique plans);
* bit-exactness against the per-cell V_TH compare (the degraded-path
  oracle of ``tests/oracles/vth.py``: ``execute_degraded_batch`` with
  no margin-read ladder) and float-identical latency/energy
  accounting (the batch path replays the scalar charge sequence).

The ``measure_batch`` helper returns a plain dict so
``tools/bench_record.py`` snapshots ``batch_speedup`` and
``dispatches_per_window`` into the ``BENCH_kernels.json`` trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np

# The exact bench_service workload (SSD contents and query stream):
# both benchmarks measure the same 64-chunk window by construction.
from benchmarks.bench_service import (
    N_CHIPS,
    N_CHUNKS,
    _loaded_ssd,
    _mixed_stream,
)
from tests.oracles.vth import vth_execute_tasks

#: Required wall-clock speedup of the batched window.  Local/dev runs
#: use the full 3x gate; noisy shared CI runners may relax it via the
#: environment (bit-exactness is asserted unconditionally).
SPEEDUP_GATE = float(os.environ.get("BATCH_SENSE_SPEEDUP_GATE", "3.0"))

ROUNDS = 5


def _window_tasks(ssd, stream):
    tasks, prepared = [], []
    for query, expr in enumerate(stream):
        p = ssd.engine.prepare(expr)
        prepared.append(p)
        tasks.extend(p.tasks(query=query))
    return tasks, prepared


def _time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_batch() -> dict:
    """Run the identical 64-chunk window batched and per-sense; verify
    exact equivalence against the V_TH-plane oracle, then time both."""
    stream = _mixed_stream()

    # --- equivalence on fresh twins (counter bases identical) -------
    batch_ssd = _loaded_ssd()
    loop_ssd = _loaded_ssd()
    oracle_ssd = _loaded_ssd()
    batch_tasks, prepared = _window_tasks(batch_ssd, stream)
    loop_tasks, _ = _window_tasks(loop_ssd, stream)
    oracle_tasks, oracle_prepared = _window_tasks(oracle_ssd, stream)

    d0 = batch_ssd.engine.stats.executor_dispatches
    batch_out = batch_ssd.engine.execute_tasks(
        batch_tasks, share=True, batch=True
    )
    dispatches_batch = batch_ssd.engine.stats.executor_dispatches - d0

    d0 = loop_ssd.engine.stats.executor_dispatches
    loop_out = loop_ssd.engine.execute_tasks(
        loop_tasks, share=True, batch=False
    )
    dispatches_loop = loop_ssd.engine.stats.executor_dispatches - d0

    oracle_out = vth_execute_tasks(oracle_ssd, oracle_tasks, share=True)

    for b, l, o in zip(batch_out, loop_out, oracle_out):
        # Simulated cost counters unchanged -- float-identical, the
        # batch path replays the scalar charge sequence.
        assert b.n_senses == l.n_senses == o.n_senses
        assert b.latency_us == l.latency_us == o.latency_us
        assert b.energy_nj == l.energy_nj == o.energy_nj
        assert b.shared == l.shared == o.shared
        np.testing.assert_array_equal(b.data, l.data)
    for query in range(len(stream)):
        pieces_b = [None] * prepared[query].n_chunks
        pieces_o = [None] * oracle_prepared[query].n_chunks
        for out, pieces in ((batch_out, pieces_b), (oracle_out, pieces_o)):
            for outcome in out:
                if outcome.task.query == query:
                    pieces[outcome.task.chunk] = outcome.data
        np.testing.assert_array_equal(
            batch_ssd.engine.assemble_bits(prepared[query], pieces_b),
            oracle_ssd.engine.assemble_bits(
                oracle_prepared[query], pieces_o
            ),
        )

    # --- wall-clock on a warmed SSD (bound plans + keystreams hot) --
    ssd = _loaded_ssd()
    tasks, _ = _window_tasks(ssd, stream)
    run_batch = lambda: ssd.engine.execute_tasks(  # noqa: E731
        tasks, share=True, batch=True
    )
    run_loop = lambda: ssd.engine.execute_tasks(  # noqa: E731
        tasks, share=True, batch=False
    )
    run_batch()
    run_loop()
    batch_s = _time(run_batch, ROUNDS)
    loop_s = _time(run_loop, ROUNDS)

    n_unique = sum(1 for o in batch_out if not o.shared)
    return {
        "n_queries": len(stream),
        "n_tasks": len(batch_tasks),
        "n_unique_plans": n_unique,
        "batch_s": batch_s,
        "per_sense_s": loop_s,
        "batch_speedup": loop_s / batch_s,
        "dispatches_per_window": dispatches_batch,
        "dispatches_per_window_loop": dispatches_loop,
    }


def test_batched_window_beats_per_sense_loop():
    m = measure_batch()
    print(
        f"\n{m['n_queries']} queries x {N_CHUNKS} chunks "
        f"({m['n_tasks']} tasks, {m['n_unique_plans']} unique plans): "
        f"per-sense loop {m['per_sense_s'] * 1e3:.2f} ms "
        f"({m['dispatches_per_window_loop']} dispatches), "
        f"batched {m['batch_s'] * 1e3:.2f} ms "
        f"({m['dispatches_per_window']} dispatches), "
        f"speedup {m['batch_speedup']:.1f}x"
    )
    assert m["dispatches_per_window"] == N_CHIPS, (
        "batched window must dispatch once per chip, got "
        f"{m['dispatches_per_window']}"
    )
    assert m["dispatches_per_window_loop"] == m["n_unique_plans"]
    assert m["batch_speedup"] >= SPEEDUP_GATE, (
        f"expected >= {SPEEDUP_GATE}x batched-window speedup, "
        f"got {m['batch_speedup']:.2f}x"
    )
