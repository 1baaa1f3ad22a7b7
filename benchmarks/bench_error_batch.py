"""Batched V_TH error plane vs the per-sense perturb/compare loop.

The error-free batch reduces packed words, but reliability work --
error-injecting SSDs, read-retry studies, the degraded fallback --
needs the V_TH comparison: slice the float32 V_TH matrix, draw
Gaussian noise, perturb, compare, per target, per sense, per plan.
The batched error plane (``SensingEngine.sense_batch_vth`` under
``MwsExecutor.execute_degraded_batch``) runs the whole window's
perturbation and compare grouped per stress condition, drawing one
Gaussian block for the window split in the scalar loop's exact
(sense, target) order -- so the corrupted bits are the *same* bits,
float for float, and only the Python dispatch count changes.

This bench pushes one 64-chunk, 16-query reliability window (the
``bench_service`` stream on an error-injecting, stress-conditioned
SSD) through ``execute_tasks`` on twin SSDs -- ``batch=True`` vs
``batch=False`` -- and measures:

* wall-clock speedup of the batched error window (gated, >= 3x
  locally);
* bit-exactness of every outcome against the per-sense loop,
  float-identical latency/energy, and *identical post-window RNG
  state* (the draw schedule is part of the contract), asserted before
  any timing;
* executor dispatches per window (chips vs unique plans).

The ``measure_error_batch`` helper returns a plain dict so
``tools/bench_record.py`` snapshots ``error_batch_speedup`` into the
``BENCH_kernels.json`` trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np

# The exact bench_service workload geometry and query stream: the
# reliability window is the same shape, on the error-injecting plane.
from benchmarks.bench_service import (
    GEOMETRY,
    N_CHIPS,
    N_CHUNKS,
    N_DAYS,
    _mixed_stream,
)
from repro.flash.errors import OperatingCondition
from repro.ssd.controller import SmallSsd

#: Required wall-clock speedup of the batched error window.  Local/dev
#: runs use the full 3x gate; noisy shared CI runners may relax it via
#: the environment (bit-exactness is asserted unconditionally).
SPEEDUP_GATE = float(os.environ.get("ERROR_BATCH_SPEEDUP_GATE", "3.0"))

ROUNDS = 5

#: A worn, retentive stress point: the error plane draws real noise
#: and flips real bits, as a reliability sweep would.
STRESS = OperatingCondition(pe_cycles=3000, retention_months=6.0, reads=2000)


def _error_ssd(seed: int = 1) -> SmallSsd:
    """The bench_service workload rebuilt on the V_TH error plane."""
    ssd = SmallSsd(
        n_chips=N_CHIPS,
        geometry=GEOMETRY,
        seed=seed,
        inject_errors=True,
        condition=STRESS,
    )
    rng = np.random.default_rng(seed + 1)
    n_bits = N_CHUNKS * GEOMETRY.page_size_bits
    for i in range(N_DAYS):
        ssd.write_vector(
            f"day{i}",
            rng.integers(0, 2, n_bits, dtype=np.uint8),
            group="days",
        )
    for j in range(2):
        members = np.zeros(n_bits, dtype=np.uint8)
        members[rng.choice(n_bits, size=8, replace=False)] = 1
        ssd.write_vector(f"clique{j}", members)
    return ssd


def _window_tasks(ssd, stream):
    tasks = []
    for query, expr in enumerate(stream):
        tasks.extend(ssd.engine.prepare(expr).tasks(query=query))
    return tasks


def _time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_error_batch() -> dict:
    """Run the identical reliability window batched and per-sense;
    verify exact equivalence (bits, floats, RNG schedule), then time
    both."""
    stream = _mixed_stream()

    # --- equivalence on fresh twins (same seeds, same draws) --------
    batch_ssd = _error_ssd()
    loop_ssd = _error_ssd()
    d0 = batch_ssd.engine.stats.executor_dispatches
    batch_out = batch_ssd.engine.execute_tasks(
        _window_tasks(batch_ssd, stream), share=True, batch=True
    )
    dispatches_batch = batch_ssd.engine.stats.executor_dispatches - d0
    d0 = loop_ssd.engine.stats.executor_dispatches
    loop_out = loop_ssd.engine.execute_tasks(
        _window_tasks(loop_ssd, stream), share=True, batch=False
    )
    dispatches_loop = loop_ssd.engine.stats.executor_dispatches - d0

    for b, l in zip(batch_out, loop_out):
        assert b.n_senses == l.n_senses
        assert b.latency_us == l.latency_us
        assert b.energy_nj == l.energy_nj
        assert b.shared == l.shared
        # Same draw schedule -> the same corrupted words.
        np.testing.assert_array_equal(b.data, l.data)
    for chip_b, chip_l in zip(batch_ssd.chips, loop_ssd.chips):
        assert (
            chip_b.sensing.rng.bit_generator.state
            == chip_l.sensing.rng.bit_generator.state
        )
        assert chip_b.counters.busy_us == chip_l.counters.busy_us
        assert chip_b.counters.energy_nj == chip_l.counters.energy_nj

    # --- wall-clock on a warmed SSD (bound plans + memos hot) -------
    ssd = _error_ssd()
    tasks = _window_tasks(ssd, stream)
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
        "n_tasks": len(batch_out),
        "n_unique_plans": n_unique,
        "error_batch_s": batch_s,
        "error_per_sense_s": loop_s,
        "error_batch_speedup": loop_s / batch_s,
        "dispatches_per_window": dispatches_batch,
        "dispatches_per_window_loop": dispatches_loop,
    }


def test_batched_error_window_beats_per_sense_loop():
    m = measure_error_batch()
    print(
        f"\n{m['n_queries']} queries x {N_CHUNKS} chunks "
        f"({m['n_tasks']} tasks, {m['n_unique_plans']} unique plans, "
        f"V_TH error plane): "
        f"per-sense loop {m['error_per_sense_s'] * 1e3:.2f} ms "
        f"({m['dispatches_per_window_loop']} dispatches), "
        f"batched {m['error_batch_s'] * 1e3:.2f} ms "
        f"({m['dispatches_per_window']} dispatches), "
        f"speedup {m['error_batch_speedup']:.1f}x"
    )
    assert m["dispatches_per_window"] == N_CHIPS, (
        "batched error window must dispatch once per chip, got "
        f"{m['dispatches_per_window']}"
    )
    assert m["dispatches_per_window_loop"] == m["n_unique_plans"]
    assert m["error_batch_speedup"] >= SPEEDUP_GATE, (
        f"expected >= {SPEEDUP_GATE}x batched error-plane speedup, "
        f"got {m['error_batch_speedup']:.2f}x"
    )
