"""Per-chunk state is short-lived: a service run keeps nothing per
query once its report is dropped, and a per-plan memo lives exactly as
long as its plan.

The serve path builds one bound plan, chunk task, outcome and pipeline
job per chunk of every query.  If any of them outlives its window, the
heap the cyclic collector walks on every full collection grows with
the length of the trace -- which once cost the ``scan`` benchmark
workload almost half of its serve time.
"""

import gc
import itertools
import weakref

import numpy as np

from repro.core.expressions import Operand, and_all
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.query_engine import QueryEngine

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=16,
    page_size_bits=64,
)
NAMES = [f"v{i}" for i in range(16)]


def make_ssd():
    ssd = SmallSsd(n_chips=2, geometry=GEOMETRY, seed=3)
    rng = np.random.default_rng(11)
    for name in NAMES:
        # Eight chunks per vector, four per chip.
        ssd.write_vector(
            name, rng.integers(0, 2, 512, dtype=np.uint8), group="g"
        )
    return ssd


def distinct_shapes(n):
    """``n`` distinct AND queries over the co-located vectors."""
    combos = itertools.chain(
        itertools.combinations(NAMES, 2), itertools.combinations(NAMES, 3)
    )
    for names in itertools.islice(combos, n):
        yield and_all([Operand(name) for name in names])


def tracked_after_run(n_queries):
    """Tracked objects left once a fresh service has served
    ``n_queries`` distinct shapes and its report is dropped."""
    ssd = make_ssd()
    service = ssd.service(window_us=50.0)
    for i, expr in enumerate(distinct_shapes(n_queries)):
        service.submit(expr, at_us=float(i))
    report = service.run()
    assert len(report.queries) == n_queries
    del report
    gc.collect()
    count = len(gc.get_objects())
    del service, ssd
    gc.collect()
    return count


def test_tracked_objects_do_not_grow_with_trace_length():
    tracked_after_run(100)  # warm every process-wide memo first
    small = tracked_after_run(100)
    large = tracked_after_run(400)
    # 300 more queries are 2,400 more bound plans; keeping even one
    # object per plan would show here.
    assert large - small < 500, (small, large)


def test_per_plan_memos_die_with_their_plan():
    ssd = make_ssd()
    # A one-entry bound-plan cache: the next shape evicts this one.
    engine = QueryEngine(ssd, cache_size=1)
    tasks = engine.prepare(and_all([Operand("v0"), Operand("v1")])).tasks(0)
    plan = tasks[0].plan
    command = plan.steps[0].command
    engine.execute_tasks(tasks)
    # The stack cache and the chip's resolution memo hold entries for
    # the plan and its command.
    assert engine.stack_cache.entries(tasks[0].chip) >= 1
    rows = weakref.ref(plan.__dict__["_stack_rows"][1])
    stack = weakref.ref(command.__dict__["_resolved"][1])
    dead_plan = weakref.ref(plan)
    del tasks, plan, command
    # Another window: the one-window replay and layout memos move on.
    engine.execute_tasks(
        engine.prepare(and_all([Operand("v2"), Operand("v3")])).tasks(0)
    )
    gc.collect()
    assert dead_plan() is None
    assert rows() is None
    assert stack() is None
