"""Preemptive arbitration gain on the exact event simulation.

A window of bulk scans owns the only chip, an urgent deadline point
query arrives one window later, and EDF-with-preemption meets a
deadline EDF-without-preemption provably misses.  Everything here is
virtual-clock exact -- no wall clocks, no tolerance.

``measure_preemption`` returns a plain dict so ``tools/bench_record.py``
snapshots it as the ``preemption`` section of ``BENCH_kernels.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core.expressions import And, Operand, and_all
from repro.flash.geometry import ChipGeometry
from repro.service.service import QueryService
from repro.ssd.controller import SmallSsd

#: Preemption-benefit scenario (mirrors tests/service/test_preemption):
#: deadline chosen between the urgent query's two exact completion
#: times (~66 us preempting vs ~190 us queueing).
PREEMPT_GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)
PREEMPT_DEADLINE_US = 80.0


def _preempt_service(*, preemption: bool) -> QueryService:
    ssd = SmallSsd(n_chips=1, geometry=PREEMPT_GEOMETRY, seed=0)
    rng = np.random.default_rng(100)
    for name in "abcdef":
        ssd.write_vector(
            name,
            rng.integers(
                0, 2, 2 * PREEMPT_GEOMETRY.page_size_bits, dtype=np.uint8
            ),
            group="g",
        )
    kwargs = dict(policy="edf", window_us=10.0)
    if preemption:
        kwargs.update(
            preemption=True, suspend_cost_us=1.0, resume_cost_us=1.0
        )
    svc = QueryService(ssd, **kwargs)
    svc.submit(
        and_all([Operand(n) for n in "abcdef"]), at_us=1.0, client="bulk"
    )
    svc.submit(
        and_all([Operand(n) for n in "abcde"]), at_us=2.0, client="bulk"
    )
    svc.submit(
        and_all([Operand(n) for n in "abcd"]), at_us=3.0, client="bulk"
    )
    svc.submit(
        And(Operand("a"), Operand("b")),
        at_us=15.0,
        client="pt",
        deadline_us=PREEMPT_DEADLINE_US,
    )
    return svc


def measure_preemption() -> dict:
    """Exact virtual-clock benefit of preemptive arbitration: the same
    collision served with and without suspend/resume."""
    results = {}
    for label, preemption in (("fcfs", False), ("preempt", True)):
        report = _preempt_service(preemption=preemption).run()
        urgent = [
            q for q in report.queries if q.deadline_us is not None
        ][0]
        results[label] = (report, urgent)
    base_report, base_urgent = results["fcfs"]
    pre_report, pre_urgent = results["preempt"]
    return {
        "deadline_us": PREEMPT_DEADLINE_US,
        "n_deadlines": pre_report.stats.n_deadlines,
        "fcfs_deadlines_met": base_report.stats.deadlines_met,
        "preempt_deadlines_met": pre_report.stats.deadlines_met,
        "fcfs_urgent_completed_us": base_urgent.completed_us,
        "preempt_urgent_completed_us": pre_urgent.completed_us,
        "urgent_gain": (
            base_urgent.completed_us / pre_urgent.completed_us
        ),
        "preemptions": pre_report.stats.preemptions,
        "preemption_overhead_us": (
            pre_report.stats.preemption_overhead_us
        ),
    }


def test_preemption_meets_deadline_fcfs_misses():
    m = measure_preemption()
    print(
        f"\nurgent query: {m['fcfs_urgent_completed_us']:.1f} us "
        f"queueing vs {m['preempt_urgent_completed_us']:.1f} us "
        f"preempting (deadline {m['deadline_us']:.0f} us, "
        f"{m['preemptions']} preemptions, "
        f"{m['preemption_overhead_us']:.1f} us overhead)"
    )
    assert m["fcfs_deadlines_met"] == 0
    assert m["preempt_deadlines_met"] == m["n_deadlines"] == 1
    assert m["preempt_urgent_completed_us"] <= m["deadline_us"]
    assert m["fcfs_urgent_completed_us"] > m["deadline_us"]
    assert m["preemptions"] >= 1
