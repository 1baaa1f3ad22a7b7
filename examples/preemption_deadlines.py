"""Preemptive channel/way arbitration meets a deadline FCFS misses.

A window of bulk scans owns the only chip when an urgent deadline
point query arrives one window later.  The exact event simulation is
run twice -- EDF scheduling without preemption, then EDF with
suspend/resume arbitration -- and the printout shows the urgent query
provably missing its deadline in the first run and meeting it in the
second, plus the preemption counts and per-resource utilization the
service reports.

Run with::

    PYTHONPATH=src python examples/preemption_deadlines.py
"""

import numpy as np

from repro.core.expressions import And, Operand, and_all
from repro.flash.geometry import ChipGeometry
from repro.service import QueryService
from repro.ssd import SmallSsd

PREEMPT_GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)
DEADLINE_US = 80.0


def build_preempt_service(*, preemption):
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
    for at_us, names in ((1.0, "abcdef"), (2.0, "abcde"), (3.0, "abcd")):
        svc.submit(
            and_all([Operand(n) for n in names]),
            at_us=at_us,
            client="bulk",
        )
    svc.submit(
        And(Operand("a"), Operand("b")),
        at_us=15.0,
        client="dashboard",
        deadline_us=DEADLINE_US,
    )
    return svc


def preemption_demo():
    print("=== Preemptive channel/way arbitration ===")
    for label, preemption in (
        ("EDF, no preemption", False),
        ("EDF + preemption  ", True),
    ):
        report = build_preempt_service(preemption=preemption).run()
        urgent = [
            q for q in report.queries if q.deadline_us is not None
        ][0]
        verdict = "MET" if urgent.deadline_met else "MISSED"
        print(
            f"  {label}: urgent query done at "
            f"{urgent.completed_us:7.1f} us "
            f"(deadline {DEADLINE_US:.0f} us -> {verdict}), "
            f"{report.stats.preemptions} preemptions"
        )
        if preemption:
            util = ", ".join(
                f"{name}={value:.0%}"
                for name, value in sorted(
                    report.stats.resource_utilization.items()
                )
            )
            print(
                f"  overhead "
                f"{report.stats.preemption_overhead_us:.1f} us; "
                f"utilization: {util}"
            )
            print(f"  stats: {report.stats.describe()}")
    print()


if __name__ == "__main__":
    preemption_demo()
