"""Preemptive channel/die arbitration at the service level.

The acceptance scenario of the concurrent execution plane: a window of
bulk scans occupies the single chip, an urgent point query with a
deadline arrives one window later, and the *exact* event simulation
shows EDF-with-preemption meeting a deadline that EDF-without-
preemption provably misses -- same queries, same chips, same measured
sense durations, only the arbitration differs.  Everything here is
deterministic: timing comes from the physically derived tMWS model
and the discrete-event replay, not wall clocks.
"""

import numpy as np
import pytest

from repro.core.expressions import And, Operand, and_all, evaluate
from repro.flash.geometry import ChipGeometry
from repro.service.scheduler import QueryInfo, job_directives
from repro.service.service import QueryService
from repro.ssd.controller import SmallSsd

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)

#: Splits the urgent query's two completion times: ~66 us with
#: preemption (arrival 20 us + 1 us suspend + its own sense) vs
#: ~190 us without (it queues behind every bulk sense of the
#: previous window).
DEADLINE_US = 80.0


def make_ssd(seed=0):
    ssd = SmallSsd(n_chips=1, geometry=GEOMETRY, seed=seed)
    rng = np.random.default_rng(seed + 100)
    env = {}
    for name in "abcdef":
        env[name] = rng.integers(
            0, 2, 2 * GEOMETRY.page_size_bits, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _submit_collision(svc):
    """Window 1 (closes at 10 us): three bulk scans on the only chip.
    Window 2 (closes at 20 us): one urgent deadline point query that
    arrives while the first bulk sense is still in flight."""
    bulk = [
        svc.submit(
            and_all([Operand(n) for n in "abcdef"]),
            at_us=1.0,
            client="bulk",
        ),
        svc.submit(
            and_all([Operand(n) for n in "abcde"]),
            at_us=2.0,
            client="bulk",
        ),
        svc.submit(
            and_all([Operand(n) for n in "abcd"]),
            at_us=3.0,
            client="bulk",
        ),
    ]
    urgent = svc.submit(
        And(Operand("a"), Operand("b")),
        at_us=15.0,
        client="pt",
        deadline_us=DEADLINE_US,
    )
    return bulk, urgent


def _run(preemption):
    ssd, env = make_ssd()
    kwargs = dict(policy="edf", window_us=10.0)
    if preemption:
        kwargs.update(
            preemption=True, suspend_cost_us=1.0, resume_cost_us=1.0
        )
    svc = QueryService(ssd, **kwargs)
    bulk, urgent = _submit_collision(svc)
    report = svc.run()
    by_id = {q.query_id: q for q in report.queries}
    return report, by_id, bulk, urgent, env


class TestPreemptionBenefit:
    def test_edf_with_preemption_meets_deadline_without_misses(self):
        base_report, base, _, urgent_id, _ = _run(preemption=False)
        pre_report, pre, _, _, _ = _run(preemption=True)

        # Without preemption the urgent query provably misses: it
        # queues behind every bulk sense of the previous window.
        assert base[urgent_id].completed_us > DEADLINE_US
        assert base[urgent_id].deadline_met is False
        assert base_report.stats.preemptions == 0
        assert base_report.stats.deadlines_met == 0

        # With preemption the in-flight bulk sense is suspended and
        # the same deadline is met in the same exact simulation.
        assert pre[urgent_id].completed_us <= DEADLINE_US
        assert pre[urgent_id].deadline_met is True
        assert pre_report.stats.preemptions >= 1
        assert pre_report.stats.deadlines_met == 1
        assert pre_report.stats.preemption_overhead_us > 0.0
        assert (
            pre[urgent_id].completed_us < base[urgent_id].completed_us
        )

    def test_bulk_still_completes_and_results_exact(self):
        """Preemption reorders time, never bits: every query's result
        still matches the NumPy oracle, and the suspended bulk work
        finishes (starvation-safe)."""
        report, by_id, bulk, urgent_id, env = _run(preemption=True)
        exprs = {
            qid: q.expr for qid, q in by_id.items()
        }
        for qid, served in by_id.items():
            np.testing.assert_array_equal(
                served.result.bits, evaluate(exprs[qid], env)
            )
            assert served.completed_us > 0.0
        # The preempted bulk pays the suspend/resume overhead: the
        # run's makespan is the baseline's plus the overhead.
        base_report, *_ = _run(preemption=False)
        assert report.stats.makespan_us == pytest.approx(
            base_report.stats.makespan_us
            + report.stats.preemption_overhead_us
        )

    def test_stats_surface_utilization_and_preemptions(self):
        report, *_ = _run(preemption=True)
        stats = report.stats
        assert stats.preemptions >= 1
        assert "chip0" in stats.resource_utilization
        assert "chan0" in stats.resource_utilization
        assert "ext" in stats.resource_utilization
        assert stats.chip_utilization["chip0"] > 0.0
        assert 0.0 <= stats.channel_utilization["chan0"] <= 1.0
        assert "preemptions" in stats.describe()

    def test_preemption_off_is_exact_fcfs_baseline(self):
        """preemption=False must reproduce the pre-arbitration plane
        float for float -- completion times and utilizations."""
        report, by_id, *_ = _run(preemption=False)
        assert report.stats.preemptions == 0
        assert report.stats.preemption_overhead_us == 0.0
        # Re-run through a plain (non-edf) service on a twin SSD: the
        # window contents are identical and so must the sim be.
        ssd, _ = make_ssd()
        svc = QueryService(ssd, policy="edf", window_us=10.0)
        _submit_collision(svc)
        twin = {q.query_id: q for q in svc.run().queries}
        for qid, served in by_id.items():
            assert served.completed_us == twin[qid].completed_us


class TestJobDirectives:
    def test_deadline_query_is_urgent_and_non_preemptible(self):
        priority, deadline_s, preemptible = job_directives(
            QueryInfo(priority=2, deadline_us=500.0)
        )
        assert priority == 2.0
        assert deadline_s == pytest.approx(500e-6)
        assert preemptible is False

    def test_bulk_query_is_preemptible(self):
        priority, deadline_s, preemptible = job_directives(QueryInfo())
        assert priority == 0.0
        assert deadline_s is None
        assert preemptible is True

