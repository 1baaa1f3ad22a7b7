"""Unit tests for the query service layer (repro.service)."""

import numpy as np
import pytest

from repro.core.expressions import And, Operand, evaluate
from repro.flash.geometry import ChipGeometry
from repro.service import (
    AdmissionQueue,
    BurstArrivals,
    PoissonArrivals,
    QueryService,
    Submission,
    UniformArrivals,
    VirtualClock,
    estimated_chip_work_us,
    schedule_window,
)
from repro.ssd.controller import SmallSsd
from repro.ssd.query_engine import ChunkTask

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=32,
    subblocks_per_block=2,
    wordlines_per_string=48,
    page_size_bits=128,
)


def make_ssd(n_chips=2, n_chunks=4, names="abcd", seed=0, packed=True):
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=seed, packed=packed
    )
    rng = np.random.default_rng(seed + 100)
    env = {}
    for name in names:
        env[name] = rng.integers(
            0, 2, n_chunks * GEOMETRY.page_size_bits, dtype=np.uint8
        )
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


class TestClock:
    def test_virtual_clock_monotonic(self):
        clock = VirtualClock()
        assert clock.advance(5.0) == 5.0
        assert clock.advance_to(3.0) == 5.0
        assert clock.advance_to(9.0) == 9.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_poisson_rate(self):
        rng = np.random.default_rng(0)
        times = PoissonArrivals(rate_qps=10_000).arrival_times(2000, rng)
        assert times == sorted(times)
        mean_gap_us = times[-1] / len(times)
        assert mean_gap_us == pytest.approx(100.0, rel=0.15)

    def test_uniform_pacing(self):
        rng = np.random.default_rng(0)
        times = UniformArrivals(period_us=50.0).arrival_times(4, rng)
        assert times == [50.0, 100.0, 150.0, 200.0]

    def test_burst_shape(self):
        rng = np.random.default_rng(0)
        times = BurstArrivals(
            burst_size=3, burst_gap_us=1000.0, intra_gap_us=1.0
        ).arrival_times(6, rng)
        # Two bursts of three, separated by the long gap.
        assert times[2] - times[0] == pytest.approx(2.0)
        assert times[3] - times[2] == pytest.approx(1000.0)

    def test_burst_process_reusable(self):
        """A reused process instance restarts from phase zero, so
        identical inputs reproduce identical traces."""
        rng = np.random.default_rng(0)
        process = BurstArrivals(
            burst_size=3, burst_gap_us=1000.0, intra_gap_us=1.0
        )
        first = process.arrival_times(6, rng)
        second = process.arrival_times(6, rng)
        assert first == second


class TestAdmission:
    def _submission(self, i, t):
        return Submission(
            query_id=i, client="c", expr=Operand("a"), submitted_us=t
        )

    def test_grid_windows(self):
        queue = AdmissionQueue(window_us=100.0)
        for i, t in enumerate([10.0, 20.0, 150.0, 320.0]):
            queue.submit(self._submission(i, t))
        windows = queue.windows()
        assert [len(w) for w in windows] == [2, 1, 1]
        assert [w.close_us for w in windows] == [100.0, 200.0, 400.0]
        assert [w.index for w in windows] == [0, 1, 2]

    def test_out_of_order_submission(self):
        """Arrival order in the trace does not matter -- windows are
        cut on arrival *time*."""
        queue = AdmissionQueue(window_us=100.0)
        for i, t in enumerate([320.0, 10.0, 150.0, 20.0]):
            queue.submit(self._submission(i, t))
        windows = queue.windows()
        assert [len(w) for w in windows] == [2, 1, 1]
        assert [s.submitted_us for s in windows[0].submissions] == [
            10.0,
            20.0,
        ]

    def test_max_queries_closes_early(self):
        queue = AdmissionQueue(window_us=1000.0, max_queries=2)
        for i, t in enumerate([10.0, 20.0, 30.0]):
            queue.submit(self._submission(i, t))
        windows = queue.windows()
        assert [len(w) for w in windows] == [2, 1]
        assert windows[0].close_us == 20.0  # closed when full
        assert windows[1].close_us == 1000.0  # waited out the cell

    def test_window_rejects_late_submission(self):
        from repro.service import AdmissionWindow

        with pytest.raises(ValueError, match="later"):
            AdmissionWindow(
                index=0,
                close_us=10.0,
                submissions=(self._submission(0, 20.0),),
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(window_us=0.0)
        with pytest.raises(ValueError):
            AdmissionQueue(window_us=10.0, max_queries=0)


class TestScheduler:
    def _tasks(self, ssd, exprs):
        tasks = []
        for i, expr in enumerate(exprs):
            tasks.extend(ssd.engine.prepare(expr).tasks(query=i))
        return tasks

    def test_fifo_preserves_order(self):
        ssd, _ = make_ssd()
        tasks = self._tasks(
            ssd,
            [And(Operand("a"), Operand("b")), And(Operand("c"), Operand("d"))],
        )
        est = lambda t: 1.0
        assert schedule_window(tasks, est, policy="fifo") == tasks

    def test_balanced_keeps_share_groups_adjacent(self):
        ssd, _ = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        other = And(Operand("c"), Operand("d"))
        tasks = self._tasks(ssd, [expr, other, expr])
        est = lambda t: 1.0
        ordered = schedule_window(tasks, est, policy="balanced")
        assert sorted(
            (t.query, t.chunk) for t in ordered
        ) == sorted((t.query, t.chunk) for t in tasks)
        # Wherever a (chip, plan) group appears, its members are
        # contiguous in the emission order.
        seen_done = set()
        previous = None
        for task in ordered:
            key = task.share_key
            if key != previous:
                assert key not in seen_done, "share group was split"
                if previous is not None:
                    seen_done.add(previous)
                previous = key
        assert len({t.share_key for t in tasks}) < len(tasks)

    def test_balanced_orders_long_senses_first(self):
        ssd, _ = make_ssd()
        light = And(Operand("a"), Operand("b"))
        heavy = And(Operand("c"), Operand("d"))
        tasks = self._tasks(ssd, [light, heavy])
        est = lambda t: 9.0 if t.query == 1 else 1.0
        ordered = schedule_window(tasks, est, policy="balanced")
        per_chip_first = {}
        for task in ordered:
            per_chip_first.setdefault(task.chip, task.query)
        assert all(q == 1 for q in per_chip_first.values())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            schedule_window([], lambda t: 1.0, policy="lifo")

    def test_estimated_chip_work_dedups(self):
        ssd, _ = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        tasks = self._tasks(ssd, [expr, expr])
        est = lambda t: 2.0
        shared = estimated_chip_work_us(tasks, est, share=True)
        unshared = estimated_chip_work_us(tasks, est, share=False)
        assert sum(shared.values()) * 2 == sum(unshared.values())


class TestEngineSharing:
    def test_identical_queries_share_senses(self):
        ssd, env = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        tasks = ssd.engine.prepare(expr).tasks(query=0) + ssd.engine.prepare(
            expr
        ).tasks(query=1)
        outcomes = ssd.engine.execute_tasks(tasks, share=True)
        shared = [o for o in outcomes if o.shared]
        executed = [o for o in outcomes if not o.shared]
        assert len(shared) == len(executed) == len(tasks) // 2
        assert all(o.n_senses == 0 for o in shared)
        assert all(o.latency_us == 0.0 for o in shared)
        stats = ssd.engine.stats
        assert stats.shared_plans == len(shared)
        assert stats.shared_senses > 0

    def test_share_false_executes_everything(self):
        ssd, env = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        tasks = ssd.engine.prepare(expr).tasks(query=0) + ssd.engine.prepare(
            expr
        ).tasks(query=1)
        outcomes = ssd.engine.execute_tasks(tasks, share=False)
        assert all(not o.shared for o in outcomes)
        assert all(o.n_senses > 0 for o in outcomes)

    def test_same_task_object_twice_keeps_both_outcomes(self):
        """Positional outcome mapping: repeating the very same task
        object yields one executed and one shared outcome, keeping the
        executed sense in the totals."""
        ssd, _ = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        task = ssd.engine.prepare(expr).tasks(query=0)[0]
        outcomes = ssd.engine.execute_tasks([task, task], share=True)
        assert [o.shared for o in outcomes] == [False, True]
        assert outcomes[0].n_senses > 0
        assert outcomes[1].n_senses == 0

    def test_shared_results_are_identical_data(self):
        ssd, env = make_ssd()
        expr = And(Operand("a"), Operand("b"))
        tasks = ssd.engine.prepare(expr).tasks(query=0) + ssd.engine.prepare(
            expr
        ).tasks(query=1)
        outcomes = ssd.engine.execute_tasks(tasks, share=True)
        by_query = {}
        for o in outcomes:
            by_query.setdefault(o.task.query, {})[o.task.chunk] = o.data
        for chunk, data in by_query[0].items():
            np.testing.assert_array_equal(data, by_query[1][chunk])


class TestQueryService:
    def test_single_window_results_match_oracle(self):
        ssd, env = make_ssd()
        service = ssd.service(window_us=100.0)
        exprs = [
            And(Operand("a"), Operand("b")),
            And(Operand("c"), Operand("d")),
            And(Operand("a"), Operand("b")),
        ]
        for expr in exprs:
            service.submit(expr, at_us=10.0)
        report = service.run()
        assert len(report.queries) == 3
        for query in report.queries:
            np.testing.assert_array_equal(
                query.result.bits, evaluate(query.expr, env)
            )
            assert query.admitted_us == 100.0
            assert query.completed_us > query.admitted_us
            assert query.latency_us > 90.0  # waited for the window
        stats = report.stats
        assert stats.n_queries == 3
        assert stats.n_windows == 1
        assert stats.shared_plans > 0  # the repeated query shape
        assert stats.dedup_ratio == pytest.approx(1 / 3)
        assert stats.throughput_qps > 0
        assert stats.latency.p99_us >= stats.latency.p50_us

    def test_shared_query_bills_sense_to_executor(self):
        ssd, _ = make_ssd()
        service = ssd.service(window_us=100.0, policy="fifo")
        expr = And(Operand("a"), Operand("b"))
        first = service.submit(expr, at_us=0.0)
        second = service.submit(expr, at_us=1.0)
        report = service.run()
        by_id = {q.query_id: q for q in report.queries}
        assert by_id[first].result.n_senses > 0
        assert by_id[second].result.n_senses == 0
        assert by_id[second].shared_chunks == by_id[first].result.n_senses

    def test_windows_serialize_on_shared_chips(self):
        """A later window's jobs queue behind the earlier window's --
        one event simulation covers the whole trace."""
        ssd, env = make_ssd()
        service = ssd.service(window_us=100.0)
        early = service.submit(And(Operand("a"), Operand("b")), at_us=0.0)
        late = service.submit(And(Operand("c"), Operand("d")), at_us=150.0)
        report = service.run()
        assert report.stats.n_windows == 2
        by_id = {q.query_id: q for q in report.queries}
        assert by_id[late].admitted_us == 200.0
        assert by_id[late].completed_us > by_id[early].completed_us

    def test_empty_run(self):
        ssd, _ = make_ssd()
        report = ssd.service().run()
        assert report.queries == ()
        assert report.stats.n_queries == 0
        assert report.stats.makespan_us == 0.0
        assert report.stats.bottleneck == "idle"
        assert report.stats.dedup_ratio == 0.0

    def test_template_hits_attributed_across_interleaved_queries(self):
        """Regression for the counter-delta template_hit inference: in
        a window, every query is *prepared* before any executes, so a
        hit must be attributed to the query whose shape repeated --
        not inferred from global planner counters."""
        ssd, _ = make_ssd()
        service = ssd.service(window_us=100.0)
        shape_a = And(Operand("a"), Operand("b"))
        shape_b = And(Operand("c"), Operand("d"))
        ids = [
            service.submit(shape_a, at_us=0.0),  # miss (first a.b)
            service.submit(shape_b, at_us=1.0),  # miss (first c.d)
            service.submit(shape_a, at_us=2.0),  # hit
            service.submit(shape_b, at_us=3.0),  # hit
        ]
        report = service.run()
        by_id = {q.query_id: q for q in report.queries}
        hits = [by_id[i].result.template_hit for i in ids]
        assert hits == [False, False, True, True]
        assert report.stats.template_hits == 2

    def test_run_drains_queue(self):
        ssd, _ = make_ssd()
        service = ssd.service()
        service.submit(And(Operand("a"), Operand("b")), at_us=0.0)
        assert len(service.run().queries) == 1
        assert service.run().queries == ()

    def test_failed_run_preserves_submissions(self):
        """An exception mid-run (e.g. an operand deleted after its
        query was admitted) must not discard the pending submissions:
        fixing the cause and retrying serves them all."""
        ssd, env = make_ssd()
        service = ssd.service()
        good = And(Operand("a"), Operand("b"))
        ssd.write_vector("missing", np.zeros_like(env["a"]), group="fix")
        service.submit(good, at_us=0.0)
        service.submit(Operand("missing"), at_us=1.0)
        ssd.delete_vector("missing")
        with pytest.raises(KeyError):
            service.run()
        ssd.write_vector(
            "missing", np.zeros_like(env["a"]), group="fix"
        )
        report = service.run()
        assert len(report.queries) == 2
        np.testing.assert_array_equal(
            report.queries[0].result.bits, evaluate(good, env)
        )

    def test_policy_validated(self):
        ssd, _ = make_ssd()
        with pytest.raises(ValueError, match="policy"):
            ssd.service(policy="random")

    def test_scheduled_window_not_slower_than_fifo(self):
        """The balanced schedule's window makespan never exceeds the
        FIFO order's on a repeat-heavy mixed window."""
        results = {}
        for policy in ("fifo", "balanced"):
            ssd, _ = make_ssd(n_chips=2, n_chunks=8, seed=3)
            service = ssd.service(window_us=100.0, policy=policy)
            exprs = [
                And(Operand("a"), Operand("b")),
                And(*(Operand(n) for n in "abcd")),
                And(Operand("a"), Operand("b")),
                And(Operand("c"), Operand("d")),
            ]
            for expr in exprs:
                service.submit(expr, at_us=0.0)
            results[policy] = service.run().stats.makespan_us
        assert results["balanced"] <= results["fifo"]


class TestClients:
    def test_mixed_traffic_matches_oracle(self):
        from repro.service import (
            BitmapIndexClient,
            ClientTraffic,
            KCliqueClient,
            SegmentationClient,
            generate_traffic,
            populate_all,
        )

        ssd = SmallSsd(n_chips=2, geometry=GEOMETRY, seed=5)
        rng = np.random.default_rng(6)
        n_bits = 4 * GEOMETRY.page_size_bits
        traffic = [
            ClientTraffic(
                BitmapIndexClient(n_bits, n_days=4),
                PoissonArrivals(rate_qps=10_000),
                6,
            ),
            ClientTraffic(
                KCliqueClient(n_bits, n_members=4, n_cliques=2, k=2),
                BurstArrivals(burst_size=3, burst_gap_us=500.0),
                6,
            ),
            ClientTraffic(
                SegmentationClient(n_bits, n_colors=2),
                UniformArrivals(period_us=120.0),
                4,
            ),
        ]
        env = populate_all(ssd, traffic, rng)
        service = ssd.service(window_us=250.0)
        service.submit_traffic(generate_traffic(traffic, rng))
        report = service.run()
        assert report.stats.n_queries == 16
        clients = {q.client for q in report.queries}
        assert clients == {"bmi", "kcs", "ims"}
        for query in report.queries:
            np.testing.assert_array_equal(
                query.result.bits, evaluate(query.expr, env)
            )
        # Per-client latency summaries cover all queries.
        n = sum(
            report.client_latency(c).n for c in ("bmi", "kcs", "ims")
        )
        assert n == 16
