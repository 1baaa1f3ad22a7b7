"""Bad input is rejected at the API boundary with a typed error, and a
rejected query never takes the rest of a trace down with it."""

import math

import numpy as np
import pytest

from repro.core.expressions import And, Operand, evaluate
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd
from repro.ssd.ftl import UnknownVectorError

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=8,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=64,
)


def make_ssd():
    ssd = SmallSsd(n_chips=2, geometry=GEOMETRY, seed=1)
    rng = np.random.default_rng(5)
    env = {}
    for name in "abc":
        env[name] = rng.integers(0, 2, 256, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


class TestSubmit:
    def test_unknown_vector_rejected_and_trace_survives(self):
        ssd, env = make_ssd()
        service = ssd.service()
        good = And(Operand("a"), Operand("b"))
        first = service.submit(good, at_us=0.0)
        with pytest.raises(UnknownVectorError, match="nope") as raised:
            service.submit(And(Operand("a"), Operand("nope")), at_us=1.0)
        assert isinstance(raised.value, KeyError)
        second = service.submit(Operand("c"), at_us=2.0)
        # The rejected submission consumed no query id.
        assert second == first + 1
        report = service.run()
        assert [q.query_id for q in report.queries] == [first, second]
        np.testing.assert_array_equal(
            report.queries[0].result.bits, evaluate(good, env)
        )
        np.testing.assert_array_equal(
            report.queries[1].result.bits, env["c"]
        )

    def test_mismatched_lengths_rejected(self):
        ssd, _ = make_ssd()
        ssd.write_vector("short", np.ones(64, dtype=np.uint8))
        service = ssd.service()
        with pytest.raises(ValueError, match="mismatched lengths"):
            service.submit(And(Operand("a"), Operand("short")), at_us=0.0)
        assert service.run().queries == ()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, bad):
        ssd, _ = make_ssd()
        service = ssd.service()
        with pytest.raises(ValueError, match="finite"):
            service.submit(Operand("a"), at_us=bad)
        assert service.run().queries == ()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_deadline_rejected(self, bad):
        ssd, _ = make_ssd()
        service = ssd.service(policy="edf")
        with pytest.raises(ValueError, match="finite"):
            service.submit(Operand("a"), at_us=0.0, deadline_us=bad)
        service.submit(Operand("a"), at_us=0.0, deadline_us=1e6)
        report = service.run()
        assert report.stats.n_deadlines == 1
        assert report.stats.deadlines_met == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        ssd, _ = make_ssd()
        with pytest.raises(ValueError, match="workers"):
            ssd.service(workers=workers)


class TestWriteVector:
    @pytest.mark.parametrize(
        "values", [[2, 0, 1, 3], [-1, 0, 1, 1], [0.5, 0, 1, 1], [256, 0]]
    )
    def test_non_binary_rejected(self, values):
        ssd, _ = make_ssd()
        generation = ssd.ftl.generation
        with pytest.raises(ValueError, match="0/1"):
            ssd.write_vector("bad", values)
        assert "bad" not in ssd.ftl
        assert ssd.ftl.generation == generation

    def test_binary_lists_and_bools_accepted(self):
        ssd, _ = make_ssd()
        ssd.write_vector("ints", [1, 0, 1, 1])
        ssd.write_vector("bools", np.array([True, False, True, True]))
        np.testing.assert_array_equal(ssd.read_vector("ints"), [1, 0, 1, 1])
        np.testing.assert_array_equal(ssd.read_vector("bools"), [1, 0, 1, 1])
