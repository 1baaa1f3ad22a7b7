"""Tests for the functional multi-chip SSD (repro.ssd.controller)."""

import numpy as np
import pytest

from repro.core.expressions import And, Not, Operand, Or, evaluate
from repro.flash.errors import OperatingCondition
from repro.ssd.controller import SmallSsd


def vectors(names, n_bits, seed=0):
    rng = np.random.default_rng(seed)
    return {n: rng.integers(0, 2, n_bits, dtype=np.uint8) for n in names}


@pytest.fixture
def ssd():
    return SmallSsd(n_chips=4, seed=5)


class TestWriteRead:
    def test_vector_roundtrip(self, ssd):
        n_bits = ssd.page_bits * 8
        env = vectors(["v"], n_bits, seed=1)
        ssd.write_vector("v", env["v"])
        np.testing.assert_array_equal(ssd.read_vector("v"), env["v"])

    def test_inverse_vector_roundtrip(self, ssd):
        n_bits = ssd.page_bits * 4
        env = vectors(["v"], n_bits, seed=2)
        ssd.write_vector("v", env["v"], inverse=True)
        np.testing.assert_array_equal(ssd.read_vector("v"), env["v"])

    def test_unaligned_vector_zero_padded_roundtrip(self, ssd):
        """A short final chunk stores zero-padded; reads truncate back
        to the true length."""
        n_bits = ssd.page_bits + ssd.page_bits // 2
        env = vectors(["v"], n_bits, seed=20)
        ssd.write_vector("v", env["v"])
        out = ssd.read_vector("v")
        assert out.size == n_bits
        np.testing.assert_array_equal(out, env["v"])

    def test_unaligned_inverse_vector_roundtrip(self, ssd):
        n_bits = ssd.page_bits * 2 + 7
        env = vectors(["v"], n_bits, seed=21)
        ssd.write_vector("v", env["v"], inverse=True)
        np.testing.assert_array_equal(ssd.read_vector("v"), env["v"])

    def test_esp_extra_threaded_to_ftl_record(self):
        """Regression: the FTL record must carry the SSD's configured
        ESP effort, not a hardcoded 0.9."""
        ssd = SmallSsd(n_chips=2, esp_extra=0.35, seed=7)
        ssd.write_vector(
            "v", np.ones(ssd.page_bits, dtype=np.uint8)
        )
        assert ssd.ftl.lookup("v").esp_extra == pytest.approx(0.35)
        # And the chips actually program with that effort.
        stored = ssd.controllers[0].stored("v@0")
        assert stored.esp_extra == pytest.approx(0.35)

    def test_failed_stripe_write_rolls_back(self, ssd, monkeypatch):
        """A mid-stripe failure must not leave the SSD half-registered:
        no FTL record, no chunk operands, and the name is reusable."""
        n_bits = ssd.page_bits * 4  # chunks 0..3 on chips 0..3
        env = vectors(["v"], n_bits, seed=22)

        def boom(*args, **kwargs):
            raise RuntimeError("program failed")

        monkeypatch.setattr(ssd.controllers[2], "fc_write", boom)
        with pytest.raises(RuntimeError, match="program failed"):
            ssd.write_vector("v", env["v"])
        assert "v" not in ssd.ftl
        assert "v@0" not in ssd.controllers[0].directory
        assert "v@1" not in ssd.controllers[1].directory
        monkeypatch.undo()
        ssd.write_vector("v", env["v"])
        np.testing.assert_array_equal(ssd.read_vector("v"), env["v"])


class TestQueries:
    def test_and_query_striped(self, ssd):
        n_bits = ssd.page_bits * 8  # 2 chunks per chip
        env = vectors("abc", n_bits, seed=3)
        for name in "abc":
            ssd.write_vector(name, env[name], group="g")
        expr = And(Operand("a"), Operand("b"), Operand("c"))
        result = ssd.query(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        # One MWS per chunk: 8 chunks across 4 chips.
        assert result.n_senses == 8

    def test_or_query_with_inverse_storage(self, ssd):
        n_bits = ssd.page_bits * 4
        env = vectors("xyz", n_bits, seed=4)
        for name in "xyz":
            ssd.write_vector(name, env[name], group="inv", inverse=True)
        expr = Or(Operand("x"), Operand("y"), Operand("z"))
        result = ssd.query(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))
        assert result.n_senses == 4  # one inverse MWS per chunk

    def test_mixed_expression(self, ssd):
        n_bits = ssd.page_bits * 4
        env = vectors("abk", n_bits, seed=5)
        ssd.write_vector("a", env["a"], group="adj")
        ssd.write_vector("b", env["b"], group="adj")
        ssd.write_vector("k", env["k"])  # own block: inter-block OR
        expr = Or(And(Operand("a"), Operand("b")), Operand("k"))
        result = ssd.query(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    def test_not_query(self, ssd):
        n_bits = ssd.page_bits * 4
        env = vectors("a", n_bits, seed=6)
        ssd.write_vector("a", env["a"])
        result = ssd.query(Not(Operand("a")))
        np.testing.assert_array_equal(result.bits, 1 - env["a"])

    def test_unaligned_query_truncates_to_true_length(self, ssd):
        n_bits = ssd.page_bits * 2 + 100
        env = vectors("ab", n_bits, seed=23)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        expr = And(Operand("a"), Operand("b"))
        result = ssd.query(expr)
        assert result.bits.size == n_bits
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    def test_query_reports_pipelined_makespan(self, ssd):
        n_bits = ssd.page_bits * 8
        env = vectors("ab", n_bits, seed=24)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        result = ssd.query(And(Operand("a"), Operand("b")))
        assert result.makespan_us > 0.0

    def test_mismatched_lengths_rejected(self, ssd):
        env_a = vectors("a", ssd.page_bits * 4, seed=7)
        env_b = vectors("b", ssd.page_bits * 2, seed=8)
        ssd.write_vector("a", env_a["a"], group="g")
        ssd.write_vector("b", env_b["b"], group="g")
        with pytest.raises(ValueError, match="mismatched"):
            ssd.query(And(Operand("a"), Operand("b")))

    def test_empty_expression_rejected(self, ssd):
        with pytest.raises(KeyError):
            ssd.query(Operand("missing"))

    def test_latency_is_per_chip_maximum(self, ssd):
        n_bits = ssd.page_bits * 4  # one chunk per chip
        env = vectors("ab", n_bits, seed=9)
        for name in "ab":
            ssd.write_vector(name, env[name], group="g")
        result = ssd.query(And(Operand("a"), Operand("b")))
        # Chips work in parallel: latency ~ one MWS, not four.
        single_mws_us = 25.0
        assert result.latency_us < 2 * single_mws_us


class TestStressedSsd:
    def test_query_correct_under_worst_case(self):
        """End-to-end SSD query at 10K PEC / 1-year retention."""
        ssd = SmallSsd(
            n_chips=2,
            inject_errors=True,
            condition=OperatingCondition(
                pe_cycles=10_000, retention_months=12.0, randomized=False
            ),
            seed=11,
        )
        n_bits = ssd.page_bits * 4
        env = vectors("pqrs", n_bits, seed=12)
        for name in env:
            ssd.write_vector(name, env[name], group="g")
        expr = And(*(Operand(n) for n in env))
        result = ssd.query(expr)
        np.testing.assert_array_equal(result.bits, evaluate(expr, env))

    def test_error_injecting_ssd_latches_words(self):
        """Error-injecting chips run the word pipeline like every other
        chip: results come back as packed words, and the byte-per-bit
        ``packed`` switch is no longer a constructor option."""
        ssd = SmallSsd(n_chips=2, inject_errors=True, seed=3)
        env = vectors("pq", ssd.page_bits * 2, seed=4)
        for name in env:
            ssd.write_vector(name, env[name], group="g")
        expr = And(Operand("p"), Operand("q"))
        tasks = ssd.engine.prepare(expr).tasks(query=0)
        for outcome in ssd.engine.execute_tasks(tasks):
            assert outcome.data.dtype == np.uint64
        np.testing.assert_array_equal(
            ssd.query(expr).bits, evaluate(expr, env)
        )
        with pytest.raises(TypeError):
            SmallSsd(n_chips=2, packed=False)
