"""Randomized equivalence: the word reduce vs the per-cell V_TH
compare vs the NumPy oracle.

Every scenario is served twice on one SSD -- through ``SmallSsd.query``
(error-free senses reduce packed ``uint64`` rows) and through the
V_TH oracle of :mod:`oracles.vth` (every sense compares each cell's
V_TH against the read reference, then packs).  Results must be
bit-identical to each other and to the NumPy oracle, across expression
shapes (AND groups, inverse-stored ORs, inter-block ORs, mixed
OR-of-AND, XOR commands), inverse senses (``Not`` plans), and
unaligned vector lengths that exercise the zero-padded final chunk.
Cost accounting (sense counts, latency) must also agree: the sense
path changes how a page is evaluated, never the commands.
"""

import numpy as np
import pytest

from repro.core.expressions import (
    And,
    Not,
    Operand,
    Xor,
    and_all,
    evaluate,
    or_all,
)
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd

from oracles.vth import vth_query, vth_read_vector

#: Page of 80 bits: not a multiple of 64, so every packed page carries
#: padding bits -- the representation's trickiest configuration.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)

PATTERNS = ("and_group", "or_inverse_group", "or_blocks", "mixed", "xor")


def build_one(rng):
    """One random scenario materialized on an SSD, plus the oracle
    environment."""
    n_chips = int(rng.integers(1, 4))
    n_chunks = int(rng.integers(1, 6))
    n_bits = n_chunks * GEOMETRY.page_size_bits - int(
        rng.integers(0, GEOMETRY.page_size_bits - 1)
    )
    seed = int(rng.integers(1 << 16))
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=seed)
    pattern = PATTERNS[int(rng.integers(len(PATTERNS)))]
    n_ops = int(rng.integers(2, 5))
    names = [f"v{i}" for i in range(n_ops)]
    env = {
        name: rng.integers(0, 2, n_bits, dtype=np.uint8) for name in names
    }
    ops = [Operand(n) for n in names]

    def write(name, **kwargs):
        ssd.write_vector(name, env[name], **kwargs)

    if pattern == "and_group":
        for name in names:
            write(name, group="g")
        expr = and_all(ops)
    elif pattern == "or_inverse_group":
        for name in names:
            write(name, group="g", inverse=True)
        expr = or_all(ops)
    elif pattern == "or_blocks":
        for name in names:
            write(name)
        expr = or_all(ops)
    elif pattern == "mixed":
        write(names[0], group="g")
        write(names[1], group="g")
        for name in names[2:]:
            write(name)
        expr = or_all([And(ops[0], ops[1])] + ops[2:])
    else:  # xor -- exercises the latch XOR command
        for name in names:
            write(name)
        expr = Xor(ops[0], ops[1])

    # A Not on top forces an inverse sense (or an inverted final
    # plan), covering the inverse-capture path.
    if pattern != "xor" and rng.random() < 0.4:
        expr = Not(expr)
    return ssd, env, expr


@pytest.mark.parametrize("seed", range(25))
def test_packed_backend_matches_uint8_path(seed):
    rng = np.random.default_rng(7000 + seed)
    ssd, env, expr = build_one(rng)
    expected = evaluate(expr, env)

    word_result = ssd.query(expr)
    vth_result = vth_query(ssd, expr)

    np.testing.assert_array_equal(word_result.bits, expected)
    np.testing.assert_array_equal(vth_result.bits, expected)

    # The sense path changes the evaluation, not the command stream:
    # both issue identical senses at identical modeled cost.
    assert word_result.n_senses == vth_result.n_senses
    assert word_result.latency_us == pytest.approx(vth_result.latency_us)
    assert word_result.energy_nj == pytest.approx(vth_result.energy_nj)


@pytest.mark.parametrize("seed", range(10))
def test_packed_read_vector_matches_uint8_path(seed):
    rng = np.random.default_rng(8000 + seed)
    ssd, env, _ = build_one(rng)
    for name, bits in env.items():
        np.testing.assert_array_equal(ssd.read_vector(name), bits)
        np.testing.assert_array_equal(vth_read_vector(ssd, name), bits)


@pytest.mark.parametrize("seed", range(5))
def test_packed_batch_matches_uint8_path(seed):
    rng = np.random.default_rng(9000 + seed)
    ssd, env, expr = build_one(rng)
    expected = evaluate(expr, env)
    batch = ssd.engine.query_batch([expr, expr])
    for result in batch.results:
        np.testing.assert_array_equal(result.bits, expected)
    for _ in range(2):
        np.testing.assert_array_equal(
            vth_query(ssd, expr, batch=True).bits, expected
        )
