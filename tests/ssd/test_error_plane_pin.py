"""Pinned draw order of the V_TH error plane.

Every other error-plane property compares two twins that draw from the
same seeded stream (batch vs per-sense loop), so a change that moves
the draws -- or flips a different cell for the same draw -- on both
sides at once passes them all.  These cases pin the absolute outcome
instead: a seeded error-injecting SSD at the paper's worst-case
condition, programmed without ESP (``esp_extra=0.0``) so bits really
flip, serves one fixed query window three ways -- through
``QueryService``, through ``SmallSsd.query``, and through the
per-sense loop (``execute_tasks(batch=False)``) -- and each way must
produce exactly the pinned number of wrong bits and the pinned
sha256 of its result bits.

A deliberate change to the error model, the calibration, or the draw
schedule moves these pins; update them in the same change and say
why.
"""

import hashlib

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
from repro.flash.errors import WORST_CASE_CONDITION
from repro.flash.geometry import ChipGeometry
from repro.ssd.controller import SmallSsd

#: 200-bit pages: not a multiple of 64, so padding words are in play.
GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=200,
)

N_BITS = 3 * GEOMETRY.page_size_bits - 37

#: (wrong bits vs the NumPy oracle, sha256 of the concatenated result
#: bits) per serving path.
PINS = {
    "service": (
        10,
        "9d1293ffd714d33f7097b05780be8ca25bfe9730d134f29b20c3d55800f86629",
    ),
    "query": (
        8,
        "82d97f659292d2e711cb50319d3607faddbfce1e5812b30fa63d8340a81e24ed",
    ),
    "loop": (
        8,
        "82d97f659292d2e711cb50319d3607faddbfce1e5812b30fa63d8340a81e24ed",
    ),
}


def _build():
    ssd = SmallSsd(
        n_chips=2,
        geometry=GEOMETRY,
        seed=41,
        inject_errors=True,
        condition=WORST_CASE_CONDITION,
        esp_extra=0.0,
    )
    rng = np.random.default_rng(2024)
    env = {}
    for i in range(4):
        env[f"a{i}"] = rng.integers(0, 2, N_BITS, dtype=np.uint8)
        ssd.write_vector(f"a{i}", env[f"a{i}"], group="g")
    env["inv"] = rng.integers(0, 2, N_BITS, dtype=np.uint8)
    ssd.write_vector("inv", env["inv"], group="h", inverse=True)
    env["solo"] = rng.integers(0, 2, N_BITS, dtype=np.uint8)
    ssd.write_vector("solo", env["solo"])
    return ssd, env


def _window():
    a = [Operand(f"a{i}") for i in range(4)]
    inv, solo = Operand("inv"), Operand("solo")
    return [
        and_all(a),                     # intra-block MWS, 4 wordlines
        or_all([And(a[0], a[1]), solo]),  # OR-of-AND across blocks
        Not(And(a[1], a[2])),           # inverse sense
        or_all([inv, solo]),            # inverse-stored operand
        Xor(a[0], solo),                # latch XOR command
        and_all(a),                     # repeat: fresh draws again
    ]


def _serve(path, ssd):
    window = _window()
    if path == "service":
        service = ssd.service(window_us=1_000.0, max_window_queries=16)
        for expr in window:
            service.submit(expr, at_us=0.0)
        report = service.run()
        served = sorted(report.queries, key=lambda q: q.query_id)
        assert all(q.error is None for q in served)
        return [q.result.bits for q in served]
    if path == "query":
        return [ssd.query(expr).bits for expr in window]
    prepared = [ssd.engine.prepare(expr) for expr in window]
    tasks = [
        task
        for query, p in enumerate(prepared)
        for task in p.tasks(query=query)
    ]
    outcomes = ssd.engine.execute_tasks(tasks, share=False, batch=False)
    results = []
    for query, p in enumerate(prepared):
        pieces = [None] * p.n_chunks
        for outcome in outcomes:
            if outcome.task.query == query:
                pieces[outcome.task.chunk] = outcome.data
        results.append(ssd.engine.assemble_bits(p, pieces))
    return results


@pytest.mark.parametrize("path", sorted(PINS))
def test_error_plane_outcome_is_pinned(path):
    ssd, env = _build()
    results = _serve(path, ssd)
    wrong = 0
    digest = hashlib.sha256()
    for expr, bits in zip(_window(), results):
        assert bits.dtype == np.uint8 and bits.shape == (N_BITS,)
        wrong += int(np.count_nonzero(bits != evaluate(expr, env)))
        digest.update(bits.tobytes())
    assert (wrong, digest.hexdigest()) == PINS[path]
