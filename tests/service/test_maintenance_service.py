"""Service-level maintenance: probation drain under query traffic.

The acceptance scenario: a chip whose persistent (but transient-class)
sense faults trip the health breaker is quarantined mid-run, the
maintenance plane drains its live chunk columns to the surviving
chips, and every query -- before, during, and after the drain --
answers bit-identically to the NumPy oracle.  The sick chip ends the
run holding no live data, so probation re-admission starts empty.
"""

import numpy as np

from repro.core.expressions import And, Operand, Xor, evaluate, or_all
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.service import QUARANTINED, HealthConfig
from repro.ssd.maintenance import MaintenanceConfig

GEOMETRY = ChipGeometry(
    planes_per_die=1,
    blocks_per_plane=16,
    subblocks_per_block=2,
    wordlines_per_string=8,
    page_size_bits=80,
)


def _build(n_chips=3, n_bits=400, seed=5):
    from repro.ssd.controller import SmallSsd

    # Chip 0 faults on every sense attempt: recovery answers each
    # query on the degraded V_TH path (still exact), while the error
    # EWMA sprints to quarantine.
    injector = FaultInjector(
        FaultConfig(seed=seed, chip_sense_fault_rates={0: 1.0})
    )
    ssd = SmallSsd(
        n_chips=n_chips, geometry=GEOMETRY, seed=seed,
        fault_injector=injector,
    )
    rng = np.random.default_rng(77)
    env = {}
    for name in ("a", "b", "c", "d"):
        env[name] = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, env[name], group="g")
    return ssd, env


def _traffic(n=12):
    a, b, c, d = (Operand(x) for x in "abcd")
    pool = [And(a, b), or_all([And(a, b), c]), Xor(b, d), And(And(a, c), d)]
    return [
        (50.0 * i, "tenant", pool[i % len(pool)]) for i in range(n)
    ]


def _run(ssd, **kwargs):
    service = ssd.service(
        window_us=120.0,
        health=HealthConfig(ewma_alpha=0.8, probation_windows=50),
        maintenance=True,
        **kwargs,
    )
    service.submit_traffic(_traffic())
    return service, service.run()


def test_probation_drain_keeps_queries_exact():
    ssd, env = _build()
    service, report = _run(ssd)
    stats = report.stats
    # The breaker tripped and the maintenance plane drained the chip.
    assert stats.quarantines >= 1
    assert service.health.state(0) == QUARANTINED
    assert stats.chips_drained == 1
    assert stats.pages_migrated > 0
    assert ssd.ftl.live_pages(0) == 0
    # Nothing failed: pre-drain windows recovered on the degraded
    # path, post-drain windows answered from healthy silicon.
    assert stats.queries_failed == 0
    for query in report.queries:
        assert query.error is None
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )


def test_drain_routes_columns_to_survivors_only():
    ssd, env = _build()
    _, report = _run(ssd)
    assert report.stats.chips_drained == 1
    for chunk, chip in ssd.ftl.chunk_overrides().items():
        assert chip != 0
    # Every vector still reads back exactly through the overlay.
    for name, bits in env.items():
        np.testing.assert_array_equal(ssd.read_vector(name), bits)


def test_drain_emits_background_jobs_and_overhead():
    ssd, _ = _build()
    _, report = _run(ssd)
    assert report.stats.maintenance_overhead_us > 0.0
    assert "chips drained" in report.stats.describe()


def test_result_cache_pruned_across_drain():
    """Cached results stamped against the pre-drain placement are
    bulk-pruned when maintenance moves data, and post-drain traffic
    re-fills the cache against the new world -- never serving a stale
    word."""
    ssd, env = _build()
    service, report = _run(ssd, result_cache=True)
    assert report.stats.chips_drained == 1
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )
    cache = service.engine.result_cache
    assert cache is not None
    # Every surviving entry is fresh against the current layout.
    assert cache.prune_stale() == 0


def test_explicit_manager_and_config_forms():
    ssd, env = _build()
    config = MaintenanceConfig(gc_low_watermark=1, gc_high_watermark=2)
    manager = ssd.maintenance(config)
    service = ssd.service(
        window_us=120.0,
        health=HealthConfig(ewma_alpha=0.8, probation_windows=50),
        maintenance=manager,
    )
    assert service.maintenance is manager
    service.submit_traffic(_traffic(6))
    report = service.run()
    assert report.stats.chips_drained == 1
    for query in report.queries:
        np.testing.assert_array_equal(
            query.result.bits, evaluate(query.expr, env)
        )
