"""The four serving workloads.

Every workload is a sequence of rounds.  A round may write fresh
vectors and delete the previous round's, then submits its queries
(arrival offsets relative to the round start) and runs the service
once.  The next round starts when the last query of this one
completed on the simulated clock, or ``min_gap_us`` later, whichever
is later: a client that waits for its answers (closed loop).
``scan``, ``hot`` and ``noisy`` are one open-loop round.

``build(seed, tiny)`` is the set-up: it writes the vectors, keeps
their host copies as the oracle and generates every round -- arrivals
and, on ``churn``, the vectors the serve phase will write -- so the
serve phase only calls the program's public API (``SmallSsd``,
``QueryService.submit``/``run``).  The seed changes the data, the
operands each query picks and the arrival jitter; the shape-size mix,
query counts and rates are fixed, so simulated figures stay close
across seeds.  ``tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.expressions import And, Operand, Or, and_all
from repro.flash.errors import OperatingCondition
from repro.flash.faults import FaultConfig, FaultInjector
from repro.flash.geometry import ChipGeometry
from repro.service import (
    BitmapIndexClient,
    ClientTraffic,
    KCliqueClient,
    PoissonArrivals,
    SegmentationClient,
    UniformArrivals,
    populate_all,
)
from repro.ssd.controller import SmallSsd

N_CHIPS = 4
PAGE_BITS = 256


def _geometry(blocks: int, wordlines: int) -> ChipGeometry:
    return ChipGeometry(
        planes_per_die=1,
        blocks_per_plane=blocks,
        subblocks_per_block=2,
        wordlines_per_string=wordlines,
        page_size_bits=PAGE_BITS,
    )


@dataclass(frozen=True)
class Round:
    #: (name, bits) written at the start of the round.
    writes: list
    #: (offset_us, client, expr, priority, relative deadline or None).
    queries: list


@dataclass
class Served:
    """What one serve phase produced."""

    queries: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    #: write_vector/delete_vector calls made, and the exception type
    #: name of each one that raised.
    writes: int = 0
    write_errors: list[str] = field(default_factory=list)
    #: Pages written by successful write_vector calls of the serve
    #: phase: data chunks, and parity pages on a parity SSD.
    user_pages: int = 0
    parity_pages: int = 0


class Instance:
    """One set-up workload: an SSD with its vectors, the oracle copies
    of the vectors the queries read, and the rounds to serve once."""

    def __init__(
        self,
        ssd: SmallSsd,
        env: dict,
        service,
        rounds: list[Round],
        *,
        min_gap_us: float = 0.0,
        kill: tuple[int, int] | None = None,
    ) -> None:
        self.ssd = ssd
        self.env = env
        self.service = service
        self.rounds = rounds
        self.min_gap_us = min_gap_us
        #: (round, chip): the chip fails at the start of that round.
        self.kill = kill
        # Pages the set-up wrote (every vector stored at this point).
        ftl = ssd.ftl
        self.setup_user_pages = 0
        self.setup_parity_pages = 0
        for name in ftl.vectors():
            n_chunks = ftl.lookup(name).n_chunks
            self.setup_user_pages += n_chunks
            if ssd.parity:
                self.setup_parity_pages += ftl.parity_group_count(n_chunks)

    def serve(self) -> Served:
        ssd = self.ssd
        service = self.service
        out = Served()
        live: list[str] = []
        start_us = 0.0
        for r, round_ in enumerate(self.rounds):
            if self.kill is not None and self.kill[0] == r:
                ssd.kill_chip(self.kill[1])
            written = []
            for name, bits in round_.writes:
                out.writes += 1
                try:
                    ssd.write_vector(name, bits, group=f"round{r}")
                except Exception as exc:  # counted, never fatal
                    out.write_errors.append(type(exc).__name__)
                    continue
                written.append(name)
                n_chunks = ssd.ftl.lookup(name).n_chunks
                out.user_pages += n_chunks
                out.parity_pages += ssd.ftl.parity_group_count(n_chunks)
            if round_.writes:
                for name in live:
                    out.writes += 1
                    try:
                        ssd.delete_vector(name)
                    except Exception as exc:  # counted, never fatal
                        out.write_errors.append(type(exc).__name__)
                live = written
            for offset, client, expr, priority, deadline in round_.queries:
                at = start_us + offset
                service.submit(
                    expr,
                    at_us=at,
                    client=client,
                    priority=priority,
                    deadline_us=None if deadline is None else at + deadline,
                )
            report = service.run()
            out.queries.extend(report.queries)
            out.stats.append(report.stats)
            start_us = max(
                start_us + self.min_gap_us,
                max(q.completed_us for q in report.queries),
            )
        return out


def _shape(rng, rows: list[str], flags: list[str], k: int, m: int):
    """AND of ``k`` co-located rows, ORed with ``m`` own-block flags."""
    picked = sorted(rng.choice(len(rows), size=k, replace=False).tolist())
    conj = and_all([Operand(rows[i]) for i in picked])
    if m == 0:
        return conj
    chosen = sorted(rng.choice(len(flags), size=m, replace=False).tolist())
    return Or(conj, *[Operand(flags[j]) for j in chosen])


def _fixed_mix(rng, rows, flags, n, ks, ms):
    """``n`` shapes whose (k, m) histogram is the same for every seed;
    the seed picks the operands and the order."""
    exprs = [
        _shape(rng, rows, flags, ks[q % len(ks)], ms[(q // len(ks)) % len(ms)])
        for q in range(n)
    ]
    return [exprs[i] for i in rng.permutation(n)]


def _store(ssd, rng, names, n_bits, *, group=None, density=0.5):
    env = {}
    for name in names:
        bits = (rng.random(n_bits) < density).astype(np.uint8)
        env[name] = bits
        ssd.write_vector(name, bits, group=group)
    return env


def _uniform_round(exprs, rng, rate_qps: float, client: str) -> Round:
    """One open-loop round arriving at ``rate_qps`` with +-50% jitter."""
    period = 1e6 / rate_qps
    process = UniformArrivals(period_us=period, jitter_us=period / 2)
    times = process.arrival_times(len(exprs), rng)
    return Round(
        writes=[],
        queries=[(t, client, e, 0, None) for t, e in zip(times, exprs)],
    )


# ----------------------------------------------------------------------
# scan: one open-loop round arriving far above device capacity
# ----------------------------------------------------------------------


def build_scan(seed: int, tiny: bool = False) -> Instance:
    n_chunks = 8 if tiny else 64
    n_queries = 42 if tiny else 1008  # every (k, m) pair 2 or 48 times
    rng = np.random.default_rng(seed)
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=_geometry(128, 48), seed=seed)
    n_bits = n_chunks * PAGE_BITS
    rows = [f"scan/c{i}" for i in range(16)]
    flags = [f"scan/f{j}" for j in range(6)]
    env = _store(ssd, rng, rows, n_bits, group="scan/cols")
    env.update(_store(ssd, rng, flags, n_bits, density=0.05))
    # AND of 2-8 rows, ORed with 0-2 flags, arriving at 80k q/s: far
    # above the ~2.8k q/s the device drains.
    exprs = _fixed_mix(rng, rows, flags, n_queries, range(2, 9), range(3))
    rounds = [_uniform_round(exprs, rng, 80_000.0, "scan")]
    service = ssd.service(
        window_us=200.0,
        max_window_queries=16,
        policy="balanced",
        result_cache=True,
    )
    return Instance(ssd, env, service, rounds)


# ----------------------------------------------------------------------
# hot: three client tenants, one Poisson round below capacity
# ----------------------------------------------------------------------

HOT_RATE_QPS = 20_000.0
HOT_DEADLINE_US = 150.0
#: The dashboard's panels -- each tenant's shape pool and the order its
#: queries come in -- are part of the workload, not of the seed.  The
#: seed draws the data and the Poisson arrival times.
HOT_SHAPES_SEED = 2022


def build_hot(seed: int, tiny: bool = False) -> Instance:
    n_queries = 120 if tiny else 6000
    rng = np.random.default_rng(seed)
    ssd = SmallSsd(n_chips=N_CHIPS, geometry=_geometry(64, 48), seed=seed)
    n_bits = 16 * PAGE_BITS
    # Shares of the frozen total rate: dashboard 50%, k-clique scan
    # 30%, segmentation 20%.  Only the dashboard carries deadlines.
    mix = [
        (BitmapIndexClient(n_bits, n_days=8, shape_pool=4), 0.5, 1,
         HOT_DEADLINE_US),
        (KCliqueClient(n_bits), 0.3, 0, None),
        (SegmentationClient(n_bits), 0.2, 0, None),
    ]
    traffic = [
        ClientTraffic(
            client,
            PoissonArrivals(HOT_RATE_QPS * share),
            int(n_queries * share),
            priority=priority,
            deadline_us=deadline,
        )
        for client, share, priority, deadline in mix
    ]
    env = populate_all(ssd, traffic, rng)
    shapes = np.random.default_rng(HOT_SHAPES_SEED)
    queries = []
    for item in traffic:
        times = item.process.arrival_times(item.n_queries, rng)
        exprs = item.client.expressions(shapes, item.n_queries)
        queries.extend(
            (t, item.client.name, e, item.priority, item.deadline_us)
            for t, e in zip(times, exprs)
        )
    queries.sort(key=lambda q: q[0])
    service = ssd.service(window_us=200.0, policy="edf", result_cache=True)
    return Instance(ssd, env, service, [Round(writes=[], queries=queries)])


# ----------------------------------------------------------------------
# churn: writes, deletes, faults and a chip kill beside two tenants
# ----------------------------------------------------------------------

CHURN_CHUNKS = 6
CHURN_BATCH = 4
CHURN_KILL = (16, 1)  # (round, chip)
CHURN_ROUND_US = 2000.0
CHURN_DEADLINE_US = 1000.0


def build_churn(seed: int, tiny: bool = False) -> Instance:
    n_rounds = 20 if tiny else 48
    per_tenant = 4 if tiny else 12
    rng = np.random.default_rng(seed)
    injector = FaultInjector(
        FaultConfig(seed=seed, sense_fault_rate=0.002, stall_rate=0.002)
    )
    # 16 blocks per plane: the maintenance plane's watermarks keep only
    # a few sub-blocks free, so GC runs every round.
    ssd = SmallSsd(
        n_chips=N_CHIPS,
        geometry=_geometry(16, 8),
        seed=seed,
        parity=True,
        fault_injector=injector,
    )
    n_bits = CHURN_CHUNKS * PAGE_BITS
    stable = [f"churn/s{i}" for i in range(6)]
    env = _store(ssd, rng, stable, n_bits, group="churn/stable")
    s = [Operand(name) for name in stable]
    # The deadline tenant asks small point queries; the scan tenant
    # wide ANDs, one with an OR tail.
    point = [And(s[0], s[1]), And(s[2], s[3]), And(s[1], s[4]),
             and_all(s[:3])]
    wide = [and_all(s), and_all(s[1:]), and_all(s[:5]),
            Or(and_all(s[:4]), s[5])]
    tenants = (
        ("dash", point, 1, CHURN_DEADLINE_US),
        ("scan", wide, 0, None),
    )
    # Even arrival slots over the first 75% of a round, the tenants
    # alternating, each slot jittered by the seed.
    slot = 0.75 * CHURN_ROUND_US / (2 * per_tenant)
    rounds = []
    for r in range(n_rounds):
        writes = [
            (f"churn/r{r}v{i}", rng.integers(0, 2, n_bits, dtype=np.uint8))
            for i in range(CHURN_BATCH)
        ]
        queries = []
        for i in range(2 * per_tenant):
            client, pool, priority, deadline = tenants[i % 2]
            queries.append((
                slot * (i + float(rng.random())),
                client,
                pool[(i // 2) % len(pool)],
                priority,
                deadline,
            ))
        rounds.append(Round(writes=writes, queries=queries))
    service = ssd.service(
        window_us=200.0,
        policy="edf",
        preemption=True,
        maintenance=True,
    )
    return Instance(
        ssd, env, service, rounds, min_gap_us=CHURN_ROUND_US, kill=CHURN_KILL
    )


# ----------------------------------------------------------------------
# noisy: the V_TH error plane at the paper's worst case
# ----------------------------------------------------------------------

#: The paper's worst case: 10K P/E cycles and 12-month retention.
WORST_CASE = OperatingCondition(pe_cycles=10_000, retention_months=12.0)


def build_noisy(seed: int, tiny: bool = False) -> Instance:
    n_queries = 32 if tiny else 1000
    rng = np.random.default_rng(seed)
    # esp_extra=0.9 is ESP programming, the paper's zero-error setting.
    ssd = SmallSsd(
        n_chips=N_CHIPS,
        geometry=_geometry(64, 48),
        seed=seed,
        inject_errors=True,
        condition=WORST_CASE,
        esp_extra=0.9,
    )
    n_bits = N_CHIPS * PAGE_BITS  # one chunk per chip
    rows = [f"noisy/a{i}" for i in range(24)]
    flags = [f"noisy/b{j}" for j in range(8)]
    env = _store(ssd, rng, rows, n_bits, group="noisy/rows")
    env.update(_store(ssd, rng, flags, n_bits))
    exprs = _fixed_mix(rng, rows, flags, n_queries, range(8, 25), range(4))
    rounds = [_uniform_round(exprs, rng, 4_000.0, "noisy")]
    service = ssd.service(
        window_us=200.0, max_window_queries=16, policy="balanced"
    )
    return Instance(ssd, env, service, rounds)


SETUPS = {
    "scan": build_scan,
    "hot": build_hot,
    "churn": build_churn,
    "noisy": build_noisy,
}
