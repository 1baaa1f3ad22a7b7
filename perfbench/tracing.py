"""Per-layer host self time, taken from outside the program.

The tracer wraps the public functions of each layer for the duration
of one serve phase and keeps a stack of open spans: a layer's self
time is the wall time of its calls minus the part its nested traced
calls covered.  Nothing under ``src/`` knows it is being traced, so
the untraced run executes exactly the program's own code.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (import path of the owner, attribute, layer).  Functions imported by
#: name into ``repro.service.service`` are wrapped where that module
#: looks them up.
LAYER_FUNCTIONS = [
    ("repro.service.admission:AdmissionQueue", "windows",
     "service.admission"),
    ("repro.ssd.query_engine:QueryEngine", "prepare", "core.planner"),
    ("repro.service.service", "schedule_window", "service.scheduler"),
    ("repro.ssd.query_engine:QueryEngine", "execute_tasks",
     "ssd.query_engine"),
    ("repro.ssd.query_engine:QueryEngine", "assemble_bits",
     "ssd.query_engine.assemble"),
    *[
        ("repro.core.mws:MwsExecutor", name, "core.mws")
        for name in (
            "execute",
            "execute_many",
            "execute_degraded",
            "execute_batch",
            "execute_batch_reuse",
            "execute_degraded_batch",
        )
    ],
    ("repro.ssd.query_engine:QueryEngine", "stage_job",
     "ssd.events.stage_job"),
    ("repro.service.service", "simulate_stages", "ssd.events.simulate"),
    ("repro.service.health:ChipHealthTracker", "observe_window",
     "service.health"),
    *[
        ("repro.ssd.maintenance:MaintenanceManager", name,
         "ssd.maintenance")
        for name in (
            "run_cycle",
            "rebuild_cycle",
            "drain_chip",
            "scrub_bad_blocks",
        )
    ],
    ("repro.ssd.controller:SmallSsd", "write_vector", "ssd.controller"),
    ("repro.ssd.controller:SmallSsd", "delete_vector", "ssd.controller"),
    ("repro.service.service:QueryService", "run", "service.service"),
    ("repro.service.service:QueryService", "submit", "service.service"),
]

LAYERS = sorted({layer for _, _, layer in LAYER_FUNCTIONS})


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """Self time and outermost call count per layer, plus the job
    count each event simulation was handed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.jobs = 0
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter
        count_jobs = layer == "ssd.events.simulate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_jobs:
                self.jobs += len(args[0])
            if not stack or stack[-1][0] != layer:
                self.calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def __enter__(self) -> "Tracer":
        for path, attr, layer in LAYER_FUNCTIONS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
