"""Harness self-test: run a tiny instance of every workload through the
gates and the traced run, and check what the benchmark emits.

    python3 perfbench/selftest.py

Checks, per workload: every answer matches the oracle and every
repetition (untraced and traced) reproduces the same simulated
figures; every end-to-end and per-layer metric is emitted with the
unit the spec gives it; trace coverage and overhead are reported; two
processes with different hash seeds print the same simulated digest.
It also checks that the oracle gate catches a corrupted answer and
that ``BENCHMARK.json`` matches ``perfbench/spec.py``.  Exits non-zero
on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spec  # noqa: E402
from perfbench.harness import _mismatches, measure  # noqa: E402
from perfbench.workloads import SETUPS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec() -> None:
    doc = spec.benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    check(len(names) == len(set(names)), "metric/workload names repeat")
    for name in names:
        check(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    for metric in doc["end_to_end"] + doc["per_layer"]:
        check(UNIT.fullmatch(metric["unit"]) is not None,
              f"bad unit {metric['unit']!r}")
        check(metric["better"] in ("higher", "lower"),
              f"bad direction for {metric['name']}")
    for metric in doc["end_to_end"]:
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    check(
        setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                   "bound": max(m["bound"] for m in doc["end_to_end"])}],
        "setup_s must be in s, lower-better, with the largest bound",
    )
    for workload in doc["workloads"]:
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              f"why of {workload['name']} is not one short line")
    check(2 <= len(doc["workloads"]) <= 8, "workload count")
    per_layer = {m["name"] for m in doc["per_layer"]}
    e2e = {m["name"] for m in doc["end_to_end"]}
    for target in spec.LAYER_TARGETS:
        check(set(target["layer_metrics"]) <= per_layer,
              f"unknown layer metric in {target['layer_metrics']}")
        check(set(target["moves"]) <= e2e, f"unknown target {target}")
        check(set(target["on"] + target["unchanged"]) <= set(spec.WORKLOADS),
              f"unknown workload in {target}")
    path = ROOT / "BENCHMARK.json"
    if path.exists():
        check(
            json.loads(path.read_text()) == doc,
            "BENCHMARK.json is stale: run perfbench/run.py --write-spec",
        )


def check_oracle_gate() -> None:
    """Flip one answer bit: the gate must count the mismatch."""
    instance = SETUPS["scan"](1, True)
    served = instance.serve()
    check(_mismatches(instance, served) == 0, "clean run mismatches")
    served.queries[0].result.bits[0] ^= 1
    check(_mismatches(instance, served) == 1, "oracle gate missed a flip")


def check_workload(workload: str) -> None:
    e2e = measure(workload, 1, 0.0, tiny=True)
    traced = measure(workload, 1, 0.0, trace=True, tiny=True)
    for result, expected in (
        (e2e, {n: u for n, u, *_ in spec.END_TO_END}),
        (traced, {n: u for n, u, _ in spec.PER_LAYER}),
    ):
        check(result.correct, f"{workload}: gate failed: {result.notes}")
        check(result.attempted >= 1, f"{workload}: nothing attempted")
        got = {n: m["unit"] for n, m in result.metrics.items()}
        check(got == expected, f"{workload}: metrics/units differ")
        for name, metric in result.metrics.items():
            value = metric["value"]
            check(isinstance(value, (int, float)) and value == value,
                  f"{workload}: {name} is not a number")
    for name in e2e.metrics:
        check(e2e.metrics[name]["value"] != 0, f"{workload}: {name} is 0")
    coverage = traced.metrics["trace.coverage"]["value"]
    check(0.9 <= coverage <= 1.0 + 1e-9,
          f"{workload}: layer self times cover {coverage:.3f} of serve")
    digest = [n for n in traced.notes if n.startswith("sim digest")]
    check(digest == [n for n in e2e.notes if n.startswith("sim digest")],
          f"{workload}: traced and untraced runs simulate differently")
    printed = set()
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "0",
             "--trace", "0", "--tiny"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        check(out.returncode == 0, f"{workload}: run.py failed: {out.stderr}")
        printed |= {
            line for line in out.stdout.splitlines()
            if line.startswith("sim digest")
        }
    check(printed == set(digest),
          f"{workload}: simulated figures depend on the process")
    print(f"{workload}: ok ({len(e2e.metrics)} end-to-end, "
          f"{len(traced.metrics)} per-layer, coverage {coverage:.3f})")


def main() -> int:
    check_spec()
    check_oracle_gate()
    for workload in spec.WORKLOADS:
        check_workload(workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
