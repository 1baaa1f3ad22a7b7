"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The exit code is 0 only when
every answer matched the oracle and every repetition of the seed
reproduced the same simulated figures.

``--write-spec`` rewrites ``BENCHMARK.json`` from ``perfbench/spec.py``;
``--describe`` prints what the spec records beyond that file (layer
targets, unmeasured layers, the held-out seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spec  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.RUN_SECONDS)
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken workload (self-test)"
    )
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json())
        return 0
    if args.describe:
        print(json.dumps(spec.describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; run "
            "from the root of a source checkout",
            file=sys.stderr,
        )
        return 2

    from perfbench.harness import measure

    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
    )
    for note in result.notes:
        print(note)
    for name, metric in result.metrics.items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
