"""Share of operation time per layer metric, from the span files of traced runs.

    python3 perfbench/shares.py perfbench/traces/rate-check-seed1-trace1.jsonl

Self times come from ``Tracer.self_by_op`` and are summed over the timed
operations; the shares add up to one.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from tracer import Tracer


def shares(path: str) -> dict[str, float]:
    tracer = Tracer.load(path)
    timed = {o["op"] for o in tracer.ops if not o["warmup"]}
    by_metric: dict[str, float] = defaultdict(float)
    for op, own in tracer.self_by_op().items():
        if op in timed:
            for metric, seconds in own.items():
                by_metric[metric] += seconds
    total = sum(by_metric.values())
    return {name: t / total for name, t in sorted(by_metric.items(), key=lambda kv: -kv[1])}


def main() -> None:
    for path in sys.argv[1:]:
        print(path)
        for name, share in shares(path).items():
            print(f"  {name:<40} {share:7.2%}")


if __name__ == "__main__":
    main()
