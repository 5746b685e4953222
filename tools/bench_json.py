"""Merge two sets of perfbench result files into one before/after JSON file.

    python3 tools/bench_json.py PARENT_DIR CHILD_DIR --out BENCH.json

Each directory holds the files ``perfbench/run.py`` writes to
``perfbench/results/``, named ``W-seedN-traceT.json``: the runs of one
version of the program.  The output gives, for each workload:

* each end-to-end metric of the root's ``BENCHMARK.json``: the median, first and
  third quartile, run count and per-seed values of the untraced (trace-0)
  runs, for the parent and the child; the child median over the parent
  median; and, over the seeds run on both sides, in how many pairs the
  child is better;
* ``failed`` and ``attempted`` summed over those runs;
* with trace-1 files, each per-layer metric's median over the traced runs.

It also records the machine it runs on, so run it on the machine that
produced the result files; the result files do not record it.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")
BLAS_SETTING = re.compile(r'"OPENBLAS_NUM_THREADS":\s*"(\d+)"')


def load_runs(directory: str) -> dict:
    """{(workload, trace): {seed: result}} from the result files in a directory."""
    runs: dict = {}
    for name in sorted(os.listdir(directory)):
        match = RESULT_NAME.match(name)
        if match is None:
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            result = json.load(fh)
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, {})[int(match["seed"])] = result
    return runs


def summary(values: dict[int, float]) -> dict:
    """Median, quartiles (inclusive method), count and the values by seed."""
    ordered = list(values.values())
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = median = q3 = ordered[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": len(ordered),
            "values": {str(seed): values[seed] for seed in sorted(values)}}


def metric_values(results: dict[int, dict], name: str) -> dict[int, float]:
    return {seed: r["metrics"][name]["value"]
            for seed, r in results.items() if name in r["metrics"]}


def pair_wins(parent: dict[int, float], child: dict[int, float], better: str) -> dict:
    """Over the seeds run on both sides, how often the child is strictly better."""
    seeds = sorted(parent.keys() & child.keys())
    if better == "higher":
        wins = sum(child[s] > parent[s] for s in seeds)
    else:
        wins = sum(child[s] < parent[s] for s in seeds)
    return {"child_better": wins, "pairs": len(seeds)}


def blas_threads() -> str | None:
    """The OpenBLAS thread count perfbench/run.py sets for the processes it
    runs, read from its source text: the result files do not record it."""
    try:
        with open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8") as fh:
            match = BLAS_SETTING.search(fh.read())
    except OSError:
        return None
    return match[1] if match else None


def machine() -> dict:
    """The host that runs this merge, which should be the one that ran the
    benchmark."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def workload_entry(benchmark: dict, parent: dict, child: dict, workload: str) -> dict:
    sides = {"parent": parent, "child": child}
    untraced = {side: runs.get((workload, 0), {}) for side, runs in sides.items()}
    traced = {side: runs.get((workload, 1), {}) for side, runs in sides.items()}
    entry: dict = {"end_to_end": {}}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        row = {"unit": metric["unit"], "better": metric["better"]}
        values = {side: metric_values(results, name) for side, results in untraced.items()}
        for side, side_values in values.items():
            row[side] = summary(side_values) if side_values else None
        if row["parent"] and row["child"]:
            if row["parent"]["median"]:
                row["child_over_parent"] = row["child"]["median"] / row["parent"]["median"]
            row["pairs"] = pair_wins(values["parent"], values["child"], metric["better"])
        entry["end_to_end"][name] = row
    for count in ("failed", "attempted"):
        entry[count] = {side: sum(r[count] for r in results.values())
                        for side, results in untraced.items()}
    if any(traced.values()):
        entry["per_layer"] = {}
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            row = {"unit": metric["unit"], "better": metric["better"]}
            for side, results in traced.items():
                values = list(metric_values(results, name).values())
                row[side] = statistics.median(values) if values else None
                row[side + "_runs"] = len(values)
            entry["per_layer"][name] = row
    return entry


def merge(parent_dir: str, child_dir: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parent, child = load_runs(parent_dir), load_runs(child_dir)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seen = {workload for workload, _ in (*parent, *child)}
    return {
        "machine": machine(),
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {w: workload_entry(benchmark, parent, child, w)
                      for w in workloads if w in seen},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of the parent's result files")
    parser.add_argument("child", help="directory of the child's result files")
    parser.add_argument("--out", required=True, help="file to write")
    args = parser.parse_args(argv)
    merged = merge(args.parent, args.child)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
