"""tools/bench_json.py: merging parent and child perfbench result files."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "bench_json", os.path.join(ROOT, "tools", "bench_json.py"))
bench_json = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_json)


def write_result(directory, workload, seed, trace, metrics, failed=0, attempted=4):
    directory.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": "x"}
                          for name, value in metrics.items()}}
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result))


def synthetic_sets(tmp_path):
    parent, child = tmp_path / "parent", tmp_path / "child"
    for seed, ops in enumerate([1.0, 2.0, 3.0, 4.0, 5.0], start=1):
        write_result(parent, "design-export", seed, 0,
                     {"setup_s": 0.2, "ops_per_s": ops, "peak_rss_mb": 80.0})
        write_result(child, "design-export", seed, 0,
                     {"setup_s": 0.2, "ops_per_s": 10 * ops, "peak_rss_mb": 50.0 + seed},
                     failed=seed % 2)
    write_result(parent, "design-export", 1, 1, {"qcore.encode_s": 0.9})
    write_result(child, "design-export", 1, 1, {"qcore.encode_s": 0.01})
    write_result(child, "design-export", 2, 1, {"qcore.encode_s": 0.03})
    write_result(parent, "rate-check", 1, 0,
                 {"setup_s": 0.3, "ops_per_s": 0.5, "peak_rss_mb": 300.0}, failed=1, attempted=3)
    (parent / "notes.txt").write_text("not a result file")
    return parent, child


def test_merges_medians_quartiles_and_counts(tmp_path):
    parent, child = synthetic_sets(tmp_path)
    out = tmp_path / "BENCH.json"
    assert bench_json.main([str(parent), str(child), "--out", str(out)]) == 0
    merged = json.loads(out.read_text())

    design = merged["workloads"]["design-export"]
    ops = design["end_to_end"]["ops_per_s"]
    assert ops["better"] == "higher" and ops["unit"] == "1/s"
    assert ops["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": 5,
                             "values": {"1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0, "5": 5.0}}
    assert ops["child"] == {"median": 30.0, "q1": 20.0, "q3": 40.0, "runs": 5,
                            "values": {"1": 10.0, "2": 20.0, "3": 30.0, "4": 40.0, "5": 50.0}}
    assert ops["child_over_parent"] == pytest.approx(10.0)
    assert ops["pairs"] == {"child_better": 5, "pairs": 5}
    rss = design["end_to_end"]["peak_rss_mb"]
    assert rss["child"]["median"] == 53.0
    # Lower is better here; and a tie is no win.
    assert rss["pairs"] == {"child_better": 5, "pairs": 5}
    assert design["end_to_end"]["setup_s"]["pairs"] == {"child_better": 0, "pairs": 5}
    assert design["failed"] == {"parent": 0, "child": 3}
    assert design["attempted"] == {"parent": 20, "child": 20}

    encode = design["per_layer"]["qcore.encode_s"]
    assert encode["parent"] == 0.9 and encode["parent_runs"] == 1
    assert encode["child"] == pytest.approx(0.02) and encode["child_runs"] == 2
    assert design["per_layer"]["oracle.fd_rate_s"]["child"] is None

    # A workload run on one side only keeps the other side empty.
    rate = merged["workloads"]["rate-check"]
    assert rate["end_to_end"]["ops_per_s"]["parent"]["runs"] == 1
    assert rate["end_to_end"]["ops_per_s"]["child"] is None
    assert "child_over_parent" not in rate["end_to_end"]["ops_per_s"]
    assert "pairs" not in rate["end_to_end"]["ops_per_s"]
    assert rate["failed"] == {"parent": 1, "child": 0}
    assert "per_layer" not in rate
    assert set(merged["workloads"]) == {"design-export", "rate-check"}

    info = merged["machine"]
    assert info["nproc"] == os.cpu_count()
    assert info["blas_threads"] == "1"
    assert info["python"] and info["platform"]


def test_pairs_count_only_seeds_run_on_both_sides():
    parent = {1: 5.0, 2: 5.0, 3: 5.0}
    child = {2: 6.0, 3: 4.0, 4: 9.0}
    assert bench_json.pair_wins(parent, child, "higher") == {"child_better": 1, "pairs": 2}
    assert bench_json.pair_wins(parent, child, "lower") == {"child_better": 1, "pairs": 2}
