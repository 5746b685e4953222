"""Run one benchmark workload of entrate and print its result.

    python3 perfbench/run.py --workload rate-check --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  The steps run in separate processes, one after another:

1. rate-check only: ``gen_inputs.py`` writes the seed's inputs and
   reference figures;
2. untraced runs only: fresh interpreters import numpy and entrate.cli
   and report the CPU seconds they took to get there;
3. ``workload.py`` runs and checks the operations and reports the rest;
4. untraced runs only: as many fresh interpreters again as in step 2.
   ``setup_s`` is the median over steps 2 and 4.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per layer with
``--trace 1``).  Exits 2 without a result if the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("rate-check", "design-export", "ancilla-search", "verify-small")
# One BLAS thread: the loop is closed and single-client, and one thread
# keeps timings steady on a small shared machine (never above nproc).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Start-ups measured in each of two windows, before and after the workload,
# so one noisy stretch of a shared machine does not set a run's setup_s.
SETUP_SAMPLES = 6
# process_time counts the interpreter's own start-up too: the clock runs
# from process creation.
READY = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy, entrate.cli; "
         "print(repr(time.process_time()), flush=True)")
TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_samples(env: dict, count: int) -> list[float]:
    """CPU seconds each of count fresh interpreters takes to import entrate.cli.

    CPU rather than wall time: on a shared machine the wall time of one
    start-up varied by up to 4x between consecutive samples.
    """
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", READY, SRC], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("an interpreter failed to import entrate.cli")
        samples.append(float(proc.stdout))
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description="entrate benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    if not os.path.isfile(os.path.join(SRC, "entrate", "cli.py")):
        return fail(f"no entrate package under {SRC}")

    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    work = os.path.join(HERE, "inputs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        # The first start-up is not counted: in a fresh checkout it compiles bytecode.
        setup = None if args.trace else setup_samples(env, SETUP_SAMPLES + 1)[1:]
        if args.workload == "rate-check":
            subprocess.run([sys.executable, os.path.join(HERE, "gen_inputs.py"),
                            "--seed", str(args.seed), "--out", work],
                           env=env, check=True, timeout=TIMEOUT_S)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work],
            env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
        if proc.returncode != 0:
            return fail(f"workload process exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if setup is not None:
            setup += setup_samples(env, SETUP_SAMPLES)
            print("setup samples " + " ".join(f"{x:.4f}" for x in setup), file=sys.stderr)
            result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                                 **result["metrics"]}
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        for sub in ("results", "traces"):
            os.makedirs(os.path.join(HERE, sub), exist_ok=True)
        with open(os.path.join(HERE, "results", tag + ".json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        trace = os.path.join(work, "trace.jsonl")
        if os.path.exists(trace):
            os.replace(trace, os.path.join(HERE, "traces", tag + ".jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
