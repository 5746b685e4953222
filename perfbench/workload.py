"""One workload in one process: drive ``entrate.cli.main`` and check it.

Started by ``run.py`` with the checkout's ``src`` importable and the BLAS
thread count fixed in the environment.  Every operation is one
``entrate.cli.main(argv)`` call on inputs written beforehand, one at a
time (a closed loop).  Timed passes repeat the workload's operation list
until ``--seconds`` of operation time have been measured, operation time
being the process's CPU seconds (see ``tracer``); one warm-up
(an operation untraced, a whole pass traced) is run first and not timed.
``gc.collect()`` and the reference checks run between operations,
outside the timed span.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import entrate
from entrate import cli

import reference as ref
from tracer import Tracer

MB = float(1 << 20)


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, str, "Run"], None]
    files: tuple[str, ...] = ()


@dataclass
class Run:
    """Results of the checks over one run."""

    errors: list[str] = field(default_factory=list)
    trust: dict[str, list[float]] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def record(self, name: str, value: float) -> None:
        self.trust.setdefault(name, []).append(float(value))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# --- rate-check ------------------------------------------------------------


def rate_check_ops(inputs: str) -> list[Op]:
    with open(os.path.join(inputs, "pairs.json"), encoding="utf-8") as fh:
        pairs = json.load(fh)

    def checker(pair: dict):
        def check(rc: int, out: str, run: Run) -> None:
            report = json.loads(out)
            name = pair["name"]
            run.expect(rc == 0 or pair["scaled_norm"], f"{name}: exit {rc}")
            run.expect(_close(report["gamma_rate"], pair["rate"], 1e-9),
                       f"{name}: gamma_rate {report['gamma_rate']!r} vs {pair['rate']!r}")
            if not pair["scaled_norm"]:
                run.expect(_close(report["fd_rate"], pair["rate"], 2e-6),
                           f"{name}: fd_rate {report['fd_rate']!r} vs {pair['rate']!r}")
            scale = pair["h_psi_norm"]
            stats = report["energy_stats"]
            run.expect(abs(stats["mean"] - pair["mean"]) <= 1e-9 * scale,
                       f"{name}: mean {stats['mean']!r} vs {pair['mean']!r}")
            run.expect(abs(stats["variance"] - pair["variance"]) <= 1e-9 * scale**2,
                       f"{name}: variance {stats['variance']!r} vs {pair['variance']!r}")
            parts = stats["variance_real_part"] + stats["variance_imag_part"]
            run.expect(abs(stats["variance"] - parts) <= 1e-9 * scale**2,
                       f"{name}: variance {stats['variance']!r} != parts {parts!r}")
        return check

    return [Op(p["name"], ["rate", p["state"], p["hamiltonian"]], checker(p))
            for p in pairs]


# --- design-export -----------------------------------------------------------

DESIGN_DIM = 32


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class DesignExport:
    """optimize --dim 32 --out PREFIX.  Every timed operation's files must be
    byte-identical to the warm-up's; the last pair written is parsed and
    checked after the peak RSS is read."""

    def __init__(self, work: str) -> None:
        prefix = os.path.join(work, "design")
        self.op = Op(f"dim{DESIGN_DIM}", ["optimize", "--dim", str(DESIGN_DIM), "--out", prefix],
                     self.check, (prefix + "_state.json", prefix + "_hamiltonian.json"))
        self.digests: tuple[str, ...] | None = None
        self.gamma = ref.gamma_star(DESIGN_DIM)
        self.rate = ref.gamma_curve(self.gamma, DESIGN_DIM)
        self.gamma_reported = self.rate_reported = math.nan

    def check(self, rc: int, out: str, run: Run) -> None:
        report = json.loads(out)
        run.expect(rc == 0, f"design: exit {rc}")
        run.expect(report["dim"] == DESIGN_DIM, f"design: dim {report['dim']!r}")
        run.record("optimum.gamma_abs_err", abs(report["gamma_star"] - self.gamma))
        run.expect(abs(report["gamma_star"] - self.gamma) <= 1e-7,
                   f"design: gamma_star {report['gamma_star']!r} vs {self.gamma!r}")
        run.expect(_close(report["rate_nat"], self.rate, 1e-9),
                   f"design: rate_nat {report['rate_nat']!r} vs {self.rate!r}")
        run.expect(_close(report["rate_bits"], report["rate_nat"] / math.log(2), 1e-12),
                   "design: rate_bits is not rate_nat in bits")
        run.expect((report["state"], report["hamiltonian"]) == self.op.files,
                   "design: files written elsewhere than --out asked")
        digests = tuple(_digest(p) for p in self.op.files)
        if self.digests is None:
            self.digests = digests
            self.gamma_reported = report["gamma_star"]
            self.rate_reported = report["rate_nat"]
        else:
            run.expect(digests == self.digests,
                       "design: written files differ from the warm-up operation's")

    def check_files(self, run: Run) -> None:
        """Parse the last files written and check the design they hold."""
        d = DESIGN_DIM
        with open(self.op.files[0], encoding="utf-8") as fh:
            state = json.load(fh)
        psi = _complex(state["re_im"])
        run.expect(state["d_a"] == d and state["d_b"] == d and psi.size == d * d,
                   "design: state has the wrong shape")
        run.expect(abs(np.linalg.norm(psi) - 1.0) <= 1e-12, "design: state not normalized")
        gamma = self.gamma_reported
        want = np.array([math.sqrt(gamma)] + [math.sqrt((1 - gamma) / (d - 1))] * (d - 1))
        got = np.linalg.svd(psi.reshape(d, d), compute_uv=False)
        run.expect(np.max(np.abs(got - np.sort(want)[::-1])) <= 1e-12,
                   "design: Schmidt coefficients are not (sqrt(g), sqrt((1-g)/(d-1)), ...)")
        with open(self.op.files[1], encoding="utf-8") as fh:
            ham = json.load(fh)
        n = d * d
        run.expect(ham["rows"] == n and ham["cols"] == n, "design: H has the wrong shape")
        h = _complex(ham["re_im"]).reshape(n, n)
        del ham
        run.expect(np.max(np.abs(h - h.conj().T)) <= 1e-12, "design: H is not Hermitian")
        run.expect(abs(np.trace(h)) <= 1e-12, "design: H is not traceless")
        h_psi = h @ psi
        del h
        _, variance = ref.energy_moments(psi, h_psi)
        run.expect(abs(variance - 1.0) <= 1e-9, f"design: variance {variance!r} at the state")
        rate = ref.exact_rate(psi, h_psi, d, d)
        run.expect(_close(rate, self.rate_reported, 1e-9),
                   f"design: exact rate {rate!r} vs rate_nat {self.rate_reported!r}")


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


# --- ancilla-search ----------------------------------------------------------

# (d, K) with sup_search's seed left at its default, so the workload does not
# depend on --seed: its random starts move the time of one (6, 6) search
# between 2.3 s and 5.6 s across seeds.
ANCILLA_CASES = ((4, 2), (4, 4), (5, 3), (6, 6))


def ancilla_ops() -> list[Op]:
    return [Op(f"d{d}k{k}",
               ["optimize", "--dim", str(d), "--ancilla", str(k), "--starts", "4"],
               ancilla_checker(d, k))
            for d, k in ANCILLA_CASES]


def ancilla_checker(d: int, k: int):
    floor = ref.gamma_curve(ref.gamma_star(d), d)

    def check(rc: int, out: str, run: Run) -> None:
        report = json.loads(out)
        run.expect(rc == 0, f"ancilla {d},{k}: exit {rc}")
        c = np.asarray(report["c_star"], dtype=float)
        run.expect(c.shape == (k, d), f"ancilla {d},{k}: C has shape {c.shape}")
        g = ref.antisymmetric_from_upper(report["g_star_upper"], d)
        norm_sq = float(np.linalg.norm(c @ g) ** 2)
        run.expect(abs(norm_sq - 1.0) <= 1e-8, f"ancilla {d},{k}: |CG|^2 = {norm_sq!r}")
        value = report["value_nat"]
        gap = abs(ref.assembled_ancilla_rate(c, g) - value)
        run.record("ancilla.arbitration_gap", gap)
        run.expect(gap <= 1e-6, f"ancilla {d},{k}: assembled rate off by {gap!r}")
        run.expect(value >= floor - 1e-6,
                   f"ancilla {d},{k}: value {value!r} below the no-ancilla {floor!r}")
        run.record("ancilla.converged_fraction", report["converged_fraction"])
        iterations = report.get("diagnostics", {}).get("iterations")
        if iterations is not None:
            run.record("ancilla.iterations", iterations)
    return check


# --- verify-small ------------------------------------------------------------

VERIFY_SEEDS = 8


def check_verify(rc: int, out: str, run: Run) -> None:
    lines = out.strip().splitlines()
    checks, summary = lines[:-1], lines[-1] if lines else ""
    run.expect(rc == 0, f"verify: exit {rc}")
    run.expect(len(checks) >= 9 and all(line.startswith("PASS") for line in checks),
               "verify: not every check passed")
    run.expect(summary.startswith(f"{len(checks)}/{len(checks)} checks passed"),
               f"verify: summary {summary!r}")


def verify_ops(seed: int) -> list[Op]:
    return [Op(f"seed{s}", ["verify", "--trials", "100", "--seed", str(s)], check_verify)
            for s in range(seed * VERIFY_SEEDS, (seed + 1) * VERIFY_SEEDS)]


def check_sign_flip(seed: int, run: Run) -> None:
    """--inject-sign-flip must make verify fail on rate_vs_oracle."""
    rc, out = call(["verify", "--trials", "20", "--seed", str(seed), "--inject-sign-flip"])
    flagged = any(line.startswith("FAIL") and "rate_vs_oracle" in line
                  for line in out.splitlines())
    run.expect(rc == 1 and flagged, f"verify --inject-sign-flip: exit {rc}, not flagged")


# --- driving the program -----------------------------------------------------


def call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def output_bytes(text: str, files: tuple[str, ...]) -> int:
    return len(text.encode("utf-8")) + sum(os.path.getsize(p) for p in files)


def check_captured(tracer: Tracer, run: Run) -> None:
    """Compare the oracle and gamma* calls seen in the last operation."""
    for metric, args, kwargs, result in tracer.captured:
        if metric == "oracle.fd_rate":
            psi, h = args[0], np.asarray(args[1])
            want = ref.exact_rate(psi.amplitudes, h @ psi.amplitudes, psi.d_a, psi.d_b)
            run.record("oracle.fd_rel_gap", abs(result - want) / abs(want))
        else:
            d = args[0] if args else kwargs["d"]
            run.record("optimum.gamma_abs_err", abs(result.gamma - ref.gamma_star(d)))
    tracer.captured.clear()


def time_lambda_sq(out: str, run: Run) -> None:
    """One public lambda_sq call at the C* the search returned."""
    report = json.loads(out)
    coeffs = entrate.AncillaCoeffs.normalized(np.asarray(report["c_star"], dtype=float))
    start = time.process_time()
    entrate.lambda_sq(coeffs, report["regularization"])
    run.record("ancilla.lambda_sq", time.process_time() - start)


PER_LAYER = (
    ("qcore.decode_s", "s"), ("qcore.decode_alloc_mb", "MB"),
    ("qcore.encode_s", "s"), ("qcore.schmidt_decompose_s", "s"),
    ("rate.schmidt_block_s", "s"), ("rate.schmidt_block_alloc_mb", "MB"),
    ("rate.energy_stats_s", "s"), ("rate.energy_stats_alloc_mb", "MB"),
    ("rate.gamma_rate_s", "s"),
    ("oracle.fd_rate_s", "s"), ("oracle.fd_rate_alloc_mb", "MB"),
    ("oracle.fd_rel_gap", "1"),
    ("optimum.optimal_gamma_s", "s"), ("optimum.build_optimal_hamiltonian_s", "s"),
    ("optimum.brute_force_max_k_s", "s"), ("optimum.gamma_abs_err", "1"),
    ("ancilla.sup_search_s", "s"), ("ancilla.iterations", "count"),
    ("ancilla.converged_fraction", "1"), ("ancilla.lambda_sq_s", "s"),
    ("ancilla.recover_g_s", "s"), ("ancilla.assemble_and_arbitrate_s", "s"),
    ("ancilla.arbitration_gap", "1"),
    ("cli.json_load_s", "s"), ("cli.json_dump_s", "s"), ("cli.self_s", "s"),
    ("cli.output_mb", "MB"),
)


def layer_metrics(tracer: Tracer, run: Run, timed: set[int], output: list[int]) -> dict:
    """Per-layer figures; a layer the workload never reaches reads 0."""
    busy = tracer.busy_by_op()
    values = {}
    for name, unit in PER_LAYER:
        base = name.rsplit("_", 1)[0]
        if name.endswith("_alloc_mb"):
            value = tracer.alloc_peak.get(name[: -len("_alloc_mb")], 0) / MB
        elif name == "ancilla.lambda_sq_s":
            value = statistics.median(run.trust.get("ancilla.lambda_sq", [0.0]))
        elif name.endswith("_s"):
            value = statistics.median(busy[op].get(base, 0.0) for op in timed)
        elif name == "cli.output_mb":
            value = statistics.median(output) / MB
        elif name == "ancilla.iterations":
            value = statistics.median(run.trust.get(name, [0]))
        elif name == "ancilla.converged_fraction":
            seen = run.trust.get(name, [0.0])
            value = sum(seen) / len(seen)
        else:
            value = max(run.trust.get(name, [0.0]))
        values[name] = {"value": value, "unit": unit}
    return values


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    args = parser.parse_args()
    traced = bool(args.trace)

    run = Run()
    design = None
    if args.workload == "rate-check":
        ops = rate_check_ops(args.work)
    elif args.workload == "design-export":
        design = DesignExport(args.work)
        ops = [design.op]
    elif args.workload == "ancilla-search":
        ops = ancilla_ops()
    else:
        ops = verify_ops(args.seed)
    log(f"blas_threads={blas_threads()} workload={args.workload} seed={args.seed}")

    tracer = Tracer()
    if traced:
        tracer.install(entrate)
    output: list[int] = []
    failed = 0

    def run_op(op: Op, warmup: bool) -> float:
        nonlocal failed
        gc.collect()
        start = time.process_time()
        rc, out = tracer.run_op(op.label, warmup, lambda: call(op.argv))
        elapsed = time.process_time() - start
        if not warmup:
            output.append(output_bytes(out, op.files))
            failed += rc != 0
        op.check(rc, out, run)
        if traced:
            check_captured(tracer, run)
            if args.workload == "ancilla-search":
                time_lambda_sq(out, run)
        return elapsed

    # Warm-up: one operation, or in a traced run one pass that also
    # measures peak allocations (tracemalloc would distort its timings).
    tracer.measure_alloc = traced
    for op in ops if traced else ops[:1]:
        run_op(op, warmup=True)
    tracer.measure_alloc = False
    run.trust.pop("ancilla.lambda_sq", None)

    op_time = 0.0
    attempted = 0
    while attempted == 0 or op_time < args.seconds:
        for op in ops:
            op_time += run_op(op, warmup=False)
            attempted += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if design is not None:
        design.check_files(run)
    if args.workload == "verify-small":
        check_sign_flip(args.seed, run)

    ops_per_s = attempted / op_time
    log(f"attempted={attempted} op_time={op_time:.3f}s ops_per_s={ops_per_s:.5f} "
        f"traced={traced}")
    for error in run.errors[:20]:
        log(f"check failed: {error}")
    if traced:
        timed = {o["op"] for o in tracer.ops if not o["warmup"]}
        metrics = layer_metrics(tracer, run, timed, output)
        tracer.write(os.path.join(args.work, "trace.jsonl"))
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not run.errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
