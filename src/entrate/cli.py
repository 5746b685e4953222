"""Command-line front end: rate evaluation, optimizers, sweeps, verification.

Exit codes: 0 success, 1 numeric failure (tolerance breach or
non-convergence), 2 input failure (bad files, flags, or dimensions).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import ancilla as anc
from . import optimum as opt
from .oracle import _fd_rates, _norm_1, direct_stats, fd_rate
from .qcore import (
    PureState,
    ValidationError,
    _check_cap,
    _dump_report,
    _hermitians,
    _unit_vectors,
    assemble_state,
    dump_json,
    load_pair,
    schmidt_decompose,
)
from .rate import energy_stats, gamma_rate, mean_energy, schmidt_block

__all__ = ["main"]

LN2 = math.log(2.0)
# Delta H at or below EIGEN_SPREAD eps |H|_1 counts as zero in ``entrate
# rate``.  On eigenstates of random H (n = 4 to 1024, |H| x 1e-4 to x 1e4)
# rounding left Delta H below 3 eps |H|_1; random states lie above
# 1e14 eps |H|_1.
EIGEN_SPREAD = 64


def _check_dims(*dims: int) -> None:
    """Reject a local dimension below 1 or a product above the cap."""
    if min(dims) < 1:
        raise ValidationError("all dimensions must be >= 1")
    _check_cap(math.prod(dims))


def cmd_rate(args: argparse.Namespace, out) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValidationError("tol must be finite and >= 0")
    psi, h = load_pair(args.state, args.hamiltonian)

    state = schmidt_decompose(psi)
    closed = gamma_rate(state, schmidt_block(h, state))
    oracle = fd_rate(psi, h)
    stats = energy_stats(psi, h, state)

    report = {
        "gamma_rate": closed,
        "fd_rate": oracle,
        "difference": closed - oracle,
        "log_base": "nat",
        "tolerance": args.tol,
        "energy_stats": dataclasses.asdict(stats),
    }
    _dump_report(report, {}, out)
    # The rate is bounded by a multiple of Delta H, so the tolerance is
    # relative to that scale; an eigenstate (Delta H = 0) keeps it absolute.
    # |H|_1 is read only once the relative test has failed.
    gap, spread = abs(closed - oracle), math.sqrt(stats.variance)
    if gap <= args.tol * max(abs(closed), spread):
        return 0
    eigenstate = spread <= EIGEN_SPREAD * np.finfo(float).eps * _norm_1(h)
    return 0 if eigenstate and gap <= args.tol else 1


def cmd_optimize(args: argparse.Namespace, out) -> int:
    if args.out == "":
        raise ValidationError("--out must not be empty")
    ancilla = 1 if args.ancilla is None else args.ancilla
    _check_dims(args.dim, args.dim, ancilla, ancilla)
    # An unset --starts takes sup_search's default.
    search = {} if args.starts is None else {"starts": args.starts}
    if args.ancilla is not None:
        if args.out is not None:
            raise ValidationError("--out cannot be used with --ancilla")
        # sup_search checks these too, but names its own parameters.
        if args.dim < 2:
            raise ValidationError("dimension must be >= 2")
        if search.get("starts", 1) < 1:
            raise ValidationError("--starts must be >= 1")
        result = anc.sup_search(args.dim, args.ancilla, **search)
        _dump_report(result.as_dict(), {}, out)
        if result.converged_fraction == 0:
            print("numeric failure: no start converged", file=sys.stderr)
            return 1
        return 0

    if search:
        raise ValidationError("--starts needs --ancilla")
    gamma, rate = opt.optimal_gamma(args.dim)
    psi = assemble_state(opt.build_optimal_state(gamma, args.dim))
    # The Hamiltonian by its nonzero entries: its dense matrix is never built.
    h = ((args.dim**2, args.dim**2), *opt.optimal_hamiltonian_entries(args.dim))
    report = {"gamma_star": gamma, "rate_nat": rate, "rate_bits": rate / LN2,
              "dim": args.dim}
    # A design written to its --out file is reported by its path, not inline.
    designs = {"state": psi, "hamiltonian": h}
    if args.out is not None:
        for key in ("state", "hamiltonian"):
            report[key] = f"{args.out}_{key}.json"
            with open(report[key], "wb") as fh:
                dump_json(designs.pop(key), fh)
    _dump_report(report, designs, out)
    return 0


def _sweep_rows(dim_range: str | None, gamma_grid: int | None, dim: int):
    if dim_range is not None:
        try:
            lo, hi = (int(part) for part in dim_range.split(".."))
        except ValueError:
            raise ValidationError(f"bad dimension range {dim_range!r}, want 'a..b'")
        if lo < 2 or hi < lo:
            raise ValidationError(f"empty or invalid dimension range {dim_range!r}")
        _check_dims(hi, hi)
        for d in range(lo, hi + 1):
            yield d, opt.optimal_gamma(d).rate
    else:
        if gamma_grid < 1:
            raise ValidationError("gamma grid size must be >= 1")
        for i in range(gamma_grid):
            gamma = (i + 1) / (gamma_grid + 1)
            yield gamma, float(opt.gamma_curve(gamma, dim))


def cmd_sweep(args: argparse.Namespace, out) -> int:
    if args.dim is not None and args.dim_range is not None:
        raise ValidationError("--dim cannot be used with --dim-range")
    dim = 2 if args.dim is None else args.dim
    _check_dims(dim, dim)
    if (args.dim_range is None) == (args.gamma_grid is None):
        raise ValidationError("pass exactly one of --dim-range/--gamma-grid")
    rows = list(_sweep_rows(args.dim_range, args.gamma_grid, dim))
    if args.format == "json":
        payload = [
            {"param": p, "rate_nat": r, "rate_bits": r / LN2} for p, r in rows
        ]
        print(json.dumps(payload, indent=2), file=out)
    else:
        print("param,rate_nat,rate_bits", file=out)
        for param, rate in rows:
            print(f"{param:.12g},{rate:.12g},{rate / LN2:.12g}", file=out)
    return 0


# Trials per stacked call in verify: it holds the instances of one block at
# a time, whatever --trials is, about 2 MiB at 256.  Output does not depend
# on it.
_VERIFY_BLOCK = 256


def _blocks(trials: int):
    """The trial indices in consecutive ranges of at most _VERIFY_BLOCK."""
    for start in range(0, trials, _VERIFY_BLOCK):
        yield range(start, min(start + _VERIFY_BLOCK, trials))


def _worst(err: float, errs) -> float:
    """The largest of err and errs, NaN if any of them is NaN."""
    return float(np.max(errs, initial=err))


def _normal_rows(rng: np.random.Generator, block: range, *widths: int) -> list:
    """The next len(block) rows of rng's normals, one per trial, split into
    parts of the given widths."""
    x = rng.normal(size=(len(block), sum(widths)))
    return np.split(x, np.cumsum(widths)[:-1], axis=1)


def _unitaries(x: np.ndarray, dim: int) -> np.ndarray:
    """Q of the QR of the complex Gaussian dim x dim matrix
    x[:, :dim^2] + i x[:, dim^2:] of each row."""
    return np.linalg.qr((x[:, :dim * dim] + 1j * x[:, dim * dim:]).reshape(-1, dim, dim))[0]


def _index_form(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """2 sum_a sum_{b,d} C_ab C_ad log(C_ab / C_ad) G_db over the positive
    entries of C, for each C of a stack (S, K, d) and G of (S, d, d)."""
    both = (c[:, :, :, None] > 0) & (c[:, :, None, :] > 0)
    ratio = np.divide(c[:, :, :, None], c[:, :, None, :], out=np.ones(both.shape), where=both)
    return 2 * np.einsum("sab,sad,sabd,sdb->s", c, c, np.log(ratio), g)


def _verify_checks(seed: int, trials: int, sign: float):
    """Yield (name, worst error, tolerance) for each check of ``verify``.

    The checks fall in four sections j, each of which draws its instances
    from one stream of normals, np.random.default_rng((seed, j)): j = 0 for
    the five checks from ``rate_vs_oracle`` to ``rate_bound_excess``, 1 for
    ``local_unitary_invariance``, 2 for ``lagrange_vs_bruteforce`` and 3 for
    the two ancilla checks.  Section j reads its stream in rows of a fixed
    width w_j (180, 110, 18 and 8), and trial t's instance is row t, the
    values t w_j to (t + 1) w_j - 1.  Section 0's dimensions (d_a, d_b) are
    row t, two values, of the integers of default_rng((seed, 101)).  So a
    trial's instance does not depend on --trials: more trials only add
    instances.  Trials go in blocks of _VERIFY_BLOCK, and within a block
    every check makes one stacked call per (d_a, d_b), the oracle of
    ``rate_vs_oracle`` (its stacked core ``_fd_rates``) and the ancilla
    checks' arbitration included.  A check's error is the maximum over its
    trials, and NaN when any trial's is NaN, so that a NaN fails it.
    """
    rng_dims = np.random.default_rng((seed, 101))
    draws = np.random.default_rng((seed, 0))
    err_rate = err_var = err_mean = err_orth = err_bound = 0.0
    for block in _blocks(trials):
        dims = rng_dims.integers(2, 4, size=(len(block), 2))
        # Each trial draws a state and a Hamiltonian at the largest shape,
        # n = 9; a smaller one reads the first 2n and 2n^2 values of each.
        x_psi, x_h = _normal_rows(draws, block, 2 * 9, 2 * 81)
        groups: dict[tuple[int, int], list[int]] = {}
        for row, shape in enumerate(map(tuple, dims.tolist())):
            groups.setdefault(shape, []).append(row)
        for (d_a, d_b), rows in groups.items():
            n = d_a * d_b
            psi = PureState(d_a=d_a, d_b=d_b, amplitudes=_unit_vectors(x_psi[rows, :2 * n]))
            h = _hermitians(x_h[rows, :2 * n * n], n)
            oracle = _fd_rates(psi.amplitudes[:, None, :, None], h, d_a, d_b)
            state = schmidt_decompose(psi)
            m = schmidt_block(h, state)
            closed = sign * gamma_rate(state, m)
            err_rate = _worst(err_rate, abs(closed - oracle))
            stats = energy_stats(psi, h, state)
            mean_direct, var_direct = direct_stats(psi, h)
            err_var = _worst(err_var, abs(
                var_direct - stats.variance_real_part - stats.variance_imag_part))
            err_mean = _worst(err_mean, abs(mean_energy(state, m) - mean_direct))
            c = state.coefficients
            err_orth = _worst(err_orth, abs(c[..., None, :] @ (m.imag @ c[..., None])))
            bound = opt.max_rate(state) * np.sqrt(stats.variance)
            err_bound = _worst(err_bound, abs(closed) - bound)
    yield "rate_vs_oracle", err_rate, 2e-6
    yield "variance_decomposition", err_var, 1e-9
    yield "mean_energy_vs_direct", err_mean, 1e-10
    yield "auto_orthogonality", err_orth, 1e-12
    yield "rate_bound_excess", err_bound, 1e-9

    draws = np.random.default_rng((seed, 1))
    err_lu = 0.0
    for block in _blocks(trials):
        x_psi, x_h, x_u, x_v = _normal_rows(draws, block, 12, 72, 8, 18)
        psi = PureState(d_a=2, d_b=3, amplitudes=_unit_vectors(x_psi))
        h = _hermitians(x_h, 6)
        state = schmidt_decompose(psi)
        base = sign * gamma_rate(state, schmidt_block(h, state))
        ru = _unitaries(x_u, 2)
        rv = _unitaries(x_v, 3)
        # np.kron(ru, rv) per trial: u[(i, k), (j, l)] = ru[i, j] rv[k, l].
        u = (ru[:, :, None, :, None] * rv[:, None, :, None, :]).reshape(-1, 6, 6)
        psi2 = PureState(d_a=2, d_b=3, amplitudes=(u @ psi.amplitudes[..., None])[..., 0])
        h2 = u @ h @ u.conj().swapaxes(-1, -2)
        state2 = schmidt_decompose(psi2)
        moved = sign * gamma_rate(state2, schmidt_block(h2, state2))
        err_lu = _worst(err_lu, abs(base - moved))
    yield "local_unitary_invariance", err_lu, 1e-9

    draws = np.random.default_rng((seed, 2))
    err_lagr = 0.0
    for block in _blocks(trials):
        (x,) = _normal_rows(draws, block, 18)
        state = schmidt_decompose(PureState(d_a=3, d_b=3, amplitudes=_unit_vectors(x)))
        err_lagr = _worst(err_lagr, abs(opt.max_rate(state) - opt.brute_force_max_k(state)))
    yield "lagrange_vs_bruteforce", err_lagr, 1e-6

    draws = np.random.default_rng((seed, 3))
    err_id = err_arb = 0.0
    for block in _blocks(trials):
        # Per trial, the (2, 2) draw of C, then the (2, 2) draw of G.
        (x,) = _normal_rows(draws, block, 8)
        raw = x.reshape(-1, 2, 2, 2)
        coeffs = anc.AncillaCoeffs.normalized(np.abs(raw[:, 0]) + 0.05)
        g = anc.GBlock.from_matrix(raw[:, 1] - raw[:, 1].swapaxes(-1, -2))
        obj = anc.ancilla_objective(coeffs, g)
        err_id = _worst(err_id, abs(obj - _index_form(coeffs.c, g.g)))
        err_arb = _worst(err_arb, abs(obj - anc.assemble_and_arbitrate(coeffs, g)))
    yield "ancilla_identities", err_id, 1e-12
    yield "ancilla_arbitration", err_arb, 2e-6


def cmd_verify(args: argparse.Namespace, out) -> int:
    if args.trials < 1:
        raise ValidationError("trials must be >= 1")
    if args.seed < 0:
        raise ValidationError("seed must be >= 0")
    sign = -1.0 if args.inject_sign_flip else 1.0
    failures = 0
    lines = []
    for name, err, tol in _verify_checks(args.seed, args.trials, sign):
        ok = err < tol
        failures += 0 if ok else 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'}  {name:<26} max_err={err: .3e}  tol={tol:.1e}"
        )
    for line in lines:
        print(line, file=out)
    print(
        f"{len(lines) - failures}/{len(lines)} checks passed "
        f"(seed={args.seed}, trials={args.trials})",
        file=out,
    )
    return 0 if failures == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built at the first call only: a
    process that calls main repeatedly parses with one tree."""
    parser = argparse.ArgumentParser(
        prog="entrate",
        description="Entanglement rates of bipartite dynamics at unit energy variance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="closed-form vs finite-difference rate of a pair")
    p_rate.add_argument("state", help="pure-state JSON file")
    p_rate.add_argument("hamiltonian", help="Hamiltonian JSON file")
    p_rate.add_argument("--tol", type=float, default=1e-5)
    p_rate.set_defaults(run=cmd_rate)

    p_optimize = sub.add_parser("optimize",
                                help="optimal state and Hamiltonian for a dimension")
    p_optimize.add_argument("--dim", type=int, required=True)
    p_optimize.add_argument("--ancilla", type=int, default=None)
    p_optimize.add_argument("--out", default=None, help="file prefix; not with --ancilla")
    p_optimize.add_argument("--starts", type=int, help="with --ancilla only")
    p_optimize.set_defaults(run=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over dimension or gamma")
    p_sweep.add_argument("--dim", type=int, help="with --gamma-grid only (default 2)")
    p_sweep.add_argument("--dim-range", default=None, help="inclusive range 'a..b'")
    p_sweep.add_argument("--gamma-grid", type=int, default=None)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.set_defaults(run=cmd_sweep)

    p_verify = sub.add_parser("verify", help="cross-module invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--inject-sign-flip", action="store_true",
                          help="negate the closed-form rate (mutation check)")
    p_verify.set_defaults(run=cmd_verify)
    return parser


class _Stdout:
    """sys.stdout for a command.  A write or flush that raises BrokenPipeError,
    its reader gone, sends stdout to os.devnull, as the SIGPIPE note of
    Python's signal docs does: the command runs on to its own exit code, and
    nothing is left to fail at exit.  A bare writer, without flush, is not
    flushed."""

    def write(self, text: str) -> None:
        self._guard(sys.stdout.write, text)

    def flush(self) -> None:
        self._guard(getattr(sys.stdout, "flush", lambda: None))

    @staticmethod
    def _guard(call, *args) -> None:
        try:
            call(*args)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = _Stdout()
    try:
        code = args.run(args, out)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    out.flush()
    return code
