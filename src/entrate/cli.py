"""Command-line front end: rate evaluation, optimizers, sweeps, verification.

Exit codes: 0 success, 1 numeric failure (tolerance breach or
non-convergence), 2 input failure (bad files, flags, or dimensions).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import ancilla as anc
from . import optimum as opt
from .oracle import _norm_1, direct_stats, fd_rate
from .qcore import (
    PureState,
    ValidationError,
    _check_cap,
    _random_amplitudes,
    assemble_state,
    compact_entries,
    dump_json,
    matrix_from_json,
    matrix_json_shape,
    matrix_to_json,
    random_hermitian,
    schmidt_decompose,
    split_compact,
    state_from_json,
    state_json_dims,
    state_to_json,
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


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ValidationError("seed must be >= 0")


def _check_out(out: str | None) -> None:
    if out == "":
        raise ValidationError("--out must not be empty")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _scale(log_base: str) -> float:
    return 1.0 / LN2 if log_base == "2" else 1.0


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "csv":
        for key, value in report.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key},{value}", file=out)
    else:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # Not JSON, not UTF-8, an integer with more digits than int()
            # reads, or lists nested deeper than the recursion limit.
            raise ValidationError(str(exc)) from None


def _read_json(path: str) -> tuple[dict, str | None]:
    """The header and flat entry text of a compact file (see split_compact),
    or any other file parsed whole by json.load, with None for the text.
    The file is read as json.load reads it, so both see the same text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parts = split_compact(fh.read())
        except UnicodeDecodeError:
            parts = None
    return parts if parts is not None else (_load_json(path), None)


def _with_entries(path: str, obj: dict, text: str | None,
                  expected: int) -> tuple[dict, np.ndarray | None]:
    """obj and the entries parsed from its flat text, if it has one.  Text
    that does not parse sends the file through json.load after all, so that
    it fails as it would there."""
    if text is None:
        return obj, None
    entries = compact_entries(text, expected)
    return (obj, entries) if entries is not None else (_load_json(path), None)


def _load_pair(state_path: str, ham_path: str) -> tuple[PureState, np.ndarray]:
    """Decode a (state, Hamiltonian) pair, checking the dimension cap on both
    before any entry of a compact file is parsed, or any entry is decoded."""
    state_obj, state_text = _read_json(state_path)
    ham_obj, ham_text = _read_json(ham_path)
    d_a, d_b = state_json_dims(state_obj)
    rows, cols = matrix_json_shape(ham_obj)
    _check_cap(max(d_a * d_b, rows, cols))
    psi = state_from_json(*_with_entries(state_path, state_obj, state_text, d_a * d_b))
    h = matrix_from_json(*_with_entries(ham_path, ham_obj, ham_text, rows * cols))
    return psi, h


def cmd_rate(args: argparse.Namespace, out) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValidationError("tol must be finite and >= 0")
    psi, h = _load_pair(args.state, args.hamiltonian)

    state = schmidt_decompose(psi)
    block = schmidt_block(h, state)
    closed = gamma_rate(state, block)
    oracle = fd_rate(psi, h)
    stats = energy_stats(psi, h, state)
    scale = _scale(args.log_base)

    report = {
        "gamma_rate": closed * scale,
        "fd_rate": oracle * scale,
        "difference": (closed - oracle) * scale,
        "log_base": args.log_base,
        "tolerance": args.tol,
        "energy_stats": stats.as_dict(),
    }
    _emit(report, args.format, out)
    # The rate is bounded by a multiple of Delta H, so the tolerance is
    # relative to that scale; an eigenstate (Delta H = 0) keeps it absolute.
    # |H|_1 is read only once the relative test has failed.
    gap, spread = abs(closed - oracle), math.sqrt(stats.variance)
    if gap <= args.tol * max(abs(closed), spread):
        return 0
    eigenstate = spread <= EIGEN_SPREAD * np.finfo(float).eps * _norm_1(h)
    return 0 if eigenstate and gap <= args.tol else 1


def cmd_optimize(args: argparse.Namespace, out) -> int:
    _check_out(args.out)
    ancilla = 1 if args.ancilla is None else args.ancilla
    _check_dims(args.dim, args.dim, ancilla, ancilla)
    # Flags of the ancilla search; an unset one takes sup_search's default.
    search = {name: getattr(args, name) for name in ("starts", "max_iter", "seed")
              if getattr(args, name) is not None}
    if args.ancilla is not None:
        if args.out is not None:
            raise ValidationError("--out cannot be used with --ancilla")
        _check_seed(args.seed)
        # sup_search checks these too, but names its own parameters.
        if args.dim < 2:
            raise ValidationError("dimension must be >= 2")
        for name in ("starts", "max_iter"):
            if search.get(name, 1) < 1:
                raise ValidationError(f"{_flag(name)} must be >= 1")
        result = anc.sup_search(args.dim, args.ancilla, **search)
        _emit(result.as_dict(), args.format, out)
        if result.converged_fraction == 0:
            print("numeric failure: no start converged", file=sys.stderr)
            return 1
        return 0

    if search:
        raise ValidationError(f"{_flag(next(iter(search)))} needs --ancilla")
    design = opt.optimal_design(args.dim)
    psi = assemble_state(design.state)
    report = {
        "gamma_star": design.gamma,
        "rate_nat": design.rate,
        "rate_bits": design.rate / LN2,
        "dim": design.d,
    }
    if args.out is not None:
        for key, value in (("state", psi), ("hamiltonian", design.hamiltonian)):
            path = f"{args.out}_{key}.json"
            with open(path, "w", encoding="utf-8") as fh:
                dump_json(value, fh)
            report[key] = path
    else:
        report["state"] = state_to_json(psi)
        report["hamiltonian"] = matrix_to_json(design.hamiltonian)
    _emit(report, args.format, out)
    return 0


def _sweep_rows(dim_range: str | None, gamma_grid: int | None, dim: int):
    if dim_range is not None:
        try:
            lo, hi = (int(part) for part in dim_range.split(".."))
        except ValueError:
            raise ValidationError(f"bad dimension range {dim_range!r}, want 'a..b'")
        if lo < 2 or hi < lo:
            raise ValidationError(f"empty or invalid dimension range {dim_range!r}")
        for d in range(lo, hi + 1):
            yield d, opt.optimal_gamma(d).rate
    else:
        if gamma_grid < 1:
            raise ValidationError("gamma grid size must be >= 1")
        for i in range(gamma_grid):
            gamma = (i + 1) / (gamma_grid + 1)
            yield gamma, float(opt.gamma_curve(np.array([gamma]), dim)[0])


def cmd_sweep(args: argparse.Namespace, out) -> int:
    _check_out(args.out)
    if args.dim is not None and args.dim_range is not None:
        raise ValidationError("--dim cannot be used with --dim-range")
    dim = 2 if args.dim is None else args.dim
    _check_dims(dim, dim)
    if (args.dim_range is None) == (args.gamma_grid is None):
        raise ValidationError("pass exactly one of --dim-range/--gamma-grid")
    rows = list(_sweep_rows(args.dim_range, args.gamma_grid, dim))
    sink = out if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        if args.format == "json":
            payload = [
                {"param": p, "rate_nat": r, "rate_bits": r / LN2} for p, r in rows
            ]
            print(json.dumps(payload, indent=2), file=sink)
        else:
            print("param,rate_nat,rate_bits", file=sink)
            for param, rate in rows:
                print(f"{param:.12g},{rate:.12g},{rate / LN2:.12g}", file=sink)
    finally:
        if sink is not out:
            sink.close()
    return 0


# Trials per stacked call in verify: it holds the instances of one block at
# a time, whatever --trials is.
_VERIFY_BLOCK = 64


def _blocks(trials: int):
    """The trial indices in consecutive ranges of at most _VERIFY_BLOCK."""
    for start in range(0, trials, _VERIFY_BLOCK):
        yield range(start, min(start + _VERIFY_BLOCK, trials))


def _worst(err: float, errs) -> float:
    """The largest of err and errs, NaN if any of them is NaN."""
    return float(np.max(errs, initial=err))


def _random_states(d_a: int, d_b: int, seed: int, block, j: int) -> PureState:
    """One stack of random_state(d_a, d_b, (seed, t, j)) over the trials t,
    validated once as a stack."""
    return PureState(d_a=d_a, d_b=d_b, amplitudes=_random_amplitudes(
        d_a * d_b, [(seed, t, j) for t in block]))


def _random_unitaries(seed: int, block: range, j: int, dim: int) -> np.ndarray:
    """Q of the QR of a complex Gaussian dim x dim matrix per trial, its real
    and imaginary parts drawn from the seeds (seed, t, j) and (seed, t, j + 1)."""
    z = np.stack([np.random.default_rng((seed, t, j)).normal(size=(dim, dim))
                  + 1j * np.random.default_rng((seed, t, j + 1)).normal(size=(dim, dim))
                  for t in block])
    return np.linalg.qr(z)[0]


def _index_form(c: list, g: list) -> float:
    """2 sum_a sum_{b,d} C_ab C_ad log(C_ab / C_ad) G_db over the positive
    entries of C, term by term in Python floats."""
    total = 0.0
    for row in c:
        for b, c_b in enumerate(row):
            for dd, c_d in enumerate(row):
                if c_b > 0 and c_d > 0:
                    total += 2.0 * c_b * c_d * math.log(c_b / c_d) * g[dd][b]
    return total


def _verify_checks(seed: int, trials: int, sign: float):
    """Yield (name, worst error, tolerance) for each check of ``verify``.

    Each check draws its instances per trial t from numpy generators seeded
    (seed, t, j), and its dimensions, where they vary, from one generator
    seeded (seed, 101).  Trials go in blocks of _VERIFY_BLOCK, and within a
    block every check makes one stacked call per (d_a, d_b), the ancilla
    checks' arbitration included.  Only the oracle of ``rate_vs_oracle``,
    the one-instance ``fd_rate``, is called once per trial.  A check's
    error is the maximum over its trials, and NaN when any trial's is NaN,
    so that a NaN fails it.
    """
    rng_dims = np.random.default_rng((seed, 101))
    err_rate = err_var = err_mean = err_orth = err_bound = 0.0
    for block in _blocks(trials):
        groups: dict[tuple[int, int], list[int]] = {}
        for t in block:
            d_a = int(rng_dims.integers(2, 4))
            d_b = int(rng_dims.integers(2, 4))
            groups.setdefault((d_a, d_b), []).append(t)
        for (d_a, d_b), group in groups.items():
            psi = _random_states(d_a, d_b, seed, group, 0)
            h = np.stack([random_hermitian(d_a * d_b, (seed, t, 1)) for t in group])
            oracle = [fd_rate(PureState(d_a=d_a, d_b=d_b, amplitudes=amp), h_t)
                      for amp, h_t in zip(psi.amplitudes, h)]
            state = schmidt_decompose(psi)
            block_m = schmidt_block(h, state)
            closed = sign * gamma_rate(state, block_m)
            err_rate = _worst(err_rate, abs(closed - oracle))
            stats = energy_stats(psi, h, state)
            mean_direct, var_direct = direct_stats(psi, h)
            err_var = _worst(err_var, abs(
                var_direct - stats.variance_real_part - stats.variance_imag_part))
            err_mean = _worst(err_mean, abs(mean_energy(state, block_m) - mean_direct))
            c = state.coefficients
            k = block_m.m_i @ c[..., None]
            err_orth = _worst(err_orth, abs(c[..., None, :] @ k))
            bound = opt.max_rate(state) * np.sqrt(np.maximum(stats.variance, 0.0))
            err_bound = _worst(err_bound, abs(closed) - bound)
    yield "rate_vs_oracle", err_rate, 2e-6
    yield "variance_decomposition", err_var, 1e-9
    yield "mean_energy_vs_direct", err_mean, 1e-10
    yield "auto_orthogonality", err_orth, 1e-12
    yield "rate_bound_excess", err_bound, 1e-9

    err_lu = 0.0
    for block in _blocks(trials):
        psi = _random_states(2, 3, seed, block, 2)
        h = np.stack([random_hermitian(6, (seed, t, 3)) for t in block])
        state = schmidt_decompose(psi)
        base = sign * gamma_rate(state, schmidt_block(h, state))
        ru = _random_unitaries(seed, block, 4, 2)
        rv = _random_unitaries(seed, block, 6, 3)
        # np.kron(ru, rv) per trial: u[(i, k), (j, l)] = ru[i, j] rv[k, l].
        u = (ru[:, :, None, :, None] * rv[:, None, :, None, :]).reshape(-1, 6, 6)
        psi2 = PureState(d_a=2, d_b=3, amplitudes=(u @ psi.amplitudes[..., None])[..., 0])
        h2 = u @ h @ u.conj().swapaxes(-1, -2)
        state2 = schmidt_decompose(psi2)
        moved = sign * gamma_rate(state2, schmidt_block(h2, state2))
        err_lu = _worst(err_lu, abs(base - moved))
    yield "local_unitary_invariance", err_lu, 1e-9

    err_lagr = 0.0
    for block in _blocks(trials):
        state = schmidt_decompose(_random_states(3, 3, seed, block, 8))
        err_lagr = _worst(err_lagr, abs(opt.max_rate(state) - opt.brute_force_max_k(state)))
    yield "lagrange_vs_bruteforce", err_lagr, 1e-6

    err_id = err_arb = 0.0
    for block in _blocks(trials):
        raw_c, raw_g = [], []
        for t in block:
            rng = np.random.default_rng((seed, t, 9))
            raw_c.append(np.abs(rng.normal(size=(2, 2))) + 0.05)
            raw = rng.normal(size=(2, 2))
            raw_g.append(raw - raw.T)
        coeffs = anc.AncillaCoeffs.normalized(np.stack(raw_c))
        g = anc.GBlock.from_matrix(np.stack(raw_g))
        obj = anc.ancilla_objective(coeffs, g)
        index_form = [_index_form(c, g_t) for c, g_t in zip(coeffs.c.tolist(), g.g.tolist())]
        err_id = _worst(err_id, abs(obj - index_form))
        err_arb = _worst(err_arb, abs(obj - anc.assemble_and_arbitrate(coeffs, g)))
    yield "ancilla_identities", err_id, 1e-12
    yield "ancilla_arbitration", err_arb, 2e-6


def cmd_verify(args: argparse.Namespace, out) -> int:
    if args.trials < 1:
        raise ValidationError("trials must be >= 1")
    _check_seed(args.seed)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrate",
        description="Entanglement rates of bipartite dynamics at unit energy variance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ("json", "csv")

    p_rate = sub.add_parser("rate", help="closed-form vs finite-difference rate of a pair")
    p_rate.add_argument("state", help="pure-state JSON file")
    p_rate.add_argument("hamiltonian", help="Hamiltonian JSON file")
    p_rate.add_argument("--tol", type=float, default=1e-5)
    p_rate.add_argument("--log-base", choices=("nat", "2"), default="nat")
    p_rate.add_argument("--format", choices=formats, default="json")
    p_rate.set_defaults(run=cmd_rate)

    p_optimize = sub.add_parser("optimize",
                                help="optimal state and Hamiltonian for a dimension")
    p_optimize.add_argument("--dim", type=int, required=True)
    p_optimize.add_argument("--ancilla", type=int, default=None)
    p_optimize.add_argument("--out", default=None, help="file prefix; not with --ancilla")
    p_optimize.add_argument("--format", choices=formats, default="json")
    p_optimize.add_argument("--starts", type=int, help="with --ancilla only")
    p_optimize.add_argument("--max-iter", type=int, help="with --ancilla only")
    p_optimize.add_argument("--seed", type=int, help="with --ancilla only")
    p_optimize.set_defaults(run=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over dimension or gamma")
    p_sweep.add_argument("--dim", type=int, help="with --gamma-grid only (default 2)")
    p_sweep.add_argument("--dim-range", default=None, help="inclusive range 'a..b'")
    p_sweep.add_argument("--gamma-grid", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=formats, default="csv")
    p_sweep.set_defaults(run=cmd_sweep)

    p_verify = sub.add_parser("verify", help="cross-module invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--inject-sign-flip", action="store_true",
                          help="negate the closed-form rate (mutation check)")
    p_verify.set_defaults(run=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
