"""Ancilla-assisted rate optimization over one family of designs.

The family: states sum_ab C_ab |a>_A' |b>_A |b>_B |a>_B' with a
nonnegative coefficient matrix C (row a is the ancilla label), and
H = I (x) H_AB (x) I with H_AB = iG on the Schmidt-diagonal |bb> block,
G real antisymmetric.  The rate objective and the variance constraint
are matrix expressions in (C, G, K) with K = C log C, which this module
evaluates, maximizes over G in closed form, maximizes over C
numerically, and arbitrates against the finite-difference oracle on the
assembled global system, whose I (x) H_AB (x) I the oracle applies
factor by factor and never builds.  The fixed-C maximum and its gradient
take a stack of matrices, so the search over C ascends all its starts at
once, one stacked SVD per step.  The coefficients, blocks, objective,
constraint and arbitration take stacks too, in the package's convention
(see ``qcore``): leading axes index instances, and each slice holds the
bits of the call on that slice alone.

The family's supremum is f(d) = ``optimal_gamma(d).rate``, the optimum
without ancillas.  I (x) H_AB (x) I keeps each ancilla row a apart, so
rho_A'A is block-diagonal over the rows and the rate is
sum_a w_a^2 Gamma_a, w_a = |C_a|.  The law of total variance gives
DeltaH^2 >= sum_a w_a^2 DeltaH_a^2, each row has Gamma_a <= f(d) DeltaH_a
as ``max_rate`` <= f(d), and Jensen's inequality gives Gamma <= f(d) DeltaH.
Equality holds at rank-one C = u c*^T with the no-ancilla generator.  This
bounds the family only, not general states on A'A x BB'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .optimum import optimal_gamma
from .oracle import _fd_rates
from .qcore import (
    ValidationError,
    _check_cap,
    _check_hermitian,
    _dot,
    _log_positive,
    _scalar,
)

__all__ = [
    "AncillaCoeffs",
    "GBlock",
    "AncillaOptimum",
    "SingularityError",
    "ancilla_objective",
    "variance_constraint",
    "lambda_sq",
    "recover_g",
    "sup_search",
    "assemble_and_arbitrate",
]

# (regularization, entry floor) pairs applied in order during sup_search.
ANNEAL_SCHEDULE = ((1e-4, 1e-4), (1e-7, 1e-6), (1e-10, 1e-8))
SINGULARITY_COND_LIMIT = 1e12
# sup_search ascends its starts in stacks of at most this many.
_START_BLOCK = 64


class SingularityError(ValidationError):
    """Unregularized evaluation hit a numerically singular C^T C."""


def _xlogx(c: np.ndarray) -> np.ndarray:
    """Entrywise C log C for nonnegative C, zero where C is zero."""
    return c * _log_positive(c)


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack of shape (..., K, d),
    computed as np.linalg.norm computes it for one matrix: the square root
    of the flattened matrix's dot product with itself, so each norm keeps
    its bits."""
    f = x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])
    return np.sqrt(_dot(f, f))


@dataclass(frozen=True)
class AncillaCoeffs:
    """Nonnegative coefficient matrix C with unit Frobenius norm, or a stack
    of them of shape (..., K, d).

    ``k`` is the derived entrywise matrix C log C, zero where C is zero.
    """

    c: np.ndarray
    k: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim < 2:
            raise ValidationError("coefficient matrix must be 2-D")
        # A NaN entry passes here and fails the norm check below.
        if c.size and c.min() < 0:
            raise ValidationError("coefficient entries must be nonnegative")
        # Written so that a NaN or infinite entry fails too.
        if not (np.abs(_norms(c) - 1.0) <= 1e-12).all():
            raise ValidationError("coefficient matrix must have unit Frobenius norm")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "k", _xlogx(c))

    @property
    def d_ancilla(self) -> int:
        return int(self.c.shape[-2])

    @property
    def d_a(self) -> int:
        return int(self.c.shape[-1])

    @classmethod
    def normalized(cls, raw: np.ndarray) -> "AncillaCoeffs":
        """raw divided by its Frobenius norm, slice by slice for a stack."""
        raw = np.asarray(raw, dtype=float)
        if raw.ndim < 2:
            raise ValidationError("coefficient matrix must be 2-D")
        norm = _norms(raw)[..., None, None]
        if (norm == 0.0).any():
            raise ValidationError("coefficient matrix must be nonzero")
        # A NaN or infinite entry is left to the unit-norm check, undivided:
        # dividing by an infinite norm only adds a RuntimeWarning first.
        c = raw.copy()
        np.divide(raw, norm, out=c, where=np.isfinite(norm))
        return cls(c=c)


def _strict_upper(d: int) -> np.ndarray:
    """Mask of the strict upper triangle of a d x d matrix; indexing by it
    visits the entries in row-major order, as np.triu_indices(d, 1) does."""
    return np.arange(d)[:, None] < np.arange(d)


@dataclass(frozen=True)
class GBlock:
    """Real antisymmetric block stored by its strict upper triangle, or a
    stack of them: ``upper`` has shape (..., d (d - 1) / 2).

    ``g`` is the d x d matrix, or the stack of them, built once at
    construction: the upper triangle placed in a zero matrix, minus its
    transpose.
    """

    upper: np.ndarray
    d: int
    g: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        expected = self.d * (self.d - 1) // 2
        if upper.shape[-1] != expected:
            raise ValidationError(
                f"expected {expected} upper-triangle entries, got {upper.shape[-1]}"
            )
        if not np.isfinite(upper).all():
            raise ValidationError("block entries must be finite")
        m = np.zeros((*upper.shape[:-1], self.d, self.d))
        m[..., _strict_upper(self.d)] = upper
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "g", m - m.swapaxes(-1, -2))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "GBlock":
        """Block of (m - m^T) / 2 for a finite real m, or a stack of them,
        antisymmetric within rounding: i m Hermitian by qcore's rule."""
        m = np.asarray(m, dtype=float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValidationError("block must be a square matrix")
        # Finiteness first, so that 1j * inf (a 0 * inf) is never computed.
        if not np.isfinite(m).all():
            raise ValidationError("block must be finite and antisymmetric")
        _check_hermitian(1j * m, "block must be finite and antisymmetric")
        sym = (m - m.swapaxes(-1, -2)) / 2.0
        return cls(upper=sym[..., _strict_upper(m.shape[-1])], d=m.shape[-1])


@dataclass(frozen=True)
class AncillaOptimum:
    """Best ancilla-assisted rate found by the supremum search."""

    value: float
    lambda1: float
    c_star: AncillaCoeffs
    g_star: GBlock
    starts: int
    converged_fraction: float
    regularization: float
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "value_nat": self.value,
            "value_bits": self.value / math.log(2.0),
            "lambda1": self.lambda1,
            "c_star": [[float(x) for x in row] for row in self.c_star.c],
            "g_star_upper": [float(x) for x in self.g_star.upper],
            "starts": self.starts,
            "converged_fraction": self.converged_fraction,
            "regularization": self.regularization,
            "diagnostics": self.diagnostics,
        }


# --- objective, constraint, and the fixed-C inner maximum ------------------


def _check_pair(coeffs: AncillaCoeffs, g: GBlock) -> None:
    if g.d != coeffs.d_a:
        raise ValidationError("block dimension does not match the coefficients")
    if g.upper.shape[:-1] != coeffs.c.shape[:-2]:
        raise ValidationError("block stack does not match the coefficient stack")


def ancilla_objective(coeffs: AncillaCoeffs, g: GBlock) -> float | np.ndarray:
    """Rate of the (C, G) pair: 2 tr((K^T C - C^T K) G).

    Equals the double sum
    2 sum_a sum_{b,d} C_ab C_ad log(C_ab / C_ad) G_db identically, and
    the finite-difference rate of the assembled system arbitrates the
    convention (see :func:`assemble_and_arbitrate`).  A float for one
    pair, an array over the stack for a stack.
    """
    _check_pair(coeffs, g)
    c, k = coeffs.c, coeffs.k
    a = k.swapaxes(-1, -2) @ c - c.swapaxes(-1, -2) @ k
    return _scalar(2.0 * np.trace(a @ g.g, axis1=-2, axis2=-1))


def variance_constraint(coeffs: AncillaCoeffs, g: GBlock) -> float | np.ndarray:
    """Squared Frobenius norm |C G|_F^2 (the unit-variance constraint): a
    float for one pair, an array over the stack for a stack."""
    _check_pair(coeffs, g)
    # float_power squares by C pow, as ``**`` does on one numpy float;
    # ``**`` on an array multiplies, which differs in the last bit at times.
    return _scalar(np.float_power(_norms(coeffs.c @ g.g), 2))


def _pair_data(
    c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """K = C log C, eigenvalues b and eigenvectors O of C^T C, and A rotated,
    for each C of a stack of shape (S, K, d).

    The eigenpairs come from the SVD C = U S O^T, so C O = U S is exact
    zero on null directions of C: there A' vanishes identically instead
    of at rounding level, which 1/eps would amplify in G* and its
    gradient when C has fewer rows than columns.
    """
    k = _xlogx(c)
    u, s, vt = np.linalg.svd(c)
    rank = s.shape[1]
    evals = np.zeros((c.shape[0], c.shape[2]))
    evals[:, :rank] = s**2
    c_rot = np.zeros_like(c)
    c_rot[:, :, :rank] = u[:, :, :rank] * s[:, None, :]
    evecs = vt.transpose(0, 2, 1)
    k_rot = k @ evecs
    a_rot = c_rot.transpose(0, 2, 1) @ k_rot - k_rot.transpose(0, 2, 1) @ c_rot
    return k, evals, evecs, a_rot


def _inner_max(
    c: np.ndarray, regularization: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda1 = sqrt(lambda_sq), the maximizer G* before antisymmetrization,
    and K = C log C, for each C of a stack of shape (S, K, d), from one
    stacked SVD.

    With W_ij = 1/(b_i + b_j + 2 eps), zero on the diagonal and where the
    denominator is not positive, lambda_sq = 2 sum A'^2 o W and
    G* = O (2 A' o W / lambda1) O^T.  No objective (lambda1 = 0) gives
    G* = 0.
    """
    if not regularization >= 0:
        raise ValidationError("regularization must be >= 0")
    k, evals, evecs, a_rot = _pair_data(c)
    den = evals[:, :, None] + evals[:, None, :] + 2.0 * regularization
    w = np.zeros_like(den)
    np.divide(1.0, den, out=w, where=den > 1e-300)
    w.reshape(len(w), -1)[:, :: w.shape[1] + 1] = 0.0  # the diagonals
    # Each slice summed as one flat row, in the order np.sum takes a matrix.
    lambda1 = np.sqrt(2.0 * (a_rot**2 * w).reshape(len(w), -1).sum(axis=1))
    g_rot = np.zeros_like(w)
    scale = lambda1[:, None, None]
    np.divide(2.0 * a_rot * w, scale, out=g_rot, where=scale > 0.0)
    return lambda1, evecs @ g_rot @ evecs.transpose(0, 2, 1), k


def _value_and_grad(
    c: np.ndarray, regularization: float
) -> tuple[np.ndarray, np.ndarray]:
    """value(C) = 2 sqrt(lambda_sq) and its gradient in C, for each C of a
    stack of shape (S, K, d), from one stacked SVD.

    By Danskin's envelope theorem the gradient is that of
    objective - lambda1 (|CG|^2 + eps |G|^2) at the fixed maximizer G*,
    whose multiplier is lambda1 because the objective is linear in G:

        -4 K G* + 4 (C G*) o (log C + 1) - 2 lambda1 C G* G*^T.

    C must be entrywise positive (``sup_search`` floors it) unless its
    objective vanishes; then G* = 0 and the value and gradient are zero.
    """
    lambda1, g, k = _inner_max(c, regularization)
    cg = c @ g
    penalty = 2.0 * lambda1[:, None, None] * (cg @ g.transpose(0, 2, 1))
    grad = 4.0 * (cg * (_log_positive(c) + 1.0) - k @ g) - penalty
    return 2.0 * lambda1, grad


def _one_matrix(coeffs: AncillaCoeffs) -> np.ndarray:
    if coeffs.c.ndim != 2:
        raise ValidationError("takes one coefficient matrix, not a stack")
    return coeffs.c


def lambda_sq(coeffs: AncillaCoeffs, regularization: float) -> float:
    """Exact fixed-C maximum of (objective/2)^2 over antisymmetric G.

    The maximization of the objective under the regularized constraint
    |CG|_F^2 + eps |G|_F^2 = 1 decouples into independent coordinate
    pairs in the eigenbasis of B = C^T C, giving

        sum_{i<j} 4 A'_ij^2 / (b_i + b_j + 2 eps)

    with A = C^T K - K^T C rotated into that eigenbasis.  A vanishes on
    null-space pairs of B, so the value stays finite for eps > 0 even
    when B is singular; eps = 0 requires a well-conditioned B.  Takes one
    coefficient matrix, not a stack.
    """
    c = _one_matrix(coeffs)
    if regularization == 0.0:
        evals = np.linalg.eigvalsh(c.T @ c)
        smallest = float(evals.min())
        if smallest <= 0 or float(evals.max()) / smallest > SINGULARITY_COND_LIMIT:
            raise SingularityError(
                "C^T C is numerically singular; pass a positive regularization"
            )
    return float(_inner_max(c[None], regularization)[0][0]) ** 2


def recover_g(coeffs: AncillaCoeffs, regularization: float) -> GBlock:
    """Maximizer G of the fixed-C problem, antisymmetrized exactly.

    Solves the pairwise stationarity conditions in the eigenbasis of
    C^T C: G'_ij = 2 A'_ij / ((b_i + b_j + 2 eps) lambda1), rotated back,
    with lambda1 the fixed-C maximum of C itself.  Returns the zero block
    when the objective vanishes.  Takes one coefficient matrix, not a
    stack.
    """
    return GBlock.from_matrix(_inner_max(_one_matrix(coeffs)[None], regularization)[1][0])


# --- supremum over coefficient matrices ------------------------------------


def _embedding_seed(
    gamma: float, d_a: int, d_ancilla: int, fill: float
) -> np.ndarray:
    """No-ancilla optimal coefficients (weight gamma) in row 0, floor elsewhere."""
    row = [math.sqrt(gamma)] + [math.sqrt((1.0 - gamma) / (d_a - 1))] * (d_a - 1)
    c = np.full((d_ancilla, d_a), fill)
    c[0, :] = row
    return c


def _ascend(
    c: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Projected gradient ascent of a stack of starts through ANNEAL_SCHEDULE.

    Returns each start's final C and its value at the last regularization,
    whether it converged in some round, and the ascent steps summed over
    starts.  Step size, acceptance and convergence are kept per start, and
    each step evaluates the starts still running in one stack, so every
    start follows the path it would follow alone.  A start stops for the
    round when its gradient vanishes or its step falls below 1e-10; the
    next round starts from the step where it stopped.
    """
    step = np.full(len(c), 0.05)
    value = np.empty(len(c))
    ok = np.zeros(len(c), dtype=bool)
    iterations = 0
    for eps, delta in ANNEAL_SCHEDULE:
        c = np.clip(c, delta, None)
        c = c / _norms(c)[:, None, None]
        # The running starts' indices and state, compacted when some stop.
        run, r_c, r_step = np.arange(len(c)), c, step
        r_value, r_grad = _value_and_grad(c, eps)
        for _ in range(max_iter):
            iterations += run.size
            norm = _norms(r_grad)
            # A vanishing gradient stops its start before any trial step:
            # its trial is evaluated with the rest but never taken.
            flat = norm < 1e-12
            norm = np.where(flat, 1.0, norm)[:, None, None]
            trial = np.clip(r_c + r_step[:, None, None] * r_grad / norm, delta, None)
            trial = trial / _norms(trial)[:, None, None]
            trial_value, trial_grad = _value_and_grad(trial, eps)
            up = (trial_value > r_value) & ~flat
            r_c = np.where(up[:, None, None], trial, r_c)
            r_value = np.where(up, trial_value, r_value)
            r_grad = np.where(up[:, None, None], trial_grad, r_grad)
            halved = np.where(flat, r_step, r_step * 0.5)
            r_step = np.where(up, np.minimum(r_step * 1.05, 0.25), halved)
            stop = flat | (~up & (r_step < 1e-10))
            if stop.any():
                done = run[stop]
                ok[done] = True
                c[done] = r_c[stop]
                value[done] = r_value[stop]
                step[done] = r_step[stop]
                keep = ~stop
                run, r_c, r_value, r_grad, r_step = (
                    run[keep], r_c[keep], r_value[keep], r_grad[keep], r_step[keep]
                )
                if not run.size:
                    break
        c[run], value[run], step[run] = r_c, r_value, r_step
    return c, value, ok, iterations


def sup_search(
    d_a: int,
    d_ancilla: int,
    starts: int = 8,
    seed: Any = 0,
    max_iter: int = 300,
) -> AncillaOptimum:
    """Search sup over C of the ancilla-assisted rate 2 sqrt(lambda_sq).

    Multi-start projected gradient ascent over nonnegative C with unit
    Frobenius norm; entries are floored at delta and the regularization
    is annealed toward zero across refinement rounds.  Start 0 embeds
    the no-ancilla optimum, so the result never falls below it (up to
    solver tolerance).  Gradients are exact: by the envelope theorem the
    gradient of the fixed-C maximum is the partial C-gradient of the
    Lagrangian at the closed-form maximizer G*, so each evaluation of
    the value also yields its gradient from the same SVD of C.

    The starts ascend together, in blocks of at most ``_START_BLOCK``, so
    that each step runs one stacked SVD over the starts still active and
    memory does not grow with ``starts``.  Each start's path, and so the
    result, is the one it would follow alone; of equal values the first
    start's wins.  The step size is not reset between anneal rounds: the
    first round ends once the step has fallen below 1e-10, so the later rounds
    mostly re-floor C and re-evaluate it, with one to three trial steps
    each.
    """
    if d_a < 2:
        raise ValidationError("d_a must be >= 2")
    if d_ancilla < 1:
        raise ValidationError("d_ancilla must be >= 1")
    if starts < 1:
        raise ValidationError("starts must be >= 1")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")

    shape = (d_ancilla, d_a)
    no_ancilla = optimal_gamma(d_a)
    best_value = -math.inf
    best_c: np.ndarray | None = None
    converged = 0
    total_iterations = 0
    final_eps = ANNEAL_SCHEDULE[-1][0]

    for first in range(0, starts, _START_BLOCK):
        block = []
        for start in range(first, min(first + _START_BLOCK, starts)):
            if start == 0:
                fill = ANNEAL_SCHEDULE[0][1]
                block.append(_embedding_seed(no_ancilla.gamma, d_a, d_ancilla, fill))
            else:
                rng = np.random.default_rng((seed, start))
                block.append(np.abs(rng.normal(size=shape)) + 0.01)
        c = np.stack(block)
        c, value, ok, iterations = _ascend(c / _norms(c)[:, None, None], max_iter)
        converged += int(ok.sum())
        total_iterations += iterations
        # The last anneal round runs at final_eps, so value is the final value.
        best = int(np.argmax(value))
        if value[best] > best_value:
            best_value = float(value[best])
            best_c = c[best]

    assert best_c is not None
    coeffs = AncillaCoeffs.normalized(best_c)
    g_star = recover_g(coeffs, final_eps)
    # G* rescaled to |C G|_F = 1 is feasible at eps = 0; a zero G* stays zero.
    scale = math.sqrt(variance_constraint(coeffs, g_star)) or 1.0
    unregularized = ancilla_objective(coeffs, GBlock(upper=g_star.upper / scale, d=d_a))
    return AncillaOptimum(
        value=best_value,
        lambda1=best_value / 2.0,
        c_star=coeffs,
        g_star=g_star,
        starts=starts,
        converged_fraction=converged / starts,
        regularization=final_eps,
        diagnostics={
            "iterations": total_iterations,
            "anneal_schedule": [list(pair) for pair in ANNEAL_SCHEDULE],
            "value_unregularized": unregularized,
            "gap_vs_no_ancilla": unregularized - no_ancilla.rate,
        },
    )


# --- oracle arbitration -----------------------------------------------------


def assemble_and_arbitrate(coeffs: AncillaCoeffs, g: GBlock) -> float | np.ndarray:
    """Finite-difference rate of the fully assembled ancilla system: a float
    for one pair, an array over the stack for a stack.

    Places the global pure state sum_ab C_ab |ab>(A'A) |ab>(BB') on the
    ordering A' x A x B x B' with mirrored dimensions, as an array of shape
    (S, K, d^2, K) with the ancillas on their own axes, and differentiates
    its entanglement under I (x) H_AB (x) I numerically, with H_AB the
    Schmidt-diagonal block Hamiltonian.  The oracle's stacked core applies
    H_AB to the A x B axis, so the (K d)^2 x (K d)^2 product is never
    built, and all pairs of a stack go through one call.  The result
    arbitrates every sign and factor convention of the matrix forms.  An
    assembled dimension above the cap (see :func:`qcore._check_cap`) is
    an input failure.
    """
    _check_pair(coeffs, g)
    stack = coeffs.c.shape[:-2]
    d_ancilla, d_a = coeffs.d_ancilla, coeffs.d_a
    n = d_a * d_a
    _check_cap(d_ancilla * n * d_ancilla)

    # Entry (alpha, beta) of C goes to |alpha beta beta alpha>, row by row.
    alpha, beta = np.divmod(np.arange(d_ancilla * d_a), d_a)
    diag = np.arange(d_a) * (d_a + 1)
    amplitudes = np.zeros((*stack, d_ancilla, n, d_ancilla), dtype=complex)
    amplitudes[..., alpha, diag[beta], alpha] = coeffs.c.reshape(*stack, d_ancilla * d_a)
    h_ab = np.zeros((*stack, n, n), dtype=complex)
    h_ab[..., diag[:, None], diag] = 1j * g.g
    rates = _fd_rates(amplitudes.reshape(-1, d_ancilla, n, d_ancilla),
                      h_ab.reshape(-1, n, n), d_a, d_a)
    return _scalar(rates.reshape(stack))
