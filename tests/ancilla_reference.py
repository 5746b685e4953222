"""References shared by the ancilla tests: the fixed-C maximum over G by a
solve, and the supremum search as one start after another."""

import math
from typing import Any

import numpy as np

from entrate.ancilla import (
    ANNEAL_SCHEDULE,
    AncillaCoeffs,
    AncillaOptimum,
    GBlock,
    _embedding_seed,
    ancilla_objective,
    variance_constraint,
)
from entrate.optimum import optimal_gamma
from entrate.qcore import ValidationError


def zero_block(d: int) -> GBlock:
    """The d x d zero block."""
    return GBlock(upper=np.zeros(d * (d - 1) // 2), d=d)


def inner_opt_over_g(coeffs: AncillaCoeffs) -> tuple[float, GBlock]:
    """Maximize the objective over antisymmetric G at |CG|_F = 1 by a solve.

    Independent of the closed form: in the coordinates g of G's strict
    upper triangle the objective is obj.g with obj = 4 (C^T K - K^T C)
    there, and |CG|_F^2 = g.Q g with Q the Gram matrix of C times each
    basis block.  The maximizer of obj.g on that ellipsoid is pinv(Q) obj,
    rescaled to |CG|_F = 1; no eigenbasis of C^T C is used.  When the
    objective vanishes (as for a uniform row) the result is
    (0.0, zero block).
    """
    c = coeffs.c
    d = coeffs.d_a
    iu = np.triu_indices(d, 1)
    obj = 4.0 * (c.T @ coeffs.k - coeffs.k.T @ c)[iu]
    pairs = np.arange(iu[0].size)
    basis = np.zeros((pairs.size, d, d))
    basis[pairs, iu[0], iu[1]] = 1.0
    basis[pairs, iu[1], iu[0]] = -1.0
    # Row p of cg is C times the p-th basis block, flattened: Q = cg cg^T.
    cg = (c @ basis).reshape(pairs.size, c.size)
    g = GBlock(upper=np.linalg.pinv(cg @ cg.T) @ obj, d=d)
    norm = math.sqrt(variance_constraint(coeffs, g))
    if norm == 0.0:
        return 0.0, zero_block(d)
    g = GBlock(upper=g.upper / norm, d=d)
    return ancilla_objective(coeffs, g), g


# --- the supremum search, one start after another -------------------------


def _xlogx(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    mask = c > 0
    out[mask] = c[mask] * np.log(c[mask])
    return out


def _pair_data(
    c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """K = C log C, eigenvalues b and eigenvectors O of C^T C, and A rotated.

    The eigenpairs come from the SVD C = U S O^T, so C O = U S is exact
    zero on null directions of C: there A' vanishes identically instead
    of at rounding level, which 1/eps would amplify in G* and its
    gradient when C has fewer rows than columns.
    """
    k = _xlogx(c)
    u, s, vt = np.linalg.svd(c)
    evals = np.zeros(c.shape[1])
    evals[: s.size] = s**2
    c_rot = np.zeros_like(c)
    c_rot[:, : s.size] = u[:, : s.size] * s
    k_rot = k @ vt.T
    return k, evals, vt.T, c_rot.T @ k_rot - k_rot.T @ c_rot


def _inner_max(
    c: np.ndarray, regularization: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """lambda1 = sqrt(lambda_sq), the maximizer G* before antisymmetrization,
    and K = C log C, from one SVD of C.

    With W_ij = 1/(b_i + b_j + 2 eps), zero on the diagonal and where the
    denominator is not positive, lambda_sq = 2 sum A'^2 o W and
    G* = O (2 A' o W / lambda1) O^T.  No objective (lambda1 = 0) gives
    G* = 0.
    """
    if not regularization >= 0:
        raise ValidationError("regularization must be >= 0")
    k, evals, evecs, a_rot = _pair_data(c)
    den = evals[:, None] + evals[None, :] + 2.0 * regularization
    w = np.zeros_like(den)
    np.divide(1.0, den, out=w, where=den > 1e-300)
    np.fill_diagonal(w, 0.0)
    lam_sq = 2.0 * float(np.sum(a_rot**2 * w))
    if lam_sq <= 0.0:
        return 0.0, np.zeros_like(w), k
    lambda1 = math.sqrt(lam_sq)
    return lambda1, evecs @ (2.0 * a_rot * w / lambda1) @ evecs.T, k


def _value_and_grad(
    c: np.ndarray, regularization: float
) -> tuple[float, np.ndarray]:
    """value(C) = 2 sqrt(lambda_sq) and its gradient in C from one SVD.

    By Danskin's envelope theorem the gradient is that of
    objective - lambda1 (|CG|^2 + eps |G|^2) at the fixed maximizer G*,
    whose multiplier is lambda1 because the objective is linear in G:

        -4 K G* + 4 (C G*) o (log C + 1) - 2 lambda1 C G* G*^T.

    C must be entrywise positive (``sup_search`` floors it).
    """
    lambda1, g, k = _inner_max(c, regularization)
    if lambda1 == 0.0:
        return 0.0, np.zeros_like(c)
    cg = c @ g
    grad = 4.0 * (cg * (np.log(c) + 1.0) - k @ g) - 2.0 * lambda1 * (cg @ g.T)
    return 2.0 * lambda1, grad


def sup_search_one_by_one(
    d_a: int,
    d_ancilla: int,
    starts: int = 8,
    seed: Any = 0,
    max_iter: int = 300,
) -> AncillaOptimum:
    """Reference: ``sup_search`` with its starts run one after another.

    The body is the per-start loop the stacked ascent replaced, kept
    verbatim with the single-matrix helpers below, so ``sup_search`` must
    equal it bit for bit.

    Search sup over C of the ancilla-assisted rate 2 sqrt(lambda_sq).

    Multi-start projected gradient ascent over nonnegative C with unit
    Frobenius norm; entries are floored at delta and the regularization
    is annealed toward zero across refinement rounds.  Start 0 embeds
    the no-ancilla optimum, so the result never falls below it (up to
    solver tolerance).  Gradients are exact: by the envelope theorem the
    gradient of the fixed-C maximum is the partial C-gradient of the
    Lagrangian at the closed-form maximizer G*, so each evaluation of
    the value also yields its gradient from the same SVD of C.
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

    for start in range(starts):
        if start == 0:
            fill = ANNEAL_SCHEDULE[0][1]
            c = _embedding_seed(no_ancilla.gamma, d_a, d_ancilla, fill)
        else:
            rng = np.random.default_rng((seed, start))
            c = np.abs(rng.normal(size=shape)) + 0.01
        c = c / np.linalg.norm(c)
        step = 0.05
        ok = False
        for eps, delta in ANNEAL_SCHEDULE:
            c = np.clip(c, delta, None)
            c = c / np.linalg.norm(c)
            value, grad = _value_and_grad(c, eps)
            for _ in range(max_iter):
                total_iterations += 1
                norm = float(np.linalg.norm(grad))
                if norm < 1e-12:
                    ok = True
                    break
                trial = np.clip(c + step * grad / norm, delta, None)
                trial = trial / np.linalg.norm(trial)
                trial_value, trial_grad = _value_and_grad(trial, eps)
                if trial_value > value:
                    c, value, grad = trial, trial_value, trial_grad
                    step = min(step * 1.05, 0.25)
                else:
                    step *= 0.5
                    if step < 1e-10:
                        ok = True
                        break
        converged += ok
        # The last anneal round runs at final_eps, so value is the final value.
        if value > best_value:
            best_value = value
            best_c = c

    assert best_c is not None
    coeffs = AncillaCoeffs.normalized(best_c)
    _, raw, _ = _inner_max(coeffs.c, final_eps)
    g_star = GBlock.from_matrix((raw - raw.T) / 2.0)
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
