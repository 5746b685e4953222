"""Reference for the fixed-C maximum over G, shared by the ancilla tests."""

import math

import numpy as np

from entrate.ancilla import (
    AncillaCoeffs,
    GBlock,
    ancilla_objective,
    variance_constraint,
)


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
