"""Closed-form optimal rates without ancillas.

Covers the maximization of the rate over unit-variance Hamiltonians at
a fixed state (the surprisal-variance formula for the maximum, and the
achieving Hamiltonian built from the projection of -4 C log C
orthogonal to C), the optimal one-parameter state family, and the root
of its stationarity condition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qcore import SchmidtState, ValidationError, _dot, _log_positive, _scalar
from .rate import gamma_rate_k, schmidt_columns

__all__ = [
    "GammaOptimum",
    "surprisal_variance",
    "max_rate",
    "build_optimal_state",
    "build_optimal_hamiltonian",
    "optimal_hamiltonian_entries",
    "gamma_curve",
    "optimal_gamma",
    "brute_force_max_k",
    "achieving_hamiltonian",
]


class GammaOptimum(NamedTuple):
    gamma: float
    rate: float


def surprisal_variance(p: np.ndarray) -> float | np.ndarray:
    """Variance of -log p_i under p: sum p log^2 p - (sum p log p)^2.

    Evaluated in the centered form sum p (log p - mean)^2, which agrees
    with the raw moment difference to 1e-12 but does not cancel
    catastrophically for near-uniform p (the raw form leaves an O(eps)
    residue whose square root would pollute max-rate values).  Entries
    p_i <= 0 add nothing.  A stack of distributions along the last axis
    gives an array; every one must be valid.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12):
        raise ValidationError("probabilities must be nonnegative")
    total = p.sum(axis=-1)
    bad = np.abs(total - 1.0) > 1e-10
    if bad.any():
        worst = float(total[bad].flat[0]) if total.ndim else float(total)
        raise ValidationError(f"probabilities sum to {worst!r}, not 1")
    pos = np.where(p > 0, p, 0.0)
    logs = _log_positive(p)
    mean = _dot(pos, logs)
    f = _dot(pos, (logs - mean[..., None]) ** 2)
    return _scalar(f)


def max_rate(state: SchmidtState) -> float | np.ndarray:
    """Largest achievable rate at unit energy variance: 2 sqrt(f(C^2)), a
    float for one state and an array over the stack for a stack."""
    return _scalar(2.0 * np.sqrt(surprisal_variance(state.coefficients**2)))


def build_optimal_state(gamma: float, d: int) -> SchmidtState:
    """State with coefficients (sqrt(gamma), sqrt((1-gamma)/(d-1)) x (d-1)).

    Coefficients are stored in canonical nonincreasing order, so for
    gamma < 1/d the distinguished entry appears last.
    """
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"gamma must lie in (0, 1), got {gamma!r}")
    if d < 2:
        raise ValidationError("dimension must be >= 2")
    rest = math.sqrt((1.0 - gamma) / (d - 1))
    c = np.sort(np.array([math.sqrt(gamma)] + [rest] * (d - 1)))[::-1]
    eye = np.eye(d, dtype=complex)
    return SchmidtState(coefficients=c, d_a=d, d_b=d, basis_a=eye, basis_b=eye)


def optimal_hamiltonian_entries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of the rate-optimal Hamiltonian
    i(|phi><00| - |00><phi|) at unit variance, as ascending flat indices
    into the d^2 x d^2 matrix and their complex values.

    phi is the uniform superposition of |ii> for i >= 1; the sign is
    chosen so entropy grows (rather than shrinks) at the paired optimal
    state.  At every state sqrt(g)|00> + sqrt(1-g) phi of that family
    <H> = 0 and <H^2> = g + (1 - g) = 1, so no rescaling is needed.

    Only the 2(d - 1) entries at (|00>, |ii>) and (|ii>, |00>) are nonzero:
    row 0 holds -i/sqrt(d-1), with the real part -0.0 that the product
    i * (0 - phi) gives, and column 0 its conjugate.  H is Hermitian and
    traceless by construction.
    """
    if d < 2:
        raise ValidationError("dimension must be >= 2")
    amp = 1.0 / math.sqrt(d - 1)
    ii = np.arange(1, d) * (d + 1)
    values = np.repeat([complex(-0.0, -amp), complex(0.0, amp)], d - 1)
    return np.concatenate([ii, ii * (d * d)]), values


def build_optimal_hamiltonian(d: int) -> np.ndarray:
    """The dense matrix of :func:`optimal_hamiltonian_entries`, zero elsewhere."""
    index, values = optimal_hamiltonian_entries(d)
    h = np.zeros((d * d, d * d), dtype=complex)
    h.reshape(-1)[index] = values
    return h


def gamma_curve(gamma: float | np.ndarray, d: int) -> float | np.ndarray:
    """Signed rate 2 sqrt(g(1-g)) log(g(d-1)/(1-g)) of the optimal family.

    Negative below the balance point g = 1/d, where the distinguished
    coefficient is the small one and the fixed Hamiltonian family drains
    entropy instead of generating it.
    """
    if d < 2:
        raise ValidationError("dimension must be >= 2")
    gamma = np.asarray(gamma, dtype=float)
    return 2.0 * np.sqrt(gamma * (1.0 - gamma)) * np.log(
        gamma * (d - 1) / (1.0 - gamma)
    )


def optimal_gamma(d: int) -> GammaOptimum:
    """Maximize 2 sqrt(g(1-g)) log(g(d-1)/(1-g)) over g in (0, 1).

    The curve peaks where its derivative vanishes, at the root of
    (2g - 1) log(g(d-1)/(1-g)) = 2.  On (1/2, 1) the left side rises from
    0 to +inf, so that root is unique there, and bisection runs until the
    bracket stops shrinking.  ``gamma_star`` in perfbench/reference.py
    bisects the same condition: it is independent of this code, not of
    this derivation.
    """
    if d < 2:
        raise ValidationError("dimension must be >= 2")
    lo, hi = 0.5, 1.0
    while True:
        gamma = 0.5 * (lo + hi)
        if gamma in (lo, hi):
            break
        if (2.0 * gamma - 1.0) * math.log(gamma * (d - 1) / (1.0 - gamma)) < 2.0:
            lo = gamma
        else:
            hi = gamma
    return GammaOptimum(gamma=gamma, rate=float(gamma_curve(gamma, d)))


def _optimal_k(c: np.ndarray) -> np.ndarray:
    """Unit k on {|k| = 1, C.k = 0} maximizing the k-form rate, or 0, for
    each C of a stack along the last axis.

    The k-form rate is a.k with a = -4 C log C, so by Cauchy-Schwarz its
    maximizer on that set is the normalized projection of a orthogonal
    to C, and the maximum is the norm of that projection.

    Rounding leaves about eps |a| of k along C; a second projection cuts
    that to eps |k|.  At equal Schmidt weights a is parallel to C and k is
    pure rounding noise, itself parallel to C, so normalizing it would read
    +-2 log d; the zero vector is returned once |k| <= 1e-14 |a|, which is
    off by at most that bound.
    """
    a = np.where(c > 0, -4.0 * c * _log_positive(c), 0.0)
    k = a - _dot(c, a)[..., None] * c
    k -= _dot(c, k)[..., None] * c
    norm = np.sqrt(_dot(k, k))[..., None]
    out = np.zeros_like(c)
    # Written so that a NaN norm divides, as NaN.
    np.divide(k, norm, out=out, where=~(norm <= 1e-14 * np.sqrt(_dot(a, a))[..., None]))
    return out


def brute_force_max_k(state: SchmidtState) -> float | np.ndarray:
    """Maximize the k-form rate on {|k| = 1, C.k = 0} by a projection.

    The value is read through :func:`gamma_rate_k` at :func:`_optimal_k`,
    not through the surprisal variance, so it still checks
    :func:`max_rate` by another derivation.  A float for one state, an
    array over the stack for a stack.
    """
    return gamma_rate_k(state, _optimal_k(state.coefficients))


def achieving_hamiltonian(state: SchmidtState) -> np.ndarray:
    """Hamiltonian attaining the maximal rate at unit imaginary variance.

    With k = :func:`_optimal_k` and |C| = 1, M = k C^T - C k^T is the
    minimal-Frobenius-norm antisymmetric solution of M C = k: any other
    differs by a matrix orthogonal to it.  M is embedded on the
    Schmidt-diagonal subspace in the computational basis of the state as
    V (i M) V^H, with V from :func:`schmidt_columns`.  Equal Schmidt
    weights give k = 0 and the zero Hamiltonian.
    """
    c = state.coefficients
    k = _optimal_k(c)
    v = schmidt_columns(state)
    return (v @ (1j * (np.outer(k, c) - np.outer(c, k)))) @ v.conj().T
