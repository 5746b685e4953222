"""Finite-difference ground truth for entanglement rates and energy moments.

Nothing here touches the closed-form rate expressions: the state is
evolved by a truncated Taylor series of exp(-iHt) and its entanglement
differentiated numerically, so agreement with the analytic modules is
meaningful.
"""

from __future__ import annotations

import functools

import numpy as np

from .qcore import (
    HERM_BLOCK,
    PureState,
    ValidationError,
    _check_hamiltonian,
    _dot,
    _scalar,
    spectrum_entropy,
)

__all__ = ["fd_rate", "direct_stats"]

# Largest step of the finite-difference stencil.
STEP = 1e-5
# Largest phase step * |H|_1 the oracle takes: the step is capped at
# MAX_PHASE / |H|_1, so the finite-difference truncation error stays a
# fixed fraction of the rate whatever the scale of H.  The Richardson error
# grows as phase^4 and faster still as the smallest Schmidt coefficient
# shrinks: on 60 random 4 x 4 pairs at H x 1e4 a cap of 1e-2 left 5 gaps
# above 1e-8 (the worst 3.9e-6, C_min = 0.007), 2e-3 none (worst 6.2e-9).
MAX_PHASE = 2e-3
# The stencil points t = m s, in the order fd_rate reads their entropies.
STENCIL = (1, -1, 2, -2)
# Terms of the Taylor series the table below covers.  At most
# 2 * MAX_PHASE = 4e-3 is ever asked of it (see fd_rate), which takes 6.
_TAYLOR_TERMS = 16
# (-i m)^k for each stencil point m (rows) and k < _TAYLOR_TERMS (columns):
# exact, as products of +-1, +-i and powers of two.  Three trailing axes of
# size one broadcast over a state's (K_A, n, K_B) axes (see _fd_rates).
_STENCIL_POWERS = np.array([[(-1j * m) ** k for k in range(_TAYLOR_TERMS)]
                            for m in STENCIL])[:, :, None, None, None]
# Truncation target for the Taylor series: unit roundoff of float64.
_TAYLOR_TOL = 2.0**-53


def _norm_1(h: np.ndarray) -> np.ndarray:
    """Max absolute row sum of H (its 1-norm, as H is Hermitian), of each H of
    a stack of shape (..., n, n), by row blocks."""
    return functools.reduce(np.maximum, (
        np.abs(h[..., start:start + HERM_BLOCK, :]).sum(axis=-1).max(axis=-1)
        for start in range(0, h.shape[-1], HERM_BLOCK)))


def _step(norm: float) -> tuple[float, int]:
    """The stencil step s and the number of Taylor terms for |H|_1 = norm.

    s is STEP capped at MAX_PHASE / norm (STEP itself when H = 0).  The
    terms number K + 1, for K the smallest integer with
    theta^(K+1) / (K+1)! <= 2^-53 at theta = 2 s norm, the largest
    |t| |H|_1 of the stencil; that bounds the truncation error of the
    series of exp(-iHt) psi (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    2011).
    """
    s = min(STEP, MAX_PHASE / norm) if norm > 0 else STEP
    theta = 2 * s * norm
    terms, bound = 1, theta
    while bound > _TAYLOR_TOL:
        terms += 1
        bound *= theta / terms
    return s, terms


def _fd_rates(amplitudes: np.ndarray, h: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """fd_rate of each instance of a stack under I (x) H (x) I, both already
    validated: ``amplitudes`` of shape (S, K_A, n, K_B) on A' x A x B x B',
    with n = d_a d_b, and ``h`` of shape (S, n, n) on A x B.

    H acts on axis 2 alone, so I (x) H (x) I is applied without being
    built, and its 1-norm is that of H.  The entropy is that of the cut
    A' A | B B', a (K_A d_a) x (d_b K_B) amplitude matrix; K_A = K_B = 1 is
    a plain d_a x d_b state.  Each instance takes its own |H|_1, and from
    it its own step and number of Taylor terms (``_step``).  The terms
    q_k = (s H)^k psi / k! of the whole stack are formed together until
    every instance has its own; an instance whose bound is met leaves the
    later terms out of its sum, so each row holds the bits of the call on
    that instance alone.  The step rule and the final stencil run on
    Python floats, one instance at a time: they round as float64 arrays
    do, and cost less than array operations on a stack of one.
    """
    _, k_a, _, k_b = amplitudes.shape
    steps = [_step(norm) for norm in _norm_1(h).tolist()]
    s = np.array([step for step, _ in steps])
    counts = [terms for _, terms in steps]
    terms = np.array(counts, dtype=int)
    # Every stencil point is t = m s with |m| <= 2, a combination of the
    # same terms: exp(-iHms) psi = sum_k (-im)^k q_k, summed in order of k.
    # The coefficients (-im)^k are exact, so each row holds the bits a
    # separate sum per point would.
    q = amplitudes
    phis = np.zeros((len(q), len(STENCIL), *q.shape[1:]), dtype=complex)
    phis += _STENCIL_POWERS[:, 0] * q[:, None]
    for k in range(1, max(counts, default=1)):
        q = (s / k)[:, None, None, None] * (h[:, None] @ q)
        taken = k < min(counts) or (terms > k)[:, None, None, None, None]
        np.add(phis, _STENCIL_POWERS[:, k] * q[:, None], out=phis, where=taken)
    sv = np.linalg.svd(phis.reshape(-1, k_a * d_a, d_b * k_b), compute_uv=False)
    entropies = spectrum_entropy(sv**2).reshape(-1, len(STENCIL)).tolist()
    return np.array([(8 * (s_1 - s_m1) - (s_2 - s_m2)) / (12 * step)
                     for (s_1, s_m1, s_2, s_m2), (step, _) in zip(entropies, steps)])


def fd_rate(psi: PureState, h: np.ndarray) -> float:
    """Numerical d/dt at t=0 of the reduced-state entropy under exp(-iHt).

    Takes one state and one Hamiltonian, not stacks.  Richardson's
    four-point stencil at +-s, +-2s, whose truncation error is O(s^4), with
    the step s = STEP capped at MAX_PHASE / |H|_1 (STEP itself when H = 0).
    The four evolved states are summed from one set of Taylor terms into
    one (4, n) array, and one stacked SVD of their d_a x d_b amplitude
    matrices gives the singular values whose squares are each point's
    entropy spectrum, and one stacked ``spectrum_entropy`` call their
    entropies.  The work is that of the stacked core ``_fd_rates`` on a
    stack of one, with ancilla axes of size one (K_A = K_B = 1).
    """
    if psi.amplitudes.ndim != 1:
        raise ValidationError("fd_rate takes one state, not a stack")
    n = psi.d_a * psi.d_b
    h = _check_hamiltonian(h, n, ())
    amplitudes = psi.amplitudes[None, None, :, None]
    return float(_fd_rates(amplitudes, h[None], psi.d_a, psi.d_b)[0])


def direct_stats(psi: PureState, h: np.ndarray) -> tuple[float, float]:
    """Mean and variance of H in psi by dense products: floats for one
    state, arrays over the stack for a stack of states and Hamiltonians."""
    amp = psi.amplitudes
    h = np.asarray(h, dtype=complex)
    n = psi.d_a * psi.d_b
    if h.shape != (*amp.shape[:-1], n, n):
        raise ValidationError(f"expected a {n}x{n} Hamiltonian, got {h.shape}")
    hpsi = (h @ amp[..., None])[..., 0]
    mean = _dot(amp.conj(), hpsi).real
    variance = _dot(hpsi.conj(), hpsi).real - mean**2
    return _scalar(mean), _scalar(variance)
