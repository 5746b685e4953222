"""Finite-difference ground truth for entanglement rates and energy moments.

Nothing here touches the closed-form rate expressions: the state is
evolved by a truncated Taylor series of exp(-iHt) and its entanglement
differentiated numerically, so agreement with the analytic modules is
meaningful.
"""

from __future__ import annotations

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
# exact, as products of +-1, +-i and powers of two.
_STENCIL_POWERS = np.array([[(-1j * m) ** k for k in range(_TAYLOR_TERMS)]
                            for m in STENCIL])
# Truncation target for the Taylor series: unit roundoff of float64.
_TAYLOR_TOL = 2.0**-53


def _norm_1(h: np.ndarray) -> float:
    """Max absolute row sum of H (its 1-norm, as H is Hermitian), by row blocks."""
    return max(
        float(np.abs(h[start:start + HERM_BLOCK]).sum(axis=1).max())
        for start in range(0, h.shape[0], HERM_BLOCK)
    )


def _scaled_taylor_terms(h: np.ndarray, psi: np.ndarray, step: float, theta: float):
    """Terms q_k = (step H)^k psi / k! for k = 0..K.

    K is the smallest integer with theta^(K+1) / (K+1)! <= 2^-53, which
    bounds the truncation error of the series of exp(-iHt) psi for every
    |t| with |t| |H|_1 <= theta (Al-Mohy & Higham, SIAM J. Sci. Comput.
    33, 2011).
    """
    terms = [psi]
    bound = theta
    while bound > _TAYLOR_TOL:
        k = len(terms)
        terms.append((step / k) * (h @ terms[-1]))
        bound *= theta / (k + 1)
    return terms


def fd_rate(psi: PureState, h: np.ndarray) -> float:
    """Numerical d/dt at t=0 of the reduced-state entropy under exp(-iHt).

    Takes one state and one Hamiltonian, not stacks.  Richardson's
    four-point stencil at +-s, +-2s, whose truncation error is O(s^4), with
    the step s = STEP capped at MAX_PHASE / |H|_1 (STEP itself when H = 0).
    The four evolved states are summed from one set of Taylor terms into
    one (4, n) array, and one stacked SVD of their d_a x d_b amplitude
    matrices gives the singular values whose squares are each point's
    entropy spectrum, and one stacked ``spectrum_entropy`` call their
    entropies.
    """
    if psi.amplitudes.ndim != 1:
        raise ValidationError("fd_rate takes one state, not a stack")
    n = psi.d_a * psi.d_b
    h = _check_hamiltonian(h, n, ())

    norm = _norm_1(h)
    s = min(STEP, MAX_PHASE / norm) if norm > 0 else STEP
    # Every stencil point is t = m s with |m| <= 2, a combination of the
    # same terms: exp(-iHms) psi = sum_k (-im)^k q_k, summed in order of k.
    # The coefficients (-im)^k are exact, so each row holds the bits a
    # separate sum per point would.
    terms = _scaled_taylor_terms(h, psi.amplitudes, s, 2 * s * norm)
    phis = np.zeros((len(STENCIL), n), dtype=complex)
    for k, q in enumerate(terms):
        phis += _STENCIL_POWERS[:, k, None] * q
    sv = np.linalg.svd(phis.reshape(-1, psi.d_a, psi.d_b), compute_uv=False)
    s_1, s_m1, s_2, s_m2 = spectrum_entropy(sv**2).tolist()
    return (8 * (s_1 - s_m1) - (s_2 - s_m2)) / (12 * s)


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
