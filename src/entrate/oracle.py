"""Finite-difference ground truth for entanglement rates and energy moments.

Nothing here touches the closed-form rate expressions: the state is
evolved by a truncated Taylor series of exp(-iHt) and the weights of its
reduced state differentiated numerically, so agreement with the analytic
modules is meaningful.
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
)

__all__ = ["fd_rate", "direct_stats"]

# Phase step * |H|_1 of the finite-difference stencil: the step is
# MAX_PHASE / |H|_1 whatever the scale of H, so the truncation error stays a
# fixed fraction of the rate.  The Richardson error grows as phase^4 and
# roundoff as 1/phase: on 60 random pairs at each of H x 1e-4, x 1 and
# x 1e4, a phase of 1e-2 left relative gaps up to 9.0e-9, 2e-3 up to
# 5.6e-10 and 1e-3 up to 5.4e-10, at a pair whose rate is 2e-3 |H|_1.
MAX_PHASE = 2e-3
# The stencil points t = m s, in the order _fd_rates reads their weights.
STENCIL = (1, -1, 2, -2)
# Terms of the Taylor series of exp(-iHt) psi, k = 0.._TAYLOR_TERMS - 1.  The
# step keeps theta = |t| |H|_1 <= 2 * MAX_PHASE = 4e-3 at every stencil
# point, where the first term left out is at most
# theta^6 / 6! = 5.7e-18 <= 2^-53 of |psi|, within float64 roundoff for every
# H (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011); five terms would leave
# 8.5e-15.
_TAYLOR_TERMS = 6
# (-i m)^k for each stencil point m (rows) and k < _TAYLOR_TERMS (columns):
# exact, as products of +-1, +-i and powers of two.  Three trailing axes of
# size one broadcast over a state's (K_A, n, K_B) axes (see _fd_rates).
_STENCIL_POWERS = np.array([[(-1j * m) ** k for k in range(_TAYLOR_TERMS)]
                            for m in STENCIL])[:, :, None, None, None]


def _norm_1(h: np.ndarray) -> np.ndarray:
    """Max absolute row sum of H (its 1-norm, as H is Hermitian), of each H of
    a stack of shape (..., n, n), by row blocks."""
    return functools.reduce(np.maximum, (
        np.abs(h[..., start:start + HERM_BLOCK, :]).sum(axis=-1).max(axis=-1)
        for start in range(0, h.shape[-1], HERM_BLOCK)))


def _fd_rates(amplitudes: np.ndarray, h: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """fd_rate of each instance of a stack under I (x) H (x) I, both already
    validated: ``amplitudes`` of shape (S, K_A, n, K_B) on A' x A x B x B',
    with n = d_a d_b, and ``h`` of shape (S, n, n) on A x B.

    H acts on axis 2 alone, so I (x) H (x) I is applied without being
    built, and its 1-norm is that of H.  The cut is A' A | B B', a
    (K_A d_a) x (d_b K_B) amplitude matrix; K_A = K_B = 1 is a plain
    d_a x d_b state.  Each instance takes its own step s = MAX_PHASE / |H|_1,
    with |H|_1 floored at the smallest normal float so that s stays finite
    for a subnormal H and for H = 0 (whose rate is exactly 0), and every
    instance sums the same _TAYLOR_TERMS terms q_k = (s H)^k psi / k!, so
    each row holds the bits of the call on that instance alone.

    With psi(0) = U diag(sigma) V^H, the weights p_i(t) = |(U^H psi(t))_i|^2
    are the diagonal of rho_A(t) in the eigenbasis of rho_A(0) = U sigma^2
    U^H, so dS/dt = -Tr(rho_A' log rho_A) = -2 sum_{sigma_i > 0} p_i'
    log sigma_i.  The stencil is linear, so it differentiates
    f(t) = sum_i p_i(t) log sigma_i, which is as smooth as the p_i where S
    is not, and dS/dt = -2 f'(0); rho_A is never formed.
    """
    _, k_a, _, k_b = amplitudes.shape
    shape = (-1, k_a * d_a, d_b * k_b)
    norm = _norm_1(h)
    steps = MAX_PHASE / np.maximum(norm, np.finfo(float).tiny)
    s = steps[:, None, None, None]
    # Every stencil point is t = m s with |m| <= 2, a combination of the
    # same terms: exp(-iHms) psi = sum_k (-im)^k q_k, summed in order of k.
    # The coefficients (-im)^k are exact, so each row holds the bits a
    # separate sum per point would.
    q = amplitudes
    phis = _STENCIL_POWERS[:, 0] * q[:, None]
    for k in range(1, _TAYLOR_TERMS):
        q = (s / k) * (h[:, None] @ q)
        phis += _STENCIL_POWERS[:, k] * q[:, None]
    u, sigma, _ = np.linalg.svd(amplitudes.reshape(shape), full_matrices=False)
    w = u.conj().swapaxes(-1, -2)[:, None] @ phis.reshape(-1, len(STENCIL), *shape[1:])
    log_sigma = np.log(sigma, out=np.zeros_like(sigma), where=sigma > 0)
    # p_i(t), summed over the real and imaginary parts of row i of U^H psi(t)
    p = np.square(w.view(float)).sum(axis=-1)
    f_1, f_m1, f_2, f_m2 = (p * log_sigma[:, None]).sum(axis=-1).T
    # -2 f'(0), with f'(0) = (8 (f_1 - f_m1) - (f_2 - f_m2)) / (12 s), in the
    # order that gives +0.0 when H = 0.
    return ((f_2 - f_m2) - 8 * (f_1 - f_m1)) / (6 * steps)


def fd_rate(psi: PureState, h: np.ndarray) -> float:
    """Numerical d/dt at t=0 of the reduced-state entropy under exp(-iHt).

    Takes one state and one Hamiltonian, not stacks.  Richardson's
    four-point stencil at +-s, +-2s, whose truncation error is O(s^4), with
    the step s = MAX_PHASE / |H|_1, differentiates the weights of the
    reduced state in the eigenbasis of its value at t = 0; dS/dt follows
    as -Tr(rho_A' log rho_A).  The four evolved states are summed from the
    same six Taylor terms (``_TAYLOR_TERMS``): the work of the stacked core
    ``_fd_rates`` on a stack of one, with ancilla axes of size one
    (K_A = K_B = 1).
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
