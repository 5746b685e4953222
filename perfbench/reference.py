"""Reference computations that check the program's outputs.

Written from the definitions, apart from the ``entrate`` package: nothing
here imports it, and nothing here uses its Schmidt-block formulas.

(a) ``exact_rate``: the first-order entropy rate -tr(rho_A' log rho_A).
(b) ``gamma_star``: the optimal weight of the no-ancilla design, by
    bisection of its stationarity condition.
(c) ``assembled_ancilla_rate``: the rate of the assembled ancilla state
    under I (x) H_AB (x) I, applied by reshape.
"""

from __future__ import annotations

import math

import numpy as np


def exact_rate(psi: np.ndarray, h_psi: np.ndarray, d_a: int, d_b: int) -> float:
    """-tr(rho_A' log rho_A) for the pure state psi under d/dt psi = -i H psi.

    Psi and Phi are the d_a x d_b reshapes of psi and H psi, so
    rho_A = Psi Psi^H and rho_A' = -i (Phi Psi^H - Psi Phi^H).  log rho_A
    is built from the singular vectors of Psi, whose singular values keep
    full relative accuracy where the eigenvalues of rho_A would not; on
    the null space of rho_A the diagonal of rho_A' vanishes, so those
    directions contribute nothing.
    """
    big_psi = np.asarray(psi, dtype=complex).reshape(d_a, d_b)
    big_phi = np.asarray(h_psi, dtype=complex).reshape(d_a, d_b)
    rho_dot = -1j * (big_phi @ big_psi.conj().T - big_psi @ big_phi.conj().T)
    u, s, _ = np.linalg.svd(big_psi, full_matrices=False)
    log_p = np.zeros_like(s)
    pos = s > 0
    log_p[pos] = 2.0 * np.log(s[pos])
    log_rho = (u * log_p) @ u.conj().T
    return float(-np.real(np.trace(rho_dot @ log_rho)))


def energy_moments(psi: np.ndarray, h_psi: np.ndarray) -> tuple[float, float]:
    """Mean <H> and variance <H^2> - <H>^2 by direct products."""
    mean = float(np.real(np.vdot(psi, h_psi)))
    return mean, float(np.real(np.vdot(h_psi, h_psi))) - mean * mean


def gamma_curve(gamma: float, d: int) -> float:
    """Rate 2 sqrt(g(1-g)) ln(g(d-1)/(1-g)) of the one-parameter design."""
    return 2.0 * math.sqrt(gamma * (1.0 - gamma)) * math.log(
        gamma * (d - 1) / (1.0 - gamma)
    )


def stationarity(gamma: float, d: int) -> float:
    """(2g-1) ln(g(d-1)/(1-g)) - 2, which vanishes where the curve peaks."""
    return (2.0 * gamma - 1.0) * math.log(gamma * (d - 1) / (1.0 - gamma)) - 2.0


def gamma_star(d: int) -> float:
    """Root of the stationarity condition on (1/2, 1), by bisection.

    The left side increases on (1/2, 1), from -2 at g = 1/2 to +inf as
    g -> 1, so the root is unique and bisection runs until the bracket
    stops shrinking.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    lo, hi = 0.5, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if stationarity(mid, d) < 0.0:
            lo = mid
        else:
            hi = mid


def antisymmetric_from_upper(upper, d: int) -> np.ndarray:
    """Real antisymmetric d x d matrix with the given strict upper triangle."""
    g = np.zeros((d, d))
    g[np.triu_indices(d, 1)] = np.asarray(upper, dtype=float)
    return g - g.T


def assembled_ancilla_rate(c: np.ndarray, g: np.ndarray) -> float:
    """Rate of sum_ab C_ab |a b>_{A'A} |b a>_{B B'} under I (x) H_AB (x) I.

    H_AB = sum_ij i G_ij |ii><jj| acts on the middle two factors of
    A' x A x B x B'; it is applied by reshape, never built, and the result
    is rated with :func:`exact_rate` across the cut A'A | BB'.
    """
    c = np.asarray(c, dtype=float)
    k, d = c.shape
    psi = np.zeros((k, d, d, k), dtype=complex)
    a_idx, b_idx = np.meshgrid(np.arange(k), np.arange(d), indexing="ij")
    psi[a_idx, b_idx, b_idx, a_idx] = c
    h_ab = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)
    h_ab[np.ix_(diag, diag)] = 1j * np.asarray(g, dtype=float)
    h_psi = np.einsum("xy,aym->axm", h_ab, psi.reshape(k, d * d, k))
    return exact_rate(psi.reshape(-1), h_psi.reshape(-1), k * d, d * k)
