"""Closed-form entanglement generation rate and energy statistics.

The instantaneous rate of a state with Schmidt coefficients C under a
Hamiltonian H depends only on the imaginary part of the Schmidt-diagonal
block M_ij = <ii|H|jj>; everything here is expressed in that block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    HERM_TOL,
    PureState,
    SchmidtState,
    ValidationError,
    _check_hamiltonian,
    _dot,
    _log_positive,
    _scalar,
    hermiticity_defect,
)

__all__ = [
    "SchmidtBlock",
    "EnergyStats",
    "schmidt_block",
    "gamma_rate",
    "gamma_rate_k",
    "mean_energy",
    "energy_stats",
    "schmidt_columns",
]


@dataclass(frozen=True)
class SchmidtBlock:
    """The d x d block M_ij = <ii|H|jj> in a state's Schmidt bases, or a
    stack of them of shape (..., d, d).

    Hermiticity of H makes M Hermitian, so the real part is symmetric
    and the imaginary part antisymmetric; only the latter feeds the rate.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValidationError(f"block must be square, got shape {m.shape}")
        if hermiticity_defect(m) > HERM_TOL:
            raise ValidationError("block must be Hermitian")
        object.__setattr__(self, "m", m)

    @property
    def m_r(self) -> np.ndarray:
        return self.m.real

    @property
    def m_i(self) -> np.ndarray:
        return self.m.imag


@dataclass(frozen=True)
class EnergyStats:
    """Mean energy and the variance split into real/imaginary parts: floats
    for one state, arrays over the stack for a stack."""

    mean: float | np.ndarray
    variance: float | np.ndarray
    variance_real_part: float | np.ndarray
    variance_imag_part: float | np.ndarray

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "variance_real_part": self.variance_real_part,
            "variance_imag_part": self.variance_imag_part,
        }


def _check_block(state: SchmidtState, block: SchmidtBlock) -> None:
    if block.m.shape[:-1] != state.coefficients.shape:
        raise ValidationError("block dimension does not match the state")


def schmidt_columns(state: SchmidtState) -> np.ndarray:
    """The n x d isometry V whose column i is basis_a[:, i] (x) basis_b[:, i],
    of shape (..., n, d) for a stack.

    Built in O(n d), without the n x n rotation basis_a (x) basis_b.
    """
    d = state.rank_dim
    v = np.einsum("...ai,...bi->...abi", state.basis_a[..., :d], state.basis_b[..., :d])
    return v.reshape(*v.shape[:-3], state.d_a * state.d_b, d)


def schmidt_block(h: np.ndarray, state: SchmidtState) -> SchmidtBlock:
    """Extract M_ij = <ii|H|jj> as V^H (H V), an O(n^2 d) product.

    A stack of states takes a stack of Hamiltonians of the same shape.
    """
    h = _check_hamiltonian(h, state.d_a * state.d_b, state.coefficients.shape[:-1])
    v = schmidt_columns(state)
    return SchmidtBlock(m=v.conj().swapaxes(-1, -2) @ (h @ v))


def gamma_rate(state: SchmidtState, block: SchmidtBlock) -> float | np.ndarray:
    """Rate 4 sum_{i>j} C_i C_j log(C_i/C_j) M_I[j, i] in natural-log units.

    Evaluated as :func:`gamma_rate_k` at k = M_I C; pairing the (i, j) and
    (j, i) terms of that sum through M_I[i, j] = -M_I[j, i] gives this one.
    A float for one state, an array over the stack for a stack.
    """
    _check_block(state, block)
    return gamma_rate_k(state, (block.m_i @ state.coefficients[..., None])[..., 0])


def gamma_rate_k(state: SchmidtState, k: np.ndarray) -> float | np.ndarray:
    """Equivalent rate expression -4 sum_i k_i C_i log C_i.

    Agrees with :func:`gamma_rate` when k = M_I C.  k has the shape of
    ``state.coefficients``; terms with C_i = 0 are left out of the sum.
    """
    c = state.coefficients
    k = np.asarray(k, dtype=float)
    if k.shape != c.shape:
        raise ValidationError(f"expected k of shape {c.shape}, got {k.shape}")
    terms = k * c * _log_positive(c)
    return _scalar(-4.0 * np.add.reduce(terms, axis=-1, where=c > 0))


def mean_energy(state: SchmidtState, block: SchmidtBlock) -> float | np.ndarray:
    """Mean energy sum_ij C_i C_j M_R[i, j]: a float for one state, an
    array over the stack for a stack."""
    _check_block(state, block)
    c = state.coefficients
    return _scalar((c[..., None, :] @ block.m_r @ c[..., :, None])[..., 0, 0])


def energy_stats(
    psi: PureState, h: np.ndarray, state: SchmidtState
) -> EnergyStats:
    """Energy mean and variance, split along the Schmidt-basis real/imag parts.

    ``state`` is the Schmidt decomposition of ``psi`` (``schmidt_decompose``),
    which the callers already hold; the split refers to its bases.  A stack
    of states takes stacks of Hamiltonians and decompositions of the same
    shape.  In the full Schmidt product basis W = basis_a (x) basis_b the
    state is the real vector v = sum_i C_i e_ii, and the variance decomposes
    exactly into the real-part variance plus <v|H_I H_I^T|v>.  Only
    y = W^H H psi = H~ v is needed, one matvec plus a d_a x d_b rotation:
    the real part is |Re y - mean v|^2, and since H~^T = conj(H~),
    H_I^T v = -Im y.
    """
    stack = psi.amplitudes.shape[:-1]
    n = psi.d_a * psi.d_b
    h = _check_hamiltonian(h, n, stack)
    if (state.d_a, state.d_b, state.coefficients.shape[:-1]) != (psi.d_a, psi.d_b, stack):
        raise ValidationError("decomposition does not match the state")
    c = state.coefficients
    phi = (h @ psi.amplitudes[..., None]).reshape(*stack, psi.d_a, psi.d_b)
    y = state.basis_a.conj().swapaxes(-1, -2) @ phi @ state.basis_b.conj()

    diag = np.arange(c.shape[-1])
    mean = _dot(c, y.real[..., diag, diag])
    real_dev = y.real.copy()
    real_dev[..., diag, diag] -= mean[..., None] * c
    # Each slice summed as one flat row, in the order np.sum takes a matrix.
    variance_real_part = (real_dev**2).reshape(*stack, n).sum(axis=-1)
    variance_imag_part = (y.imag**2).reshape(*stack, n).sum(axis=-1)
    return EnergyStats(
        mean=_scalar(mean),
        variance=_scalar(variance_real_part + variance_imag_part),
        variance_real_part=_scalar(variance_real_part),
        variance_imag_part=_scalar(variance_imag_part),
    )
