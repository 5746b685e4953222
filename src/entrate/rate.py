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
    """The d x d block M_ij = <ii|H|jj> in a state's Schmidt bases.

    Hermiticity of H makes M Hermitian, so the real part is symmetric
    and the imaginary part antisymmetric; only the latter feeds the rate.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
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

    @property
    def dim(self) -> int:
        return int(self.m.shape[0])


@dataclass(frozen=True)
class EnergyStats:
    """Mean energy and the variance split into real/imaginary parts."""

    mean: float
    variance: float
    variance_real_part: float
    variance_imag_part: float

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "variance_real_part": self.variance_real_part,
            "variance_imag_part": self.variance_imag_part,
        }


def schmidt_columns(state: SchmidtState) -> np.ndarray:
    """The n x d isometry V whose column i is basis_a[:, i] (x) basis_b[:, i].

    Built in O(n d), without the n x n rotation basis_a (x) basis_b.
    """
    d = state.rank_dim
    v = np.einsum("ai,bi->abi", state.basis_a[:, :d], state.basis_b[:, :d])
    return v.reshape(state.d_a * state.d_b, d)


def schmidt_block(h: np.ndarray, state: SchmidtState) -> SchmidtBlock:
    """Extract M_ij = <ii|H|jj> as V^H (H V), an O(n^2 d) product."""
    h = np.asarray(h, dtype=complex)
    n = state.d_a * state.d_b
    if h.shape != (n, n):
        raise ValidationError(f"expected a {n}x{n} Hamiltonian, got {h.shape}")
    if hermiticity_defect(h) > HERM_TOL:
        raise ValidationError("Hamiltonian must be Hermitian")
    v = schmidt_columns(state)
    return SchmidtBlock(m=v.conj().T @ (h @ v))


def gamma_rate(state: SchmidtState, block: SchmidtBlock) -> float:
    """Rate 4 sum_{i>j} C_i C_j log(C_i/C_j) M_I[j, i] in natural-log units.

    Evaluated as :func:`gamma_rate_k` at k = M_I C; pairing the (i, j) and
    (j, i) terms of that sum through M_I[i, j] = -M_I[j, i] gives this one.
    """
    c = state.coefficients
    if block.dim != c.size:
        raise ValidationError("block dimension does not match the state")
    return gamma_rate_k(state, block.m_i @ c)


def gamma_rate_k(state: SchmidtState, k: np.ndarray) -> float:
    """Equivalent rate expression -4 sum_i k_i C_i log C_i.

    Agrees with :func:`gamma_rate` when k = M_I C.
    """
    c = state.coefficients
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.size != c.size:
        raise ValidationError(f"expected k of length {c.size}, got {k.size}")
    mask = c > 0
    cm = c[mask]
    return float(-4.0 * np.sum(k[mask] * cm * np.log(cm)))


def mean_energy(state: SchmidtState, block: SchmidtBlock) -> float:
    """Mean energy sum_ij C_i C_j M_R[i, j]."""
    c = state.coefficients
    if block.dim != c.size:
        raise ValidationError("block dimension does not match the state")
    return float(c @ block.m_r @ c)


def energy_stats(
    psi: PureState, h: np.ndarray, state: SchmidtState
) -> EnergyStats:
    """Energy mean and variance, split along the Schmidt-basis real/imag parts.

    ``state`` is the Schmidt decomposition of ``psi`` (``schmidt_decompose``),
    which the callers already hold; the split refers to its bases.
    In the full Schmidt product basis W = basis_a (x) basis_b the state is
    the real vector v = sum_i C_i e_ii, and the variance decomposes exactly
    into the real-part variance plus <v|H_I H_I^T|v>.  Only y = W^H H psi =
    H~ v is needed, one matvec plus a d_a x d_b rotation: the real part is
    |Re y - mean v|^2, and since H~^T = conj(H~), H_I^T v = -Im y.
    """
    h = np.asarray(h, dtype=complex)
    n = psi.d_a * psi.d_b
    if h.shape != (n, n):
        raise ValidationError(f"expected a {n}x{n} Hamiltonian, got {h.shape}")
    if hermiticity_defect(h) > HERM_TOL:
        raise ValidationError("Hamiltonian must be Hermitian")
    if (state.d_a, state.d_b) != (psi.d_a, psi.d_b):
        raise ValidationError("decomposition does not match the state")
    c = state.coefficients
    phi = (h @ psi.amplitudes).reshape(psi.d_a, psi.d_b)
    y = state.basis_a.conj().T @ phi @ state.basis_b.conj()

    diag = np.arange(c.size)
    mean = float(c @ y.real[diag, diag])
    real_dev = y.real.copy()
    real_dev[diag, diag] -= mean * c
    variance_real_part = float(np.sum(real_dev**2))
    variance_imag_part = float(np.sum(y.imag**2))
    return EnergyStats(
        mean=mean,
        variance=variance_real_part + variance_imag_part,
        variance_real_part=variance_real_part,
        variance_imag_part=variance_imag_part,
    )
