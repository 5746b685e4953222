"""Dense references for the rate-optimal Hamiltonian, shared by the tests:
the design matrix scattered from its nonzero entries, and the rank-2
Hamiltonian that attains the maximal rate at any state."""

import numpy as np

from entrate.optimum import _optimal_k, optimal_hamiltonian_entries
from entrate.qcore import SchmidtState
from entrate.rate import schmidt_columns


def build_optimal_hamiltonian(d: int) -> np.ndarray:
    """The dense matrix of :func:`optimal_hamiltonian_entries`, zero elsewhere."""
    index, values = optimal_hamiltonian_entries(d)
    h = np.zeros((d * d, d * d), dtype=complex)
    h.reshape(-1)[index] = values
    return h


def achieving_hamiltonian(state: SchmidtState) -> np.ndarray:
    """Hamiltonian attaining the maximal rate at unit imaginary variance.

    With k = :func:`_optimal_k` and |C| = 1, M = k C^T - C k^T is the
    minimal-Frobenius-norm antisymmetric solution of M C = k: any other
    differs by a matrix orthogonal to it.  M is embedded on the
    Schmidt-diagonal subspace in the computational basis of the state as
    V (i M) V^H, with V from :func:`schmidt_columns`: the rank-2 matrix
    i (|kappa><psi| - |psi><kappa|) with psi = V C and kappa = V k, built
    in O(n^2).  Equal Schmidt weights give k = 0 and the zero Hamiltonian.
    """
    c = state.coefficients
    v = schmidt_columns(state)
    psi, kappa = v @ c, v @ _optimal_k(c)
    return 1j * (np.outer(kappa, psi.conj()) - np.outer(psi, kappa.conj()))
