"""Entanglement generation rates of bipartite pure-state dynamics.

The package computes the instantaneous growth rate of entanglement
entropy for a pure state evolving under a Hamiltonian, and optimizes
that rate over states and interactions subject to a unit bound on the
energy variance.  Core objects:

- :mod:`entrate.qcore` -- states, Schmidt decompositions,
  (de)serialization.
- :mod:`entrate.rate` -- the closed-form rate and energy statistics in
  the Schmidt frame.
- :mod:`entrate.optimum` -- exact optimizers at fixed and free Schmidt
  spectrum.
- :mod:`entrate.ancilla` -- optimization with ancillary subsystems and
  full-system arbitration.
- :mod:`entrate.oracle` -- finite-difference ground truth used to check
  everything else.
- :mod:`entrate.cli` -- the ``entrate`` command-line tool.
"""

from .ancilla import (
    AncillaCoeffs,
    AncillaOptimum,
    GBlock,
    ancilla_objective,
    assemble_and_arbitrate,
    lambda_sq,
    recover_g,
    sup_search,
)
from .optimum import (
    brute_force_max_k,
    build_optimal_hamiltonian,
    build_optimal_state,
    gamma_curve,
    max_rate,
    optimal_gamma,
    surprisal_variance,
)
from .oracle import direct_stats, fd_rate
from .qcore import (
    PureState,
    SchmidtState,
    ValidationError,
    assemble_state,
    random_hermitian,
    random_state,
    schmidt_decompose,
)
from .rate import (
    EnergyStats,
    energy_stats,
    gamma_rate,
    gamma_rate_k,
    mean_energy,
    schmidt_block,
)

__version__ = "0.1.0"

__all__ = [
    "AncillaCoeffs",
    "AncillaOptimum",
    "EnergyStats",
    "GBlock",
    "PureState",
    "SchmidtState",
    "ValidationError",
    "ancilla_objective",
    "assemble_and_arbitrate",
    "assemble_state",
    "brute_force_max_k",
    "build_optimal_hamiltonian",
    "build_optimal_state",
    "gamma_curve",
    "direct_stats",
    "energy_stats",
    "fd_rate",
    "gamma_rate",
    "gamma_rate_k",
    "lambda_sq",
    "max_rate",
    "mean_energy",
    "optimal_gamma",
    "random_hermitian",
    "random_state",
    "recover_g",
    "schmidt_block",
    "schmidt_decompose",
    "surprisal_variance",
    "sup_search",
    "__version__",
]
