"""Clifford-algebra quantum network simulation and verification toolkit."""

__version__ = "0.1.0"

from .clifford import Blade, PauliString, gamma, hermitian_basis
from .cqp import Activation, PerceptronConfig, TrainingSample
from .gqft import GqftParams
from .linalg import expm_i, hermitian_eigen
from .simulator import basis_state, swap_test_exact
from .trotter import HamiltonianTerm

__all__ = [
    "__version__",
    "Activation",
    "Blade",
    "GqftParams",
    "HamiltonianTerm",
    "PauliString",
    "PerceptronConfig",
    "TrainingSample",
    "basis_state",
    "expm_i",
    "gamma",
    "hermitian_basis",
    "hermitian_eigen",
    "swap_test_exact",
]
