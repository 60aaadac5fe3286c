"""Heat kernels on finite Abelian Cayley graphs as convolutional
exponentials, lattice Gaussian pushforwards, and numerical checkers for
the associated diffusion inequalities."""

__version__ = "0.1.0"

from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    GroupFunction,
    cexp_series,
    cexp_spectral,
    convolve,
    delta,
    dft,
    idft,
    parse_group,
    phi,
    phi_basis_decompose,
)
from .lattices import (
    Lattice,
    LatticeHom,
    PushforwardResult,
    direct_sum,
    fiber_product,
    pushforward,
    random_hom,
)
from .checks import CheckReport, check_convolve_even, check_mean_ineq, check_rsd
from .heat import (
    CayleyWeights,
    GeneralGraph,
    heat_matrix_general,
    heat_row_cayley,
    monotone_check_cayley,
    monotone_violation_search,
)

__all__ = [
    "FiniteAbelianGroup",
    "GroupElement",
    "GroupFunction",
    "cexp_series",
    "cexp_spectral",
    "convolve",
    "delta",
    "dft",
    "idft",
    "parse_group",
    "phi",
    "phi_basis_decompose",
    "Lattice",
    "LatticeHom",
    "PushforwardResult",
    "direct_sum",
    "fiber_product",
    "pushforward",
    "random_hom",
    "CheckReport",
    "check_convolve_even",
    "check_mean_ineq",
    "check_rsd",
    "CayleyWeights",
    "GeneralGraph",
    "heat_matrix_general",
    "heat_row_cayley",
    "monotone_check_cayley",
    "monotone_violation_search",
]
