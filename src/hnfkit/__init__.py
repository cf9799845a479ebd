"""Hermite normal form bases of integer relations lattices.

Exact integer linear algebra: Hermite and Smith normal forms, Howell forms
over Z/(N), Smith massagers, matrix products reduced column-modulo a
diagonal matrix (with the partially linearized kernels kept as a tested
reference), and a recursive divide-and-conquer solver for the Hermite basis
of the lattice {p : p*F in L(M)}.
"""

from .apps import (
    hnf,
    lattice_intersection,
    multivariable_crt,
    product_hnf,
    remainder_mod_hermite,
)
from .hermite_basis import HBCall, base_case, hermite_basis, relations_hermite_basis
from .howell import HowellResult, hermite_via_howell, hermite_with_eliminator, howell_form
from .intmat import (
    DiagonalModulus,
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    ParseError,
    PreconditionError,
    SmithForm,
    colmod,
    colmod_mul,
    determinant,
    format_matrix,
    invariant_checks,
    lattice_contains,
    matmul,
    parse_matrix,
    rowmod,
)
from .linmul import (
    XadicPlan,
    colmod_mul_hermite,
    colmod_mul_signed,
    colmod_mul_tall_square,
    colmod_mul_wide_tall,
)
from .massager import SmithMassager, smith_massager, verify_massager
from .relations import pivot_permutation, relations_basis_oracle, to_smith_coprime
from .structured_hermite import (
    StageTransform,
    coprime_parts,
    hermite_of_stack,
    stage_apply,
    stage_transform,
    structured_hermite_blocks,
)

__all__ = [
    "DiagonalModulus", "DimensionError", "HBCall", "HermiteBasis", "HowellResult",
    "IntMat", "InternalError", "ParseError", "PreconditionError", "SmithForm",
    "SmithMassager", "StageTransform", "XadicPlan", "base_case", "colmod",
    "colmod_mul", "colmod_mul_hermite", "colmod_mul_signed",
    "colmod_mul_tall_square", "colmod_mul_wide_tall", "coprime_parts",
    "determinant", "format_matrix", "hermite_basis", "hermite_of_stack",
    "hermite_via_howell", "hermite_with_eliminator", "hnf", "howell_form",
    "invariant_checks", "lattice_contains", "lattice_intersection", "matmul",
    "multivariable_crt", "parse_matrix", "pivot_permutation", "product_hnf",
    "relations_basis_oracle", "relations_hermite_basis", "remainder_mod_hermite",
    "rowmod", "smith_massager", "stage_apply",
    "stage_transform", "structured_hermite_blocks", "to_smith_coprime",
    "verify_massager",
]

__version__ = "0.1.0"
