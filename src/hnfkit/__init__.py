"""Hermite normal form bases of integer relations lattices.

Exact integer linear algebra: Hermite and Smith normal forms, Howell forms
over Z/(N), Smith massagers, matrix products reduced column-modulo a
diagonal matrix (with the partially linearized kernels kept as a tested
reference), and a recursive divide-and-conquer solver for the Hermite basis
of the lattice {p : p*F in L(M)}.

`__all__` is the public API.  Values are checked where they enter it; results
that are right by construction are re-checked only under `invariant_checks`,
and every certificate that can catch a wrong answer always runs.  The stage
machinery stays importable from its own module.
"""

from .apps import (
    hnf,
    lattice_intersection,
    multivariable_crt,
    product_hnf,
    remainder_mod_hermite,
)
from .hermite_basis import relations_hermite_basis
from .howell import HowellResult, howell_form
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
    determinant,
    format_matrix,
    invariant_checks,
    lattice_contains,
    parse_matrix,
)
from .massager import SmithMassager, smith_massager, verify_massager

__all__ = [
    # types
    "IntMat", "DiagonalModulus", "SmithForm", "HermiteBasis", "SmithMassager",
    "HowellResult",
    # errors
    "PreconditionError", "DimensionError", "ParseError", "InternalError",
    # entry points
    "hnf", "relations_hermite_basis", "remainder_mod_hermite", "product_hnf",
    "lattice_intersection", "multivariable_crt", "smith_massager",
    "verify_massager", "howell_form",
    # utilities
    "colmod", "determinant", "lattice_contains", "parse_matrix", "format_matrix",
    "invariant_checks",
]

__version__ = "0.1.0"
