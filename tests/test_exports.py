import hnfkit

PUBLIC_API = {
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
}


def test_every_export_resolves():
    missing = [name for name in hnfkit.__all__ if not hasattr(hnfkit, name)]
    assert missing == []


def test_public_api_is_exactly_the_25_names():
    assert len(hnfkit.__all__) == len(PUBLIC_API) == 25
    assert set(hnfkit.__all__) == PUBLIC_API


def test_submodules_are_not_shadowed():
    import hnfkit.hermite_basis as hb
    assert type(hb) is type(hnfkit)
    assert callable(hb.hermite_basis)
