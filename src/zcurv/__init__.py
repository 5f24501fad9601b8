"""Toda-type systems from Cartan-matrix data.

Derives the classical and super zero-curvature systems symbolically,
verifies closed-form solutions with exact truncated power series, checks
the diagonal admissibility conditions for the two superization schemes,
and integrates the Goursat problem for the second-order system.
"""

__version__ = "0.1.0"

# ``import zcurv`` loads no submodule: each public name below imports its
# module on first access (so numpy loads only with a numerics name)
_EXPORTS = {name: module for module, names in {
    "cartan": "AdmissibilityReport CartanFormatError CartanMatrix "
              "check_admissible parse_cartan render_cartan standard_cartan "
              "whitelist_superprincipal",
    "jets": "Jet",
    "numerics": "GoursatData Grid convergence_order residual_grid "
                "solve_goursat write_csv",
    "scalars": "Scalar",
    "solutions": "SUPER_LIOUVILLE_SIGN SolutionVector conformal_transform "
                 "liouville_residual liouville_solution lse_residual "
                 "super_liouville_residual transform_GF",
    "superalg": "BracketTable SuperMatrix bracket_table osp12_basis "
                "sl2_basis supercommutator supertrace",
    "superfield": "SuperField standard_gens",
    "zerocurv": "Connection CurvatureResult DerivedSystem LieValuedField "
                "Osp12Relations ChevalleyRelations OutOfSpanError curvature "
                "derive_super_liouville derive_toda nonreduced_obstruction",
}.items() for name in names.split()}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(
        import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
