"""Toda-type systems from Cartan-matrix data.

Derives the classical and super zero-curvature systems symbolically,
verifies closed-form solutions with exact truncated power series, checks
the diagonal admissibility conditions for the two superization schemes,
and integrates the Goursat problem for the second-order system.
"""

__version__ = "0.1.0"

# D+(D-(F)) = sign * exp(F): zerocurv derives the sign, solutions checks it
SUPER_LIOUVILLE_SIGN = 1

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
    "solutions": "SolutionVector conformal_transform liouville_residual "
                 "liouville_solution lse_residual super_liouville_residual "
                 "transform_GF",
    "superalg": "BracketTable SuperMatrix bracket_table osp12_basis "
                "sl2_basis supercommutator supertrace",
    "superfield": "SuperField standard_gens",
    "zerocurv": "Connection CurvatureResult DerivedSystem LieValuedField "
                "Osp12Relations ChevalleyRelations OutOfSpanError curvature "
                "derive_super_liouville derive_toda nonreduced_obstruction",
}.items() for name in names.split()}

_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _clip(value) -> str:
    """``repr(value)``, with the middle of a long one left out and the
    length of the value (of its repr, if it is not a string) given.  A JSON
    literal keeps its JSON spelling: true, false, null.  The CLI and the
    Cartan-file reader echo what they refuse through it."""
    if value is None or isinstance(value, bool):
        return _JSON_LITERALS[value]
    text = repr(value)
    if len(text) <= 48:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:24]}...{text[-12:]} ({size} characters)"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(
        import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
