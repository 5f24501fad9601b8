"""Toda-type systems from Cartan-matrix data.

Derives the classical and super zero-curvature systems symbolically,
verifies closed-form solutions with exact truncated power series, checks
the diagonal admissibility conditions for the two superization schemes,
and integrates the Goursat problem for the second-order system.
"""

from .cartan import (AdmissibilityReport, CartanFormatError, CartanMatrix,
                     check_admissible, parse_cartan, render_cartan,
                     standard_cartan, whitelist_superprincipal)
from .jets import Jet
from .scalars import Scalar
from .solutions import (SolutionVector, conformal_transform,
                        liouville_residual, liouville_solution, lse_residual,
                        super_liouville_residual, transform_GF)
from .superalg import (BracketTable, SuperMatrix, bracket_table, osp12_basis,
                       sl2_basis, supercommutator, supertrace)
from .superfield import SuperField, standard_gens
from .zerocurv import (SUPER_LIOUVILLE_SIGN, Connection, CurvatureResult,
                       DerivedSystem, LieValuedField, Osp12Relations,
                       ChevalleyRelations, OutOfSpanError, curvature,
                       derive_super_liouville, derive_toda,
                       nonreduced_obstruction)

__version__ = "0.1.0"

# the numerics names load numpy, so they are imported on first access
_NUMERICS = {"GoursatData", "Grid", "convergence_order", "residual_grid",
             "solve_goursat", "write_csv"}


def __getattr__(name):
    if name in _NUMERICS:
        from . import numerics
        return getattr(numerics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
