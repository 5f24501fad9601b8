"""Closed-form solutions and residual functionals.

Residuals are returned as jets (never booleans): a solution claim is the
statement that every stored coefficient of the residual vanishes.  Two
derivative orders are consumed by the mixed derivative, so a residual of
an order-K jet is an order K-2 jet.

Rank-1 normalisation bookkeeping (see ``transform_GF``): with A = (2),

    F-form   F_xy = exp(2F)        solved by  F = -ln(x + y)
    G-form   G_xy = 2 exp(G)       solved by  G = 2F = -2 ln(x + y)

and generally G = A F intertwines the residuals exactly:
``lse_residual(A F, 'lsbis') == A * lse_residual(F, 'ls')`` for every
square A, invertible or not.
"""

from collections import namedtuple
from fractions import Fraction

from . import SUPER_LIOUVILLE_SIGN
from .jets import Jet, body_ln
from .scalars import unit_terms


class SolutionVector(namedtuple("SolutionVector", "components cartan")):
    """One jet per node of a ``CartanMatrix``: an immutable pair, equal when
    its fields are."""

    __slots__ = ()

    def __new__(cls, components: tuple[Jet, ...], cartan: "CartanMatrix"):
        if len(components) != cartan.rank:
            raise ValueError("component count must equal the rank")
        return super().__new__(cls, components, cartan)


def liouville_solution(f: Jet, g: Jet) -> Jet:
    """General Liouville solution  F = (1/2) ln(f'(x) g'(y) / (f+g)^2),
    computed as (1/2) ln(f'g') - ln|f+g|.

    ``f`` must depend on x only and ``g`` on y only, with nonvanishing
    derivative bodies, nonvanishing f+g body, and positive f'g' body (the
    exact ln works on the real branch).  ln|f+g| is the ln of f+g or of
    -(f+g), by the sign of the exact body c = f(x0) + g(y0): one series on
    the sparse f+g.  c^2 is refused first, as ln((f+g)^2) refuses it, and a
    c^2 past the unit cap is refused under its own name.  The result has
    order one less than the inputs.
    """
    f._check_compatible(g)
    if not f.depends_only_on("x"):
        raise ValueError("f must depend only on x")
    if not g.depends_only_on("y"):
        raise ValueError("g must depend only on y")
    fp = f.deriv_x()
    gp = g.deriv_y()
    if fp.body == 0:
        raise ValueError("f'(x0) vanishes")
    if gp.body == 0:
        raise ValueError("g'(y0) vanishes")
    s = (f + g).truncate(fp.order)
    c = s.body
    if c == 0:
        raise ValueError("f(x0) + g(y0) vanishes")
    try:  # the unit cap is the one refusal of a product
        c2 = c * c
    except ValueError as exc:
        raise ValueError(f"cannot form (f(x0) + g(y0))^2: {exc}") from None
    body_ln(c2)  # refuse c^2 before f'g'
    ((_, lead),) = unit_terms(c)
    return (fp * gp).ln() * Fraction(1, 2) - (s if lead > 0 else -s).ln()


def _matvec(matrix, vectors, like) -> list[Jet]:
    """Rows  sum_j M_ij v_j  shaped like like[i]; v_j is unread if M_ij = 0."""
    out = []
    for row, shape in zip(matrix, like):
        acc = Jet.zero(shape.base, shape.order)
        for m, v in zip(row, vectors):
            if m:
                acc = acc + v * m
        out.append(acc)
    return out


def _residuals(matrix, comps, form: str) -> list[Jet]:
    """Residuals of  F_i,xy = exp(sum_j A_ij F_j)  ('ls') or  sum_j A_ij
    exp(F_j)  ('lsbis').  Truncating to K - 2 is a ring map, so it comes
    before exp, and each component some row uses is exponentiated once."""
    mixed = [c.deriv_x().deriv_y() for c in comps]
    low = [c.truncate(c.order - 2) for c in comps]
    if form == "ls":
        rhs = [arg.exp() for arg in _matvec(matrix, low, low)]
    else:
        exps = [c.exp() if any(row[j] for row in matrix) else None
                for j, c in enumerate(low)]
        rhs = _matvec(matrix, exps, low)
    return [m - r for m, r in zip(mixed, rhs)]


def liouville_residual(f_jet: Jet) -> Jet:
    """Residual of  F_xy = exp(2F): the rank-1 'ls' residual with A = (2)."""
    return _residuals(((2,),), (f_jet,), "ls")[0]


def lse_residual(sol: SolutionVector, form: str) -> list[Jet]:
    """Componentwise residuals of the F-form ('ls') or G-form ('lsbis')."""
    if form not in ("ls", "lsbis"):
        raise ValueError(f"unknown form {form!r}")
    if not sol.cartan.is_all_even():
        raise ValueError("classical residuals require an all-even matrix")
    return _residuals(sol.cartan.entries, sol.components, form)


def transform_GF(sol: SolutionVector, inverse: bool = False) -> SolutionVector:
    """Apply G = A F (or F = inverse(A) G, refused for singular A)."""
    matrix = sol.cartan.inverse() if inverse else sol.cartan.entries
    comps = sol.components
    return SolutionVector(tuple(_matvec(matrix, comps, comps)), sol.cartan)


def conformal_transform(f_jet: Jet, phi: Jet, psi: Jet) -> Jet:
    """Finite conformal action  F(phi(x), psi(y)) + (1/2) ln(phi' psi').

    ``phi`` depends on x only and ``psi`` on y only; they share a base
    point, and their bodies must equal the base point of ``f_jet``.
    Zero residuals are preserved, and the transform composes: applying
    ``phi1 o phi2`` equals applying phi1 then phi2.
    """
    if not phi.depends_only_on("x"):
        raise ValueError("phi must depend only on x")
    if not psi.depends_only_on("y"):
        raise ValueError("psi must depend only on y")
    comp = f_jet.compose(phi, psi)
    dphi = phi.deriv_x()
    dpsi = psi.deriv_y()
    if dphi.body == 0 or dpsi.body == 0:
        raise ValueError("phi' or psi' vanishes at the base point")
    w = ((dphi * dpsi).ln()) * Fraction(1, 2)
    order = min(comp.order, w.order)
    return comp.truncate(order) + w.truncate(order)


def super_liouville_residual(field: "SuperField",
                             sign: int = SUPER_LIOUVILLE_SIGN) -> "SuperField":
    """Residual of  D+(D-(F)) = sign * exp(F)  for an even superfield."""
    if field.parity() != 0:
        raise ValueError("super residual requires an even-homogeneous field")
    mixed = field.d_minus().d_plus()
    rhs = field.truncate(field.order - 2).exp()
    return mixed - rhs * Fraction(sign)
