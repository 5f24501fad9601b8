"""Connections valued in Cartan-matrix generators and their curvature.

The engine works at two levels with one curvature formula:

* concretely, with superfield coefficients, for randomized verification;
* symbolically, with indeterminate coefficient functions, to derive the
  Toda-type systems and the super Liouville equation.

For connections ``nabla_i = D_i + sum_g c_g * g`` the graded curvature is

    R = [D1, D2]  +  sum_g (D1(d_g) - (-1)^{p1 p2} D2(c_g)) * g
                  +  sum_{g,h} (-1)^{p(g) p(d_h)} c_g d_h * [g, h]

with the generator brackets taken from a relation table.  The classical
table implements  [H_i, X_j^+-] = +-A_ji X_j^+-  and
[X_i^+, X_j^-] = delta_ij H_i; tests/test_matrix_oracle.py pins the A_ji
orientation against explicit matrices, under which the derived system reads
G_i_xy = sum_j A_ij exp(G_j).  The rank-1 super table is computed from the
osp(1|2) matrix fixtures, never written by hand.  ``[D1, D2]`` vanishes
for the pairs (dx, dy) and (D+, D-); for (D+, D+) it is the operator 2*dx,
which is exactly the obstruction to a flat non-reduced extension of the
reduced connection.
``curvature`` counts two relation engines as one when they are of one class
and hold equal data; both engines refuse a generator they lack.  One grading
rule fixes the bracket signs: a coefficient's parity is its direction's plus
its generator's.  ``Connection`` checks it and ``_curvature_parts`` reads it.
``_curvature_parts`` records each contribution as a (weight, value) pair,
the weight +-1 for a derivative term and the bracket coefficient times the
grading sign for a bracket term, and sums each component once, applying the
weights inside that sum: one ``_collect`` for expressions, and for
superfields a weight of 1 or -1 is the value or its negation.
Fields, connections, curvatures and derived systems are named tuples.
"""

from collections import namedtuple
from fractions import Fraction

from . import SUPER_LIOUVILLE_SIGN
from .cartan import CartanMatrix, determinant
from .superalg import fixture_table
from .symexpr import Atom, Expr, _collect, _term_key, exp_linear, fn

GenKey = tuple[str, int]

_DIR_PARITY = {"dx": 0, "dy": 0, "D+": 1, "D-": 1}
_DIR_METHOD = {"dx": "deriv_x", "dy": "deriv_y", "D+": "d_plus", "D-": "d_minus"}
_LEVEL = {"X+": 1, "X-": -1}
_SQUARE = {"D+": "dx", "D-": "dy"}  # (D+)^2 = dx, (D-)^2 = dy


class OutOfSpanError(ValueError):
    """A bracket left the level -1..1 span of the connection shape."""


class ChevalleyRelations:
    """Level -1..1 relations of the generators attached to a Cartan matrix."""

    def __init__(self, cartan: CartanMatrix):
        self._entries = cartan.entries

    def parity(self, g: GenKey) -> int:
        if g[0] not in ("H", "X+", "X-") or not 0 <= g[1] < len(self._entries):
            raise ValueError(f"unknown generator {g}")
        return 0

    def bracket(self, g1: GenKey, g2: GenKey):
        (k1, i), (k2, j) = g1, g2
        A = self._entries
        if k1 == "H":
            if k2 == "H":
                return ()
            c = _LEVEL[k2] * A[j][i]
            return ((c, g2),) if c else ()
        if k2 == "H":
            c = -_LEVEL[k1] * A[i][j]
            return ((c, g1),) if c else ()
        if k1 != k2:  # X+ with X-
            return ((_LEVEL[k1], ("H", i)),) if i == j else ()
        # X+ with X+ (or X- with X-): level +-2.  The Serre relation makes
        # [X_i, X_j] vanish when a_ij = 0, and by antisymmetry when a_ji = 0.
        if i == j or A[i][j] == 0 or A[j][i] == 0:
            return ()
        raise OutOfSpanError(
            f"bracket [{k1}_{i}, {k2}_{j}] leaves the level -1..1 span")


class Osp12Relations:
    """Rank-1 super relations read off the osp(1|2) matrix bracket table."""

    def __init__(self):
        self._table = fixture_table("osp12")

    def parity(self, g: GenKey) -> int:
        if g[0] not in self._table.parities or g[1] != 0:
            raise ValueError(f"unknown generator {g}")
        return self._table.parity(g[0])

    def bracket(self, g1: GenKey, g2: GenKey):
        return tuple((c, (name, 0))
                     for c, name in self._table.bracket(g1[0], g2[0]))


class LieValuedField(namedtuple("LieValuedField", "relations coefficients")):
    """Finite map from abstract generators to coefficient values.

    ``relations`` is a ``ChevalleyRelations`` or an ``Osp12Relations``, and
    ``coefficients`` a dict keyed by generator.  Coefficients are
    superfields in concrete computations and symbolic expressions inside
    the derivation engine; both expose the same arithmetic and the four
    directional derivatives.
    """

    __slots__ = ()

    def nonzero(self) -> dict:
        return {g: c for g, c in self.coefficients.items() if not c.is_zero()}


class Connection(namedtuple("Connection", "direction value")):
    __slots__ = ()

    def __new__(cls, direction: str, value: LieValuedField):
        if direction not in _DIR_PARITY:
            raise ValueError(f"unknown direction {direction!r}")
        dp = _DIR_PARITY[direction]
        for g, c in value.nonzero().items():
            pg = value.relations.parity(g)
            if pg and not dp:
                raise ValueError(
                    f"direction {direction} cannot carry generator {g[0]}")
            cp = c.parity()
            if cp is None:
                raise ValueError(f"coefficient of {g} is not homogeneous")
            if (cp + pg) % 2 != dp:
                raise ValueError(
                    f"coefficient parity {cp} of {g} does not match "
                    f"direction {direction}")
        return super().__new__(cls, direction, value)


class CurvatureResult(namedtuple("CurvatureResult", "generators operator")):
    """Generator coefficients plus any leftover operator part.

    ``operator`` maps 'dx'/'dy' to a rational constant; it is empty for the
    coordinate pair (dx, dy) and the reduced pair (D+, D-), and carries the
    un-cancellable ``(D+-)^2`` terms for the degenerate pairs.
    """

    __slots__ = ()

    def coefficient(self, g: GenKey):
        return self.generators.get(g)


def _apply_dir(coeff, direction: str):
    return getattr(coeff, _DIR_METHOD[direction])()


def _lower(coeff):
    # superfield products must match the order lost by the derivative terms
    if isinstance(coeff, Expr):
        return coeff
    return coeff.truncate(coeff.order - 1)


def _total(pairs):
    """The sum of one component's (weight, value) contributions, taken
    once: a weight of 1 or -1 is the value or its negation."""
    if isinstance(pairs[0][1], Expr):
        return _collect((m, c * w) for w, v in pairs
                        for m, c in v.terms.items())
    values = [v if w == 1 else -v if w == -1 else v * w for w, v in pairs]
    return sum(values[1:], values[0])


def _curvature_parts(relations, dir1, coeffs1, dir2, coeffs2):
    p1, p2 = _DIR_PARITY[dir1], _DIR_PARITY[dir2]
    parts: dict = {}  # generator -> its (weight, value) contributions

    def acc(g, weight, val):
        parts.setdefault(g, []).append((weight, val))

    for g, c in coeffs2.items():
        acc(g, 1, _apply_dir(c, dir1))
    sign = 1 if p1 * p2 else -1
    for g, c in coeffs1.items():
        acc(g, sign, _apply_dir(c, dir2))
    for g1, c1 in coeffs1.items():
        pg1 = relations.parity(g1)
        for g2, c2 in coeffs2.items():
            terms = relations.bracket(g1, g2)
            if not terms:
                continue
            s = -1 if pg1 and p2 ^ relations.parity(g2) else 1
            prod = _lower(c1 * c2)
            for coef, g3 in terms:
                acc(g3, coef * s, prod)

    operator = ({_SQUARE[dir1]: Fraction(2)}
                if dir1 == dir2 and dir1 in _SQUARE else {})
    totals = ((g, _total(pairs)) for g, pairs in parts.items())
    return CurvatureResult({g: v for g, v in totals if not v.is_zero()},
                           operator)


def curvature(c1: Connection, c2: Connection) -> CurvatureResult:
    """Graded curvature of two connections over the same relation engine."""
    r1, r2 = c1.value.relations, c2.value.relations
    if type(r1) is not type(r2) or vars(r1) != vars(r2):
        raise ValueError("connections use different relation engines")
    if _DIR_PARITY[c1.direction] != _DIR_PARITY[c2.direction]:
        raise ValueError(
            f"cannot mix directions {c1.direction} and {c2.direction}")
    return _curvature_parts(r1, c1.direction, c1.value.nonzero(),
                            c2.direction, c2.value.nonzero())


# ---------------------------------------------------------------------------
# derived systems


class Equation(namedtuple("Equation", "lhs rhs")):
    __slots__ = ()

    def render(self) -> str:
        return f"{self.lhs.render()} = {self.rhs.render()}"


class DerivedSystem(namedtuple("DerivedSystem", "first_order final defs notes",
                               defaults=((), ()))):
    __slots__ = ()

    def render(self) -> str:
        lines = [eq.render() for eq in self.first_order]
        if self.defs:
            lines.append("# " + "; ".join(self.defs))
        lines.extend(eq.render() for eq in self.final)
        lines.extend(f"# {note}" for note in self.notes)
        return "\n".join(lines)


class DerivationError(RuntimeError):
    """A derived equation does not have the expected solvable shape."""


def _split_equation(expr: Expr) -> Equation:
    """Move derivative terms left, the rest (negated) right; normalise the
    first printed left term to a positive coefficient."""
    lhs, rhs = {}, {}
    for mono, c in expr.terms.items():
        for a in mono:
            if type(a) is Atom and (a.dx or a.dy or a.dp or a.dm):
                lhs[mono] = c
                break
        else:
            rhs[mono] = -c
    lhs, rhs = Expr._of(lhs), Expr._of(rhs)
    if lhs.is_zero():
        raise DerivationError("equation has no derivative term")
    first = min(lhs.terms, key=_term_key)
    if lhs.terms[first] < 0:
        lhs, rhs = -lhs, -rhs
    return Equation(lhs, rhs)


def derive_toda(A: CartanMatrix, form: str = "lsbis") -> DerivedSystem:
    """Run the zero-curvature computation symbolically and eliminate the
    diagonal coefficients, returning the second-order system.

    The native result is the G-form  G_i_xy = sum_j A_ij exp(G_j); the
    F-form (``form='ls'``)  F_i_xy = exp(sum_j A_ij F_j)  is the
    composition with G = A F and is refused for singular A.
    """
    if form not in ("lsbis", "ls"):
        raise ValueError(f"unknown form {form!r}")
    if not A.is_all_even():
        raise ValueError("derive_toda requires an all-even Cartan matrix")
    n = A.rank
    suffix = [("" if n == 1 else str(i + 1)) for i in range(n)]
    cx = {("H", i): fn("a" + s) for i, s in enumerate(suffix)}
    cx.update({("X+", i): fn("b" + s) for i, s in enumerate(suffix)})
    cy = {("H", i): fn("A" + s) for i, s in enumerate(suffix)}
    cy.update({("X-", i): fn("B" + s) for i, s in enumerate(suffix)})
    gens, _ = _curvature_parts(ChevalleyRelations(A), "dx", cx, "dy", cy)

    order = ([("H", i) for i in range(n)] + [("X-", j) for j in range(n)]
             + [("X+", j) for j in range(n)])
    first_order = tuple(_split_equation(gens[g]) for g in order)

    gname = ["G" + s for s in suffix]
    fname = ["F" + s for s in suffix]
    defs = tuple(f"{g} = ln(b{s}*B{s})" for g, s in zip(gname, suffix))
    if form == "lsbis":
        exps = [exp_linear([(1, g)]) for g in gname]
        final = tuple(
            Equation(Expr.atom(Atom(gname[i], dx=1, dy=1)),
                     Expr.sum(exps[j] * A.entries[i][j]
                              for j in range(n) if A.entries[i][j]))
            for i in range(n))
    else:
        if not determinant(A.entries):
            raise ValueError("matrix is singular")
        final = tuple(
            Equation(Expr.atom(Atom(fname[i], dx=1, dy=1)),
                     exp_linear([(A.entries[i][j], fname[j])
                                 for j in range(n)]))
            for i in range(n))
        defs += ("F = inverse(A)*G",)
    notes = (
        "index convention: [H_i, X_j+] = A_ji*X_j+ and [X_i+, X_j-] = "
        "delta_ij*H_i; pinned by the eliminated G-form system",
    )
    return DerivedSystem(first_order, final, defs, notes)


def _super_pair():
    """Relations and coefficients of the reduced osp(1|2) connection pair
    nabla_+ = D+ + alpha*H + a*d+  and  nabla_- = D- + beta*H + b*d-."""
    cplus = {("H", 0): fn("alpha", 1), ("d+", 0): fn("a")}
    cminus = {("H", 0): fn("beta", 1), ("d-", 0): fn("b")}
    return Osp12Relations(), cplus, cminus


def derive_super_liouville() -> DerivedSystem:
    """Reduced zero-curvature system for the osp(1|2) connection, plus the
    eliminated second-order equation D+(D-(F)) = exp(F), F = ln(a*b).

    The first-order signs come out of the bracket table and the literal
    odd-coefficient algebra; the notes record where they differ from the
    commonly printed display.  An internal substitution check verifies that
    eliminating alpha and beta turns the H-component equation into the
    returned second-order equation with sign +1.
    """
    rel, cplus, cminus = _super_pair()
    a, b = cplus[("d+", 0)], cminus[("d-", 0)]
    gens, _ = _curvature_parts(rel, "D+", cplus, "D-", cminus)

    first_order = tuple(_split_equation(gens[g])
                        for g in (("H", 0), ("d-", 0), ("d+", 0)))

    # Eliminate: alpha = D+(ln b), beta = -D-(ln a); the H equation must
    # then be (minus) the residual of D+(D-(F)) = exp(F) with F = ln(a*b).
    lna, lnb = fn("lna"), fn("lnb")
    substituted = gens[("H", 0)].substitute(
        {"alpha": lnb.d_plus(), "beta": -(lna.d_minus())})
    claimed = (lna + lnb).d_minus().d_plus() \
        - (a * b) * SUPER_LIOUVILLE_SIGN
    if substituted != -claimed:
        raise DerivationError(
            "elimination does not reproduce the second-order equation")

    final = (Equation(Expr.atom(Atom("F", dp=1, dm=1)),
                      exp_linear([(SUPER_LIOUVILLE_SIGN, "F")])),)
    notes = (
        "bracket table (matrix oracle): [H,d+] = d+, [H,d-] = -d-, "
        "{d+,d-} = H, {d+,d+} = -2*X+, {d-,d-} = 2*X-",
        "derived signs: D+(b) = alpha*b and D-(a) = -a*beta; displays in "
        "the literature often print D+(b) = -alpha*b and D-(a) = a*beta, "
        "with the same eliminated equation",
        "elimination: alpha = D+(ln(b)), beta = -D-(ln(a)); "
        "second-order sign +1",
    )
    return DerivedSystem(first_order, final, ("F = ln(a*b)",), notes)


def nonreduced_obstruction() -> DerivedSystem:
    """The halves (1/2)[nabla_+-, nabla_+-] whose vanishing a flat
    non-reduced extension would require.

    Each returned equation states <half bracket> = 0; the bare dx (resp.
    dy) monomial carries coefficient exactly 1 regardless of the connection
    coefficients, so neither equation can hold.
    """
    rel, cplus, cminus = _super_pair()
    equations = []
    for direction, coeffs in (("D+", cplus), ("D-", cminus)):
        gens, operator = _curvature_parts(rel, direction, coeffs,
                                          direction, coeffs)
        # the operator part dx (dy) enters as the monomial d_x (d_y)
        total = Expr.sum(
            [fn(f"d_{op[1]}") * (c / 2) for op, c in operator.items()]
            + [(c * Fraction(1, 2)) * fn(g[0], rel.parity(g))
               for g, c in sorted(gens.items())])
        equations.append(Equation(total, Expr.rational(0)))
    notes = (
        "the d_x and d_y monomials are the operator parts of (D+)^2 and "
        "(D-)^2; no choice of coefficients cancels them, so the "
        "non-reduced zero-curvature conditions are unsatisfiable",
    )
    return DerivedSystem((), tuple(equations), (), notes)
