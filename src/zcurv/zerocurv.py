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
[X_i^+, X_j^-] = delta_ij H_i  (the A_ji orientation is pinned by requiring
the derived second-order system to read  G_i_xy = sum_j A_ij exp(G_j));
the rank-1 super table is computed from the osp(1|2) matrix fixtures,
never written by hand.  ``[D1, D2]`` vanishes for the pairs (dx, dy) and
(D+, D-); for (D+, D+) it is the operator 2*dx, which is exactly the
obstruction to a flat non-reduced extension of the reduced connection.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .cartan import CartanMatrix, standard_cartan
from .superalg import bracket_table, generator_parity, osp12_basis
from .superfield import SuperField
from .symexpr import Atom, Expr, exp_linear, fn

GenKey = tuple[str, int]

_DIR_PARITY = {"dx": 0, "dy": 0, "D+": 1, "D-": 1}
_DIR_METHOD = {"dx": "deriv_x", "dy": "deriv_y", "D+": "d_plus", "D-": "d_minus"}


class OutOfSpanError(ValueError):
    """A bracket left the level -1..1 span of the connection shape."""


class ChevalleyRelations:
    """Level -1..1 relations of the generators attached to a Cartan matrix."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan

    def parity(self, g: GenKey) -> int:
        return 0

    def bracket(self, g1: GenKey, g2: GenKey):
        (k1, i), (k2, j) = g1, g2
        A = self.cartan.entries
        if k1 == "H" and k2 == "H":
            return ()
        if k1 == "H" and k2 in ("X+", "X-"):
            sign = 1 if k2 == "X+" else -1
            c = sign * A[j][i]
            return ((c, g2),) if c else ()
        if k2 == "H" and k1 in ("X+", "X-"):
            sign = -1 if k1 == "X+" else 1
            c = sign * A[i][j]
            return ((c, g1),) if c else ()
        if {k1, k2} == {"X+", "X-"}:
            if i != j:
                return ()
            c = Fraction(1) if k1 == "X+" else Fraction(-1)
            return ((c, ("H", i)),)
        # X+ with X+ (or X- with X-): level +-2
        if i == j or A[i][j] == 0:
            return ()
        raise OutOfSpanError(
            f"bracket [{k1}_{i}, {k2}_{j}] leaves the level -1..1 span")


class Osp12Relations:
    """Rank-1 super relations read off the osp(1|2) matrix bracket table."""

    def __init__(self):
        self.cartan = standard_cartan("osp12")
        self._table = bracket_table(osp12_basis())

    def parity(self, g: GenKey) -> int:
        return generator_parity(g[0])

    def bracket(self, g1: GenKey, g2: GenKey):
        return tuple((c, (name, 0))
                     for c, name in self._table.bracket(g1[0], g2[0]))


@dataclass(frozen=True)
class LieValuedField:
    """Finite map from abstract generators to coefficient values.

    Coefficients are superfields in concrete computations and symbolic
    expressions inside the derivation engine; both expose the same
    arithmetic and the four directional derivatives.
    """

    relations: ChevalleyRelations | Osp12Relations
    coefficients: dict

    @property
    def cartan(self) -> CartanMatrix:
        return self.relations.cartan

    def nonzero(self) -> dict:
        return {g: c for g, c in self.coefficients.items() if not c.is_zero()}


@dataclass(frozen=True)
class Connection:
    direction: str
    value: LieValuedField

    def __post_init__(self):
        if self.direction not in _DIR_PARITY:
            raise ValueError(f"unknown direction {self.direction!r}")
        rel = self.value.relations
        super_gens = {"d+", "d-"}
        dp = _DIR_PARITY[self.direction]
        for g, c in self.value.nonzero().items():
            if dp == 0 and g[0] in super_gens:
                raise ValueError(
                    f"direction {self.direction} cannot carry generator {g[0]}")
            cp = c.parity()
            if cp is None:
                raise ValueError(f"coefficient of {g} is not homogeneous")
            if (cp + rel.parity(g)) % 2 != dp:
                raise ValueError(
                    f"coefficient parity {cp} of {g} does not match "
                    f"direction {self.direction}")


@dataclass(frozen=True)
class CurvatureResult:
    """Generator coefficients plus any leftover operator part.

    ``operator`` maps 'dx'/'dy' to a rational constant; it is empty for the
    coordinate pair (dx, dy) and the reduced pair (D+, D-), and carries the
    un-cancellable ``(D+-)^2`` terms for the degenerate pairs.
    """

    generators: dict
    operator: dict = field(default_factory=dict)

    def coefficient(self, g: GenKey):
        return self.generators.get(g)


def _apply_dir(coeff, direction: str):
    return getattr(coeff, _DIR_METHOD[direction])()


def _lower(coeff):
    # superfield products must match the order lost by the derivative terms
    if isinstance(coeff, SuperField):
        return coeff.truncate(coeff.order - 1)
    return coeff


def _curvature_parts(relations, dir1, coeffs1, dir2, coeffs2):
    p1, p2 = _DIR_PARITY[dir1], _DIR_PARITY[dir2]
    out: dict = {}

    def acc(g, val):
        out[g] = out[g] + val if g in out else val

    for g, c in coeffs2.items():
        acc(g, _apply_dir(c, dir1))
    for g, c in coeffs1.items():
        d = _apply_dir(c, dir2)
        acc(g, d if p1 * p2 else -d)
    for g1, c1 in coeffs1.items():
        pg1 = relations.parity(g1)
        for g2, c2 in coeffs2.items():
            pc2 = c2.parity()
            if pc2 is None:
                raise ValueError("bracket operand is not homogeneous")
            s = Fraction(-1 if pg1 and pc2 else 1)
            prod = _lower(c1 * c2)
            for coef, g3 in relations.bracket(g1, g2):
                acc(g3, prod * (coef * s))

    operator: dict[str, Fraction] = {}
    if dir1 == dir2 == "D+":
        operator["dx"] = Fraction(2)
    elif dir1 == dir2 == "D-":
        operator["dy"] = Fraction(2)
    return {g: v for g, v in out.items() if not v.is_zero()}, operator


def curvature(c1: Connection, c2: Connection) -> CurvatureResult:
    """Graded curvature of two connections over the same relation engine."""
    if c1.value.relations is not c2.value.relations and \
            type(c1.value.relations) is not type(c2.value.relations):
        raise ValueError("connections use different relation engines")
    even = {"dx", "dy"}
    if (c1.direction in even) != (c2.direction in even):
        raise ValueError(
            f"cannot mix directions {c1.direction} and {c2.direction}")
    gens, operator = _curvature_parts(
        c1.value.relations, c1.direction, c1.value.nonzero(),
        c2.direction, c2.value.nonzero())
    return CurvatureResult(gens, operator)


# ---------------------------------------------------------------------------
# derived systems


@dataclass(frozen=True)
class Equation:
    lhs: Expr
    rhs: Expr

    def render(self) -> str:
        return f"{self.lhs.render()} = {self.rhs.render()}"


@dataclass(frozen=True)
class DerivedSystem:
    unknowns: tuple[str, ...]
    first_order: tuple[Equation, ...]
    final: tuple[Equation, ...]
    defs: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def equations(self) -> tuple[Equation, ...]:
        return self.first_order + self.final

    def render(self) -> str:
        lines = [eq.render() for eq in self.first_order]
        if self.defs:
            lines.append("# " + "; ".join(self.defs))
        lines.extend(eq.render() for eq in self.final)
        lines.extend(f"# {note}" for note in self.notes)
        return "\n".join(lines)


class DerivationError(RuntimeError):
    """The computed curvature does not have the expected solvable shape."""


def _split_equation(expr: Expr) -> Equation:
    """Move derivative terms left, the rest (negated) right; normalise the
    leading left term to a positive coefficient."""
    lhs = Expr()
    rhs = Expr()
    for mono, c in expr.terms.items():
        has_deriv = any(isinstance(a, Atom) and (a.dx or a.dy or a.dp or a.dm)
                        for a in mono)
        if has_deriv:
            lhs = lhs + Expr({mono: c})
        else:
            rhs = rhs + Expr({mono: -c})
    if lhs.is_zero():
        raise DerivationError("equation has no derivative term")
    first = min(lhs.terms, key=lambda m: (len(m), tuple(map(repr, m))))
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
    lo_a = [fn("a" + s) for s in suffix]
    lo_b = [fn("b" + s) for s in suffix]
    up_a = [fn("A" + s) for s in suffix]
    up_b = [fn("B" + s) for s in suffix]
    rel = ChevalleyRelations(A)
    cx = {("H", i): lo_a[i] for i in range(n)}
    cx.update({("X+", i): lo_b[i] for i in range(n)})
    cy = {("H", i): up_a[i] for i in range(n)}
    cy.update({("X-", i): up_b[i] for i in range(n)})
    gens, operator = _curvature_parts(rel, "dx", cx, "dy", cy)
    if operator:
        raise DerivationError("unexpected operator part for the (dx, dy) pair")

    # The elimination step needs exactly the Toda shape of the coefficients.
    for i in range(n):
        expected = up_a[i].deriv_x() - lo_a[i].deriv_y() + lo_b[i] * up_b[i]
        if gens.get(("H", i)) != expected:
            raise DerivationError(f"H_{i} coefficient lacks the Toda shape")
    for j in range(n):
        row = A.entries[j]
        expected = up_b[j].deriv_x()
        for i in range(n):
            expected = expected - (lo_a[i] * up_b[j]) * row[i]
        if gens.get(("X-", j)) != expected:
            raise DerivationError(f"X-_{j} coefficient lacks the Toda shape")
        expected = -(lo_b[j].deriv_y())
        for i in range(n):
            expected = expected - (lo_b[j] * up_a[i]) * row[i]
        if gens.get(("X+", j)) != expected:
            raise DerivationError(f"X+_{j} coefficient lacks the Toda shape")

    order = ([("H", i) for i in range(n)] + [("X-", j) for j in range(n)]
             + [("X+", j) for j in range(n)])
    first_order = tuple(_split_equation(gens[g]) for g in order)

    gname = ["G" + s for s in suffix]
    fname = ["F" + s for s in suffix]
    if form == "lsbis":
        final = tuple(
            Equation(Expr.atom(Atom(gname[i], dx=1, dy=1)),
                     _sum_exprs(exp_linear([(1, gname[j])]) * A.entries[i][j]
                                for j in range(n) if A.entries[i][j]))
            for i in range(n))
        defs = tuple(f"{gname[i]} = ln(b{suffix[i]}*B{suffix[i]})"
                     for i in range(n))
        unknowns = tuple(gname)
    else:
        A.inverse()  # raises ValueError("matrix is singular") when singular
        final = tuple(
            Equation(Expr.atom(Atom(fname[i], dx=1, dy=1)),
                     exp_linear([(A.entries[i][j], fname[j])
                                 for j in range(n)]))
            for i in range(n))
        defs = tuple(f"{gname[i]} = ln(b{suffix[i]}*B{suffix[i]})"
                     for i in range(n)) + ("F = inverse(A)*G",)
        unknowns = tuple(fname)
    notes = (
        "index convention: [H_i, X_j+] = A_ji*X_j+ and [X_i+, X_j-] = "
        "delta_ij*H_i; pinned by the eliminated G-form system",
    )
    return DerivedSystem(unknowns, first_order, final, defs, notes)


def _sum_exprs(parts) -> Expr:
    total = Expr()
    for p in parts:
        total = total + p
    return total


def _super_system_parts():
    """Curvature coefficients of the reduced osp(1|2) connection pair."""
    alpha, beta = fn("alpha", 1), fn("beta", 1)
    a, b = fn("a"), fn("b")
    rel = Osp12Relations()
    cplus = {("H", 0): alpha, ("d+", 0): a}
    cminus = {("H", 0): beta, ("d-", 0): b}
    gens, operator = _curvature_parts(rel, "D+", cplus, "D-", cminus)
    if operator:
        raise DerivationError("unexpected operator part for the (D+, D-) pair")
    return alpha, beta, a, b, gens


SUPER_LIOUVILLE_SIGN = 1


def derive_super_liouville() -> DerivedSystem:
    """Reduced zero-curvature system for the osp(1|2) connection, plus the
    eliminated second-order equation D+(D-(F)) = exp(F), F = ln(a*b).

    The first-order signs come out of the bracket table and the literal
    odd-coefficient algebra; the notes record where they differ from the
    commonly printed display.  An internal substitution check verifies that
    eliminating alpha and beta turns the H-component equation into the
    returned second-order equation with sign +1.
    """
    alpha, beta, a, b, gens = _super_system_parts()
    expected_h = beta.d_plus() + alpha.d_minus() + a * b
    expected_dm = b.d_plus() - alpha * b
    expected_dp = a.d_minus() + a * beta
    if (gens.get(("H", 0)) != expected_h
            or gens.get(("d-", 0)) != expected_dm
            or gens.get(("d+", 0)) != expected_dp
            or any(k not in (("H", 0), ("d-", 0), ("d+", 0)) for k in gens)):
        raise DerivationError("reduced curvature lacks the expected shape")

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
    return DerivedSystem(("alpha", "beta", "a", "b", "F"),
                         first_order, final, ("F = ln(a*b)",), notes)


def nonreduced_obstruction() -> DerivedSystem:
    """The halves (1/2)[nabla_+-, nabla_+-] whose vanishing a flat
    non-reduced extension would require.

    Each returned equation states <half bracket> = 0; the bare dx (resp.
    dy) monomial carries coefficient exactly 1 regardless of the connection
    coefficients, so neither equation can hold.
    """
    alpha, beta, a, b = fn("alpha", 1), fn("beta", 1), fn("a"), fn("b")
    rel = Osp12Relations()
    cplus = {("H", 0): alpha, ("d+", 0): a}
    cminus = {("H", 0): beta, ("d-", 0): b}
    equations = []
    for direction, coeffs, opname in (("D+", cplus, "d_x"),
                                      ("D-", cminus, "d_y")):
        gens, operator = _curvature_parts(rel, direction, coeffs,
                                          direction, coeffs)
        total = Expr.atom(Atom(opname)) * (operator["dx" if opname == "d_x" else "dy"] / 2)
        for g, c in sorted(gens.items()):
            gen_atom = fn(g[0], generator_parity(g[0]))
            total = total + (c * Fraction(1, 2)) * gen_atom
        equations.append(Equation(total, Expr.rational(0)))
    notes = (
        "the d_x and d_y monomials are the operator parts of (D+)^2 and "
        "(D-)^2; no choice of coefficients cancels them, so the "
        "non-reduced zero-curvature conditions are unsatisfiable",
    )
    return DerivedSystem(("alpha", "beta", "a", "b"), (), tuple(equations),
                         (), notes)
