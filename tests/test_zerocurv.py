import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_jet, random_superfield
from zcurv import symexpr, zerocurv
from zcurv.cartan import CartanMatrix, standard_cartan
from zcurv.jets import Jet
from zcurv.superfield import SuperField, standard_gens
from zcurv.symexpr import Atom, Expr, fn
from zcurv.zerocurv import (SUPER_LIOUVILLE_SIGN, ChevalleyRelations,
                            Connection, CurvatureResult, LieValuedField,
                            Osp12Relations, OutOfSpanError, _curvature_parts,
                            _split_equation, _super_pair, curvature,
                            derive_super_liouville, derive_toda,
                            nonreduced_obstruction)

GENS = standard_gens(2)


def even_field(jet):
    return SuperField.from_jet(jet, GENS)


def classical_pair(cartan, ax, bx, ay, by):
    """Connections d_x + a H + b X+ and d_y + A H + B X- at rank 1."""
    rel = ChevalleyRelations(cartan)
    cx = Connection("dx", LieValuedField(rel, {("H", 0): ax, ("X+", 0): bx}))
    cy = Connection("dy", LieValuedField(rel, {("H", 0): ay, ("X-", 0): by}))
    return cx, cy


def test_rank_one_curvature_matches_displayed_system(rng):
    sl2 = standard_cartan("sl2")
    for _ in range(10):
        a, b = random_jet(rng, order=6), random_jet(rng, order=6)
        up_a, up_b = random_jet(rng, order=6), random_jet(rng, order=6)
        cx, cy = classical_pair(sl2, *(even_field(j)
                                       for j in (a, b, up_a, up_b)))
        r = curvature(cx, cy)
        assert not r.operator
        t5 = lambda j: j.truncate(5)
        expect_h = up_a.deriv_x() - a.deriv_y() + t5(b * up_b)
        expect_xm = up_b.deriv_x() - t5(a * up_b) * 2
        expect_xp = -(b.deriv_y()) - t5(b * up_a) * 2
        assert r.coefficient(("H", 0)) == even_field(expect_h)
        assert r.coefficient(("X-", 0)) == even_field(expect_xm)
        assert r.coefficient(("X+", 0)) == even_field(expect_xp)


def test_zero_connection_has_zero_curvature():
    sl2 = standard_cartan("sl2")
    zero = even_field(Jet.zero(order=4))
    cx, cy = classical_pair(sl2, zero, zero, zero, zero)
    r = curvature(cx, cy)
    assert not r.generators and not r.operator


def test_sl3_constant_coefficients():
    sl3 = standard_cartan("sl3")
    rel = ChevalleyRelations(sl3)
    one = even_field(Jet.constant(1, order=4))
    zero = even_field(Jet.zero(order=4))
    cx = Connection("dx", LieValuedField(
        rel, {("H", 0): zero, ("H", 1): zero, ("X+", 0): one, ("X+", 1): one}))
    cy = Connection("dy", LieValuedField(
        rel, {("H", 0): zero, ("H", 1): zero, ("X-", 0): one, ("X-", 1): one}))
    r = curvature(cx, cy)
    const1 = even_field(Jet.constant(1, order=3))
    assert r.coefficient(("H", 0)) == const1
    assert r.coefficient(("H", 1)) == const1
    assert r.coefficient(("X+", 0)) is None
    assert r.coefficient(("X-", 1)) is None


def test_graded_antisymmetry_of_curvature(rng):
    sl2 = standard_cartan("sl2")
    for _ in range(5):
        fields = [even_field(random_jet(rng, order=5)) for _ in range(4)]
        cx, cy = classical_pair(sl2, *fields)
        r12 = curvature(cx, cy)
        r21 = curvature(cy, cx)
        for g, v in r12.generators.items():
            assert v == -(r21.generators[g])
    # odd pair: R(D1,D2) = +R(D2,D1)
    rel = Osp12Relations()
    for _ in range(5):
        alpha = random_superfield(rng, GENS, order=5, parity=1, comps=2)
        beta = random_superfield(rng, GENS, order=5, parity=1, comps=2)
        a = random_superfield(rng, GENS, order=5, parity=0, comps=2)
        b = random_superfield(rng, GENS, order=5, parity=0, comps=2)
        cp = Connection("D+", LieValuedField(rel, {("H", 0): alpha,
                                                   ("d+", 0): a}))
        cm = Connection("D-", LieValuedField(rel, {("H", 0): beta,
                                                   ("d-", 0): b}))
        rpm = curvature(cp, cm)
        rmp = curvature(cm, cp)
        for g, v in rpm.generators.items():
            assert v == rmp.generators[g]


def test_curvature_stays_in_level_span(rng):
    sl3 = standard_cartan("sl3")
    rel = ChevalleyRelations(sl3)
    fields = {k: even_field(random_jet(rng, order=4))
              for k in [("H", 0), ("H", 1), ("X+", 0), ("X+", 1)]}
    cx = Connection("dx", LieValuedField(rel, fields))
    ok = Connection("dy", LieValuedField(
        rel, {("X-", 0): even_field(random_jet(rng, order=4))}))
    assert set(curvature(cx, ok).generators) <= {
        ("H", 0), ("H", 1), ("X-", 0), ("X-", 1), ("X+", 0), ("X+", 1)}
    bad = Connection("dy", LieValuedField(
        rel, {("H", 0): even_field(random_jet(rng, order=4))}))
    # force an X+ with X+ cross bracket through a hand-built dy connection
    cross = Connection("dy", LieValuedField(
        rel, {("X-", 1): even_field(random_jet(rng, order=4))}))
    curvature(cx, cross)  # same-node and A_ij != 0 cross terms are X+/X- only
    with pytest.raises(OutOfSpanError):
        rel.bracket(("X+", 0), ("X+", 1))
    assert rel.bracket(("X+", 0), ("X+", 0)) == ()


def test_bracket_part_is_bilinear_over_scalars(rng):
    # with constant coefficients the derivative terms vanish and the
    # curvature reduces to the bracket pairing, linear in each argument
    sl2 = standard_cartan("sl2")
    for _ in range(5):
        consts = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        fields = [even_field(Jet.constant(c, order=4)) for c in consts]
        lam = Fraction(rng.randint(2, 5))
        cx, cy = classical_pair(sl2, *fields)
        scaled = [even_field(Jet.constant(c * lam, order=4))
                  for c in consts[:2]] + fields[2:]
        cx2, _ = classical_pair(sl2, *scaled)
        r = curvature(cx, cy)
        r2 = curvature(cx2, cy)
        for g, v in r.generators.items():
            assert r2.generators[g] == v * lam
        # additivity in the first argument
        summed = [even_field(Jet.constant(c + c * lam, order=4))
                  for c in consts[:2]] + fields[2:]
        cx3, _ = classical_pair(sl2, *summed)
        r3 = curvature(cx3, cy)
        for g in set(r.generators) | set(r3.generators):
            left = r3.generators.get(g, even_field(Jet.zero(order=3)))
            a = r.generators.get(g, even_field(Jet.zero(order=3)))
            b = r2.generators.get(g, even_field(Jet.zero(order=3)))
            assert left == a + b


def test_connection_parity_validation(rng):
    rel = Osp12Relations()
    odd = random_superfield(rng, GENS, order=4, parity=1, comps=1)
    even = random_superfield(rng, GENS, order=4, parity=0, comps=1)
    Connection("D+", LieValuedField(rel, {("H", 0): odd, ("d+", 0): even}))
    with pytest.raises(ValueError):
        Connection("D+", LieValuedField(rel, {("H", 0): even}))
    with pytest.raises(ValueError):
        Connection("dx", LieValuedField(rel, {("d+", 0): odd}))
    with pytest.raises(ValueError):
        Connection("dx", LieValuedField(
            ChevalleyRelations(standard_cartan("sl2")), {("H", 0): odd}))


def test_direction_mixing_rejected(rng):
    sl2 = standard_cartan("sl2")
    f = even_field(random_jet(rng, order=4))
    cx, cy = classical_pair(sl2, f, f, f, f)
    rel = Osp12Relations()
    cp = Connection("D+", LieValuedField(
        rel, {("d+", 0): even_field(random_jet(rng, order=4))}))
    with pytest.raises(ValueError,
                       match="connections use different relation engines"):
        curvature(cx, cp)


def test_direction_mixing_rejected_on_one_engine(rng):
    rel = Osp12Relations()
    u = even_field(random_jet(rng, order=4))
    v = u * SuperField.coordinate("th1", GENS, (0, 0), 4)
    cx = Connection("dx", LieValuedField(rel, {("H", 0): u}))
    cp = Connection("D+", LieValuedField(rel, {("H", 0): v}))
    with pytest.raises(ValueError, match="cannot mix directions dx and D+"):
        curvature(cx, cp)


def _rank_two_pair(cartan, rng):
    """d_x + a H_1 + b X+_1 and d_y + A H_1 + B X-_1 over one engine."""
    rel = ChevalleyRelations(cartan)
    a, b, A, B = (even_field(random_jet(rng, order=4)) for _ in range(4))
    cx = Connection("dx", LieValuedField(rel, {("H", 0): a, ("X+", 0): b}))
    cy = Connection("dy", LieValuedField(rel, {("H", 0): A, ("X-", 0): B}))
    return cx, cy


def test_engines_of_different_matrices_are_refused(rng):
    cx, cy = _rank_two_pair(standard_cartan("sl3"), rng)
    other = CartanMatrix.from_rows([[2, -2], [-1, 2]])
    ox, oy = _rank_two_pair(other, rng)
    for c1, c2 in ((cx, oy), (oy, cx), (ox, cy), (cy, ox)):
        with pytest.raises(ValueError,
                           match="connections use different relation engines"):
            curvature(c1, c2)


def test_engines_of_equal_data_are_accepted(rng):
    cx, cy = _rank_two_pair(standard_cartan("sl3"), rng)
    twin = ChevalleyRelations(CartanMatrix.from_rows([[2, -1], [-1, 2]]))
    assert twin is not cy.value.relations
    ty = Connection("dy", LieValuedField(twin, cy.value.coefficients))
    assert curvature(cx, ty) == curvature(cx, cy)
    assert curvature(ty, cx) == curvature(cy, cx)
    u = even_field(random_jet(rng, order=4))
    rel = Osp12Relations()
    ox = Connection("dx", LieValuedField(rel, {("H", 0): u}))
    oy = Connection("dy", LieValuedField(rel, {("X+", 0): u}))
    oy_twin = Connection("dy", LieValuedField(Osp12Relations(),
                                              {("X+", 0): u}))
    assert curvature(ox, oy_twin) == curvature(ox, oy)
    assert curvature(ox, oy).coefficient(("X+", 0)) is not None


def test_curvature_parts_is_the_curvature_result(rng):
    cx, cy = _rank_two_pair(standard_cartan("sl3"), rng)
    parts = _curvature_parts(cx.value.relations, "dx", cx.value.nonzero(),
                             "dy", cy.value.nonzero())
    assert type(parts) is CurvatureResult
    assert curvature(cx, cy) == parts
    # the D+ pair of the curvature benchmark: an odd H and an even d+
    odd = SuperField.coordinate("th1", GENS, (0, 0), 4)
    value = LieValuedField(Osp12Relations(), {
        ("H", 0): odd, ("d+", 0): even_field(random_jet(rng, order=4))})
    conn = Connection("D+", value)
    assert curvature(conn, conn).operator == {"dx": Fraction(2)}


def test_derive_toda_rank_one_renders_displayed_system():
    system = derive_toda(standard_cartan("sl2"))
    lines = [eq.render() for eq in system.first_order]
    assert lines == ["A_x - a_y = -b*B", "B_x = 2*a*B", "b_y = -2*b*A"]
    assert [eq.render() for eq in system.final] == ["G_xy = 2*exp(G)"]
    assert system.defs == ("G = ln(b*B)",)


def test_derive_toda_ls_form():
    system = derive_toda(standard_cartan("sl2"), form="ls")
    assert [eq.render() for eq in system.final] == ["F_xy = exp(2*F)"]
    with pytest.raises(ValueError):
        derive_toda(CartanMatrix.from_rows([[0]]), form="ls")


def test_derive_toda_sl3():
    system = derive_toda(standard_cartan("sl3"))
    finals = [eq.render() for eq in system.final]
    assert finals == ["G1_xy = 2*exp(G1) - exp(G2)",
                      "G2_xy = -exp(G1) + 2*exp(G2)"]


def test_derive_toda_zero_matrix():
    system = derive_toda(CartanMatrix.from_rows([[0]]))
    assert [eq.render() for eq in system.final] == ["G_xy = 0"]


def test_derive_toda_rejects_odd_nodes():
    with pytest.raises(ValueError):
        derive_toda(standard_cartan("osp12"))


def test_derive_toda_rejects_an_unknown_form():
    with pytest.raises(ValueError) as err:
        derive_toda(standard_cartan("sl3"), "bogus")
    assert str(err.value) == "unknown form 'bogus'"


def test_derive_super_liouville_structure():
    system = derive_super_liouville()
    lines = [eq.render() for eq in system.first_order]
    assert lines == ["D+(beta) + D-(alpha) = -a*b",
                     "D+(b) = alpha*b",
                     "D-(a) = -a*beta"]
    assert [eq.render() for eq in system.final] == ["D+(D-(F)) = exp(F)"]
    assert system.defs == ("F = ln(a*b)",)
    assert any("derived signs" in note for note in system.notes)
    assert SUPER_LIOUVILLE_SIGN == 1


def test_split_equation_leads_with_a_positive_printed_term():
    # the first printed left term, D+(beta), gets the positive coefficient
    expr = fn("alpha", 1).d_minus() - fn("beta", 1).d_plus() + fn("a") * fn("b")
    eq = _split_equation(expr)
    assert eq.render() == "D+(beta) - D-(alpha) = a*b"
    assert _split_equation(-expr).render() == eq.render()


def test_obstruction_scalar_terms_are_exactly_one():
    system = nonreduced_obstruction()
    for eq, opname in zip(system.final, ("d_x", "d_y")):
        assert eq.lhs.terms[(Atom(opname),)] == Fraction(1)
        assert eq.rhs.is_zero()


def test_obstruction_concrete_operator_part(rng):
    rel = Osp12Relations()
    for _ in range(20):
        alpha = random_superfield(rng, GENS, order=4, parity=1, comps=2)
        a = random_superfield(rng, GENS, order=4, parity=0, comps=2)
        cp = Connection("D+", LieValuedField(rel, {("H", 0): alpha,
                                                   ("d+", 0): a}))
        r = curvature(cp, cp)
        assert r.operator == {"dx": Fraction(2)}
        beta = random_superfield(rng, GENS, order=4, parity=1, comps=2)
        b = random_superfield(rng, GENS, order=4, parity=0, comps=2)
        cm = Connection("D-", LieValuedField(rel, {("H", 0): beta,
                                                   ("d-", 0): b}))
        r = curvature(cm, cm)
        assert r.operator == {"dy": Fraction(2)}


def test_obstruction_survives_zero_coefficients():
    rel = Osp12Relations()
    zero = SuperField.zero(GENS, order=4)
    cp = Connection("D+", LieValuedField(rel, {("H", 0): zero}))
    r = curvature(cp, cp)
    assert not r.generators
    assert r.operator == {"dx": Fraction(2)}


def test_reduced_pair_has_no_operator_part(rng):
    rel = Osp12Relations()
    alpha = random_superfield(rng, GENS, order=4, parity=1, comps=1)
    b = random_superfield(rng, GENS, order=4, parity=0, comps=1)
    cp = Connection("D+", LieValuedField(rel, {("H", 0): alpha}))
    cm = Connection("D-", LieValuedField(rel, {("d-", 0): b}))
    assert curvature(cp, cm).operator == {}


def test_concrete_super_curvature_matches_derived_signs(rng):
    """The symbolic first-order system and the concrete curvature agree."""
    rel = Osp12Relations()
    for _ in range(10):
        alpha = random_superfield(rng, GENS, order=5, parity=1, comps=2)
        beta = random_superfield(rng, GENS, order=5, parity=1, comps=2)
        a = random_superfield(rng, GENS, order=5, parity=0, comps=2)
        b = random_superfield(rng, GENS, order=5, parity=0, comps=2)
        cp = Connection("D+", LieValuedField(rel, {("H", 0): alpha,
                                                   ("d+", 0): a}))
        cm = Connection("D-", LieValuedField(rel, {("H", 0): beta,
                                                   ("d-", 0): b}))
        r = curvature(cp, cm)
        t4 = lambda f: f.truncate(4)
        assert r.coefficient(("H", 0)) == \
            beta.d_plus() + alpha.d_minus() + t4(a * b)
        assert r.coefficient(("d-", 0)) == b.d_plus() - t4(alpha * b)
        assert r.coefficient(("d+", 0)) == a.d_minus() + t4(a * beta)
        assert set(r.generators) == {("H", 0), ("d-", 0), ("d+", 0)}


def test_derived_curvatures_have_only_their_solvable_components():
    """The symbolic curvatures that derive_toda and derive_super_liouville
    split into equations have no component and no operator part besides
    the ones they read."""
    rel, cplus, cminus = _super_pair()
    gens, operator = _curvature_parts(rel, "D+", cplus, "D-", cminus)
    assert set(gens) == {("H", 0), ("d-", 0), ("d+", 0)} and operator == {}
    for name in ("sl2", "sl3", "sl4"):
        A = standard_cartan(name)
        rel, n = ChevalleyRelations(A), A.rank
        cx = {("H", i): fn(f"a{i}") for i in range(n)}
        cx.update({("X+", i): fn(f"b{i}") for i in range(n)})
        cy = {("H", i): fn(f"A{i}") for i in range(n)}
        cy.update({("X-", i): fn(f"B{i}") for i in range(n)})
        gens, operator = _curvature_parts(rel, "dx", cx, "dy", cy)
        assert set(gens) == {(k, i) for k in ("H", "X+", "X-")
                             for i in range(n)} and operator == {}


class _EmptyBrackets:
    """Relations in which every bracket of two generators vanishes."""

    def parity(self, g):
        return 0

    def bracket(self, g1, g2):
        return ()


class _NoProducts(Expr):
    """A coefficient whose products must never be formed."""

    def __mul__(self, other):
        raise AssertionError("coefficient product formed for an empty bracket")

    __rmul__ = __mul__


def test_empty_brackets_form_no_coefficient_products():
    rel = _EmptyBrackets()
    cx = {("H", 0): _NoProducts(Expr.rational(3).terms),
          ("X+", 0): _NoProducts(Expr.rational(-1).terms)}
    cy = {("H", 0): _NoProducts(Expr.rational(2).terms),
          ("X-", 0): _NoProducts(Expr.rational(5).terms)}
    gens, operator = _curvature_parts(rel, "dx", cx, "dy", cy)
    assert gens == {} and operator == {}
    result = curvature(Connection("dx", LieValuedField(rel, cx)),
                       Connection("dy", LieValuedField(rel, cy)))
    assert result.generators == {}


def test_empty_brackets_still_check_homogeneity():
    rel = _EmptyBrackets()
    mixed = _NoProducts((fn("a") + fn("alpha", 1)).terms)
    with pytest.raises(ValueError,
                       match=r"coefficient of \('X-', 0\) is not homogeneous"):
        Connection("dy", LieValuedField(rel, {("X-", 0): mixed}))


class _CountsParity(Expr):
    """A coefficient that counts its own parity() calls."""

    def __init__(self, terms):
        super().__init__(terms)
        self.parity_calls = 0

    def parity(self):
        self.parity_calls += 1
        return super().parity()


def test_each_bracket_operand_parity_computed_once():
    """Connection checks each coefficient's parity once; the curvature's
    bracket signs read the grading and compute none."""
    rel = ChevalleyRelations(standard_cartan("sl2"))
    cx = {("H", 0): fn("a"), ("X+", 0): fn("b")}
    cy = {("H", 0): _CountsParity(fn("A").terms),
          ("X-", 0): _CountsParity(fn("B").terms)}
    curvature(Connection("dx", LieValuedField(rel, cx)),
              Connection("dy", LieValuedField(rel, cy)))
    assert [c.parity_calls for c in cy.values()] == [1, 1]


def test_level_two_brackets_are_antisymmetric():
    """[X_i, X_j] and [X_j, X_i] (both X+ or both X-) agree: both vanish,
    by the Serre relation when a_ij = 0 or a_ji = 0, or both leave the
    level -1..1 span."""
    def outcome(rel, g1, g2):
        try:
            return rel.bracket(g1, g2)
        except OutOfSpanError:
            return "out of span"

    rel = ChevalleyRelations(CartanMatrix.from_rows([[2, 0], [-1, 2]]))
    for k in ("X+", "X-"):
        assert outcome(rel, (k, 0), (k, 1)) == ()
        assert outcome(rel, (k, 1), (k, 0)) == ()

    rng = random.Random(1212)
    asymmetric = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [[2 if i == j else rng.choice((0, 0, -1, -3, Fraction(-1, 2)))
                 for j in range(n)] for i in range(n)]
        rel = ChevalleyRelations(CartanMatrix.from_rows(rows))
        for i in range(n):
            for j in range(i + 1, n):
                asymmetric += (rows[i][j] == 0) != (rows[j][i] == 0)
                for k in ("X+", "X-"):
                    forward = outcome(rel, (k, i), (k, j))
                    assert forward == outcome(rel, (k, j), (k, i))
                    both = rows[i][j] != 0 and rows[j][i] != 0
                    assert forward == ("out of span" if both else ())
    assert asymmetric > 20


def _reference_bracket(A, g1, g2):
    """[g1, g2] from [H_i, X_j+-] = +-A_ji X_j+-, [X_i+, X_j-] = delta_ij H_i,
    antisymmetry, and the Serre relation at level +-2."""
    (k1, i), (k2, j) = g1, g2
    if k1 == k2 == "H":
        return ()
    if k1 == "H":
        c = A[j][i] if k2 == "X+" else -A[j][i]
        return ((c, g2),) if c else ()
    if k2 == "H" or (k1, k2) == ("X-", "X+"):
        return tuple((-c, g) for c, g in _reference_bracket(A, g2, g1))
    if (k1, k2) == ("X+", "X-"):
        return ((1, ("H", i)),) if i == j else ()
    if i == j or A[i][j] == 0 or A[j][i] == 0:
        return ()
    return "out of span"


def test_chevalley_bracket_matches_the_relations_table():
    # seeded matrices with rational off-diagonal entries, some zero on one
    # side of a pair only, so every Serre case and out-of-span pair turns up
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        A = [[Fraction(2) if i == j else Fraction(rng.choice(
              [0, 0, -1, -2, Fraction(-1, 2), Fraction(-3, 4)]))
              for j in range(n)] for i in range(n)]
        rel = ChevalleyRelations(CartanMatrix.from_rows(A))
        gens = [(k, i) for k in ("H", "X+", "X-") for i in range(n)]
        for g1 in gens:
            for g2 in gens:
                try:
                    got = rel.bracket(g1, g2)
                except OutOfSpanError:
                    got = "out of span"
                assert got == _reference_bracket(A, g1, g2), (seed, g1, g2)
                if got and got != "out of span" and got[0][0].denominator > 1:
                    seen.add("rational")
                if g1[0] == g2[0] == "X+" and g1 != g2:
                    i, j = g1[1], g2[1]
                    seen.add((A[i][j] == 0, A[j][i] == 0, got))
    assert {"rational", (False, False, "out of span"), (True, False, ()),
            (False, True, ()), (True, True, ())} <= seen


def _summed_parts(relations, dir1, coeffs1, dir2, coeffs2):
    """The curvature with each contribution built as its own value, scaled
    by its bracket coefficient and sign, and added one at a time."""
    p1, p2 = (zerocurv._DIR_PARITY[d] for d in (dir1, dir2))
    method = zerocurv._DIR_METHOD
    parts: dict = {}
    for g, c in coeffs2.items():
        parts.setdefault(g, []).append(getattr(c, method[dir1])())
    for g, c in coeffs1.items():
        d = getattr(c, method[dir2])()
        parts.setdefault(g, []).append(d if p1 * p2 else -d)
    for g1, c1 in coeffs1.items():
        for g2, c2 in coeffs2.items():
            s = -1 if relations.parity(g1) and (
                p2 + relations.parity(g2)) % 2 else 1
            for coef, g3 in relations.bracket(g1, g2):
                parts.setdefault(g3, []).append(
                    zerocurv._lower(c1 * c2) * (coef * s))
    totals = {g: sum(vals[1:], vals[0]) for g, vals in parts.items()}
    return {g: v for g, v in totals.items() if not v.is_zero()}


def _random_gcm(rng, n):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                rows[i][j], rows[j][i] = (
                    rng.choice([-1, -1, -2, -3, Fraction(-1, 2)])
                    for _ in range(2))
    return CartanMatrix.from_rows(rows)


def test_weighted_parts_equal_per_contribution_sums():
    rng = random.Random(3535)
    for trial in range(30):
        A = _random_gcm(rng, 1 + trial % 6)
        rel, n = ChevalleyRelations(A), A.rank
        cx = {("H", i): fn(f"a{i}") for i in range(n)}
        cx.update({("X+", i): fn(f"b{i}") for i in range(n)})
        cy = {("H", i): fn(f"A{i}") for i in range(n)}
        cy.update({("X-", i): fn(f"B{i}") for i in range(n)})
        if trial % 2:  # coefficients of more than one term
            cx[("H", 0)] = cx[("H", 0)] * 3 + fn("u") * fn("v")
            cy[("X-", n - 1)] = cy[("X-", n - 1)] - fn("u") * Fraction(1, 2)
        gens, _ = _curvature_parts(rel, "dx", cx, "dy", cy)
        want = _summed_parts(rel, "dx", cx, "dy", cy)
        assert gens == want
        assert [v.render() for v in gens.values()] == \
            [v.render() for v in want.values()]
    rel, cplus, cminus = _super_pair()
    for d1, c1, d2, c2 in (("D+", cplus, "D-", cminus),
                           ("D-", cminus, "D+", cplus),
                           ("D+", cplus, "D+", cplus),
                           ("D-", cminus, "D-", cminus)):
        gens, _ = _curvature_parts(rel, d1, c1, d2, c2)
        assert gens and gens == _summed_parts(rel, d1, c1, d2, c2)


def test_superfield_curvature_scales_by_no_unit(rng, monkeypatch):
    """A contribution of weight 1 or -1 is its value or its negation, never
    a product by the weight; the other weights scale once each."""
    scaled = Counter()
    plain = Jet._scaled

    def counted(self, value):
        scaled[value] += 1
        return plain(self, value)

    rel = ChevalleyRelations(CartanMatrix.from_rows([[2, -1], [-3, 2]]))
    field = lambda: even_field(random_jet(rng, order=4, max_deg=1) + 1)
    cx = {(k, i): field() for k in ("H", "X+") for i in (0, 1)}
    cy = {(k, i): field() for k in ("H", "X-") for i in (0, 1)}
    monkeypatch.setattr(Jet, "_scaled", counted)
    got = curvature(Connection("dx", LieValuedField(rel, cx)),
                    Connection("dy", LieValuedField(rel, cy)))
    # weights -A_ji of [H_i, X-_j] and -A_ij of [X+_i, H_j], each once per
    # jet component; 1 and -1 are never scaled by
    assert set(scaled) == {-2, 3}
    monkeypatch.undo()
    assert got.generators == _summed_parts(rel, "dx", cx, "dy", cy)


def test_derive_toda_sl17_builds_each_component_once(monkeypatch):
    """Exact call counts for derive_toda(sl17, "lsbis"): one coefficient
    product per nonzero bracket and one per nonzero A_ij, one collect per
    curvature component and lsbis sum and per scaled exp, and monomial
    merges only for the 108 bracket products."""
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    A = standard_cartan("sl17")
    derive_toda(A, "lsbis")  # the atom tables are filled once per process
    monkeypatch.setattr(Expr, "__mul__", counted("mul", Expr.__mul__))
    collect = counted("collect", symexpr._collect)
    for module in (symexpr, zerocurv):
        monkeypatch.setattr(module, "_collect", collect)
    monkeypatch.setattr(symexpr, "_mul_monomials",
                        counted("merge", symexpr._mul_monomials))
    derive_toda(A, "lsbis")
    assert calls == {"mul": 154, "collect": 80, "merge": 108}
