import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import zcurv
from conftest import DATA, GOLDEN
from zcurv import symexpr
from zcurv.cartan import CartanMatrix, render_cartan, standard_cartan
from zcurv.symexpr import Atom, ExpAtom, Expr, _mul_monomials, exp_linear, fn
from zcurv.zerocurv import derive_toda


def test_operator_word_normalisation():
    f = fn("f")
    assert f.d_plus().d_plus() == f.deriv_x()
    assert f.d_minus().d_minus() == f.deriv_y()
    assert (f.d_plus().d_minus() + f.d_minus().d_plus()).is_zero()
    # D+ D+ D- f = dx D- f
    assert f.d_minus().d_plus().d_plus() == f.d_minus().deriv_x()


def test_partial_derivatives_commute_with_everything():
    f = fn("f")
    assert f.deriv_x().deriv_y() == f.deriv_y().deriv_x()
    assert f.d_plus().deriv_x() == f.deriv_x().d_plus()


def test_odd_atoms_anticommute_and_square_to_zero():
    a, b = fn("alpha", 1), fn("beta", 1)
    assert (a * b + b * a).is_zero()
    assert (a * a).is_zero()
    c = fn("c")
    assert a * c == c * a


def test_parity_of_derivatives():
    a = fn("alpha", 1)
    assert a.parity() == 1
    assert a.d_plus().parity() == 0
    assert a.d_plus().d_minus().parity() == 1
    assert a.deriv_x().parity() == 1


def test_super_leibniz_in_the_symbolic_ring():
    a, b = fn("alpha", 1), fn("b")
    # D+(alpha*b) = D+(alpha)*b - alpha*D+(b)
    lhs = (a * b).d_plus()
    rhs = a.d_plus() * b - a * b.d_plus()
    assert lhs == rhs


def test_even_leibniz():
    u, v = fn("u"), fn("v")
    assert (u * v).deriv_x() == u.deriv_x() * v + u * v.deriv_x()


def test_substitution_applies_derivative_words():
    lnb = fn("lnb")
    expr = fn("alpha", 1).d_minus()
    out = expr.substitute({"alpha": lnb.d_plus()})
    assert out == lnb.d_plus().d_minus()
    assert out == -(lnb.d_minus().d_plus())


def test_substitution_in_products():
    a, b = fn("alpha", 1), fn("beta", 1)
    out = (a * b).substitute({"alpha": fn("u", 1), "beta": fn("v", 1)})
    assert out == fn("u", 1) * fn("v", 1)


def test_render_canonical():
    a, b = fn("a"), fn("B")
    assert (a.deriv_x() - b.deriv_y() * 2).render() == "a_x - 2*B_y"
    assert (a * b * 2).render() == "2*a*B"
    assert (a * a).render() == "a^2"
    assert fn("F").d_minus().d_plus().render() == "D+(D-(F))"
    # names equal but for case past their first letter still print in one order
    assert (fn("ab") + fn("aB")).render() == (fn("aB") + fn("ab")).render() \
        == "aB + ab"
    assert Expr().render() == "0"
    assert (exp_linear([(2, "F1"), (-1, "F2")]) * Fraction(1, 2)).render() \
        == "(1/2)*exp(2*F1 - F2)"


def test_one_name_with_both_parities_renders_in_canonical_order():
    even, odd = fn("a") * 2, fn("a", 1) * 3
    assert Expr.sum([even, odd]).render() == Expr.sum([odd, even]).render()
    assert (fn("a") * fn("a", 1)) == (fn("a", 1) * fn("a"))


def test_exp_linear_merges_repeated_names():
    assert exp_linear([(1, "F"), (2, "F")]) == exp_linear([(3, "F")])
    assert (exp_linear([(1, "G"), (1, "F"), (-1, "G")])
            - exp_linear([(1, "F")])).is_zero()
    assert exp_linear([(1, "F"), (-1, "F")]) == Expr.rational(1)
    assert exp_linear([]).render() == "1"


def test_exp_linear_keeps_integral_coefficients_int():
    a, b = exp_linear([(Fraction(2), "F")]), exp_linear([(2, "F")])
    assert a == b and hash(a) == hash(b) and a.render() == b.render()
    ((atom,),) = a.terms
    assert atom.args == ((2, "F"),) and type(atom.args[0][0]) is int
    ((atom,),) = exp_linear([(Fraction(1, 2), "F"), (Fraction(3, 2), "F"),
                             (Fraction(1, 3), "G")]).terms
    assert [type(c) for c, _ in atom.args] == [int, Fraction]


def test_rational_constants():
    one = Expr.rational(1)
    assert (one * Fraction(3, 2)).render() == "3/2"
    assert (fn("a") - fn("a")).is_zero()


@pytest.mark.parametrize("product", [lambda a: a * 0.5, lambda a: 0.5 * a])
def test_a_float_factor_is_a_type_error(product):
    with pytest.raises(TypeError, match="unsupported operand"):
        product(fn("a"))


def test_exp_atoms_cannot_be_differentiated():
    g = exp_linear([(1, "G")])
    for op in ("dx", "dy", "dp", "dm"):
        for e in (g, g * 3, g * fn("a"), g + fn("a")):
            with pytest.raises(ValueError, match=r"cannot differentiate an "
                               r"exp\(\.\.\.\) atom"):
                e._derive(op)
    assert not any(isinstance(a, ExpAtom)
                   for table in symexpr._ATOM_DERIVS.values() for a in table)


def test_an_unknown_derivation_is_refused():
    for e in (Expr(), fn("a")):
        with pytest.raises(ValueError, match="unknown derivation 'dz'"):
            e._derive("dz")


def test_atom_render_with_mixed_word():
    atom = Atom("a", dx=1, dp=1)
    assert atom.render() == "D+(a)_x"


_NAMES = {"a": 0, "B": 0, "alpha": 1, "beta": 1}


@st.composite
def _exprs(draw):
    """Small sums of products of even and odd atoms, some of them with an
    exp(...) factor."""
    out = Expr()
    for _ in range(draw(st.integers(0, 3))):
        term = Expr.rational(Fraction(draw(st.integers(-3, 3)),
                                      draw(st.integers(1, 3))))
        for name in draw(st.lists(st.sampled_from(sorted(_NAMES)),
                                  max_size=2)):
            term = term * Expr.atom(Atom(name, dx=draw(st.integers(0, 1)),
                                         dp=draw(st.integers(0, 1)),
                                         base_parity=_NAMES[name]))
        if draw(st.booleans()):
            term = term * exp_linear(
                [(draw(st.integers(-2, 2)), draw(st.sampled_from("FG")))])
        out = out + term
    return out


def _graded_parts(e):
    """The even and odd parts of e, each homogeneous."""
    parts = ({}, {})
    for mono, c in e.terms.items():
        parts[sum(a.parity for a in mono) % 2][mono] = c
    return [(p, Expr(terms)) for p, terms in enumerate(parts)]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(_exprs(), max_size=5), st.data())
def test_sum_equals_folding_with_add(parts, data):
    # append negatives of some parts, so that whole terms cancel to zero
    picks = data.draw(st.lists(st.sampled_from(parts), max_size=3)) \
        if parts else []
    parts = parts + [-p for p in picks]
    folded = Expr()
    for p in parts:
        folded = folded + p
    total = Expr.sum(parts)
    assert total == folded
    assert all(total.terms.values())
    assert total.render() == folded.render()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_exprs(), _exprs(), _exprs())
def test_products_associate_and_commute_up_to_grading(a, b, c):
    assert (a * b) * c == a * (b * c)
    for pa, a_part in _graded_parts(a):
        for pb, b_part in _graded_parts(b):
            assert a_part * b_part == (-1) ** (pa * pb) * (b_part * a_part)


def test_sum_of_nothing_is_zero():
    assert Expr.sum([]) == Expr()
    assert Expr.sum([]).is_zero()
    a = fn("a")
    assert Expr.sum([a, -a]).terms == {}


# Even and odd atoms, derivative words, names equal but for case, and exp
# atoms; drawn from a small pool, so monomials often share atoms.
_POOL = (Atom("a"), Atom("a", dx=1), Atom("aB", dp=1), Atom("ab", dy=1),
         Atom("ab", base_parity=1), Atom("B", dm=1),
         Atom("alpha", base_parity=1), Atom("alpha", dx=1, dp=1,
                                            base_parity=1),
         Atom("b", dy=2, dp=1, dm=1), ExpAtom(((Fraction(1), "F"),)),
         ExpAtom(((Fraction(-1, 2), "F"), (Fraction(2), "G"))))


def _canonical(atoms):
    """Sorted by sort_key, with no odd atom twice."""
    out = []
    for a in sorted(atoms, key=lambda a: a.sort_key):
        if not (a.parity and out and out[-1] == a):
            out.append(a)
    return tuple(out)


def _reference_product(m1, m2):
    """Sort m1 + m2 by sort_key, a sign from each odd atom of m2 that moves
    past an odd atom of m1, and zero when an odd atom is squared."""
    merged = sorted(m1 + m2, key=lambda a: a.sort_key)
    if any(x == y and x.parity for x, y in zip(merged, merged[1:])):
        return ()
    swaps = sum(1 for x in m1 for y in m2
                if x.parity and y.parity and y.sort_key < x.sort_key)
    return (((-1) ** swaps, tuple(merged)),)


_monomials = st.lists(st.sampled_from(_POOL), max_size=4).map(_canonical)


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(_monomials, _monomials)
def test_monomial_product_matches_a_reference_merge(m1, m2):
    want = _reference_product(m1, m2)
    assert _mul_monomials(m1, m2) == want
    # the same through Expr's product of two single terms
    assert (Expr({m1: 2}) * Expr({m2: Fraction(3, 4)})).terms == {
        m: Fraction(3, 2) * sign for sign, m in want}


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_exprs(), st.sampled_from([1, -1, Fraction(1), Fraction(-1), 2,
                                  Fraction(-3, 2), 0]))
def test_product_by_a_rational_scales_each_coefficient(e, q):
    want = Expr({m: c * q for m, c in e.terms.items()})
    assert e * q == q * e == want
    assert all(type(c) is int or c.denominator > 1
               for c in (e * q).terms.values())


def _relabelled_sl17() -> CartanMatrix:
    a = standard_cartan("sl17").entries
    p = random.Random(17).sample(range(16), 16)
    return CartanMatrix.from_rows([[a[i][j] for j in p] for i in p])


def test_atom_keys_do_not_depend_on_the_order_atoms_are_met(tmp_path):
    # A fresh interpreter, under another hash seed, fills its key table from
    # a relabelled sl17 before it meets sl3's atoms.
    (tmp_path / "sl17.cm").write_text(render_cartan(_relabelled_sl17()))
    argv = [["derive", "--cartan", "sl17.cm", "--form", form]
            for form in ("ls", "lsbis")]
    argv.append(["derive", "--cartan", str(DATA / "sl3.cm")])
    script = ("import sys; from zcurv.cli import main\n"
              f"for argv in {argv!r}: assert main(argv) == 0\n")
    env = {**os.environ, "PYTHONHASHSEED": "7",
           "PYTHONPATH": str(Path(zcurv.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    sl17 = "".join(derive_toda(_relabelled_sl17(), form).render() + "\n"
                   for form in ("ls", "lsbis"))
    golden = (GOLDEN / "derive_sl3_lsbis.txt").read_text()
    assert proc.stdout == sl17 + golden


def test_one_derivation_computes_each_sort_key_once(monkeypatch):
    calls = Counter()
    sort_key = Atom.sort_key.fget

    def counted(atom):
        calls[atom] += 1
        return sort_key(atom)

    monkeypatch.setattr(Atom, "sort_key", property(counted))
    monkeypatch.setattr(symexpr, "_ATOM_KEYS", {})
    derive_toda(_relabelled_sl17(), "ls").render()
    assert max(calls.values()) == 1
    assert set(calls) == set(symexpr._ATOM_KEYS)
    assert len(calls) == 16 * 9  # a, b, A, B, their dx or dy, and F_xy


def _reference_derivative(a: Atom, op: str) -> tuple[int, Atom]:
    """op applied to the word dx^i dy^j (D+)^e+ (D-)^e- of a, normal
    ordered by rewriting: dx and dy commute with everything,
    D- D+ = -D+ D-, (D+)^2 = dx and (D-)^2 = dy."""
    odd = [op] if op in ("dp", "dm") else []
    odd += ["dp"] * a.dp + ["dm"] * a.dm
    even = Counter({"dx": a.dx, "dy": a.dy})
    if op in ("dx", "dy"):
        even[op] += 1
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(odd) - 1):
            pair = odd[k:k + 2]
            if pair == ["dm", "dp"]:
                odd[k:k + 2], sign, changed = ["dp", "dm"], -sign, True
            elif pair[0] == pair[1]:
                even["dx" if pair[0] == "dp" else "dy"] += 1
                del odd[k:k + 2]
                changed = True
            if changed:
                break
    return sign, Atom(a.name, even["dx"], even["dy"], odd.count("dp"),
                      odd.count("dm"), a.base_parity)


_words = st.builds(Atom, st.sampled_from(["a", "B", "alpha"]),
                   st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                   st.integers(0, 1), st.integers(0, 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(_words, min_size=1, max_size=3), st.sampled_from(
    ["dx", "dy", "dp", "dm"]))
def test_each_cached_atom_derivative_is_the_rewritten_word(atoms, op):
    # one-atom monomials take their derived atom straight from the table;
    # longer ones read it there too, then merge
    e = Expr.sum([Expr.atom(a) for a in atoms])
    product = Expr.rational(1)
    for a in atoms:
        product = product * Expr.atom(a)
    want = Expr.sum([Expr.atom(b) * s for s, b in
                     (_reference_derivative(a, op) for a in atoms)])
    assert e._derive(op) == want
    product._derive(op)  # fills the table through the merging path
    for table_op, table in symexpr._ATOM_DERIVS.items():
        for a, derived in table.items():
            assert derived == _reference_derivative(a, table_op) \
                == symexpr._derive_atom(a, table_op)


def test_a_derivative_of_one_atom_merges_no_monomials(monkeypatch):
    def merge(m1, m2):
        raise AssertionError("a one-atom derivative merged monomials")

    monkeypatch.setattr(symexpr, "_mul_monomials", merge)
    e = fn("a") * 3 + fn("alpha", 1).d_plus() - fn("B").deriv_y()
    assert e.d_minus().render() == "-D+(D-(alpha)) + 3*D-(a) - D-(B)_y"
    assert fn("b").d_plus().d_minus().d_minus() == fn("b").deriv_y().d_plus()
