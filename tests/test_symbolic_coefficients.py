"""Every coefficient of every expression is an ``int`` or a non-integral
``Fraction``.

The check runs over all the expressions that the symbolic fingerprint
builds (derivations on slN and seeded generalized Cartan matrices in both
forms, the super Liouville system, the non-reduced obstruction and the
seeded expression algebra), intermediate ones included: it watches every
assignment of ``Expr.terms``.  A float coefficient would come from true
division of an ``int`` coefficient, as ``c / 2`` would in
``nonreduced_obstruction`` if its operator part were an ``int``.
"""

from fractions import Fraction

from test_symbolic_fingerprint import EXPECTED, fingerprint
from zcurv.symexpr import Expr


def _in_form(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_coefficients_are_int_or_non_integral_fraction(monkeypatch):
    slot = Expr.__dict__["terms"]
    seen = {"exprs": 0, "coefficients": 0}
    bad = []

    def set_terms(self, terms):
        seen["exprs"] += 1
        seen["coefficients"] += len(terms)
        bad.extend((type(c).__name__, c) for c in terms.values()
                   if not _in_form(c))
        slot.__set__(self, terms)

    monkeypatch.setattr(Expr, "terms",
                        property(lambda self: slot.__get__(self, Expr),
                                 set_terms))
    assert fingerprint() == EXPECTED
    assert not bad, bad[:5]
    assert seen["exprs"] > 10_000 and seen["coefficients"] > 10_000
