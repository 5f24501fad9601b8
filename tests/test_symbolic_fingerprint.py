"""A fixed fingerprint of symbolic derivations.

Seeded ``render()`` texts are joined and hashed:

* ``derive_toda`` on sl2 to sl17, nodes relabelled by a seeded
  permutation, in the ``lsbis`` and the ``ls`` form;
* ``derive_toda`` in both forms on seeded matrices of rank 1 to 5 with
  rational entries (zeros, non-integer and asymmetric entries, a few odd
  nodes), where an error such as a singular matrix in the ``ls`` form
  enters as its type and message;
* ``derive_super_liouville`` and ``nonreduced_obstruction``;
* seeded sums, differences and products of even and odd expressions
  (with ``exp`` atoms now and then), and their ``d_plus``,
  ``d_minus().d_plus()`` and substitutions.

Rendered text depends only on the value of each expression, never on the
order in which its terms were accumulated, so the expected hash holds for
any accumulation scheme that computes the same sums.
"""

import hashlib
import random
from fractions import Fraction

from zcurv.cartan import CartanMatrix, standard_cartan
from zcurv.symexpr import Atom, Expr, exp_linear
from zcurv.zerocurv import (derive_super_liouville, derive_toda,
                            nonreduced_obstruction)

EXPECTED = (2254, "0aa8eb247ac2222343b897240778824f"
                  "9f4638ab864a96655468cb3b3525ec4b")

NAMES = {"a": 0, "B": 0, "f": 0, "u": 0, "alpha": 1, "Psi": 1}


def _text(thunk) -> str:
    try:
        return thunk().render()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _relabelled_sl(rng, n):
    rows = standard_cartan(f"sl{n}").entries
    perm = list(range(n - 1))
    rng.shuffle(perm)
    return CartanMatrix.from_rows([[rows[i][j] for j in perm] for i in perm])


def _rational_matrix(rng, rank):
    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-4, 3), rng.randint(1, 3))

    rows = [[rng.choice((Fraction(2), Fraction(2), Fraction(1), Fraction(0),
                         Fraction(1, 2), Fraction(3))) if i == j else entry()
             for j in range(rank)] for i in range(rank)]
    parities = None
    if rng.random() < 0.1:
        parities = [rng.choice(("even", "odd")) for _ in range(rank)]
    return CartanMatrix.from_rows(rows, parities)


def _derivations(rng):
    for n in range(2, 18):
        cartan = _relabelled_sl(rng, n)
        for form in ("lsbis", "ls"):
            yield _text(lambda: derive_toda(cartan, form))
    for rank in range(1, 6):
        for _ in range(12):
            cartan = _rational_matrix(rng, rank)
            for form in ("lsbis", "ls"):
                yield _text(lambda: derive_toda(cartan, form))
    yield derive_super_liouville().render()
    yield nonreduced_obstruction().render()


def _atom(rng):
    name = rng.choice(sorted(NAMES))
    return Expr.atom(Atom(name, rng.randint(0, 1), rng.randint(0, 1),
                          rng.randint(0, 1), rng.randint(0, 1), NAMES[name]))


def _expr(rng, with_exp, size=4, atoms=3):
    out = Expr()
    for _ in range(rng.randint(0, size)):
        term = Expr.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(rng.randint(0, atoms)):
            term = term * _atom(rng)
        if with_exp and rng.random() < 0.3:
            term = term * exp_linear([(rng.randint(-2, 2), "F1"),
                                      (Fraction(1, rng.randint(1, 3)), "F2")])
        out = out + term
    return out


def _expression_results(rng):
    for case in range(300):
        with_exp = case % 5 == 4
        u, v, w = (_expr(rng, with_exp) for _ in range(3))
        yield _text(lambda: u + v)
        yield _text(lambda: u - v + w)
        yield _text(lambda: u * v)
        yield _text(lambda: (u + w) * (v - u))
        yield _text(lambda: u.d_plus())
        yield _text(lambda: (u - w).d_minus().d_plus())
        mapping = {"alpha": _expr(rng, False, 2, 2),
                   "a": _expr(rng, with_exp, 2, 2),
                   "Psi": _expr(rng, False, 2, 1).d_minus()}
        yield _text(lambda: (u + w).substitute(mapping))


def fingerprint():
    rng = random.Random(7070)
    results = [*_derivations(rng), *_expression_results(rng)]
    text = "\n".join(results)
    return len(results), hashlib.sha256(text.encode()).hexdigest()


def test_symbolic_results_are_unchanged():
    assert fingerprint() == EXPECTED
