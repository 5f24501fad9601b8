"""A fixed fingerprint of exact series results.

A seeded set of 336 products, powers, exp, ln and inverses of jets
(orders 4 to 16, with rational, exp(q) and ln(p) bodies and with symbolic
coefficients past the body) and of exp and ln of superfields over four odd
generators is rendered with ``str`` and hashed.  The expected hash is that
of the plain double-loop product and the per-product weighted recurrence,
so any change to a single coefficient or to its representation
(``Fraction`` versus ``Scalar``) changes it.
"""

import hashlib
import random
from fractions import Fraction

from zcurv.jets import Jet
from zcurv.scalars import sexp, sln
from zcurv.superfield import SuperField, standard_gens

EXPECTED = (336, "529c0eba679ba14a8f2f4023f3a2e1f5"
                 "72ee9f18fc354711af3e40e2c3f137e4")

GENS = standard_gens(2)


def _rat(rng, nonzero=False):
    num = rng.randint(1, 9) * rng.choice((-1, 1)) if nonzero else \
        rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 6))


def _jet(rng, order, body, density):
    coeffs = {(0, 0): body}
    for d in range(1, order + 1):
        for i in range(d + 1):
            if rng.random() < density:
                coeffs[(i, d - i)] = _rat(rng)
    return Jet((Fraction(1, 2), Fraction(-1, 3)), order, coeffs)


def _bodies(rng):
    """One positive rational, one exp(q) and one ln(p) body."""
    return {
        "rational": Fraction(rng.randint(1, 9), rng.randint(1, 5)),
        "exp": sexp(Fraction(rng.randint(-3, 3) or 1, rng.randint(2, 3))),
        "ln": sln(Fraction(rng.choice([2, 3, 5, 6, 10]))),
    }


def _jet_results(rng):
    for order in range(4, 17):
        density = 0.9 if order <= 8 else 0.35
        bodies = _bodies(rng)
        jets = {kind: _jet(rng, order, body, density)
                for kind, body in bodies.items()}
        plain = _jet(rng, order, _rat(rng, nonzero=True), density)
        # symbolic coefficients past the body: the generic product path
        mixed = plain + _jet(rng, order, 0, 0.2) * bodies["ln"]
        for u in jets.values():
            yield u * plain
            yield u * mixed
            yield u.pow_int(3)
        yield plain * plain
        yield mixed * mixed
        yield mixed.pow_int(2)
        yield plain.pow_int(-2)
        yield (plain - plain.body).exp()
        yield jets["rational"].exp()
        yield jets["ln"].exp()
        yield jets["rational"].ln()
        yield jets["exp"].ln()
        yield jets["rational"].inverse()
        yield jets["exp"].inverse()
        yield mixed.inverse()
        # a product whose coefficients cancel
        yield jets["rational"] * jets["rational"].inverse()
        if order <= 8:
            yield (mixed - mixed.body).exp()
            yield jets["exp"].pow_int(-3)


def _superfield(rng, order, body):
    comps = {}
    for mask in range(1 << len(GENS)):
        if mask.bit_count() % 2 == 0 and (mask == 0 or rng.random() < 0.6):
            comps[mask] = _jet(rng, order, _rat(rng), 0.5)
    comps[0] = comps[0] + (body - comps[0].body)
    return SuperField(GENS, comps[0].base, order, comps)


def _superfield_results(rng):
    for order in range(4, 9):
        for _ in range(2):
            bodies = _bodies(rng)
            s = _superfield(rng, order, bodies["rational"])
            yield s.exp()
            yield s.ln()
            yield _superfield(rng, order, bodies["ln"]).exp()
            yield _superfield(rng, order, bodies["exp"]).ln()


def fingerprint():
    rng = random.Random(5150)
    results = [*_jet_results(rng), *_superfield_results(rng)]
    text = "\n".join(map(str, results))
    return len(results), hashlib.sha256(text.encode()).hexdigest()


def test_series_results_are_unchanged():
    assert fingerprint() == EXPECTED
