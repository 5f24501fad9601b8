"""A fixed fingerprint of exact series results.

A seeded set of 336 products, powers, exp, ln and inverses of jets
(orders 4 to 16, with rational, exp(q) and ln(p) bodies and with symbolic
coefficients past the body) and of exp and ln of superfields over four odd
generators is rendered with ``str`` and hashed.  The expected hash is that
of the plain double-loop product and the per-product weighted recurrence,
so any change to a single coefficient or to its representation
(``Fraction`` versus ``Scalar``) changes it.

A second seeded set hashes residuals: ``ls`` and ``lsbis`` on sl2 to sl5,
Liouville and super-Liouville residuals, with rational and ln(p) bodies,
symbolic coefficients, exact solutions and nonzero residuals.  Each result
enters as its ``str`` together with ``repr`` of its largest coefficient
magnitude, so the printed verdict of a verify verb is pinned as well.  The
expected hash is that of exponentiating at full order and truncating after.
"""

import hashlib
import random
from fractions import Fraction

from zcurv.cartan import standard_cartan
from zcurv.jets import Jet
from zcurv.scalars import sexp, sln
from zcurv.solutions import (SolutionVector, liouville_residual,
                             liouville_solution, lse_residual,
                             super_liouville_residual)
from zcurv.superfield import SuperField, standard_gens

EXPECTED = (336, "529c0eba679ba14a8f2f4023f3a2e1f5"
                 "72ee9f18fc354711af3e40e2c3f137e4")

RESIDUAL_EXPECTED = (382, "0f7394df39495b5e7563fdfcc1961d87"
                          "2b4d3d431ed92c256a8bb61f8e091edd")

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


def _loggable_jets(rng, order, density):
    """A rational-body, an ln(p)-body and a symbolic-coefficient jet."""
    bodies = _bodies(rng)
    rational = _jet(rng, order, bodies["rational"], density)
    ln = _jet(rng, order, bodies["ln"], density)
    return rational, ln, ln + _jet(rng, order, 0, 0.2) * bodies["ln"]


def _lse_results(rng):
    for n in range(2, 6):
        cartan = standard_cartan(f"sl{n}")
        for order in (4, 6, 8):
            density = 0.6 if order <= 6 else 0.3
            pools = [_loggable_jets(rng, order, density)
                     for _ in range(cartan.rank)]
            for pick in range(3):
                if pick == 2 and order > 6:
                    continue
                # kind `pick` in every row, and the kinds mixed across rows
                for comps in ([pool[pick] for pool in pools],
                              [pool[(i + pick) % 3]
                               for i, pool in enumerate(pools)]):
                    sol = SolutionVector(tuple(comps), cartan)
                    yield from lse_residual(sol, "ls")
                    yield from lse_residual(sol, "lsbis")
    # exact rank-1 solutions in both normalisations
    x = Jet.variable("x", (1, 1), 10)
    y = Jet.variable("y", (1, 1), 10)
    f_jet = -((x + y).ln())
    sl2 = standard_cartan("sl2")
    yield from lse_residual(SolutionVector((f_jet,), sl2), "ls")
    yield from lse_residual(SolutionVector((f_jet * 2,), sl2), "lsbis")


def _liouville_results(rng):
    for order in range(4, 15):
        density = 0.8 if order <= 8 else 0.3
        rational, ln, mixed = _loggable_jets(rng, order, density)
        yield liouville_residual(rational)
        yield liouville_residual(ln)
        if order <= 10:
            yield liouville_residual(mixed)
        x = Jet.variable("x", (1, 2), order + 1)
        y = Jet.variable("y", (1, 2), order + 1)
        f = x * _rat(rng, nonzero=True) ** 2 + (x - 1).pow_int(2) * _rat(rng)
        g = y + (y - 2).pow_int(3) * _rat(rng) + 1
        yield liouville_residual(liouville_solution(f, g))


def _super_results(rng):
    for order in range(4, 9):
        bodies = _bodies(rng)
        for kind in ("rational", "ln"):
            field = _superfield(rng, order, bodies[kind])
            yield super_liouville_residual(field)
            yield super_liouville_residual(field, sign=-1)


def _entry(result):
    if isinstance(result, SuperField):
        mags = [result.comps[m].max_abs_coeff() for m in sorted(result.comps)]
    else:
        mags = result.max_abs_coeff()
    return f"{result} {mags!r}"


def residual_fingerprint():
    rng = random.Random(6060)
    results = [*_lse_results(rng), *_liouville_results(rng),
               *_super_results(rng)]
    text = "\n".join(map(_entry, results))
    return len(results), hashlib.sha256(text.encode()).hexdigest()


def test_residual_results_are_unchanged():
    assert residual_fingerprint() == RESIDUAL_EXPECTED
