"""Exact scalar coefficients: rationals extended by symbolic exp and ln.

Jet coefficients must stay exact through chains like ``exp(ln(q)/2)`` or
``ln(f' g' / (f+g)^2)``, so plain rationals are not enough.  A ``Scalar``
is a finite Q-linear combination of *units*

    exp(r) * p1^c1 * ... * pk^ck * ln(q1)^m1 * ... * ln(qj)^mj

with ``r`` and the ``c_i`` rational, the ``p_i``/``q_i`` prime and the
``m_i`` positive integers.  Two normalisations make structural equality
coincide with mathematical equality on everything this package produces:

* logarithms of positive rationals are expanded over the prime basis,
  ``ln(12) -> 2*ln(2) + ln(3)``, so ``ln(a) + ln(b) == ln(a*b)`` holds
  on the nose;
* integer parts of prime powers are folded into the rational coefficient,
  ``exp(ln(2)) -> 2`` and ``2^(3/2) -> 2 * 2^(1/2)``.

``exp`` is defined on scalars that are rational-plus-linear-in-ln-primes;
``ln`` on single-term scalars with positive coefficient and no ln factors,
whose coefficient ``_factor`` can factor exactly.  Both raise ``ValueError``
otherwise.  Values that happen to be rational are always returned as plain
``Fraction``; the module-level ``s*`` helpers accept either representation,
which keeps the common all-rational paths on fast ``Fraction`` arithmetic.

This module owns the one table of units, tuples ``(r, ((p, c), ...),
((q, m), ...))`` numbered as this process first meets them (the trivial
unit is 0).  A ``Scalar`` keys its terms, and a jet its rows, by that
number, and every product of either takes unit products from one cache,
``_unit_product``.  Printing and ``float`` sort terms by the unit tuple.
"""

import math
from fractions import Fraction

# unit number -> unit tuple, and back; the trivial unit exp(0) is 0
_UNITS = [(Fraction(0), (), ())]
_UNIT_IDS = {_UNITS[0]: 0}
# (u, v) -> (w, m, q) with unit u times unit v == (m / q) * unit w
_UNIT_PRODUCTS: dict = {}

_TRIAL_BOUND = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # _MR_BASES decide primality below
_RHO_STEPS = 1 << 22  # ample for a factor below 1.8e12; a few seconds at most


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1: trial division to _TRIAL_BOUND; then a
    square cofactor splits into its two roots, and any other is proved prime
    by Miller-Rabin or split by Pollard-Brent rho.  Past _MR_EXACT_BELOW rho
    only peels small factors, so a cofactor out of reach fails fast."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    out: dict[int, int] = {}
    rest, d = n, 2
    while d <= _TRIAL_BOUND and d * d <= rest:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    todo = [rest] if rest > 1 else []
    while todo:  # no cofactor has a prime factor below d
        m = todo.pop()
        if (root := math.isqrt(m)) ** 2 == m:
            todo += [root, root]
            continue
        big, composite = m >= _MR_EXACT_BELOW, m >= d * d and _witness(m)
        p = composite and _rho(m, _RHO_STEPS >> 10 if big else _RHO_STEPS)
        if p:
            todo += [p, m // p]
        elif big or composite:
            raise ValueError(f"cannot factor {n} exactly: its factor {m} "
                             "is beyond reach")
        else:  # proven prime
            out[m] = out.get(m, 0) + 1
    return out


def _witness(m: int) -> bool:
    """Whether a base in _MR_BASES proves the odd m > 41 composite."""
    s = ((m - 1) & (1 - m)).bit_length() - 1
    for a in _MR_BASES:
        xs = [pow(a, (m - 1) >> s, m)]
        for _ in range(s - 1):
            xs.append(xs[-1] * xs[-1] % m)
        if xs[0] != 1 and m - 1 not in xs:
            return True
    return False


def _rho(m: int, steps: int) -> int:
    """Pollard-Brent rho: a proper factor of the composite m, or 0 when none
    turns up within about 3 * steps iterations of x -> x^2 + c, c = 1, 2."""
    for c in (1, 2):
        y, q, g, r = 2, 1, 1, 1
        while g == 1 and r <= steps:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                if g != 1:
                    break
            r *= 2
        if g == m:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if 1 < g < m:
            return g
    return 0


def _prime_exponents(q: Fraction) -> dict[int, int]:
    if q <= 0:
        raise ValueError(f"ln requires a positive rational, got {q}")
    out = _factor(q.numerator)
    for p, e in _factor(q.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


def _unit_id(unit) -> int:
    uid = _UNIT_IDS.get(unit)
    if uid is None:
        uid = _UNIT_IDS[unit] = len(_UNITS)
        _UNITS.append(unit)
    return uid


def _fold_unit(exp_rat: Fraction, exp_logs: dict[int, Fraction],
               pows: tuple = ()) -> tuple[int, Fraction]:
    """Canonicalise prime-power exponents into [0, 1); return (unit number,
    factor) of exp(exp_rat) * prod p^c times the ln factors ``pows``."""
    factor = Fraction(1)
    logs = []
    for p in sorted(exp_logs):
        c = exp_logs[p]
        if c == 0:
            continue
        k = math.floor(c)
        if k:
            factor *= Fraction(p) ** k
            c -= k
        if c:
            logs.append((p, c))
    return _unit_id((exp_rat, tuple(logs), pows)), factor


def _unit_product(u: int, v: int) -> tuple[int, int, int]:
    """(w, m, q) with unit u times unit v == (m / q) * unit w; cached."""
    hit = _UNIT_PRODUCTS.get((u, v))
    if hit is None:
        (r1, l1, m1), (r2, l2, m2) = _UNITS[u], _UNITS[v]
        logs, pows = dict(l1), dict(m1)
        for p, c in l2:
            logs[p] = logs.get(p, Fraction(0)) + c
        for p, m in m2:
            pows[p] = pows.get(p, 0) + m
        w, f = _fold_unit(r1 + r2, logs, tuple(sorted(pows.items())))
        hit = _UNIT_PRODUCTS[(u, v)] = (w, f.numerator, f.denominator)
    return hit


class Scalar:
    """An element of the exact coefficient ring; immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = {u: c for u, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Scalar":
        q = Fraction(q)
        return Scalar({0: q} if q else {})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or self._terms.keys() == {0}

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return self._terms[0]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        terms = dict(self._terms)
        for u, c in other._terms.items():
            terms[u] = terms.get(u, Fraction(0)) + c
        return Scalar(terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({u: -c for u, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-as_scalar(other))

    def __rsub__(self, other):
        return as_scalar(other) + (-self)

    def __mul__(self, other):
        other = as_scalar(other)
        terms: dict = {}
        for u, c1 in self._terms.items():
            for v, c2 in other._terms.items():
                w, m, q = _unit_product(u, v)
                terms[w] = terms.get(w, Fraction(0)) + c1 * c2 * m / q
        return Scalar(terms)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if len(self._terms) != 1:
            raise ValueError(f"cannot invert multi-term scalar {self}")
        ((u, c),) = self._terms.items()
        r, logs, pows = _UNITS[u]
        if pows:
            raise ValueError(f"cannot invert scalar with ln factors: {self}")
        w, factor = _fold_unit(-r, {p: -e for p, e in logs})
        return Scalar({w: factor / c})

    # -- exp / ln -----------------------------------------------------

    def exp(self) -> "Scalar":
        """exp of a scalar of the form  r + sum b_p ln(p)."""
        r = Fraction(0)
        logs: dict[int, Fraction] = {}
        for u, c in self._terms.items():
            er, el, lp = _UNITS[u]
            if not u:
                r += c
            elif er == 0 and not el and len(lp) == 1 and lp[0][1] == 1:
                p = lp[0][0]
                logs[p] = logs.get(p, Fraction(0)) + c
            else:
                raise ValueError(f"exp not defined on scalar term {self}")
        w, factor = _fold_unit(r, logs)
        return normalize(Scalar({w: factor}))

    def ln(self) -> "Scalar":
        """ln of a single-term positive scalar with no ln factors."""
        if len(self._terms) != 1:
            raise ValueError(f"ln not defined on multi-term scalar {self}")
        ((u, c),) = self._terms.items()
        r, logs, pows = _UNITS[u]
        if pows:
            raise ValueError(f"ln not defined on scalar with ln factors: {self}")
        if c <= 0:
            raise ValueError(f"ln requires a positive scalar, got {self}")
        exps = dict(logs)
        for p, e in _prime_exponents(c).items():
            exps[p] = exps.get(p, Fraction(0)) + e
        terms: dict = {}
        if r:
            terms[0] = r
        for p, e in exps.items():
            if e:
                terms[_unit_id((Fraction(0), (), ((p, 1),)))] = e
        return normalize(Scalar(terms))

    # -- conversions / protocol ---------------------------------------

    def __float__(self) -> float:
        """Exactly rounded sum over the sorted units, so equal scalars give
        equal floats whatever order their terms were accumulated in."""
        values = []
        for u, c in sorted(self._terms.items(), key=lambda t: _UNITS[t[0]]):
            r, logs, pows = _UNITS[u]
            v = float(c) * math.exp(float(r))
            for p, e in logs:
                v *= p ** float(e)
            for p, m in pows:
                v *= math.log(p) ** m
            values.append(v)
        return math.fsum(values)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():  # equal to, so hashed as, the Fraction
            return hash(self.as_fraction())
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for u, c in sorted(self._terms.items(), key=lambda t: _UNITS[t[0]]):
            r, logs, pows = _UNITS[u]
            bits = []
            if c != 1 or (r == 0 and not logs and not pows):
                bits.append(str(c) if c.denominator == 1 else f"({c})")
            if r:
                bits.append(f"exp({r})")
            for p, e in logs:
                bits.append(f"{p}^({e})")
            for p, m in pows:
                bits.append(f"ln({p})" + (f"^{m}" if m > 1 else ""))
            parts.append("*".join(bits))
        return " + ".join(parts)


def as_scalar(v) -> Scalar:
    if isinstance(v, Scalar):
        return v
    return Scalar.from_rational(v)


def normalize(v):
    """Downcast a rational-valued Scalar to Fraction; pass others through."""
    if isinstance(v, Scalar) and v.is_rational():
        return v.as_fraction()
    return v


# Arithmetic helpers over Fraction | Scalar, which give a Fraction whenever
# the value is rational.  Jets keep integer rows keyed by this module's unit
# numbers instead, take unit products from _unit_product, and use only sexp,
# sln and sinv, once per operation.

def sadd(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return normalize(as_scalar(a) + as_scalar(b))


def smul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Fraction) and isinstance(b, Scalar):
        a, b = b, a
    if isinstance(a, Scalar) and isinstance(b, Fraction):
        # a rational factor scales each term and leaves the units as they are
        return normalize(Scalar({u: c * b for u, c in a._terms.items()}))
    return normalize(as_scalar(a) * as_scalar(b))


def sinv(a):
    if isinstance(a, Fraction):
        if a == 0:
            raise ZeroDivisionError("scalar inverse of 0")
        return 1 / a
    return normalize(a.inverse())


def sexp(a):
    return normalize(as_scalar(a).exp())


def sln(a):
    return normalize(as_scalar(a).ln())
