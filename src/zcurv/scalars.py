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
``ln`` on single-term scalars with positive coefficient and no ln factors.
Both raise ``ValueError`` otherwise.  Values that happen to be rational are
always returned as plain ``Fraction``; the module-level ``s*`` helpers
accept either representation, which keeps the common all-rational paths on
fast ``Fraction`` arithmetic.
"""

import math
from fractions import Fraction

_TRIVIAL_UNIT = (Fraction(0), (), ())


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation of a positive integer by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_exponents(q: Fraction) -> dict[int, int]:
    if q <= 0:
        raise ValueError(f"ln requires a positive rational, got {q}")
    out = _factor(q.numerator)
    for p, e in _factor(q.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


def _fold_unit(exp_rat: Fraction, exp_logs: dict[int, Fraction]) -> tuple[tuple, Fraction]:
    """Canonicalise prime-power exponents into [0, 1); return (key, factor)."""
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
    return (exp_rat, tuple(logs)), factor


class Scalar:
    """An element of the exact coefficient ring; immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = {u: c for u, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Scalar":
        q = Fraction(q)
        return Scalar({_TRIVIAL_UNIT: q} if q else {})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or set(self._terms) == {_TRIVIAL_UNIT}

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return self._terms[_TRIVIAL_UNIT]

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
        for (r1, l1, m1), c1 in self._terms.items():
            for (r2, l2, m2), c2 in other._terms.items():
                logs = dict(l1)
                for p, c in l2:
                    logs[p] = logs.get(p, Fraction(0)) + c
                unit, factor = _fold_unit(r1 + r2, logs)
                pows = dict(m1)
                for p, m in m2:
                    pows[p] = pows.get(p, 0) + m
                key = (unit[0], unit[1], tuple(sorted(pows.items())))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2 * factor
        return Scalar(terms)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if len(self._terms) != 1:
            raise ValueError(f"cannot invert multi-term scalar {self}")
        ((r, logs, pows), c), = self._terms.items()
        if pows:
            raise ValueError(f"cannot invert scalar with ln factors: {self}")
        unit, factor = _fold_unit(-r, {p: -e for p, e in logs})
        return Scalar({(unit[0], unit[1], ()): factor / c})

    # -- exp / ln -----------------------------------------------------

    def exp(self) -> "Scalar":
        """exp of a scalar of the form  r + sum b_p ln(p)."""
        r = Fraction(0)
        logs: dict[int, Fraction] = {}
        for (er, el, lp), c in self._terms.items():
            if (er, el, lp) == _TRIVIAL_UNIT:
                r += c
            elif er == 0 and not el and len(lp) == 1 and lp[0][1] == 1:
                p = lp[0][0]
                logs[p] = logs.get(p, Fraction(0)) + c
            else:
                raise ValueError(f"exp not defined on scalar term {self}")
        unit, factor = _fold_unit(r, logs)
        return normalize(Scalar({(unit[0], unit[1], ()): factor}))

    def ln(self) -> "Scalar":
        """ln of a single-term positive scalar with no ln factors."""
        if len(self._terms) != 1:
            raise ValueError(f"ln not defined on multi-term scalar {self}")
        ((r, logs, pows), c), = self._terms.items()
        if pows:
            raise ValueError(f"ln not defined on scalar with ln factors: {self}")
        if c <= 0:
            raise ValueError(f"ln requires a positive scalar, got {self}")
        exps = dict(logs)
        for p, e in _prime_exponents(c).items():
            exps[p] = exps.get(p, Fraction(0)) + e
        terms: dict = {}
        if r:
            terms[_TRIVIAL_UNIT] = r
        for p, e in exps.items():
            if e:
                terms[(Fraction(0), (), ((p, 1),))] = e
        return normalize(Scalar(terms))

    # -- conversions / protocol ---------------------------------------

    def __float__(self) -> float:
        total = 0.0
        for (r, logs, pows), c in self._terms.items():
            v = float(c) * math.exp(float(r))
            for p, e in logs:
                v *= p ** float(e)
            for p, m in pows:
                v *= math.log(p) ** m
            total += v
        return total

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (r, logs, pows), c in sorted(self._terms.items()):
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


# Arithmetic helpers over Fraction | Scalar.  Jets store plain Fractions
# whenever the value is rational, so the hot paths never touch Scalar.

def sadd(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return normalize(as_scalar(a) + as_scalar(b))


def smul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
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
