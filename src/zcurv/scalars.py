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
otherwise.

A rational value is always a plain ``Fraction``, never a ``Scalar``: every
operation returns through ``exact``, which gives a ``Fraction`` when only
the trivial unit is left, and ``Scalar(terms)`` refuses rational terms.
``unit_terms`` is the term view of any exact value.

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
# (u, v) -> (w, m) with unit u times unit v == m * unit w: a unit's prime
# exponents lie in [0, 1), so a product folds out an int m >= 1
_UNIT_PRODUCTS: dict = {}

_TRIAL_BOUND = 1000
_TRIAL_DIVISORS = (2, 3, *(d for k in range(6, _TRIAL_BOUND + 2, 6)
                           for d in (k - 1, k + 1) if d <= _TRIAL_BOUND))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # _MR_BASES decide primality below
_RHO_STEPS = 1 << 22  # ample for a factor below 1.8e12; a few seconds at most
# The largest cofactor that Miller-Rabin and rho are tried on.  Each of their
# steps works modulo the cofactor: at 1024 bits one rho pass that finds
# nothing takes about 0.2 s, at 20,000 bits minutes.
MAX_COFACTOR_BITS = 1024
_SHORT_DIGITS = 24  # an integer of more than twice this many digits is cut
_SHORT_TERMS = 6  # a refusal cuts a scalar of more than 8 terms to 6
# The most units one exact value holds: a Scalar's terms or a jet's rows.
# Each + or * rebuilds them all, so sums of distinct units grow quadratically.
MAX_UNITS = 256


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1: trial division by 2, 3 and 6k +- 1 up
    to _TRIAL_BOUND, which ends it when the cofactor left is 1 or a prime;
    else a square cofactor splits into its two roots, and any other is proved
    prime by Miller-Rabin or split by Pollard-Brent rho.  Past _MR_EXACT_BELOW
    rho only peels small factors, so a cofactor out of reach fails fast, and
    one of more than MAX_COFACTOR_BITS bits fails before either runs."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    out: dict[int, int] = {}
    rest = n
    for d in _TRIAL_DIVISORS:
        if d * d > rest:
            break
        if rest % d == 0:
            rest, out[d] = _strip(rest, d)
    if rest < d * d:  # no prime factor below d: rest is 1 or a prime
        if rest > 1:
            out[rest] = 1
        return out
    todo = [rest]
    while todo:  # no cofactor has a prime factor below d
        m = todo.pop()
        if (root := math.isqrt(m)) ** 2 == m:
            todo += [root, root]
            continue
        if m.bit_length() > MAX_COFACTOR_BITS:
            raise ValueError(
                f"cannot factor {_short(n)} exactly: its factor {_short(m)} "
                f"has {m.bit_length()} bits, past the limit of "
                f"{MAX_COFACTOR_BITS}")
        big, composite = m >= _MR_EXACT_BELOW, m >= d * d and _witness(m)
        p = composite and _rho(m, _RHO_STEPS >> 10 if big else _RHO_STEPS)
        if p:
            todo += [p, m // p]
        elif big or composite:
            raise ValueError(f"cannot factor {_short(n)} exactly: its factor "
                             f"{_short(m)} is beyond reach")
        else:  # proven prime
            out[m] = out.get(m, 0) + 1
    return out


def _strip(n: int, d: int) -> tuple[int, int]:
    """(n / d^e, e) for the largest e with d^e dividing n, d > 1.  n is
    divided by d, d^2, d^4, ... while each divides what is left, which
    takes out d^(2^k - 1) and leaves less than 2^k factors d; the same
    powers, from the largest down, take out those.  So the exponent costs
    O(log e) divisions, not e."""
    powers, e = [], 0
    while not (qr := divmod(n, d))[1]:
        n, e = qr[0], 2 * e + 1
        powers.append(d)
        d *= d
    for k in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[k])
        if not r:
            n, e = q, e + (1 << k)
    return n, e


def _short(n: int) -> str:
    """n in full, or past twice _SHORT_DIGITS digits its leading and
    trailing digits and its digit count.  No str() of the whole of n, so it
    also prints integers past sys.get_int_max_str_digits()."""
    if abs(n) < 10 ** (2 * _SHORT_DIGITS):
        return str(n)
    sign, n = "-" if n < 0 else "", abs(n)
    digits = int((n.bit_length() - 1) * math.log10(2))  # at most the count
    power = 10 ** digits
    while power <= n:
        digits, power = digits + 1, power * 10
    head = n // 10 ** (digits - _SHORT_DIGITS)
    tail = n % 10 ** _SHORT_DIGITS
    return f"{sign}{head}...{tail:0{_SHORT_DIGITS}d} ({digits} digits)"


def _short_fraction(q: Fraction) -> str:
    """``str(q)`` with numerator and denominator printed by ``_short``."""
    text = _short(q.numerator)
    return text if q.denominator == 1 else f"{text}/{_short(q.denominator)}"


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
        k = math.floor(c)
        if k:
            factor *= Fraction(p) ** k
            c -= k
        if c:
            logs.append((p, c))
    return _unit_id((exp_rat, tuple(logs), pows)), factor


def _unit_product(u: int, v: int) -> tuple[int, int]:
    """(w, m) with unit u times unit v == m * unit w; cached.  m is a
    positive int: each prime's exponent in a unit lies in [0, 1), so two of
    them sum to less than 2 and ``_fold_unit`` folds out at most p^1."""
    hit = _UNIT_PRODUCTS.get((u, v))
    if hit is None:
        (r1, l1, m1), (r2, l2, m2) = _UNITS[u], _UNITS[v]
        logs, pows = dict(l1), dict(m1)
        for p, c in l2:
            logs[p] = logs.get(p, Fraction(0)) + c
        for p, m in m2:
            pows[p] = pows.get(p, 0) + m
        w, f = _fold_unit(r1 + r2, logs, tuple(sorted(pows.items())))
        hit = _UNIT_PRODUCTS[(u, v)] = (w, f.numerator)
    return hit


def exact(terms: dict):
    """The value of the terms ``{unit number: Fraction}``: a ``Fraction``
    when no unit but the trivial one keeps a nonzero coefficient, else a
    ``Scalar``.  Every ring operation returns through here."""
    terms = {u: c for u, c in terms.items() if c}
    if len(terms) > MAX_UNITS:
        raise ValueError(f"an exact value of {len(terms)} units is past the "
                         f"limit of {MAX_UNITS}")
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and 0 in terms:
        return terms[0]
    value = object.__new__(Scalar)
    value._terms = terms
    return value


def unit_terms(v):
    """The (unit number, nonzero Fraction) terms of an exact scalar: an
    int, a ``Fraction`` or a ``Scalar``."""
    if isinstance(v, Scalar):
        return v._terms.items()
    if isinstance(v, (int, Fraction)):
        return [(0, Fraction(v))] if v else []
    raise TypeError(f"not an exact coefficient: {v!r}")


def _render(terms, clip=False) -> str:
    """The text of (unit number, Fraction) terms, sorted by unit; with
    ``clip``, past 8 terms the first _SHORT_TERMS, "..." and the count."""
    if not terms:
        return "0"
    terms = sorted(terms, key=lambda t: _UNITS[t[0]])
    cut = clip and len(terms) > _SHORT_TERMS + 2
    parts = []
    for u, c in terms[:_SHORT_TERMS] if cut else terms:
        r, logs, pows = _UNITS[u]
        bits = []
        if c != 1 or (r == 0 and not logs and not pows):
            text = _short_fraction(c)
            bits.append(text if c.denominator == 1 else f"({text})")
        if r:
            bits.append(f"exp({_short_fraction(r)})")
        for p, e in logs:
            bits.append(f"{p}^({_short_fraction(e)})")
        for p, m in pows:
            bits.append(f"ln({p})" + (f"^{m}" if m > 1 else ""))
        parts.append("*".join(bits))
    if cut:
        parts.append(f"... ({len(terms)} terms)")
    return " + ".join(parts)


def _exp(terms):
    """exp of the terms of a scalar of the form  r + sum b_p ln(p)."""
    r = Fraction(0)
    logs: dict[int, Fraction] = {}
    for u, c in terms:
        er, el, lp = _UNITS[u]
        if not u:
            r += c
        elif er == 0 and not el and len(lp) == 1 and lp[0][1] == 1:
            p = lp[0][0]
            logs[p] = logs.get(p, Fraction(0)) + c
        else:
            raise ValueError(
                f"exp not defined on scalar term {_render(terms, True)}")
    w, factor = _fold_unit(r, logs)
    return exact({w: factor})


def _ln(terms):
    """ln of the terms of a positive single-term scalar, no ln factors."""
    if len(terms) != 1:
        raise ValueError(
            f"ln not defined on multi-term scalar {_render(terms, True)}")
    ((u, c),) = terms
    r, logs, pows = _UNITS[u]
    if pows:
        raise ValueError("ln not defined on scalar with ln factors: "
                         + _render(terms, True))
    if c <= 0:
        raise ValueError(
            f"ln requires a positive scalar, got {_render(terms, True)}")
    exps = dict(logs)
    for p, e in _prime_exponents(c).items():
        exps[p] = exps.get(p, Fraction(0)) + e
    out = {0: r}
    for p, e in exps.items():
        if e:
            out[_unit_id((Fraction(0), (), ((p, 1),)))] = e
    return exact(out)


class Scalar:
    """An element of the exact coefficient ring that is not rational;
    immutable.  A rational value is a ``Fraction``: ``Scalar`` refuses
    terms with no unit but the trivial one, and its operations return
    through ``exact``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        value = exact(terms)
        if not isinstance(value, Scalar):
            raise ValueError(f"rational terms make no Scalar: {value}")
        self._terms = value._terms

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented  # a jet takes a scalar in its own + and *
        terms = dict(self._terms)
        for u, c in unit_terms(other):
            terms[u] = terms.get(u, Fraction(0)) + c
        return exact(terms)

    __radd__ = __add__

    def __neg__(self):
        return exact({u: -c for u, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        terms: dict = {}
        for u, c1 in self._terms.items():
            for v, c2 in unit_terms(other):
                w, m = _unit_product(u, v)
                terms[w] = terms.get(w, Fraction(0)) + c1 * c2 * m
        return exact(terms)

    __rmul__ = __mul__

    def inverse(self):
        if len(self._terms) != 1:
            raise ValueError("cannot invert multi-term scalar "
                             + _render(self._terms.items(), True))
        ((u, c),) = self._terms.items()
        r, logs, pows = _UNITS[u]
        if pows:
            raise ValueError("cannot invert scalar with ln factors: "
                             + _render(self._terms.items(), True))
        w, factor = _fold_unit(-r, {p: -e for p, e in logs})
        return exact({w: factor / c})

    # -- exp / ln -----------------------------------------------------

    def exp(self):
        """exp of a scalar of the form  r + sum b_p ln(p)."""
        return _exp(self._terms.items())

    def ln(self):
        """ln of a single-term positive scalar with no ln factors."""
        return _ln(self._terms.items())

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
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return _render(self._terms.items())


# The series helpers of jets, over exact scalars.  A rational argument is
# folded through the code of the Scalar methods on its terms.

def sinv(a):
    if isinstance(a, Scalar):
        return a.inverse()
    if not unit_terms(a):
        raise ZeroDivisionError("scalar inverse of 0")
    return 1 / Fraction(a)


def sexp(a):
    return _exp(unit_terms(a))


def sln(a):
    return _ln(unit_terms(a))
