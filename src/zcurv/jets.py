"""Truncated bivariate power series (jets) with exact coefficients.

A jet of order K at base point (x0, y0) stores the coefficients of
(x - x0)^i (y - y0)^j for i + j <= K.  Arithmetic is exact truncated ring
arithmetic; products drop terms of total degree above K.  Coefficients are
``Fraction`` whenever rational and fall back to the symbolic ``Scalar``
ring for values involving exp/ln of rationals, so identities like
``ln(exp(s)) == s`` hold coefficient-for-coefficient.  A stored coefficient
is thus a nonzero ``Fraction`` or a non-rational, hence nonzero, ``Scalar``.

A product visits only the coefficient pairs that land within the order.
When both factors are rational it multiplies integers: each factor is
written as integer numerators over the lcm of its denominators, the pair
products are summed as Python ints, and each output coefficient becomes one
``Fraction``.  A factor with a ``Scalar`` coefficient takes the
``smul``/``sadd`` arithmetic over the same pair loop.

``exp``, ``ln`` and ``inverse`` of jets and superfields share one degree
recurrence, ``degree_series``, derived from the Euler operator theta, which
scales the degree-d part by d (Brent and Kung, JACM 1978).  For a series s
with homogeneous parts P_d, d >= 1:

    exp      theta E = (theta s) E     E_d = (1/d) sum_{k=1..d} (k P_k) E_{d-k}
    inverse  (1 + s) W = 1             W_d = -sum_{k=1..d} P_k W_{d-k}
    ln       (1 + s) T = theta s       T_d = d P_d - sum_{k=1..d-1} P_k T_{d-k}

with E_0 = W_0 = 1 and T = theta ln(1 + s), so ln's degree-d part is T_d / d.
When P_1..P_n of a jet are rational, the recurrence runs on Python ints.
Each P_k, and each finished degree of the output, is a row of integer
numerators over one denominator; a degree's sum over k is formed over the
lcm of its terms' denominators and then divided by the gcd of the row and
that lcm, and each output coefficient becomes one ``Fraction``.
Superfields and jets with ``Scalar`` coefficients run the recurrence on the
objects, with each weight applied once per degree.

Derivatives lower the order by one: the top-degree coefficients of a
derivative would need information beyond the input's truncation order.
Binary operations deliberately require equal base points and orders;
``truncate`` makes mixed-order expressions explicit at the call site.
"""

import math
import operator
from fractions import Fraction

from .scalars import Scalar, normalize, sadd, sexp, sinv, sln, smul

_ZERO = Fraction(0)


def _as_coeff(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, Scalar):
        return normalize(v)
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not an exact coefficient: {v!r}")


def degree_series(parts, first, kind):
    """first + sum_{d>=1} out_d for the series ``kind`` of s = sum_d P_d.

    ``parts`` are the homogeneous parts P_0..P_n of one graded element (P_0
    is not read).  ``kind`` is "exp" (out_d = E_d, first = 1), "inverse"
    (out_d = W_d of 1 / (1 + s), first = 1) or "ln" (out_d = T_d / d of
    ln(1 + s), first its constant); the recurrences are in the module
    docstring.  A jet with rational P_1..P_n takes the integer form there.
    """
    if isinstance(first, Jet) and all(_rational(p.coeffs) for p in parts[1:]):
        return _integer_series(parts, first, kind)
    ln = kind == "ln"
    if kind == "exp":
        parts = parts[:1] + [parts[k] * k for k in range(1, len(parts))]
    seq = [None if ln else first]  # E_0 = W_0 = 1, T_0 = 0
    total = first
    for d in range(1, len(parts)):
        acc = parts[d] * d if ln and not parts[d].is_zero() else None
        for k in range(1, d + 1):
            prev = seq[d - k]
            if prev is None or parts[k].is_zero():
                continue
            term = -(parts[k] * prev) if ln else parts[k] * prev
            acc = term if acc is None else acc + term
        if acc is not None and not ln:
            acc = acc * Fraction(1, d) if kind == "exp" else -acc
        seq.append(acc)
        if acc is not None:
            total = total + (acc * Fraction(1, d) if ln else acc)
    return total


def _integer_series(parts, first, kind):
    """``degree_series`` of a jet with rational P_1..P_n, on Python ints.

    A row is a list of (x-degree, numerator) pairs with one denominator.
    X_d (E_d, W_d or T_d) is the sum over k of weight * P_k * X_{d-k},
    formed over L, the lcm of the terms' denominators, with each weight
    scaled by L over its own term's denominator; for ln the k = d term
    is d P_d, since T_0 = 0.
    """
    rows = [([], 1)]
    for p in parts[1:]:
        den = math.lcm(*(v.denominator for v in p.coeffs.values()))
        rows.append(([(i, v.numerator * (den // v.denominator))
                      for (i, _), v in p.coeffs.items()], den))
    one = ([(0, 1)], 1)
    seq = [([], 1) if kind == "ln" else one]  # T_0 = 0, E_0 = W_0 = 1
    coeffs = dict(first.coeffs)
    for d in range(1, len(parts)):
        terms = [(k if kind == "exp" else -1, rows[k], seq[d - k])
                 for k in range(1, d + 1)]
        if kind == "ln":
            terms[-1] = (d, rows[d], one)
        terms = [(w, row, rden * pden, prev)
                 for w, (row, rden), (prev, pden) in terms if row and prev]
        lcm = math.lcm(*(den for _, _, den, _ in terms))
        acc = [0] * (d + 1)
        for w, row, den, prev in terms:
            w *= lcm // den
            for i, a in row:
                aw = a * w
                for j, b in prev:
                    acc[i + j] += aw * b
        den = d * lcm if kind == "exp" else lcm
        g = math.gcd(den, *acc)
        seq.append(([(i, n // g) for i, n in enumerate(acc) if n], den // g))
        out = seq[d][1] * (d if kind == "ln" else 1)
        for i, n in seq[d][0]:
            coeffs[(i, d - i)] = Fraction(n, out)
    return _ring_result(first.base, first.order, coeffs)


class Jet:
    __slots__ = ("base", "order", "coeffs")

    def __init__(self, base, order: int, coeffs: dict | None = None):
        x0, y0 = base
        self.base = (Fraction(x0), Fraction(y0))
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self.order = order
        self.coeffs = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                if i < 0 or j < 0 or i + j > order:
                    raise ValueError(f"bidegree {(i, j)} exceeds order {order}")
                v = _as_coeff(v)
                if v:
                    self.coeffs[(i, j)] = v

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(value, base=(0, 0), order: int = 8) -> "Jet":
        return Jet(base, order, {(0, 0): _as_coeff(value)})

    @staticmethod
    def variable(which: str, base=(0, 0), order: int = 8) -> "Jet":
        """The coordinate function x or y as a jet at the base point."""
        if which == "x":
            mono, b = (1, 0), Fraction(base[0])
        elif which == "y":
            mono, b = (0, 1), Fraction(base[1])
        else:
            raise ValueError("variable must be 'x' or 'y'")
        return Jet(base, order, {(0, 0): b, mono: Fraction(1)})

    @staticmethod
    def zero(base=(0, 0), order: int = 8) -> "Jet":
        return Jet(base, order)

    # -- structure -----------------------------------------------------

    def coefficient(self, i: int, j: int):
        return self.coeffs.get((i, j), _ZERO)

    @property
    def body(self):
        """The constant coefficient."""
        return self.coeffs.get((0, 0), _ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def depends_only_on(self, which: str) -> bool:
        k = 1 if which == "x" else 0
        return all(key[k] == 0 for key in self.coeffs)

    def _check_compatible(self, other: "Jet"):
        if self.base != other.base:
            raise ValueError(
                f"incompatible base points {self.base} and {other.base}")
        if self.order != other.order:
            raise ValueError(
                f"incompatible orders {self.order} and {other.order}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self + Jet.constant(other, self.base, self.order)
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for key, v in other.coeffs.items():
            prev = coeffs.get(key)
            coeffs[key] = v if prev is None else sadd(prev, v)
        return _ring_result(self.base, self.order,
                            {k: v for k, v in coeffs.items() if v})

    __radd__ = __add__

    def __neg__(self):
        return _ring_result(self.base, self.order,
                            {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.base, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = _as_coeff(other)
            coeffs = {k: smul(v, c) for k, v in self.coeffs.items()}
            return _ring_result(self.base, self.order,
                                {k: v for k, v in coeffs.items() if v})
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        if _rational(a) and _rational(b):
            da, na = _over_lcm(a)
            db, nb = _over_lcm(b)
            out = _convolve(na, nb, self.order, operator.mul, operator.add)
            den = da * db
            return _ring_result(self.base, self.order,
                                {k: Fraction(n, den)
                                 for k, n in out.items() if n})
        out = _convolve(a, b, self.order, smul, sadd)
        return _ring_result(self.base, self.order,
                            {k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        return self * sinv(_as_coeff(other))

    def inverse(self) -> "Jet":
        """Multiplicative inverse; the body must be an invertible scalar."""
        c = self.body
        if not c:
            raise ValueError("jet has zero body, cannot invert")
        ic = sinv(c)
        # runs on self / c, whose coefficients stay rational more often
        series = degree_series((self * ic)._grades(),
                               Jet.constant(1, self.base, self.order),
                               "inverse")
        return series * ic

    def pow_int(self, n: int) -> "Jet":
        if n < 0:
            return self.inverse().pow_int(-n)
        if n == 0:
            return Jet.constant(1, self.base, self.order)
        half = self.pow_int(n // 2)
        return half * half * self if n % 2 else half * half

    # -- calculus --------------------------------------------------------

    def deriv_x(self) -> "Jet":
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return _ring_result(self.base, self.order - 1,
                            {(i - 1, j): smul(v, Fraction(i))
                             for (i, j), v in self.coeffs.items() if i > 0})

    def deriv_y(self) -> "Jet":
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return _ring_result(self.base, self.order - 1,
                            {(i, j - 1): smul(v, Fraction(j))
                             for (i, j), v in self.coeffs.items() if j > 0})

    def truncate(self, order: int) -> "Jet":
        if order < 0:
            raise ValueError("jet order must be >= 0")
        if order > self.order:
            raise ValueError(
                f"cannot extend order {self.order} jet to order {order}")
        return _ring_result(self.base, order,
                            {k: v for k, v in self.coeffs.items()
                             if k[0] + k[1] <= order})

    def _grades(self) -> list["Jet"]:
        """Homogeneous parts by total degree i + j, degrees 0..order."""
        parts = [{} for _ in range(self.order + 1)]
        for (i, j), v in self.coeffs.items():
            parts[i + j][(i, j)] = v
        return [_ring_result(self.base, self.order, p) for p in parts]

    def exp(self) -> "Jet":
        """exp as a truncated series; the body goes through the scalar ring."""
        series = degree_series(self._grades(),
                               Jet.constant(1, self.base, self.order), "exp")
        return series * sexp(self.body)

    def ln(self) -> "Jet":
        """ln as a truncated series; requires a positive-loggable body."""
        c = self.body
        if not c:
            raise ValueError("ln of a jet with zero body")
        return degree_series((self * sinv(c))._grades(),
                             Jet.constant(sln(c), self.base, self.order),
                             "ln")

    def compose(self, fx: "Jet", gy: "Jet") -> "Jet":
        """Substitute x -> fx, y -> gy.

        The inner jets share a base point; their bodies must equal this
        jet's base coordinates (no silent re-expansion).
        """
        fx._check_compatible(gy)
        x0, y0 = self.base
        if fx.body != x0:
            raise ValueError(
                f"inner jet body {fx.body} != expansion point {x0}")
        if gy.body != y0:
            raise ValueError(
                f"inner jet body {gy.body} != expansion point {y0}")
        order = min(self.order, fx.order)
        dx = fx.truncate(order) - Jet.constant(x0, fx.base, order)
        dy = gy.truncate(order) - Jet.constant(y0, fx.base, order)
        max_i = max((k[0] for k in self.coeffs), default=0)
        max_j = max((k[1] for k in self.coeffs), default=0)
        xpow = [Jet.constant(1, fx.base, order)]
        for _ in range(max_i):
            xpow.append(xpow[-1] * dx)
        ypow = [Jet.constant(1, fx.base, order)]
        for _ in range(max_j):
            ypow.append(ypow[-1] * dy)
        acc = Jet.zero(fx.base, order)
        for (i, j), v in sorted(self.coeffs.items()):
            acc = acc + xpow[i] * ypow[j] * v
        return acc

    # -- conversions -----------------------------------------------------

    def evaluate(self, x: float, y: float) -> float:
        """The truncated series at (x, y), summed exactly over sorted
        bidegrees, so equal jets give equal floats."""
        dx = x - float(self.base[0])
        dy = y - float(self.base[1])
        return math.fsum(float(v) * dx ** i * dy ** j
                         for (i, j), v in sorted(self.coeffs.items()))

    def max_abs_coeff(self) -> float:
        """Largest |coefficient| as a float; inf past the float range."""
        return max(map(_magnitude, self.coeffs.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.base == other.base and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.base, self.order,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, {self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs, key=lambda k: (k[0] + k[1], -k[0])):
            v = self.coeffs[(i, j)]
            mono = _monomial_str(i, j, self.base)
            coeff = str(v)
            if mono:
                if coeff == "1":
                    parts.append(mono)
                elif coeff == "-1":
                    parts.append(f"-{mono}")
                else:
                    coeff = f"({coeff})" if ("+" in coeff or "/" in coeff) else coeff
                    parts.append(f"{coeff}*{mono}")
            else:
                parts.append(f"({coeff})" if "+" in coeff else coeff)
        return " + ".join(parts).replace("+ -", "- ")


def _monomial_str(i: int, j: int, base) -> str:
    x0, y0 = base
    xs = "x" if x0 == 0 else f"(x-{x0})" if x0 > 0 else f"(x+{-x0})"
    ys = "y" if y0 == 0 else f"(y-{y0})" if y0 > 0 else f"(y+{-y0})"
    bits = []
    if i == 1:
        bits.append(xs)
    elif i > 1:
        bits.append(f"{xs}^{i}")
    if j == 1:
        bits.append(ys)
    elif j > 1:
        bits.append(f"{ys}^{j}")
    return "*".join(bits)


def _ring_result(base, order, coeffs) -> Jet:
    """A jet from a ring operation, built without ``Jet``'s checks: ``base``
    is a jet's Fraction pair and ``coeffs`` holds nonzero coefficients
    within the order."""
    jet = object.__new__(Jet)
    jet.base = base
    jet.order = order
    jet.coeffs = coeffs
    return jet


def _rational(coeffs) -> bool:
    return all(isinstance(v, Fraction) for v in coeffs.values())


def _over_lcm(coeffs):
    """(den, numerators) with coeffs[k] == numerators[k] / den."""
    den = math.lcm(*(v.denominator for v in coeffs.values()))
    return den, {k: v.numerator * (den // v.denominator)
                 for k, v in coeffs.items()}


def _convolve(left, right, order, mul, add):
    """Sums of mul(left[a], right[b]) by bidegree a + b, for a + b <= order.

    A left coefficient of degree d meets only the right coefficients of
    degree <= order - d, in the right factor's own order.  So the pairs are
    visited exactly as the plain double loop visits them: every output sums
    its terms in the same order, and keys appear in the same order.
    """
    entries = [(i, j, i + j, v) for (i, j), v in right.items()]
    rows: dict = {}
    out: dict = {}
    get = out.get
    for (i1, j1), v1 in left.items():
        room = order - i1 - j1
        row = rows.get(room)
        if row is None:
            row = rows[room] = [(i, j, v) for i, j, d, v in entries
                                if d <= room]
        for i2, j2, v2 in row:
            key = (i1 + i2, j1 + j2)
            prev = get(key)
            term = mul(v1, v2)
            out[key] = term if prev is None else add(prev, term)
    return out


def _magnitude(v) -> float:
    try:
        mag = abs(float(v))
    except (OverflowError, ValueError):  # fsum of inf and -inf is ValueError
        return math.inf
    return math.inf if math.isnan(mag) else mag
