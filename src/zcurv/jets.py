"""Truncated bivariate power series (jets) with exact coefficients.

A jet of order K at base point (x0, y0) stores the coefficients of
(x - x0)^i (y - y0)^j for i + j <= K.  Arithmetic is exact truncated ring
arithmetic; products drop terms of total degree above K.  Coefficients are
``Fraction`` whenever rational and fall back to the symbolic ``Scalar``
ring for values involving exp/ln of rationals, so identities like
``ln(exp(s)) == s`` hold coefficient-for-coefficient.

``exp``, ``ln`` and ``inverse`` of jets and superfields share one degree
recurrence, ``degree_series``, derived from the Euler operator theta, which
scales the degree-d part by d (Brent and Kung, JACM 1978): theta E = E theta S
for exp, (1 + U) theta L = theta U for ln, V W = 1 for the inverse.

Derivatives lower the order by one: the top-degree coefficients of a
derivative would need information beyond the input's truncation order.
Binary operations deliberately require equal base points and orders;
``truncate`` makes mixed-order expressions explicit at the call site.
"""

import math
from fractions import Fraction

from .scalars import Scalar, sadd, sexp, sinv, sln, smul

_ZERO = Fraction(0)


def _as_coeff(v):
    if isinstance(v, (Fraction, Scalar)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not an exact coefficient: {v!r}")


def degree_series(parts, first, weight, lead=False):
    """Sum of out_0 = first and, from the even homogeneous parts P_d,

        out_d = [P_d if lead] + sum_{k=1..d} weight(k, d) * P_k * out_{d-k}.
    """
    outs = [first]
    for d in range(1, len(parts)):
        out = parts[d] if lead and not parts[d].is_zero() else None
        for k in range(1, d + 1):
            prev = outs[d - k]
            w = weight(k, d)
            if prev is None or parts[k].is_zero() or w == 0:
                continue
            term = parts[k] * prev * w
            out = term if out is None else out + term
        outs.append(out)
    return sum((out for out in outs[1:] if out is not None), first)


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
                if not _is_zero(v):
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
            coeffs[key] = sadd(coeffs.get(key, _ZERO), v)
        return Jet(self.base, self.order, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.base, self.order,
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
            return Jet(self.base, self.order,
                       {k: smul(v, c) for k, v in self.coeffs.items()})
        self._check_compatible(other)
        out: dict = {}
        order = self.order
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > order:
                    continue
                key = (i, j)
                prev = out.get(key)
                term = smul(v1, v2)
                out[key] = term if prev is None else sadd(prev, term)
        return Jet(self.base, order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        return self * sinv(_as_coeff(other))

    def inverse(self) -> "Jet":
        """Multiplicative inverse; the body must be an invertible scalar."""
        c = self.body
        if _is_zero(c):
            raise ValueError("jet has zero body, cannot invert")
        ic = sinv(c)
        # runs on self / c, whose coefficients stay rational more often
        series = degree_series((self * ic)._grades(),
                               Jet.constant(1, self.base, self.order),
                               lambda k, d: -1)
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
        return Jet(self.base, self.order - 1,
                   {(i - 1, j): smul(v, Fraction(i))
                    for (i, j), v in self.coeffs.items() if i > 0})

    def deriv_y(self) -> "Jet":
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base, self.order - 1,
                   {(i, j - 1): smul(v, Fraction(j))
                    for (i, j), v in self.coeffs.items() if j > 0})

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(
                f"cannot extend order {self.order} jet to order {order}")
        return Jet(self.base, order,
                   {k: v for k, v in self.coeffs.items() if k[0] + k[1] <= order})

    def _grades(self) -> list["Jet"]:
        """Homogeneous parts by total degree i + j, degrees 0..order."""
        parts = [{} for _ in range(self.order + 1)]
        for (i, j), v in self.coeffs.items():
            parts[i + j][(i, j)] = v
        return [Jet(self.base, self.order, p) for p in parts]

    def exp(self) -> "Jet":
        """exp as a truncated series; the body goes through the scalar ring."""
        series = degree_series(self._grades(),
                               Jet.constant(1, self.base, self.order),
                               lambda k, d: Fraction(k, d))
        return series * sexp(self.body)

    def ln(self) -> "Jet":
        """ln as a truncated series; requires a positive-loggable body."""
        c = self.body
        if _is_zero(c):
            raise ValueError("ln of a jet with zero body")
        return degree_series((self * sinv(c))._grades(),
                             Jet.constant(sln(c), self.base, self.order),
                             lambda k, d: Fraction(k - d, d), lead=True)

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
        dx = x - float(self.base[0])
        dy = y - float(self.base[1])
        return sum(float(v) * dx ** i * dy ** j
                   for (i, j), v in self.coeffs.items())

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
                    sep = "*" if "+" not in coeff else "*"
                    coeff = f"({coeff})" if ("+" in coeff or "/" in coeff) else coeff
                    parts.append(f"{coeff}{sep}{mono}")
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


def _is_zero(v) -> bool:
    return v.is_zero() if isinstance(v, Scalar) else v == 0


def _magnitude(v) -> float:
    try:
        mag = abs(float(v))
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(mag) else mag  # inf - inf inside a Scalar
