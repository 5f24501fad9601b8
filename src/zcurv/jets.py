"""Truncated bivariate power series (jets) with exact coefficients.

A jet of order K at base point (x0, y0) has a coefficient for each
(x - x0)^i (y - y0)^j with i + j <= K.  Arithmetic is exact truncated ring
arithmetic; products drop terms of total degree above K.  A coefficient is
a ``Fraction`` when rational and otherwise a ``Scalar``: a rational
combination of exp/ln *units* (see ``scalars``), so identities like
``ln(exp(s)) == s`` hold coefficient-for-coefficient.

A jet is stored as one integer row per unit, keyed by the number that
keys a ``Scalar``'s terms; ``scalars`` numbers the units as this process
first meets them (rationals use the trivial unit 0), so a row lookup
hashes an int and a jet never sees a unit tuple.  A row is a dict
``{(i, j): numerator}`` over one positive denominator, kept canonical: no
zero numerators, no empty rows, and the numerators and the denominator
have gcd 1.  Equal jets therefore have equal rows, so ``==`` and ``hash``
are structural.  ``coeffs`` rebuilds the ``{(i, j): Fraction | Scalar}``
view of the nonzero coefficients; a ``Scalar`` sorts its units when it is
printed or converted to float, so unit numbers never reach either.

Every ring operation is a row operation.  A product convolves the integer
rows of each pair of units once and takes the pair's unit product, a unit
times a positive integer, from the cache ``scalars._unit_product``.  A sum
merges rows over the lcm of their denominators; a scalar factor, a
negation or a derivative rescales the numerators.  Rows that land on one
unit are added, and each result row is divided by one gcd.  So the
``Scalar`` and ``Fraction`` work of an operation grows with the number of
units, not with the number of coefficients; per coefficient it does
integer arithmetic only.  A convolution indexes bidegree (i, j) as
i * (K + 1) + j in one flat list, and pairs meet only within the order.

``exp``, ``ln`` and ``inverse`` of a jet run one degree recurrence,
``degree_series``, derived from the Euler operator theta, which scales the
degree-d part by d (Brent and Kung, JACM 1978).  For a series s with
homogeneous parts P_d, d >= 1:

    exp      theta E = (theta s) E     E_d = (1/d) sum_{k=1..d} (k P_k) E_{d-k}
    inverse  (1 + s) W = 1             W_d = -sum_{k=1..d} P_k W_{d-k}
    ln       (1 + s) T = theta s       T_d = d P_d - sum_{k=1..d-1} P_k T_{d-k}

with E_0 = W_0 = 1 and T = theta ln(1 + s), so ln's degree-d part is T_d / d.
The recurrence reads the parts off the jet's own integer rows, whatever
their units: each unit's row splits by total degree, each degree keeps one
row per unit over its own gcd, a pair of units lands on their cached unit
product, and a unit's sum over k is formed over the lcm of its terms'
denominators and then divided by one gcd.  exp runs it on the jet and
scales the result by exp of the body; ln and inverse run it on the jet
over its body c, and inverse scales the result by 1 / c.  These scalars
are single terms, which ``degree_series`` applies to the rows it splits
and to the rows it assembles, so no series makes a whole-jet product.
Superfields reach it through the exp, ln and inverse of their body jet
(see ``superfield``).

Derivatives lower the order by one: the top-degree coefficients of a
derivative would need information beyond the input's truncation order.
Binary operations deliberately require equal base points and orders;
``truncate`` makes mixed-order expressions explicit at the call site.
A base point is the pair of ``Fraction``s of ``base_pair``, which keeps a
jet's own pair, so jets (and superfields) built from a jet share its base.
"""

import math
from fractions import Fraction
from itertools import compress

from .scalars import (MAX_UNITS, _unit_product, exact, sexp, sinv, sln,
                      unit_terms)

MAX_POWER_BITS = 2 ** 19  # the bits a power may add to its body


def degree_series(jet, first, kind, scale_in=1, scale_out=1):
    """first + sum_{d>=1} out_d for the series ``kind`` of s = sum_d P_d,
    with P_d the degree-d part of ``jet`` times ``scale_in`` and the
    finished series times ``scale_out``.

    P_0 is not read, ``first`` is an exact scalar and the two scales are
    single-term exact scalars.  ``kind`` is "exp" (out_d = E_d, first = 1),
    "inverse" (out_d = W_d of 1 / (1 + s), first = 1) or "ln" (out_d =
    T_d / d of ln(1 + s), first its constant); the recurrences are in the
    module docstring.

    A degree X_d is a list of integer rows (unit, [(i, n)], den), one per
    unit, with i the x-degree.  P_d's rows are read off the jet's: each
    unit's row is split by total degree i + j, scaled, and each degree's
    row is divided by its own gcd.  A term w * P_k * X_{d-k} adds the
    product of the rows of units u and v to unit t, where u * v = m * t
    for an int m, with weight w * m over the denominators' product; the
    trivial unit 0 is the identity.  Each unit's sum is formed over the lcm
    L of its terms' denominators, each weight scaled by L over its own
    denominator, and divided by one gcd.  For ln, T_0 = 0 and the d P_d term
    is added on its own.  The degrees hold disjoint bidegrees, so each
    unit's finished degrees and ``first``'s terms make one row over the lcm
    of their denominators, which ``scale_out`` then scales.  A single-term
    scale maps each unit to one unit and distinct units to distinct ones,
    so neither scale merges rows.
    """
    size = jet.order + 1
    rows = [[] for _ in range(size)]
    ((su, scale),) = unit_terms(scale_in)
    for u, (nums, den) in jet.rows.items():
        u, m = _unit_product(u, su) if su else (u, 1)
        w, den = scale.numerator * m, den * scale.denominator
        split: dict = {}
        for (i, j), n in nums.items():
            if i + j:
                split.setdefault(i + j, []).append((i, n * w))
        for d, row in split.items():
            g = math.gcd(den, *[n for _, n in row])
            rows[d].append((u, [(i, n // g) for i, n in row], den // g))
    live = [k for k in range(1, size) if rows[k]]
    ln = kind == "ln"
    seq = [[] if ln else [(0, [(0, 1)], 1)]]  # T_0 = 0, E_0 = W_0 = 1
    done = {u: [(0, [(0, c.numerator)], c.denominator)]
            for u, c in unit_terms(first)}
    for d in range(1, size):
        groups: dict = {}
        for k in live:
            if k > d:
                break
            w = k if kind == "exp" else -1
            for u, row, rden in rows[k]:
                for v, prow, pden in seq[d - k]:
                    t, m = _unit_product(u, v) if u and v else (u or v, 1)
                    groups.setdefault(t, []).append(
                        (w * m, row, prow, rden * pden))
        if ln:
            for u, row, rden in rows[d]:
                groups.setdefault(u, []).append((d, row, [(0, 1)], rden))
        level = []
        for t, terms in groups.items():
            lcm = math.lcm(*[term[3] for term in terms])
            acc = [0] * (d + 1)
            for w, row, prev, den in terms:
                w *= lcm // den
                for i, a in row:
                    aw = a * w
                    for j, b in prev:
                        acc[i + j] += aw * b
            den = d * lcm if kind == "exp" else lcm
            g = math.gcd(den, *acc)
            row = [(i, n // g) for i, n in enumerate(acc) if n]
            if row:
                level.append((t, row, den // g))
                done.setdefault(t, []).append(
                    (d, row, den // g * (d if ln else 1)))
        seq.append(level)
    ((su, scale),) = unit_terms(scale_out)
    out = {}
    for t, entries in done.items():
        lcm = math.lcm(*[den for _, _, den in entries])
        t, m = _unit_product(t, su) if su else (t, 1)
        w, den = scale.numerator * m, lcm * scale.denominator
        nums = {}
        for d, row, e in entries:
            f = lcm // e * w
            for i, n in row:
                nums[i, d - i] = n * f
        out[t] = _row(nums, den)
    return _ring_result(jet.base, jet.order, out)


def power(a, n: int):
    """``a ** n`` for an int n, a jet or an exact scalar.  A negative n
    inverts ``a`` first, as ``Jet.inverse`` or ``body_inverse`` does.  For
    n >= 2, n * (bits - 1) of the body's largest numerator or denominator
    may not pass ``MAX_POWER_BITS``.  A ``Fraction`` takes ``**``, any
    other base square and multiply from itself, so no product has the
    unit as a factor: x^1 takes no product, x^2 one and x^8 three."""
    jet = isinstance(a, Jet)
    if n < 0:
        a, n = a.inverse() if jet else body_inverse(a), -n
    if n == 0:
        return Jet.constant(1, a.base, a.order) if jet else Fraction(1)
    if n >= 2:
        b = max((max(abs(c.numerator), c.denominator)
                 for _, c in unit_terms(a.body if jet else a)), default=0)
        bits = n * (b.bit_length() - 1)
        if bits > MAX_POWER_BITS:
            raise ValueError(f"power {n} would give its body about {bits} "
                             f"bits, past the limit of {MAX_POWER_BITS}")
    if isinstance(a, Fraction):
        return a ** n
    out = a
    for bit in bin(n)[3:]:  # the bits after the leading 1
        out = out * out
        if bit == "1":
            out = out * a
    return out


def body_inverse(c):
    """1 / c for the body c of a jet, refused as ``Jet.inverse`` refuses
    it."""
    if not c:
        raise ValueError("jet has zero body, cannot invert")
    return sinv(c)


def body_ln(c):
    """(1 / c, ln c) for the body c of a jet, refused as ``Jet.ln`` refuses
    it: a zero body first, then by ``sinv``, then by ``sln``."""
    if not c:
        raise ValueError("ln of a jet with zero body")
    return sinv(c), sln(c)


def base_pair(base) -> tuple[Fraction, Fraction]:
    """A tuple of two Fractions as it is, anything else converted to one."""
    x0, y0 = base
    if type(base) is tuple and type(x0) is type(y0) is Fraction:
        return base
    return Fraction(x0), Fraction(y0)


class Jet:
    __slots__ = ("base", "order", "rows")

    def __init__(self, base, order: int, coeffs: dict | None = None):
        self.base = base_pair(base)
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self.order = order
        terms = []
        for (i, j), v in (coeffs or {}).items():
            if i < 0 or j < 0 or i + j > order:
                raise ValueError(f"bidegree {(i, j)} exceeds order {order}")
            terms += [(u, {(i, j): c.numerator}, 1, c.denominator)
                      for u, c in unit_terms(v)]
        self.rows = _collect(terms)

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(value, base=(0, 0), order: int = 8) -> "Jet":
        return Jet(base, order, {(0, 0): value})

    @staticmethod
    def variable(which: str, base=(0, 0), order: int = 8) -> "Jet":
        """The coordinate function x or y as a jet at the base point."""
        if which not in ("x", "y"):
            raise ValueError("variable must be 'x' or 'y'")
        base, k = base_pair(base), "xy".index(which)
        return Jet(base, order, {(0, 0): base[k], (1 - k, k): 1})

    @staticmethod
    def zero(base=(0, 0), order: int = 8) -> "Jet":
        return Jet(base, order)

    # -- structure -----------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients, {(i, j): Fraction | Scalar}; a copy."""
        terms: dict = {}
        for u, (nums, den) in self.rows.items():
            for k, n in nums.items():
                terms.setdefault(k, {})[u] = Fraction(n, den)
        return {k: exact(t) for k, t in terms.items()}

    def coefficient(self, i: int, j: int):
        key = (i, j)
        return exact({u: Fraction(nums[key], den)
                      for u, (nums, den) in self.rows.items() if key in nums})

    @property
    def body(self):
        """The constant coefficient."""
        return self.coefficient(0, 0)

    def is_zero(self) -> bool:
        return not self.rows

    def depends_only_on(self, which: str) -> bool:
        k = 1 if which == "x" else 0
        return all(key[k] == 0 for nums, _ in self.rows.values()
                   for key in nums)

    def _check_compatible(self, other: "Jet"):
        if self.base != other.base:
            raise ValueError(
                f"incompatible base points {self.base} and {other.base}")
        if self.order != other.order:
            raise ValueError(
                f"incompatible orders {self.order} and {other.order}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _plus(self, other, sign):
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.base, self.order)
        self._check_compatible(other)
        terms = [(u, nums, 1, den) for u, (nums, den) in self.rows.items()]
        terms += [(u, nums, sign, den)
                  for u, (nums, den) in other.rows.items()]
        return _ring_result(self.base, self.order, _collect(terms))

    def __neg__(self):
        return _ring_result(self.base, self.order, _collect(
            [(u, nums, -1, den) for u, (nums, den) in self.rows.items()]))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scaled(other)
        self._check_compatible(other)
        terms = []
        for u, (a, da) in self.rows.items():
            for v, (b, db) in other.rows.items():
                nums = _convolve(a, b, self.order)
                if nums:
                    w, m = _unit_product(u, v)
                    terms.append((w, nums, m, da * db))
        return _ring_result(self.base, self.order, _collect(terms))

    __rmul__ = __mul__

    def _scaled(self, value) -> "Jet":
        """This jet times an exact scalar: each row once per scalar term."""
        terms = []
        for v, c in unit_terms(value):
            for u, (nums, den) in self.rows.items():
                w, m = _unit_product(u, v)
                terms.append((w, nums, c.numerator * m, den * c.denominator))
        return _ring_result(self.base, self.order, _collect(terms))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        return self * sinv(other)

    def inverse(self) -> "Jet":
        """Multiplicative inverse; the body must be an invertible scalar.
        The recurrence inverts 1 + s, so it runs on self / c and scales the
        result by 1 / c."""
        ic = body_inverse(self.body)
        return degree_series(self, 1, "inverse", ic, ic)

    pow_int = power

    # -- calculus --------------------------------------------------------

    def deriv_x(self) -> "Jet":
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return _ring_result(self.base, self.order - 1, _collect(
            [(u, {(i - 1, j): n * i for (i, j), n in nums.items() if i}, 1,
              den) for u, (nums, den) in self.rows.items()]))

    def deriv_y(self) -> "Jet":
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return _ring_result(self.base, self.order - 1, _collect(
            [(u, {(i, j - 1): n * j for (i, j), n in nums.items() if j}, 1,
              den) for u, (nums, den) in self.rows.items()]))

    def truncate(self, order: int) -> "Jet":
        if order < 0:
            raise ValueError("jet order must be >= 0")
        if order > self.order:
            raise ValueError(
                f"cannot extend order {self.order} jet to order {order}")
        return _ring_result(self.base, order, _collect(
            [(u, {k: n for k, n in nums.items() if k[0] + k[1] <= order}, 1,
              den) for u, (nums, den) in self.rows.items()]))

    def exp(self) -> "Jet":
        """exp as a truncated series; the scalar ring takes the body first."""
        return degree_series(self, 1, "exp", 1, sexp(self.body))

    def ln(self) -> "Jet":
        """ln as a truncated series; requires a positive-loggable body c,
        and runs the recurrence on self / c."""
        ic, lc = body_ln(self.body)
        return degree_series(self, lc, "ln", ic)

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
        coeffs = self.coeffs
        max_i = max((k[0] for k in coeffs), default=0)
        max_j = max((k[1] for k in coeffs), default=0)
        xpow = [power(dx, i) for i in range(max_i + 1)]
        ypow = [power(dy, j) for j in range(max_j + 1)]
        acc = Jet.zero(fx.base, order)
        for (i, j), v in sorted(coeffs.items()):
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
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.base, self.order,
                     frozenset((u, frozenset(nums.items()), den)
                               for u, (nums, den) in self.rows.items())))

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, {self})"

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(coeffs, key=lambda k: (k[0] + k[1], -k[0])):
            v = coeffs[(i, j)]
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


def _ring_result(base, order, rows) -> Jet:
    """A jet from a ring operation, built without ``Jet``'s checks: ``base``
    is a jet's Fraction pair and ``rows`` are canonical rows within the
    order.  A jet of more than ``scalars.MAX_UNITS`` rows is refused."""
    if len(rows) > MAX_UNITS:
        raise ValueError(f"a jet of {len(rows)} units is past the limit of "
                         f"{MAX_UNITS}")
    jet = object.__new__(Jet)
    jet.base = base
    jet.order = order
    jet.rows = rows
    return jet


def _collect(terms) -> dict:
    """Canonical rows from terms (unit, nums, m, den), each the row of
    numerators nums * m over den, with m a nonzero int and no zero in
    nums; terms on one unit are added over the lcm of their denominators,
    and an empty row is dropped."""
    groups: dict = {}
    for term in terms:
        groups.setdefault(term[0], []).append(term)
    rows = {}
    for u, group in groups.items():
        if len(group) == 1:
            _, nums, m, den = group[0]
            if m != 1:
                nums = {k: n * m for k, n in nums.items()}
        else:
            den = math.lcm(*(t[3] for t in group))
            acc: dict = {}
            get = acc.get
            for _, part, m, d in group:
                m *= den // d
                for k, n in part.items():
                    acc[k] = get(k, 0) + n * m
            nums = {k: n for k, n in acc.items() if n}
        if nums:
            rows[u] = _row(nums, den)
    return rows


def _row(nums, den):
    """The row nums / den (nonzero numerators) divided by their gcd."""
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: n // g for k, n in nums.items()}, den // g


def _convolve(left, right, order) -> dict:
    """Nonzero integer sums of left[a] * right[b] by bidegree a + b, for
    a + b <= order.

    Bidegree (i, j) sits at flat index i * (order + 1) + j, and within the
    order a sum of bidegrees is the sum of their indices.  A left entry of
    degree d meets only the right entries of degree <= order - d.
    """
    s = order + 1
    entries = [(i * s + j, i + j, n) for (i, j), n in right.items()]
    by_room: dict = {}
    acc = [0] * (s * s)
    for (i, j), a in left.items():
        room = order - i - j
        row = by_room.get(room)
        if row is None:
            row = by_room[room] = [(k, n) for k, d, n in entries
                                   if d <= room]
        at = i * s + j
        for k, b in row:
            acc[at + k] += a * b
    return {divmod(k, s): acc[k] for k in compress(range(s * s), acc)}


def _magnitude(v) -> float:
    try:
        mag = abs(float(v))
    except (OverflowError, ValueError):  # fsum of inf and -inf is ValueError
        return math.inf
    return math.inf if math.isnan(mag) else mag
