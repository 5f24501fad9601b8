"""Grassmann-valued jets: superfields over odd generators with D+ / D-.

A superfield is a sum over subsets S of a fixed ordered list of odd
generators (xi < eta < th1 < th2 < ...) of  theta_S * jet_S, where theta_S
is the ordered product of the generators in S.  Generators anticommute and
square to zero; the fixed order pins every interior-product sign.

The odd superderivations are

    D+ = d/d(xi)  + xi * d/dx,      D- = d/d(eta) + eta * d/dy,

which square to d/dx and d/dy and anticommute with each other.  Both lower
the jet order by one (through the d/dx part), mirroring ``Jet.deriv_*``.

exp and ln of an even field F = F0 + N split it into its body jet F0, the
empty-subset component, and a nilpotent rest N.  Every component of N
holds at least two generators, so with g generators N^(g/2 + 1) = 0 and

    exp F = exp(F0) * sum_{k=0..g/2} N^k / k!
    ln F  = ln F0 + sum_{k=1..g/2} (-1)^(k+1) (N F0^-1)^k / k

are exact finite sums; exp, ln and inverse of F0 are jet series.
"""

from fractions import Fraction

from .jets import Jet, base_pair

XI = "xi"
ETA = "eta"


def standard_gens(aux: int = 2) -> tuple[str, ...]:
    """Canonical generator tuple: xi, eta, then `aux` auxiliary thetas."""
    return (XI, ETA) + tuple(f"th{i}" for i in range(1, aux + 1))


def _merge_sign(m1: int, m2: int) -> int:
    """Sign of theta_{m1} * theta_{m2} relative to theta_{m1|m2}; 0 if overlap."""
    if m1 & m2:
        return 0
    sign = 1
    m = m2
    while m:
        b = (m & -m).bit_length() - 1
        if (m1 >> (b + 1)).bit_count() % 2:
            sign = -sign
        m &= m - 1
    return sign


class SuperField:
    __slots__ = ("gens", "base", "order", "comps")

    def __init__(self, gens, base, order: int, comps: dict | None = None):
        self.gens = tuple(gens)
        self.base = base_pair(base)
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self.order = order
        self.comps: dict[int, Jet] = {}
        if comps:
            for mask, jet in comps.items():
                if mask >> len(self.gens):
                    raise ValueError(f"component mask {mask:#b} out of range")
                if jet.base != self.base or jet.order != order:
                    raise ValueError("component jet has wrong base or order")
                if not jet.is_zero():
                    self.comps[mask] = jet

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_jet(jet: Jet, gens) -> "SuperField":
        return SuperField(gens, jet.base, jet.order, {0: jet})

    @staticmethod
    def constant(value, gens, base=(0, 0), order: int = 8) -> "SuperField":
        return SuperField.from_jet(Jet.constant(value, base, order), gens)

    @staticmethod
    def zero(gens, base=(0, 0), order: int = 8) -> "SuperField":
        return SuperField(gens, base, order)

    @staticmethod
    def coordinate(which: str, gens, base=(0, 0), order: int = 8) -> "SuperField":
        """x, y, or any odd generator by name, as a superfield."""
        gens = tuple(gens)
        if which in ("x", "y"):
            return SuperField.from_jet(Jet.variable(which, base, order), gens)
        if which not in gens:
            raise ValueError(f"unknown coordinate {which!r}")
        mask = 1 << gens.index(which)
        return SuperField(gens, base, order,
                          {mask: Jet.constant(1, base, order)})

    # -- structure ------------------------------------------------------

    def component(self, mask: int) -> Jet:
        return self.comps.get(mask, Jet.zero(self.base, self.order))

    @property
    def body(self):
        """Constant term of the empty-subset component."""
        return self.component(0).body

    def is_zero(self) -> bool:
        return not self.comps

    def parity(self) -> int | None:
        """0/1 for homogeneous fields, None for mixed, 0 for zero."""
        seen = {mask.bit_count() % 2 for mask in self.comps}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def _check_compatible(self, other: "SuperField"):
        if self.gens != other.gens:
            raise ValueError("superfields have different generator lists")
        if self.base != other.base or self.order != other.order:
            raise ValueError("incompatible base points or orders")

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SuperField):
            other = SuperField.constant(other, self.gens, self.base, self.order)
        self._check_compatible(other)
        comps = dict(self.comps)
        for mask, jet in other.comps.items():
            comps[mask] = comps[mask] + jet if mask in comps else jet
        return SuperField(self.gens, self.base, self.order, comps)

    __radd__ = __add__

    def __neg__(self):
        return SuperField(self.gens, self.base, self.order,
                          {m: -j for m, j in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SuperField):
            return SuperField(self.gens, self.base, self.order,
                              {m: j * other for m, j in self.comps.items()})
        self._check_compatible(other)
        comps: dict[int, Jet] = {}
        for m1, j1 in self.comps.items():
            for m2, j2 in other.comps.items():
                sign = _merge_sign(m1, m2)
                if not sign:
                    continue
                term = j1 * j2 if sign > 0 else -(j1 * j2)
                key = m1 | m2
                comps[key] = comps[key] + term if key in comps else term
        return SuperField(self.gens, self.base, self.order, comps)

    __rmul__ = __mul__  # scalars are even: left and right products agree

    # -- derivations --------------------------------------------------------

    def _toggle_gen(self, idx: int, present: bool) -> "SuperField":
        """Flip generator idx in the components that have it (``present``:
        the left derivative d/d theta_idx) or lack it (left multiplication
        by theta_idx); either way theta_idx passes the generators below it.
        """
        bit = 1 << idx
        below = bit - 1
        comps = {}
        for mask, jet in self.comps.items():
            if bool(mask & bit) == present:
                odd = (mask & below).bit_count() % 2
                comps[mask ^ bit] = -jet if odd else jet
        return SuperField(self.gens, self.base, self.order, comps)

    def deriv_x(self) -> "SuperField":
        return SuperField(self.gens, self.base, self.order - 1,
                          {m: j.deriv_x() for m, j in self.comps.items()})

    def deriv_y(self) -> "SuperField":
        return SuperField(self.gens, self.base, self.order - 1,
                          {m: j.deriv_y() for m, j in self.comps.items()})

    def _odd_derivation(self, gen: str, even: "SuperField") -> "SuperField":
        """d/d(gen) + gen * even, with ``even`` the matching d/dx or d/dy."""
        idx = self.gens.index(gen)
        return (self._toggle_gen(idx, True).truncate(self.order - 1)
                + even._toggle_gen(idx, False))

    def d_plus(self) -> "SuperField":
        return self._odd_derivation(XI, self.deriv_x())

    def d_minus(self) -> "SuperField":
        return self._odd_derivation(ETA, self.deriv_y())

    def truncate(self, order: int) -> "SuperField":
        return SuperField(self.gens, self.base, order,
                          {m: j.truncate(order) for m, j in self.comps.items()})

    # -- exp / ln -----------------------------------------------------------

    def _split(self, op: str) -> tuple[Jet, "SuperField"]:
        """The body jet F0 and the nilpotent rest N of an even field."""
        if self.parity() != 0:
            raise ValueError(f"{op} requires an even-homogeneous superfield")
        return self.component(0), SuperField(
            self.gens, self.base, self.order,
            {m: j for m, j in self.comps.items() if m})

    def exp(self) -> "SuperField":
        """exp of an even-homogeneous superfield."""
        body, rest = self._split("exp")
        acc = power = SuperField.constant(1, self.gens, self.base, self.order)
        for k in range(1, len(self.gens) // 2 + 1):
            power = power * rest * Fraction(1, k)
            acc = acc + power
        return acc * body.exp()

    def ln(self) -> "SuperField":
        """ln of an even-homogeneous superfield with loggable body."""
        body, rest = self._split("ln")
        if not body.body:
            raise ValueError("ln of a superfield with zero body")
        acc = SuperField.from_jet(body.ln(), self.gens)
        ratio = rest * body.inverse()
        power = SuperField.constant(1, self.gens, self.base, self.order)
        for k in range(1, len(self.gens) // 2 + 1):
            power = power * ratio
            acc = acc + power * Fraction((-1) ** (k + 1), k)
        return acc

    # -- protocol -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SuperField):
            return NotImplemented
        return (self.gens == other.gens and self.base == other.base
                and self.order == other.order and self.comps == other.comps)

    def __hash__(self):
        return hash((self.gens, self.base, self.order,
                     frozenset(self.comps.items())))

    def __repr__(self):
        return f"SuperField({self})"

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for mask in sorted(self.comps, key=self._subset_key):
            names = "*".join(self.gens[i] for i in range(len(self.gens))
                             if mask >> i & 1)
            jet = str(self.comps[mask])
            if not names:
                parts.append(jet)
            elif jet == "1":
                parts.append(names)
            else:
                parts.append(f"{names}*({jet})")
        return " + ".join(parts)

    def _subset_key(self, mask: int):
        return tuple(i for i in range(len(self.gens)) if mask >> i & 1)
