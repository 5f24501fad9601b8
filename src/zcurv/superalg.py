"""Parity-graded matrices: graded commutator, supertrace, bracket tables.

The matrix fixtures below are the ground truth for every sign convention in
the derivation engine.  ``sl2`` is the usual triple (X-, H, X+) in 2x2
matrices; ``osp12`` is a 3x3 realisation with parity vector
(even, odd, even), the unique assignment that makes H, X+- even and the
odd generators d+- homogeneous.  The rank-1 relation tables consumed by
the zero-curvature engine, brackets and generator parities alike, are
computed from these matrices, never written by hand, once per process:
``fixture_table`` shares each fixture's read-only table.  ``SuperMatrix``
and ``BracketTable`` are named tuples; a supermatrix adds and negates
entrywise, and ``*`` raises TypeError instead of repeating the tuple.
"""

import functools
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .cartan import EVEN, ODD

_PNUM = {EVEN: 0, ODD: 1}


class SuperMatrix(namedtuple("SuperMatrix", "entries row_parities")):
    """Square rational matrix with one parity per row (= per column)."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[Fraction, ...], ...],
                row_parities: tuple[str, ...]):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("supermatrix must be square")
        if len(row_parities) != n:
            raise ValueError("parity vector length must equal matrix size")
        if any(p not in (EVEN, ODD) for p in row_parities):
            raise ValueError("parities must be 'even' or 'odd'")
        return super().__new__(cls, entries, row_parities)

    @staticmethod
    def from_rows(rows, parities) -> "SuperMatrix":
        return SuperMatrix(
            tuple(tuple(Fraction(v) for v in row) for row in rows),
            tuple(parities))

    @property
    def size(self) -> int:
        return len(self.entries)

    def parity(self) -> int:
        """Parity of a homogeneous matrix (zero counts as even)."""
        p = [_PNUM[q] for q in self.row_parities]
        seen = {p[i] ^ p[j] for i, row in enumerate(self.entries)
                for j, v in enumerate(row) if v}
        if len(seen) > 1:
            raise ValueError("matrix is not homogeneous")
        return seen.pop() if seen else 0

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_compatible(other)
        return SuperMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb))
                  for ra, rb in zip(self.entries, other.entries)),
            self.row_parities)

    def __neg__(self) -> "SuperMatrix":
        return self.scale(-1)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + (-other)

    def __mul__(self, other):  # not the tuple repetition: see scale()
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "SuperMatrix":
        c = Fraction(c)
        return SuperMatrix(
            tuple(tuple(c * v for v in row) for row in self.entries),
            self.row_parities)

    def matmul(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_compatible(other)
        rows = [[Fraction(0)] * self.size for _ in self.entries]
        for out, row in zip(rows, self.entries):
            for a, other_row in zip(row, other.entries):
                if a:
                    for j, b in enumerate(other_row):
                        if b:
                            out[j] += a * b
        return SuperMatrix(tuple(map(tuple, rows)), self.row_parities)

    def _check_compatible(self, other: "SuperMatrix"):
        if self.row_parities != other.row_parities:
            raise ValueError("size/parity-vector mismatch")

    def __str__(self):
        cells = [[str(v) for v in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


def supercommutator(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """Graded bracket  XY - (-1)^{p(X)p(Y)} YX  of homogeneous matrices."""
    x._check_compatible(y)
    px, py = x.parity(), y.parity()
    sign = -1 if px * py else 1
    return x.matmul(y) - y.matmul(x).scale(sign)


def supertrace(x: SuperMatrix) -> Fraction:
    """Sum of (-1)^{row parity} times the diagonal entries."""
    return sum(((-1) ** _PNUM[p]) * x.entries[i][i]
               for i, p in enumerate(x.row_parities))


class BracketTable(namedtuple("BracketTable", "names table parities")):
    """All ordered graded brackets of a named basis, expanded in the basis.

    ``table[(a, b)]`` is a tuple of (coefficient, name) pairs, and
    ``parities[a]`` is the parity (0 even, 1 odd) of basis element ``a``.
    Both maps are read-only, so one table can be shared.
    """

    __slots__ = ()

    def bracket(self, a: str, b: str) -> tuple[tuple[Fraction, str], ...]:
        return self.table[(a, b)]

    def parity(self, name: str) -> int:
        return self.parities[name]


def _expand_in_basis(m: SuperMatrix, basis: dict[str, SuperMatrix]):
    """Write m as a linear combination of the basis matrices.

    The fixture bases have pairwise disjoint supports, so matching each
    basis element on one of its nonzero positions is exact; closure is
    verified by reconstructing m: c*b is subtracted from a copy of m at the
    nonzero entries of b.  Raises ValueError outside the span.
    """
    coeffs = []
    residue = [list(row) for row in m.entries]
    for name, b in basis.items():
        support = [(i, j, v) for i, row in enumerate(b.entries)
                   for j, v in enumerate(row) if v]
        if not support:
            continue
        i0, j0, v0 = support[0]
        c = residue[i0][j0] / v0
        if c:
            coeffs.append((c, name))
            for i, j, v in support:
                residue[i][j] -= c * v
    if any(v for row in residue for v in row):
        raise ValueError("bracket value lies outside the span of the basis")
    return tuple(coeffs)


def bracket_table(basis: dict[str, SuperMatrix]) -> BracketTable:
    """Graded brackets of all ordered pairs of a homogeneous basis, and the
    parity of each basis element as its matrix gives it."""
    parities = {}
    for name, b in basis.items():
        try:
            parities[name] = b.parity()
        except ValueError:
            raise ValueError(
                f"basis element {name} is not homogeneous") from None
    table = {}
    for a_name, a in basis.items():
        for b_name, b in basis.items():
            table[(a_name, b_name)] = _expand_in_basis(
                supercommutator(a, b), basis)
    return BracketTable(tuple(basis), MappingProxyType(table),
                        MappingProxyType(parities))


def sl2_basis() -> dict[str, SuperMatrix]:
    even2 = (EVEN, EVEN)
    return {
        "H": SuperMatrix.from_rows([[1, 0], [0, -1]], even2),
        "X+": SuperMatrix.from_rows([[0, 1], [0, 0]], even2),
        "X-": SuperMatrix.from_rows([[0, 0], [1, 0]], even2),
    }


def osp12_basis() -> dict[str, SuperMatrix]:
    pars = (EVEN, ODD, EVEN)
    return {
        "H": SuperMatrix.from_rows(
            [[1, 0, 0], [0, 0, 0], [0, 0, -1]], pars),
        "X+": SuperMatrix.from_rows(
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]], pars),
        "X-": SuperMatrix.from_rows(
            [[0, 0, 0], [0, 0, 0], [1, 0, 0]], pars),
        "d+": SuperMatrix.from_rows(
            [[0, 1, 0], [0, 0, -1], [0, 0, 0]], pars),
        "d-": SuperMatrix.from_rows(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]], pars),
    }


@functools.cache
def fixture_table(name: str) -> BracketTable:
    """The bracket table of the ``sl2`` or ``osp12`` fixture, computed on the
    first call and shared by every later one."""
    return bracket_table({"sl2": sl2_basis, "osp12": osp12_basis}[name]())
