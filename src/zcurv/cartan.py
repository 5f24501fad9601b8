"""Cartan-matrix data model, file format, and admissibility checks.

A Cartan matrix here is any square matrix of exact rationals together with
a parity (even/odd) per node.  Two diagonal conditions select the matrices
for which the two known solvable Toda-type superizations apply:

* scheme ``lse1``: every diagonal entry is 0 or 1;
* scheme ``lse2``: every diagonal entry is 2 or 1.

``CartanMatrix`` and ``AdmissibilityReport`` are named tuples: immutable,
and equal and hashed by their fields.

The file format is a strict JSON subset parsed with a hand-rolled reader so
that every error, including semantic ones (non-square matrix, parity-length
mismatch, non-rational entry), carries a line/column position.  The reader
keeps one offset and works the line and column out of it only when it
raises; whitespace is space, tab, CR and LF, and only LF starts a line::

    document  = object
    object    = '{' pair (',' pair)* '}'
    pair      = string ':' value
    value     = matrix rows / parities / name, per key:
      "matrix"   : array of equal-length arrays of rationals (required)
      "parities" : array of "even" / "odd" strings (optional, default even)
      "name"     : string (optional)
    rational  = integer | '"' integer ('/' integer)? '"'
    integer   = '-'? [0-9]+                  -- ASCII digits only
    string    = '"' (char other than '"' and '\\', or \\" \\\\ \\/)* '"'

A matrix row of bare integers is read with one regex match and one split;
any other row (a quoted entry, a float, a non-ASCII digit, a digit run
past Python's int-string limit, a malformed row) goes through the
entry-by-entry reader, so every error keeps its message and position.  An
integral entry is kept as an ``int`` and any other as a ``Fraction``, the
coefficient convention of ``symexpr``.  An error that echoes a quoted
entry, a key or a parity leaves out the middle of a long one and gives
its length.

The renderer emits a canonical form (fixed key order, no whitespace,
``\\`` and ``"`` escaped in the name), and
``parse_cartan(render_cartan(A)) == A`` for every valid ``A``.

Determinant and inverse come from one fraction-free elimination: each row
is scaled to integers by the lcm of its denominators, and Bareiss's
integer-preserving elimination (E. H. Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968)
runs on the result without building a ``Fraction``.
"""

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm, prod

from . import _clip

EVEN = "even"
ODD = "odd"


class CartanFormatError(ValueError):
    """Malformed Cartan-matrix document, with 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _entry(v) -> int | Fraction:
    """A matrix entry: an int when it is integral, else a Fraction."""
    if type(v) is int:
        return v
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


class CartanMatrix(namedtuple("CartanMatrix", "entries parities name")):
    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int | Fraction, ...], ...],
                parities: tuple[str, ...], name: str | None = None):
        n = len(entries)
        if n < 1:
            raise ValueError("cartan matrix must have rank >= 1")
        if any(len(row) != n for row in entries):
            raise ValueError("cartan matrix must be square")
        if len(parities) != n:
            raise ValueError(
                f"parity list has length {len(parities)}, expected {n}")
        if any(p not in (EVEN, ODD) for p in parities):
            raise ValueError("parities must be 'even' or 'odd'")
        return super().__new__(cls, entries, parities, name)

    @staticmethod
    def from_rows(rows, parities=None, name=None) -> "CartanMatrix":
        entries = tuple(tuple(map(_entry, row)) for row in rows)
        if parities is None:
            parities = (EVEN,) * len(entries)
        return CartanMatrix(entries, tuple(parities), name)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def diagonal(self) -> tuple[int | Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(self.rank))

    def is_all_even(self) -> bool:
        return all(p == EVEN for p in self.parities)

    def inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact inverse; raises ValueError when singular."""
        return invert_rational(self.entries)


class AdmissibilityReport(namedtuple("AdmissibilityReport",
                                      "scheme offending_indices",
                                      defaults=((),))):
    __slots__ = ()

    @property
    def admissible(self) -> bool:
        return not self.offending_indices


_ALLOWED_DIAGONAL = {"lse1": (0, 1), "lse2": (2, 1)}


def check_admissible(a: CartanMatrix, scheme: str) -> AdmissibilityReport:
    """Diagonal membership test for the given superization scheme."""
    scheme = scheme.lower()
    if scheme not in _ALLOWED_DIAGONAL:
        raise ValueError(f"unknown scheme {scheme!r}; expected lse1 or lse2")
    allowed = _ALLOWED_DIAGONAL[scheme]
    bad = tuple(i for i, d in enumerate(a.diagonal) if d not in allowed)
    return AdmissibilityReport(scheme, bad)


def parse_family(descriptor: str) -> tuple[str, int, int]:
    """Split 'family(p|q)' into its parts; family in {sl, osp, osp_a}."""
    text = descriptor.strip()
    for family in ("osp_a", "osp", "sl"):
        if text.startswith(family + "("):
            break
    else:
        raise ValueError(f"unparseable family descriptor {descriptor!r}")
    body = text[len(family) + 1:]
    if not body.endswith(")") or body.count("|") != 1:
        raise ValueError(f"unparseable family descriptor {descriptor!r}")
    left, right = body[:-1].split("|")
    try:
        p, q = int(left), int(right)
    except ValueError:
        raise ValueError(
            f"unparseable family descriptor {descriptor!r}") from None
    if p < 0 or q < 0:
        raise ValueError(f"unparseable family descriptor {descriptor!r}")
    return family, p, q


def whitelist_superprincipal(descriptor: str) -> bool:
    """Whether the named simple Lie superalgebra family admits a
    superprincipal osp(1|2) embedding.

    True exactly for sl(n|n+-1), osp(2n+-1|2n), osp(2n|2n), osp(2n+2|2n)
    and the one-parameter family osp_a(4|2).
    """
    family, p, q = parse_family(descriptor)
    if family == "sl":
        return p >= 1 and q >= 1 and abs(p - q) == 1
    if family == "osp_a":
        return (p, q) == (4, 2)
    # osp(p|q): q = 2n with n >= 1
    if q < 2 or q % 2:
        return False
    return p in (q - 1, q + 1, q, q + 2) and p >= 1


def standard_cartan(name: str) -> CartanMatrix:
    """Convenience constructors: sl2, osp12, and slN for small N."""
    if name == "osp12":
        return CartanMatrix.from_rows([[1]], [ODD], name="osp12")
    if name.startswith("sl"):
        try:
            n = int(name[2:])
        except ValueError:
            raise ValueError(f"unknown standard cartan matrix {name!r}") from None
        if n < 2:
            raise ValueError(f"unknown standard cartan matrix {name!r}")
        size = n - 1
        rows = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                 for j in range(size)] for i in range(size)]
        return CartanMatrix.from_rows(rows, name=name)
    raise ValueError(f"unknown standard cartan matrix {name!r}")


def _fraction_free(rows, jordan: bool):
    """Bareiss elimination of the rows, each scaled to integers by the lcm
    of its denominators; every division is exact.

    Returns (delta, swaps, scales, reduced): delta is (-1)^swaps times the
    determinant of the scaled matrix, 0 exactly when it is singular.  With
    ``jordan`` all rows are eliminated next to an identity block, which
    ends as delta times the inverse of the scaled matrix; without it only
    the rows below each pivot, which is enough for delta.
    """
    n = len(rows)
    rows = [[v if isinstance(v, (int, Fraction)) else Fraction(v)
             for v in row] for row in rows]
    scales = [lcm(*(v.denominator for v in row)) for row in rows]
    a = [[v.numerator * (s // v.denominator) for v in row]
         + ([int(i == j) for j in range(n)] if jordan else [])
         for i, (row, s) in enumerate(zip(rows, scales))]
    prev, swaps = 1, 0
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, swaps, scales, a
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            swaps += 1
        row_k = a[k]
        p = row_k[k]
        for i in range(n) if jordan else range(k + 1, n):
            if i != k:
                f = a[i][k]
                a[i] = [(v * p - f * w) // prev for v, w in zip(a[i], row_k)]
        prev = p
    return prev, swaps, scales, a


def determinant(rows) -> Fraction:
    """Exact determinant of a square rational matrix."""
    delta, swaps, scales, _ = _fraction_free(rows, jordan=False)
    return Fraction(-delta if swaps % 2 else delta, prod(scales))


def invert_rational(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square rational matrix: the adjugate over the
    determinant, both read off one fraction-free elimination.  The inverse
    of the row-scaled matrix D*M times D is the inverse of M."""
    delta, _, scales, reduced = _fraction_free(rows, jordan=True)
    if not delta:
        raise ValueError("matrix is singular")
    n = len(scales)
    return tuple(tuple(Fraction(v * s, delta)
                       for v, s in zip(row[n:], scales)) for row in reduced)


# ---------------------------------------------------------------------------
# file format


_WS = re.compile(r"[ \t\r\n]*")
_INT_ROW = re.compile(
    r"\[[ \t\r\n]*(-?[0-9]+(?:[ \t\r\n]*,[ \t\r\n]*-?[0-9]+)*)[ \t\r\n]*\]")
_INT = re.compile(r"-?[0-9]*")
_RATIONAL_STRING = re.compile(r"-?[0-9]+(?:/-?[0-9]+)?")
_STRING_BODY = re.compile(r'[^"\\]*(?:\\["\\/][^"\\]*)*')
_ESCAPE = re.compile(r"\\(.)")


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        pos = self.pos if pos is None else pos
        raise CartanFormatError(message, self.text.count("\n", 0, pos) + 1,
                                pos - self.text.rfind("\n", 0, pos))

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def accept(self, ch: str) -> bool:
        """Skip whitespace, then step over ``ch`` if it comes next."""
        self.skip_ws()
        found = self.peek() == ch
        self.pos += found
        return found

    def expect(self, ch: str):
        if not self.accept(ch):
            got = self.peek() or "end of input"
            self.error(f"expected {ch!r}, found {got!r}")

    def read_string(self) -> str:
        self.expect('"')
        body = _STRING_BODY.match(self.text, self.pos)
        self.pos = body.end()
        if self.peek() == '"':
            self.pos += 1
            return _ESCAPE.sub(r"\1", body.group())
        if not self.peek():
            self.error("unterminated string")
        esc = self.text[self.pos + 1:self.pos + 2]  # after a backslash
        self.pos += 1 + len(esc)
        self.error(f"unsupported escape \\{esc}" if esc
                   else "unterminated escape")

    def read_rational(self) -> int | Fraction:
        self.skip_ws()
        start = self.pos
        if self.peek() == '"':
            raw = self.read_string()
            if _RATIONAL_STRING.fullmatch(raw):
                parts = raw.split("/")
                try:
                    return _entry(Fraction(*map(int, parts)))
                except ZeroDivisionError:
                    pass
                except ValueError:  # past sys.get_int_max_str_digits()
                    digits = max(len(p.lstrip("-")) for p in parts)
                    self.error(f"integer of {digits} digits is too long",
                               start)
            self.error(f"non-rational entry {_clip(raw)}", start)
        digits = _INT.match(self.text, start).group()
        if not digits:
            got = self.peek() or "end of input"
            self.error(f"expected a rational entry, found {got!r}")
        self.pos += len(digits)
        if digits == "-":
            self.error("expected an integer")
        if self.peek() in (".", "e", "E"):
            self.error("non-rational entry: floats are not allowed; "
                       'write "p/q"', start)
        try:
            return int(digits)
        except ValueError:  # past sys.get_int_max_str_digits()
            self.error(f"integer of {len(digits.lstrip('-'))} digits is too "
                       "long", start)

    def read_row(self) -> tuple[int, list]:
        """The offset the row starts at, and its entries: a row of bare
        integers in one match, any other row entry by entry."""
        mark = self.pos
        self.skip_ws()
        row = _INT_ROW.match(self.text, self.pos)
        if row:
            try:
                entries = list(map(int, row[1].split(",")))
            except ValueError:  # past sys.get_int_max_str_digits()
                pass
            else:
                self.pos = row.end()
                return mark, entries
        return mark, self.read_array(self.read_rational)

    def read_array(self, read_item):
        self.expect("[")
        if self.accept("]"):
            return []
        items = [read_item()]
        while self.accept(","):  # the next item starts right after the comma
            items.append(read_item())
        self.expect("]")
        return items


def parse_cartan(text: str) -> CartanMatrix:
    """Parse a Cartan-matrix document; all errors carry line/column."""
    r = _Reader(text)
    r.expect("{")
    matrix = parities = name = None
    seen: set[str] = set()
    while True:
        r.skip_ws()
        key_mark = r.pos
        key = r.read_string()
        if key in seen:
            r.error(f"duplicate key {_clip(key)}", key_mark)
        seen.add(key)
        r.expect(":")
        if key == "matrix":
            r.skip_ws()
            matrix_mark = r.pos
            matrix = r.read_array(r.read_row)
        elif key == "parities":
            r.skip_ws()
            parity_mark = r.pos

            def read_parity():
                m = r.pos
                raw = r.read_string()
                if raw not in (EVEN, ODD):
                    r.error("parity must be 'even' or 'odd', got "
                            f"{_clip(raw)}", m)
                return raw

            parities = r.read_array(read_parity)
        elif key == "name":
            name = r.read_string()
        else:
            r.error(f"unknown key {_clip(key)}", key_mark)
        if not r.accept(","):
            break
    r.expect("}")
    r.skip_ws()
    if r.peek():
        r.error("trailing content after document")
    if matrix is None:
        r.error("missing required key 'matrix'", 0)
    n = len(matrix)
    if n == 0:
        r.error("matrix must have at least one row", matrix_mark)
    for row_mark, row in matrix:
        if len(row) != n:
            r.error(
                f"non-square matrix: row has {len(row)} entries, expected {n}",
                row_mark)
    if parities is not None and len(parities) != n:
        r.error(
            f"parity list has length {len(parities)}, expected {n}",
            parity_mark)
    rows = tuple(tuple(row) for _, row in matrix)
    pars = tuple(parities) if parities is not None else (EVEN,) * n
    return CartanMatrix(rows, pars, name)


def _render_rational(q: int | Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f'"{q}"'


def render_cartan(a: CartanMatrix) -> str:
    """Canonical document form: fixed key order, no whitespace."""
    rows = ",".join(
        "[" + ",".join(_render_rational(v) for v in row) + "]"
        for row in a.entries)
    parts = [f'"matrix":[{rows}]']
    parts.append('"parities":[' + ",".join(f'"{p}"' for p in a.parities) + "]")
    if a.name is not None:
        name = a.name.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'"name":"{name}"')
    return "{" + ",".join(parts) + "}"
