"""Symbolic differential superalgebra for the derivation engine.

Expressions are Q-linear combinations of monomials; a monomial is an
ordered product of atoms.  A coefficient is an ``int`` when it is
integral and a ``Fraction`` (with denominator > 1) otherwise, so the
integral arithmetic that makes up nearly all of a derivation never builds
a ``Fraction``.  An atom is either

* a derivative of a named indeterminate function,
  ``dx^i dy^j (D+)^e+ (D-)^e- f`` with ``e+, e- in {0, 1}`` (the operator
  word is kept in the normal order with D+ outermost, using
  ``(D+)^2 = dx``, ``(D-)^2 = dy`` and ``D+ D- = -D- D+``), or
* an opaque ``exp(...)`` of a rational-linear combination of names, used
  only on the right-hand sides of derived systems and never differentiated.

Atoms are named tuples, so equality and hashing come from their fields.
``sort_key`` orders the atoms of a monomial and ``_term_key`` is the one
print order of monomials; it also picks the leading term that a derived
equation makes positive.  Each Atom's sort key, parity and print key are
computed once, into the module table ``_ATOM_KEYS``, which every product,
derivative, parity and print order reads.  Beside it, ``_ATOM_DERIVS``
holds each Atom's derivative under dx, dy, D+ and D- (a sign and an atom),
worked out the first time it is asked for; an ``exp(...)`` atom is refused
there and never kept.

Odd atoms anticommute and square to zero; even atoms commute with
everything.  D+ and D- act as odd derivations, dx and dy as even ones.
All sign bookkeeping is literal algebra on these monomials.

Every multi-term result (sums, products, derivatives, substitutions) is
accumulated into one dict by ``_collect``: repeated monomials are added,
and zero coefficients dropped and integral ones made ``int`` once, at the
end.  The common cheap cases skip it: a product by 1 or -1 is the
expression or its negation, a product of two single terms is one
monomial merge, which for two single atoms is one key comparison, and a
derivative of an expression whose monomials are single atoms maps each
atom straight to its derived atom, with no merge.
"""

from collections import namedtuple
from fractions import Fraction


class Atom(namedtuple("Atom", "name dx dy dp dm base_parity",
                       defaults=(0, 0, 0, 0, 0))):
    __slots__ = ()

    @property
    def sort_key(self) -> tuple:
        """The monomial order: names case-insensitively, lower case first."""
        name = self.name
        lower_first = 0 if name[:1].islower() else 1
        return (0, (lower_first, name.lower(), name), self.dx, self.dy,
                self.dp, self.dm, self.base_parity)

    @property
    def parity(self) -> int:
        return (self.base_parity + self.dp + self.dm) % 2

    def render(self) -> str:
        out = self.name
        if self.dm:
            out = f"D-({out})"
        if self.dp:
            out = f"D+({out})"
        if self.dx or self.dy:
            out += "_" + "x" * self.dx + "y" * self.dy
        return out


class ExpAtom(namedtuple("ExpAtom", "args")):
    """exp of a rational-linear combination of names, ``args`` its
    (coefficient, name) pairs with int or Fraction coefficients; parity
    even."""

    __slots__ = ()

    @property
    def sort_key(self) -> tuple:
        return (1, self.args)

    @property
    def parity(self) -> int:
        return 0

    def render(self) -> str:
        return "exp(" + _linear_str(self.args) + ")"


# Atom -> (sort_key, parity, print key), each computed the first time the
# atom is met.  Atom names come from the caller's rank, so the table stays
# small; an ExpAtom's args carry input rationals, so its keys are not kept.
_ATOM_KEYS: dict = {}


def _keys(a) -> tuple:
    keys = _ATOM_KEYS.get(a)
    if keys is None:
        keys = (a.sort_key, a.parity, _term_atom_key(a))
        if isinstance(a, Atom):
            _ATOM_KEYS[a] = keys
    return keys


# op -> {Atom -> (sign, derived atom)}, each worked out the first time the
# atom is differentiated under op.  An ExpAtom is refused, never kept.
_ATOM_DERIVS: dict = {op: {} for op in ("dx", "dy", "dp", "dm")}


def _derived(a, table: dict, op: str) -> tuple:
    out = table.get(a)
    if out is None:
        if isinstance(a, ExpAtom):
            raise ValueError("cannot differentiate an exp(...) atom")
        out = table[a] = _derive_atom(a, op)
    return out


def _mul_monomials(m1: tuple, m2: tuple) -> tuple:
    """Merge two canonical monomials into zero or one (sign, monomial)
    results: none when an odd atom would be squared."""
    if not m1 or not m2:
        return ((1, m1 or m2),)
    if len(m1) == len(m2) == 1:
        (ka, pa, _), (kb, pb, _) = _keys(m1[0]), _keys(m2[0])
        if ka < kb:
            return ((1, m1 + m2),)
        if kb < ka:
            return ((-1 if pa and pb else 1, m2 + m1),)
        return () if pa else ((1, m1 + m2),)  # equal keys: equal atoms
    k1, k2 = [_keys(a) for a in m1], [_keys(b) for b in m2]
    out = []
    sign = 1
    i = j = 0
    odd_left = sum(k[1] for k in k1)
    while i < len(m1) and j < len(m2):
        if k1[i][0] <= k2[j][0]:
            odd_left -= k1[i][1]
            out.append(m1[i])
            i += 1
        else:
            if k2[j][1] and odd_left % 2:
                sign = -sign
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    for k in range(len(out) - 1):
        if out[k] == out[k + 1] and _keys(out[k])[1]:
            return ()  # odd atom squared
    return ((sign, tuple(out)),)


def _coeff(c):
    """The coefficient c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _collect(pairs) -> "Expr":
    """Sum (monomial, coefficient) pairs in one dict, then drop the zero
    sums and make the integral ones int, once."""
    terms: dict = {}
    get = terms.get
    for mono, c in pairs:
        terms[mono] = get(mono, 0) + c
    return Expr._of({mono: _coeff(c) for mono, c in terms.items() if c})


class Expr:
    """Q-linear combination of atom monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[tuple, int | Fraction] = {
            mono: _coeff(c) for mono, c in (terms or {}).items() if c}

    @staticmethod
    def _of(terms: dict) -> "Expr":
        """Wrap terms whose coefficients are already nonzero and in form."""
        out = object.__new__(Expr)
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rational(q) -> "Expr":
        q = Fraction(q)
        return Expr._of({(): _coeff(q)} if q else {})

    @staticmethod
    def atom(a) -> "Expr":
        return Expr._of({(a,): 1})

    @staticmethod
    def sum(parts) -> "Expr":
        return _collect(pair for p in parts for pair in p.terms.items())

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        return Expr.sum((self, other))

    def __neg__(self) -> "Expr":
        return Expr._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == -1:
                return -self
            q = _coeff(other)
            return _collect((m, c * q) for m, c in self.terms.items())
        if not isinstance(other, Expr):
            return NotImplemented
        if len(self.terms) == len(other.terms) == 1:
            ((m1, c1),), ((m2, c2),) = self.terms.items(), other.terms.items()
            return Expr._of({m: _coeff(s * c1 * c2)
                             for s, m in _mul_monomials(m1, m2)})
        return _collect((mono, sign * c1 * c2)
                        for m1, c1 in self.terms.items()
                        for m2, c2 in other.terms.items()
                        for sign, mono in _mul_monomials(m1, m2))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int | None:
        seen = {sum(_keys(a)[1] for a in m) % 2 for m in self.terms}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    # -- derivations --------------------------------------------------------

    def _derive(self, op: str) -> "Expr":
        table = _ATOM_DERIVS.get(op)
        if table is None:
            raise ValueError(f"unknown derivation {op!r}")
        if all(len(mono) == 1 for mono in self.terms):
            # each monomial one atom: the derived atoms are distinct and
            # canonical, so there is nothing to merge or collect
            out = {}
            for (a,), c in self.terms.items():
                sign, new_atom = _derived(a, table, op)
                out[(new_atom,)] = c * sign
            return Expr._of(out)
        op_parity = 1 if op in ("dp", "dm") else 0

        def pairs():
            for mono, c in self.terms.items():
                odd_before = 0
                for i, a in enumerate(mono):
                    sign, new_atom = _derived(a, table, op)
                    if op_parity and odd_before % 2:
                        sign = -sign
                    odd_before += _keys(a)[1]
                    for s1, partial in _mul_monomials(mono[:i], (new_atom,)):
                        for s2, new_mono in _mul_monomials(partial,
                                                           mono[i + 1:]):
                            yield new_mono, c * sign * s1 * s2
        return _collect(pairs())

    def deriv_x(self) -> "Expr":
        return self._derive("dx")

    def deriv_y(self) -> "Expr":
        return self._derive("dy")

    def d_plus(self) -> "Expr":
        return self._derive("dp")

    def d_minus(self) -> "Expr":
        return self._derive("dm")

    def substitute(self, mapping: dict[str, "Expr"]) -> "Expr":
        """Replace named indeterminates, re-applying their derivative words."""
        parts = []
        for mono, c in self.terms.items():
            acc = Expr.rational(c)
            for a in mono:
                if isinstance(a, ExpAtom) or a.name not in mapping:
                    acc = acc * Expr.atom(a)
                    continue
                rep = mapping[a.name]
                for op in ("dm", "dp", "dx", "dy"):
                    for _ in range(getattr(a, op)):
                        rep = rep._derive(op)
                acc = acc * rep
            parts.append(acc)
        return Expr.sum(parts)

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_term_key):
            c = self.terms[mono]
            parts.append(_render_term(c, mono))
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Expr({self.render()})"


def _derive_atom(a: Atom, op: str) -> tuple[int, Atom]:
    if op == "dx":
        return 1, Atom(a.name, a.dx + 1, a.dy, a.dp, a.dm, a.base_parity)
    if op == "dy":
        return 1, Atom(a.name, a.dx, a.dy + 1, a.dp, a.dm, a.base_parity)
    if op == "dp":
        if a.dp:  # D+ D+ = dx
            return 1, Atom(a.name, a.dx + 1, a.dy, 0, a.dm, a.base_parity)
        return 1, Atom(a.name, a.dx, a.dy, 1, a.dm, a.base_parity)
    sign = -1 if a.dp else 1  # dm: D- passes D+ in the normal order
    if a.dm:  # D- D- = dy
        return sign, Atom(a.name, a.dx, a.dy + 1, a.dp, 0, a.base_parity)
    return sign, Atom(a.name, a.dx, a.dy, a.dp, 1, a.base_parity)


def _term_key(mono: tuple) -> tuple:
    """The print order of monomials: shorter first, then atom by atom."""
    return (len(mono), tuple([_keys(a)[2] for a in mono]))


def _term_atom_key(a):
    if isinstance(a, ExpAtom):
        return (1, a.args)
    # case-folded name, then the name itself: "B" before "b", "aB" before "ab"
    return (0, -a.dp, -a.dm, a.name.lower(), a.name, a.dx, a.dy,
            a.base_parity)


def _render_term(c: int | Fraction, mono: tuple) -> str:
    bits = []
    run_atom = None
    run = 0
    for a in mono + (None,):
        if a is not None and a == run_atom:
            run += 1
            continue
        if run_atom is not None:
            bits.append(run_atom.render() if run == 1
                        else f"{run_atom.render()}^{run}")
        run_atom, run = a, 1
    coeff = ""
    if not bits:
        return str(c)
    if c == -1:
        coeff = "-"
    elif c != 1:
        coeff = _frac_str(c) + "*"
    return coeff + "*".join(bits)


def _frac_str(c: int | Fraction) -> str:
    return str(c) if c.denominator == 1 else f"({c})"


def _linear_str(pairs) -> str:
    text = ""
    for coeff, name in pairs:
        piece = name if abs(coeff) == 1 else f"{_frac_str(abs(coeff))}*{name}"
        if not text:
            text = piece if coeff > 0 else f"-{piece}"
        else:
            text += f" + {piece}" if coeff > 0 else f" - {piece}"
    return text or "0"


def fn(name: str, parity: int = 0) -> Expr:
    return Expr.atom(Atom(name, base_parity=parity))


def exp_linear(pairs) -> Expr:
    """exp(sum coeff*name) as an opaque atom: repeated names are merged,
    zero sums dropped, integral ones made int and the rest sorted by name;
    exp(0) is 1."""
    coeffs: dict[str, int | Fraction] = {}
    for c, n in pairs:
        if c:
            coeffs[n] = coeffs.get(n, 0) + (c if type(c) is int
                                            else Fraction(c))
    args = tuple((_coeff(c), n) for n, c in sorted(coeffs.items()) if c)
    return Expr.atom(ExpAtom(args)) if args else Expr.rational(1)
