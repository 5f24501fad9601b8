"""Tiny closed expression grammar for command-line inputs.

    expr    = term (('+' | '-') term)*
    term    = factor (('*' | '/') factor)*
    factor  = ('-' | '+') factor | power
    power   = primary ('^' factor)?          -- integer exponents only
    primary = integer | 'x' | 'y' | 'exp' '(' expr ')' | 'ln' '(' expr ')'
            | '(' expr ')'

Every literal is an integer token of ASCII digits, stored as
``("num", int)``; rational constants are written as quotients of integers
("3/2").  Each tree is compiled once into a *program*: a closure per
node that calls its children's closures and applies the node's
operation from an operation table.  The parser builds the program as it
builds the tuple, and the parsed tree carries it, so it lives as long as
the tree; ``eval_float``, ``eval_jet`` and ``used_variables`` compile a
hand-built tuple on each call.  A program records which of x and y its
tree reads.  One program runs all three tables:

* jets (``Jet.constant``, ``operator.truediv``, ``Jet.pow_int``,
  ``Jet.exp``, ``Jet.ln``) give exact jets at a base point;
* floats (``float``, ``operator.truediv``, ``operator.pow``, ``math.exp``,
  ``math.log``) give a float at one point;
* arrays give the float fold at every point of a 1-D float array at once.
  They apply ``operator.pow``, ``math.exp`` and ``math.log`` to each element
  through ``np.frompyfunc``, so every value is bitwise that of the float
  table and the same ValueError, OverflowError or ZeroDivisionError
  propagates.  Division checks its divisor first, because numpy would
  return inf or nan where Python raises "float division by zero".  The fold
  runs under ``np.errstate(over="ignore", invalid="ignore")``: Python's
  ``+``, ``-`` and ``*`` give inf and nan silently, and so does the array
  fold.  This table is built on the first array call, so importing this
  module does not load numpy; an array argument means numpy is loaded.

neg, add, sub and mul are Python's operators in every table.  A subtree
that reads neither x nor y is folded to its float when the program is
built, and the float and array tables take that value.  Its closures are
compiled the first time a jet call, or a float call whose fold raises,
needs them: jet constants depend on the base point and order and are
folded on each call, and a raise runs the closures again, so the same
error comes at the same point on every call.  A jet or array call folds each
distinct subtree once, in a memo keyed by the node tuple that callers may
share across calls with the same x and y; the float fold at one point
keeps no memo.  A fold descends one frame a level of the tree, so a tree
deeper than the recursion limit less ``_CALLER_FRAMES`` raises
``RecursionError`` when it is parsed.
"""

import functools
import math
import operator
import sys


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos + 1})")
        self.pos = pos


_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit also takes '²'
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ExprSyntaxError(f"integer of {j - i} digits is too "
                                      "long", i) from None
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


# -- programs ----------------------------------------------------------------
#
# A program is a closure run(x, y, ops, memo) over one node; memo is None for
# the float fold at one point.  A part is the tuple (node, run, mask, depth,
# value) of one subtree: mask holds the bits of the variables it reads, and
# when it reads none, value is its float (None if that raises).  The parser
# and ``_compile`` build parts with the same builders, which give a node a
# closure when one of its children has one: a num leaf has one only when
# ``_compile`` is asked for closures, so a subtree that reads no variable has
# none until a jet, or a float fold that raises, needs them.

_X, _Y = 1, 2
_VARIABLES = (frozenset(), frozenset("x"), frozenset("y"), frozenset("xy"))
# Frames of the stack that a tree's depth leaves to the callers of its fold
# and to the operations at its deepest node: every tree that parses folds.
_CALLER_FRAMES = 100


def _leaf(node, closure: bool):
    """The part of a num or var node; a num gets a closure if ``closure``."""
    kind, arg = node
    if kind == "var":
        if arg == "x":
            return node, lambda x, y, ops, memo: x, _X, 1, None
        return node, lambda x, y, ops, memo: y, _Y, 1, None
    if not closure:
        return node, None, 0, 1, _fold("num", arg)

    def run(x, y, ops, memo):
        if memo is None or (value := memo.get(node)) is None:
            value = ops["num"](arg)
            if memo is not None:
                memo[node] = value
        return value
    return node, run, 0, 1, _fold("num", arg)


def _fold(op, *args):
    """The float table's ``op`` of a constant node's operands, or None when
    an operand is None or the operation raises."""
    if None in args:
        return None
    try:
        return _FLOAT_OPS[op](*args)
    except (ValueError, ArithmeticError):
        return None


def _check_depth(depth: int) -> None:
    if depth > sys.getrecursionlimit() - _CALLER_FRAMES:
        raise RecursionError(f"expression nested {depth} deep")


def _unary(node, part):
    """The part of a neg, exp, ln or pow node over the part of its argument;
    pow passes its exponent, ``node[2]``, after the argument."""
    _, a, mask, depth, value = part
    op, rest = node[0], node[2:]
    _check_depth(depth + 1)
    if not mask:
        value = _fold(op, value, *rest)
    if a is None:
        return node, None, 0, depth + 1, value

    def run(x, y, ops, memo):
        if memo is None or (value := memo.get(node)) is None:
            value = ops[op](a(x, y, ops, memo), *rest)
            if memo is not None:
                memo[node] = value
        return value
    return node, run, mask, depth + 1, value


def _binary(node, left, right):
    """The part of an add, sub, mul or div node over its operands' parts.
    When the node reads a variable, a constant operand gives its float."""
    _, a, ma, da, va = left
    _, b, mb, db, vb = right
    op = node[0]
    depth = (da if da > db else db) + 1
    _check_depth(depth)  # a chain of terms parses in a loop
    value = None if ma | mb else _fold(op, va, vb)
    if a is None and b is None:
        return node, None, 0, depth, value
    if ma and not mb:
        b = _constant(node[2], b, vb)
    elif mb and not ma:
        a = _constant(node[1], a, va)

    def run(x, y, ops, memo):
        if memo is None or (value := memo.get(node)) is None:
            value = ops[op](a(x, y, ops, memo), b(x, y, ops, memo))
            if memo is not None:
                memo[node] = value
        return value
    return node, run, ma | mb, depth, value


def _constant(node, run, value):
    """The program of a tree that reads neither x nor y, from its closure
    ``run`` (None if it has none yet) and float ``value``.  The float and
    array tables (whose ``num`` is ``float``) get ``value``.  Jets, whose
    constants depend on the point, and a float fold that raises run the
    tree's closures, compiled the first time they are needed."""
    def const(x, y, ops, memo):
        nonlocal run
        if value is not None and ops["num"] is float:
            return value
        if run is None:
            run = _compile(node, closures=True)[1]
        return run(x, y, ops, memo)
    return const


def _compile(node, closures: bool = False):
    """The part of a hand-built tree, as the parser builds it; with
    ``closures``, every node has a closure."""
    kind = node[0]
    if kind in ("num", "var"):
        return _leaf(node, closures)
    if kind in ("neg", "exp", "ln", "pow"):
        return _unary(node, _compile(node[1], closures))
    if kind in ("add", "sub", "mul", "div"):
        return _binary(node, _compile(node[1], closures),
                       _compile(node[2], closures))
    raise ValueError(f"unknown node {kind!r}")


def _finish(part):
    """(run, variables) of a tree from its part."""
    node, run, mask, _, value = part
    return (run if mask else _constant(node, run, value)), _VARIABLES[mask]


def _program(node):
    """(run, variables) of the tree.  A parsed tree carries its own; a
    hand-built tuple is compiled on each call."""
    if type(node) is _Tree:
        return node.program
    return _finish(_compile(node))


# -- parsing -----------------------------------------------------------------

_X_PART, _Y_PART = _leaf(("var", "x"), False), _leaf(("var", "y"), False)


class _Parser:
    """Recursive descent that returns the part of each subtree it reads."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self):
        part = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return part

    def expr(self):
        part = self.term()
        while self.peek()[0] in "+-":
            kind = "add" if self.next()[0] == "+" else "sub"
            rhs = self.term()
            part = _binary((kind, part[0], rhs[0]), part, rhs)
        return part

    def term(self):
        part = self.factor()
        while self.peek()[0] in "*/":
            kind = "mul" if self.next()[0] == "*" else "div"
            rhs = self.factor()
            part = _binary((kind, part[0], rhs[0]), part, rhs)
        return part

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            part = self.factor()
            return _unary(("neg", part[0]), part)
        if tok[0] == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self):
        part = self.primary()
        if self.peek()[0] == "^":
            pos = self.next()[2]
            n = _int_const(self.factor()[0])
            if n is None:
                raise ExprSyntaxError("exponent must be an integer", pos)
            return _unary(("pow", part[0], n), part)
        return part

    def primary(self):
        kind, value, pos = self.next()
        if kind == "int":
            return _leaf(("num", value), False)
        if kind == "name":
            if value == "x":
                return _X_PART
            if value == "y":
                return _Y_PART
            if value in ("exp", "ln"):
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _unary((value, arg[0]), arg)
            raise ExprSyntaxError(f"unknown name {value!r}", pos)
        if kind == "(":
            part = self.expr()
            self.expect(")")
            return part
        raise ExprSyntaxError("expected a value", pos)


def _int_const(node):
    if node[0] == "num":
        return node[1]
    if node[0] == "neg":
        inner = _int_const(node[1])
        return None if inner is None else -inner
    return None


class _Tree(tuple):
    """A parsed tree: a tuple that carries its program, so the program lives
    as long as the tree.  A copy is a plain tuple."""

    def __reduce__(self):
        return tuple, (tuple(self),)


def parse_expression(text: str):
    """The tree of ``text``, which carries the program the parse built."""
    part = _Parser(text).parse()
    tree = _Tree(part[0])
    tree.program = _finish(part)
    return tree


def used_variables(node) -> set[str]:
    """The variables the tree reads, as its program records them."""
    return set(_program(node)[1])


# -- operation tables ---------------------------------------------------------

_ARITHMETIC = {"neg": operator.neg, "add": operator.add,
               "sub": operator.sub, "mul": operator.mul}
_FLOAT_OPS = {**_ARITHMETIC, "num": float, "div": operator.truediv,
              "pow": operator.pow, "exp": math.exp, "ln": math.log}


@functools.cache
def _array_ops() -> dict:
    """The array table, built once, on the first array call."""
    import numpy as np

    def elementwise(f, nin: int):
        """``f`` on each element, as Python floats, of float arrays; on
        floats alone it is ``f`` itself."""
        ufunc = np.frompyfunc(f, nin, 1)

        def apply(*args):
            out = ufunc(*args)
            return out.astype(float) if isinstance(out, np.ndarray) else out
        return apply

    def div(a, b):
        if np.any(np.equal(b, 0)):
            raise ZeroDivisionError("float division by zero")
        return a / b

    return {**_ARITHMETIC, "num": float, "div": div,
            "pow": elementwise(operator.pow, 2),
            "exp": elementwise(math.exp, 1), "ln": elementwise(math.log, 1)}


def eval_jet(node, x: "Jet", y: "Jet", memo=None) -> "Jet":
    """The jet of the tree; ``memo`` holds subtrees folded with this x, y."""
    from .jets import Jet  # here, so that ``solve`` loads no jets
    return _program(node)[0](x, y, {
        **_ARITHMETIC, "num": lambda q: Jet.constant(q, x.base, x.order),
        "div": operator.truediv, "pow": Jet.pow_int, "exp": Jet.exp,
        "ln": Jet.ln}, {} if memo is None else memo)


def eval_float(node, x, y, memo=None):
    """The float value at (x, y).  When ``x`` or ``y`` is a 1-D float array,
    the values at every point: an array, or a float if the tree reads
    neither array; ``memo`` then acts as in ``eval_jet``."""
    run = _program(node)[0]
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(x, np.ndarray)
                           or isinstance(y, np.ndarray)):
        with np.errstate(over="ignore", invalid="ignore"):
            return run(x, y, _array_ops(), {} if memo is None else memo)
    return run(x, y, _FLOAT_OPS, None)
