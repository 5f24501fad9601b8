"""Tiny closed expression grammar for command-line inputs.

    expr    = term (('+' | '-') term)*
    term    = factor (('*' | '/') factor)*
    factor  = ('-' | '+') factor | power
    power   = primary ('^' factor)?          -- integer exponents only
    primary = integer | 'x' | 'y' | 'exp' '(' expr ')' | 'ln' '(' expr ')'
            | '(' expr ')'

Every literal is an integer token of ASCII digits, stored as
``("num", int)``; rational constants are written as quotients of integers
("3/2").  One recursive fold evaluates the AST: the leaves and the four
arithmetic nodes neg, add, sub and mul use Python operators, and the
remaining nodes (num, div, pow, exp, ln) look up an operation table.  There
are three tables:

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

A jet or array call folds each distinct subtree once, in a memo keyed by the
node tuple that callers may share across calls with the same x and y.  The
fold at one float point keeps no memo and costs one call a node.
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


class _Parser:
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
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return ("neg", self.factor())
        if tok[0] == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self):
        node = self.primary()
        if self.peek()[0] == "^":
            pos = self.next()[2]
            exponent = self.factor()
            n = _int_const(exponent)
            if n is None:
                raise ExprSyntaxError("exponent must be an integer", pos)
            return ("pow", node, n)
        return node

    def primary(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return ("num", value)
        if kind == "name":
            if value in ("x", "y"):
                return ("var", value)
            if value in ("exp", "ln"):
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return (value, arg)
            raise ExprSyntaxError(f"unknown name {value!r}", pos)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError("expected a value", pos)


def _int_const(node):
    if node[0] == "num":
        return node[1]
    if node[0] == "neg":
        inner = _int_const(node[1])
        return None if inner is None else -inner
    return None


def parse_expression(text: str):
    return _Parser(text).parse()


def used_variables(node) -> set[str]:
    kind = node[0]
    if kind == "var":
        return {node[1]}
    if kind == "num":
        return set()
    return set().union(*(used_variables(c) for c in node[1:]
                         if isinstance(c, tuple)))


def _fold(node, x, y, ops, fold):
    """Evaluate the tree; ``ops`` holds the domain's num/div/pow/exp/ln, and
    ``fold`` evaluates a child: ``_fold`` itself, or a memo's."""
    kind = node[0]
    if kind == "num":
        return ops["num"](node[1])
    if kind == "var":
        return x if node[1] == "x" else y
    if kind == "neg":
        return -fold(node[1], x, y, ops, fold)
    if kind == "add":
        return fold(node[1], x, y, ops, fold) + fold(node[2], x, y, ops, fold)
    if kind == "sub":
        return fold(node[1], x, y, ops, fold) - fold(node[2], x, y, ops, fold)
    if kind == "mul":
        return fold(node[1], x, y, ops, fold) * fold(node[2], x, y, ops, fold)
    if kind == "div":
        return ops["div"](fold(node[1], x, y, ops, fold),
                          fold(node[2], x, y, ops, fold))
    if kind == "pow":
        return ops["pow"](fold(node[1], x, y, ops, fold), node[2])
    if kind in ("exp", "ln"):
        return ops[kind](fold(node[1], x, y, ops, fold))
    raise ValueError(f"unknown node {kind!r}")


def _memo_fold(node, x, y, ops, memo):
    """``_fold`` that reuses and fills ``memo`` (a fresh dict if None)."""
    memo = {} if memo is None else memo

    def fold(node, x, y, ops, _):
        value = memo.get(node)
        if value is None:
            value = memo[node] = _fold(node, x, y, ops, fold)
        return value
    return fold(node, x, y, ops, fold)


_FLOAT_OPS = {"num": float, "div": operator.truediv, "pow": operator.pow,
              "exp": math.exp, "ln": math.log}


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

    return {"num": float, "div": div, "pow": elementwise(operator.pow, 2),
            "exp": elementwise(math.exp, 1), "ln": elementwise(math.log, 1)}


def eval_jet(node, x: "Jet", y: "Jet", memo=None) -> "Jet":
    """The jet of the tree; ``memo`` holds subtrees folded with this x, y."""
    from .jets import Jet  # here, so that ``solve`` loads no jets
    return _memo_fold(node, x, y, {
        "num": lambda q: Jet.constant(q, x.base, x.order),
        "div": operator.truediv, "pow": Jet.pow_int, "exp": Jet.exp,
        "ln": Jet.ln}, memo)


def eval_float(node, x, y, memo=None):
    """The float value at (x, y).  When ``x`` or ``y`` is a 1-D float array,
    the values at every point: an array, or a float if the tree reads
    neither array; ``memo`` then acts as in ``eval_jet``."""
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(x, np.ndarray)
                           or isinstance(y, np.ndarray)):
        with np.errstate(over="ignore", invalid="ignore"):
            return _memo_fold(node, x, y, _array_ops(), memo)
    return _fold(node, x, y, _FLOAT_OPS, _fold)
