"""Tiny closed expression grammar for command-line inputs.

    expr    = term (('+' | '-') term)*
    term    = factor (('*' | '/') factor)*
    factor  = ('-' | '+') factor | power
    power   = primary ('^' factor)?          -- integer exponents only
    primary = integer | 'x' | 'y' | 'exp' '(' expr ')' | 'ln' '(' expr ')'
            | '(' expr ')'

Rational constants are written as quotients of integers ("3/2").  One
recursive fold evaluates the AST: the leaves and the five arithmetic nodes
use Python operators, and the remaining nodes (num, pow, exp, ln) look up
an operation table.  With the jet table (``Jet.constant``, ``Jet.pow_int``,
``Jet.exp``, ``Jet.ln``) the fold gives exact jets at a base point; with the
float table (``float``, ``operator.pow``, ``math.exp``, ``math.log``) it
gives floats.
"""

import math
import operator
from fractions import Fraction

from .jets import Jet


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
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
            return ("num", Fraction(value))
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
    if node[0] == "num" and node[1].denominator == 1:
        return int(node[1])
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


def _fold(node, x, y, ops):
    """Evaluate the tree; ``ops`` holds the domain's num/pow/exp/ln."""
    kind = node[0]
    if kind == "num":
        return ops["num"](node[1])
    if kind == "var":
        return x if node[1] == "x" else y
    if kind == "neg":
        return -_fold(node[1], x, y, ops)
    if kind == "add":
        return _fold(node[1], x, y, ops) + _fold(node[2], x, y, ops)
    if kind == "sub":
        return _fold(node[1], x, y, ops) - _fold(node[2], x, y, ops)
    if kind == "mul":
        return _fold(node[1], x, y, ops) * _fold(node[2], x, y, ops)
    if kind == "div":
        return _fold(node[1], x, y, ops) / _fold(node[2], x, y, ops)
    if kind == "pow":
        return ops["pow"](_fold(node[1], x, y, ops), node[2])
    if kind in ("exp", "ln"):
        return ops[kind](_fold(node[1], x, y, ops))
    raise ValueError(f"unknown node {kind!r}")


_FLOAT_OPS = {"num": float, "pow": operator.pow, "exp": math.exp,
              "ln": math.log}


def eval_jet(node, x: Jet, y: Jet) -> Jet:
    return _fold(node, x, y, {
        "num": lambda q: Jet.constant(q, x.base, x.order),
        "pow": Jet.pow_int, "exp": Jet.exp, "ln": Jet.ln})


def eval_float(node, x: float, y: float) -> float:
    return _fold(node, x, y, _FLOAT_OPS)
