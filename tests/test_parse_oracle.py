"""The stack parser against the recursive-descent parser it replaced.

``ReferenceParser`` is that recursive descent, kept verbatim with its
tokenizer as the reference: it builds the plain tuple tree and raises
``ExprSyntaxError``.  On random rendered trees, texts joined from the
grammar's productions without parentheses, random token strings and a
corpus of malformed strings, ``parse_expression`` must return an
expression whose tree, rebuilt from its program's slots by ``tree_of``, is
equal, or raise the same message at the same 1-based position.
"""

import pytest
from hypothesis import given, strategies as st

from test_properties import PROPERTY, render, trees
from zcurv.exprparse import ExprSyntaxError, parse_expression

# -- the reference: recursive descent over the token list ---------------------

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


class ReferenceParser:
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
            raise ExprSyntaxError("unknown name", pos)
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


# -- comparing parses ---------------------------------------------------------


def tree_of(expression):
    """The plain tuple tree of a parsed expression, rebuilt from the slots of
    its program; an operand's slot is always below its user's."""
    program, root = expression
    nodes = []
    for op, a, b in program.code[:root + 1]:
        if op in ("num", "var"):
            nodes.append((op, a))
        elif op == "pow":
            nodes.append((op, nodes[a], b))
        elif b is None:
            nodes.append((op, nodes[a]))
        else:
            nodes.append((op, nodes[a], nodes[b]))
    return nodes[root]


def parsed(parse, text):
    """The tree of ``text`` as a plain tuple, or the message and 1-based
    position of its syntax error."""
    try:
        return tuple(parse(text))
    except ExprSyntaxError as exc:
        return str(exc), exc.pos + 1


def assert_parses_like_the_reference(text):
    want = parsed(lambda t: ReferenceParser(t).parse(), text)
    assert parsed(lambda t: tree_of(parse_expression(t)), text) == want, text


# token pieces that the grammar joins in every order, valid or not
PIECES = ["x", "y", "0", "2", "17", "exp", "ln", "exp(", "ln(", "foo", "(",
          ")", "+", "-", "*", "/", "^", "^-", " ", "--", "²", "@", "x2"]


@PROPERTY
@given(trees)
def test_rendered_trees_parse_like_the_reference(node):
    assert_parses_like_the_reference(render(node))


def _joined(parts):
    """Texts joined from grammar productions without added parentheses, so
    precedence and associativity decide the tree."""
    exponents = st.sampled_from(["2", "-1", "--3", "+4", "(2)", "(-(2))",
                                 "x", "2^2"])
    return st.one_of(
        st.tuples(parts, st.sampled_from(["+", "-", "*", "/", " - "]),
                  parts).map("".join),
        st.tuples(st.sampled_from(["-", "+", "(", "exp(", "ln("]),
                  parts).map(lambda t: t[0] + t[1] + ")" * (t[0][-1] == "(")),
        st.tuples(parts, exponents).map("^".join))


grammar_texts = st.recursive(st.sampled_from(["x", "y", "0", "3", "12"]),
                             _joined, max_leaves=8)


@PROPERTY
@given(grammar_texts)
def test_grammar_strings_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)


@PROPERTY
@given(st.lists(st.sampled_from(PIECES), max_size=14).map("".join))
def test_token_strings_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)


@pytest.mark.parametrize("text", [
    "", " ", "x +", "(x", "x)", "2 **, x", "foo(x)", "x^y", "x^(1/2)", "@",
    "exp x", "x+²", "٣", "1" * 5000, "exp", "ln(", "ln()", "exp()", "x^",
    "x^-", "x^+", "^2", "*x", "x**2", "x//2", "x^2^3", "x^y^2", "x^2^y",
    "-x^-x", "x^-2^2", "x^(2)^3", "x^(2", "2^(-(3)", "x^(y+1", "x^exp(y)",
    "x^y)", "x^y+(", "(x^y z", "((x)", "(x))", "x y", "x (y)", "exp(x",
    "exp(x y)", "ln(x))", "ln x", "1 2", "x-", "--", "+", "x+*y", "x^2 3",
    ")", "(", "()", "(()", "x(", "exp(x)(y)", "2x", "x2", "ẋ", "x +1",
    "-(-(-x))^--2", "exp(ln(x)^-(+(2)))*y/3-4", "x^-(-(-3))", "((((x))))^2",
])
def test_malformed_and_edge_strings_parse_like_the_reference(text):
    assert_parses_like_the_reference(text)
