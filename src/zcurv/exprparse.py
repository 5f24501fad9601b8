"""Tiny closed expression grammar for command-line inputs.

    expr    = term (('+' | '-') term)*
    term    = factor (('*' | '/') factor)*
    factor  = ('-' | '+') factor | power
    power   = primary ('^' factor)?          -- integer exponents only
    primary = integer | 'x' | 'y' | 'exp' '(' expr ')' | 'ln' '(' expr ')'
            | '(' expr ')'

Every literal is an integer token of ASCII digits; rational constants are
written as quotients of integers ("3/2").  ``parse_expression`` tokenizes
once and parses with a stack of operand slots and a stack of operators
(shunting-yard), so no input nests the Python stack.  It emits the tree,
in postorder, into a ``Program``: a straight-line list of slots,
hash-consed on the flat key (op, operand, operand) whose operands are slot
numbers, so a subtree that occurs twice gets one slot.  Each slot records
the variables it reads and, when it reads none, its float (None if that
raises).  The parse returns an ``Expression``, the program and the slot of
the tree's root; that pair is all there is of a parsed tree, and texts
parsed into one program share their common subtrees.

One loop folds an expression's slots in the postorder of its tree, each
distinct subtree once, under an operation table:

* jets give exact jets at a base point.  A constant slot folds to an
  exact scalar, a ``Fraction`` or a ``Scalar``, with ``sexp`` and ``sln``.
  ``jets.power`` takes every power of a jet or a scalar, and a quotient
  is the product with the divisor's power -1.  A scalar becomes a jet
  only where it meets one, in the jet's ``+``, ``*`` and their
  reflections, or at the root.  A scalar is refused with the text that
  its constant jet's ``inverse``, ``ln`` or ``exp`` would raise;
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

neg, add, sub and mul are Python's operators in the float and array
tables.  Those tables take a constant slot's float and fold none of its
operands; a constant whose float raises is folded again, so it raises the
same error at the same point on every call.  A jet or array call may pass
a memo, a dict of slot values that the expressions of one program share at
one x and y; the float fold at one point ignores it.
"""

import functools
import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple


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

_BINARY = frozenset(("add", "sub", "mul", "div"))
_VARIABLES = (frozenset(), frozenset("x"), frozenset("y"), frozenset("xy"))


class Program:
    """Hash-consed slots.  Slot s holds ``code[s] = (op, a, b)``: a num's
    integer or a var's name in ``a`` and None in ``b``; otherwise the slot
    of the first operand in ``a``, and in ``b`` the second operand's slot,
    pow's integer exponent, or None.  ``masks[s]`` has bit 1 if the slot
    reads x and bit 2 if it reads y; ``floats[s]`` is a constant slot's
    float, else None.  ``plans`` caches ``plan`` by (root, folded)."""

    def __init__(self):
        self.code, self.masks, self.floats = [], [], []
        self.slots, self.plans = {}, {}

    def emit(self, op: str, a, b=None) -> int:
        """The slot of (op, a, b), appended if the program has none."""
        key = (op, a, b)
        slot = self.slots.get(key)
        if slot is None:
            masks, floats = self.masks, self.floats
            if op == "var":
                mask, args = (1 if a == "x" else 2), ()
            elif op == "num":
                mask, args = 0, (a,)
            elif op in _BINARY:
                mask, args = masks[a] | masks[b], (floats[a], floats[b])
            else:
                mask = masks[a]
                args = (floats[a],) if b is None else (floats[a], b)
            slot = self.slots[key] = len(self.code)
            self.code.append(key)
            masks.append(mask)
            floats.append(None if mask else _float(op, args))
        return slot

    def plan(self, root: int, folded: bool):
        """(constants, steps) of the fold of slot ``root``: the steps are
        (slot, op, a, b) in the postorder of its tree, each slot once.  When
        ``folded``, a slot with a float is a constant, {slot: float}, and its
        operands are not visited."""
        plan = self.plans.get((root, folded))
        if plan is None:
            code, floats = self.code, self.floats
            consts, seen, order, stack = {}, set(), [], [root]
            while stack:
                s = stack.pop()
                if s < 0:  # every operand of ~s is folded
                    order.append(~s)
                elif s not in seen:
                    seen.add(s)
                    if folded and floats[s] is not None:
                        consts[s] = floats[s]
                        continue
                    op, a, b = code[s]
                    stack.append(~s)
                    if op in _BINARY:
                        stack += (b, a)
                    elif op not in ("num", "var"):
                        stack.append(a)
            plan = self.plans[root, folded] = consts, [(s, *code[s])
                                                       for s in order]
        return plan


def _float(op, args):
    """The float table's ``op`` of a constant slot's operands, or None when
    an operand is None or the operation raises."""
    if None in args:
        return None
    try:
        return _FLOAT_OPS[op](*args)
    except (ValueError, ArithmeticError):
        return None


class Expression(NamedTuple):
    """A parsed expression: the ``program`` it was emitted into and the slot
    of its ``root``."""

    program: Program
    root: int


# -- parsing -----------------------------------------------------------------

_OPERATORS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
# How tightly each pending operator binds; '(', exp and ln bind none.
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 3}


def parse_expression(text: str, program: Program | None = None) -> Expression:
    """The expression of ``text``, emitted into ``program`` (a new one if
    None)."""
    program = Program() if program is None else program
    emit, code, tokens = program.emit, program.code, _tokenize(text)
    operands = []  # slots
    pending = []   # (op, position of its token)
    marks = []     # len(code) at each pending '^'

    def reduce(level: int):
        """Apply the pending operators that bind at least as tightly."""
        while pending and _PRECEDENCE.get(pending[-1][0], 0) >= level:
            op, pos = pending.pop()
            s = operands.pop()
            if op == "pow":  # s is the exponent: an integer under signs
                sign = 1
                while code[s][0] == "neg":
                    s, sign = code[s][1], -sign
                if code[s][0] != "num":
                    raise ExprSyntaxError("exponent must be an integer", pos)
                exponent, mark = sign * code[s][1], marks.pop()
                # the slots the exponent added are read by no other slot
                for key in code[mark:]:
                    del program.slots[key]
                del code[mark:], program.masks[mark:], program.floats[mark:]
                operands[-1] = emit(op, operands[-1], exponent)
            elif op == "neg":
                operands.append(emit(op, s))
            else:
                operands[-1] = emit(op, operands[-1], s)

    i, operand = 0, True
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if operand:  # the start of a factor
            if kind == "-":
                pending.append(("neg", pos))
            elif kind == "(":
                pending.append(("(", pos))
            elif kind == "int":
                operands.append(emit("num", value))
                operand = False
            elif kind == "name" and value in ("x", "y"):
                operands.append(emit("var", value))
                operand = False
            elif kind == "name" and value in ("exp", "ln"):
                if tokens[i][0] != "(":
                    raise ExprSyntaxError("expected '('", tokens[i][2])
                pending.append((value, pos))
                i += 1
            elif kind == "name":
                raise ExprSyntaxError("unknown name", pos)
            elif kind != "+":
                raise ExprSyntaxError("expected a value", pos)
        elif kind == "^":  # right after a primary
            pending.append(("pow", pos))
            marks.append(len(code))
            operand = True
        else:  # the factor has ended
            reduce(3)
            if kind in _OPERATORS:
                op = _OPERATORS[kind]
                reduce(_PRECEDENCE[op])
                pending.append((op, pos))
                operand = True
                continue
            reduce(1)
            if not pending:
                if kind == "end":
                    break
                raise ExprSyntaxError("trailing input", pos)
            if kind != ")":
                raise ExprSyntaxError("expected ')'", pos)
            op = pending.pop()[0]
            if op != "(":  # exp or ln
                operands[-1] = emit(op, operands[-1])
    return Expression(program, operands.pop())


def used_variables(expression: Expression) -> set[str]:
    """The variables the expression reads, as its program records them."""
    program, root = expression
    return set(_VARIABLES[program.masks[root]])


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


def _fold(expression: Expression, x, y, ops: dict, memo):
    """The value of the expression under ``ops``; ``memo`` (a dict or None)
    holds the values of slots of its program at this x, y."""
    program, root = expression
    values = {} if memo is None else memo
    consts, steps = program.plan(root, ops["num"] is float)
    values.update(consts)
    for s, op, a, b in steps:
        if s in values:
            continue
        if op in _BINARY:
            values[s] = ops[op](values[a], values[b])
        elif op == "var":
            values[s] = x if a == "x" else y
        elif op == "num":
            values[s] = ops[op](a)
        elif op == "pow":
            values[s] = ops[op](values[a], b)
        else:
            values[s] = ops[op](values[a])
    return values[root]


@functools.cache
def _jet_ops() -> dict:
    """The jet table, built on first use, so that ``solve`` loads no jets.
    Its values are jets and exact scalars: a constant slot folds to a
    ``Fraction`` or a ``Scalar``, and a scalar meets a jet in the jet's own
    operators.  Each scalar refusal is the one the constant jet of the
    scalar would raise."""
    from .jets import Jet, body_ln, power
    from .scalars import sexp

    def exp(a):
        return a.exp() if isinstance(a, Jet) else sexp(a)

    def ln(a):
        return a.ln() if isinstance(a, Jet) else body_ln(a)[1]

    return {**_ARITHMETIC, "num": Fraction, "pow": power, "exp": exp,
            "ln": ln, "div": lambda a, b: a * power(b, -1)}


def eval_jet(expression: Expression, x: "Jet", y: "Jet",
             memo=None) -> "Jet":
    """The jet of the expression; ``memo`` holds slots folded with this x,
    y.  A constant root becomes a constant jet."""
    from .jets import Jet
    value = _fold(expression, x, y, _jet_ops(), memo)
    if isinstance(value, Jet):
        return value
    return Jet.constant(value, x.base, x.order)


def eval_float(expression: Expression, x, y, memo=None):
    """The float value at (x, y).  When ``x`` or ``y`` is a 1-D float array,
    the values at every point: an array, or a float if the expression reads
    neither array; ``memo`` then acts as in ``eval_jet``."""
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(x, np.ndarray)
                           or isinstance(y, np.ndarray)):
        with np.errstate(over="ignore", invalid="ignore"):
            return _fold(expression, x, y, _array_ops(), memo)
    return _fold(expression, x, y, _FLOAT_OPS, None)
