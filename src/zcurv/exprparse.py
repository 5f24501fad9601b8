"""Tiny closed expression grammar for command-line inputs.

    expr    = term (('+' | '-') term)*
    term    = factor (('*' | '/') factor)*
    factor  = ('-' | '+') factor | power
    power   = primary ('^' factor)?          -- integer exponents only
    primary = integer | 'x' | 'y' | 'exp' '(' expr ')' | 'ln' '(' expr ')'
            | '(' expr ')'

Every literal is an integer token of ASCII digits, stored as
``("num", int)``; rational constants are written as quotients of integers
("3/2").  ``parse_expression`` tokenizes once and parses with an operand
stack and an operator stack (shunting-yard), so no input nests the Python
stack.  It returns the tree as nested tuples and emits the same tree, in
postorder, into a ``Program``: a straight-line list of slots, hash-consed
on the flat key (op, operand, operand) whose operands are slot numbers, so
a subtree that occurs twice gets one slot.  Each slot records the
variables it reads and, when it reads none, its float (None if that
raises).  Texts parsed into one program share their common subtrees.  A
hand-built tuple is compiled into a program of its own on each call.

One loop folds a tree's slots in the postorder of the tree, each distinct
subtree once, under an operation table:

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

neg, add, sub and mul are Python's operators in every table.  The float and
array tables take a constant slot's float and fold none of its operands;
a constant whose float raises is folded again, so it raises the same error
at the same point on every call.  A jet or array call may pass a memo, a
dict of slot values that the trees of one program share at one x and y; it
is ignored for a hand-built tuple and by the float fold at one point.
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

_BINARY = frozenset(("add", "sub", "mul", "div"))
_VARIABLES = (frozenset(), frozenset("x"), frozenset("y"), frozenset("xy"))


class Program:
    """Hash-consed slots.  Slot s holds ``code[s] = (op, a, b)``: a num's
    value or a var's name in ``a`` (and in ``b`` a float num's repr, else
    None); otherwise the slot of the first operand in ``a``, and in ``b``
    the second operand's slot, pow's integer exponent, or None.
    ``masks[s]`` has bit 1 if the slot reads x and bit 2 if it reads y;
    ``floats[s]`` is a constant slot's float, else None."""

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


def _compile(tree):
    """(program, root) of a hand-built tuple."""
    order, stack = [], [tree]
    while stack:  # node, right subtree, left subtree: postorder reversed
        node = stack.pop()
        order.append(node)
        kind = node[0]
        if kind in _BINARY:
            stack += (node[1], node[2])
        elif kind in ("neg", "exp", "ln", "pow"):
            stack.append(node[1])
        elif kind not in ("num", "var"):
            raise ValueError(f"unknown node {kind!r}")
    program, slots = Program(), []
    for node in reversed(order):
        kind = node[0]
        if kind in _BINARY:
            b = slots.pop()
            slots.append(program.emit(kind, slots.pop(), b))
        elif kind == "num" and isinstance(node[1], float):
            # 0.0 == -0.0 == 0: a float literal's key also holds its repr
            slots.append(program.emit(kind, node[1], repr(node[1])))
        elif kind in ("num", "var"):
            slots.append(program.emit(kind, node[1]))
        else:
            slots.append(program.emit(kind, slots.pop(), *node[2:]))
    return program, slots[0]


# -- parsing -----------------------------------------------------------------

_OPERATORS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
# How tightly each pending operator binds; '(', exp and ln bind none.
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 3}


class _Tree(tuple):
    """A parsed tree: the tuple, with the ``program`` it was parsed into and
    its ``root`` slot.  A copy is a plain tuple."""

    def __reduce__(self):
        return tuple, (tuple(self),)


def parse_expression(text: str, program: Program | None = None):
    """The tree of ``text``, emitted into ``program`` (a new one if None)."""
    program = Program() if program is None else program
    emit, code, tokens = program.emit, program.code, _tokenize(text)
    operands = []  # (slot, node)
    pending = []   # (op, position of its token)

    def reduce(level: int):
        """Apply the pending operators that bind at least as tightly."""
        while pending and _PRECEDENCE.get(pending[-1][0], 0) >= level:
            op, pos = pending.pop()
            s, node = operands.pop()
            if op == "pow":  # s is the exponent: an integer under signs
                n, sign = s, 1
                while code[n][0] == "neg":
                    n, sign = code[n][1], -sign
                if code[n][0] != "num":
                    raise ExprSyntaxError("exponent must be an integer", pos)
                n = sign * code[n][1]
                s, node = operands.pop()
                operands.append((emit(op, s, n), (op, node, n)))
            elif op == "neg":
                operands.append((emit(op, s), (op, node)))
            else:
                a, left = operands.pop()
                operands.append((emit(op, a, s), (op, left, node)))

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
                operands.append((emit("num", value), ("num", value)))
                operand = False
            elif kind == "name" and value in ("x", "y"):
                operands.append((emit("var", value), ("var", value)))
                operand = False
            elif kind == "name" and value in ("exp", "ln"):
                if tokens[i][0] != "(":
                    raise ExprSyntaxError("expected '('", tokens[i][2])
                pending.append((value, pos))
                i += 1
            elif kind == "name":
                raise ExprSyntaxError(f"unknown name {value!r}", pos)
            elif kind != "+":
                raise ExprSyntaxError("expected a value", pos)
        elif kind == "^":  # right after a primary
            pending.append(("pow", pos))
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
                s, node = operands.pop()
                operands.append((emit(op, s), (op, node)))
    slot, node = operands.pop()
    tree = _Tree(node)
    tree.program, tree.root = program, slot
    return tree


def used_variables(node) -> set[str]:
    """The variables the tree reads, as its program records them."""
    program, root = _program(node)
    return set(_VARIABLES[program.masks[root]])


def _program(node):
    """(program, root) of a parsed tree, or of a hand-built tuple compiled
    now."""
    if type(node) is _Tree:
        return node.program, node.root
    return _compile(node)


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


def _fold(node, x, y, ops: dict, memo):
    """The value of the tree under ``ops``; ``memo`` (a dict or None) holds
    the values of slots of a parsed tree's program at this x, y."""
    program, root = _program(node)
    values = {} if memo is None or type(node) is not _Tree else memo
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


def eval_jet(node, x: "Jet", y: "Jet", memo=None) -> "Jet":
    """The jet of the tree; ``memo`` holds slots folded with this x, y."""
    from .jets import Jet  # here, so that ``solve`` loads no jets
    return _fold(node, x, y, {
        **_ARITHMETIC, "num": lambda q: Jet.constant(q, x.base, x.order),
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
            return _fold(node, x, y, _array_ops(), memo)
    return _fold(node, x, y, _FLOAT_OPS, None)
