"""Every zcurv record is a named tuple: immutable, equal and hashed by its
fields, and each checked constructor keeps its checks, order and messages."""

from fractions import Fraction

import numpy as np
import pytest

from zcurv.cartan import AdmissibilityReport, CartanMatrix, standard_cartan
from zcurv.jets import Jet
from zcurv.numerics import GoursatData, Grid
from zcurv.solutions import SolutionVector
from zcurv.superalg import BracketTable, SuperMatrix, fixture_table
from zcurv.symexpr import fn
from zcurv.zerocurv import (ChevalleyRelations, Connection, CurvatureResult,
                            DerivedSystem, Equation, LieValuedField,
                            Osp12Relations)

F = Fraction
OSP = Osp12Relations()
SL2 = standard_cartan("sl2")
FIELD = LieValuedField(OSP, {("H", 0): fn("alpha", 1), ("d+", 0): fn("a")})
VALUES = np.zeros((3, 3, 1))
EQUATION = Equation(fn("u").deriv_x(), fn("v"))


def _edge(t):
    return [t]


# each record class with the fields of one instance and of a different one
RECORDS = [
    (CartanMatrix, (((F(2),),), ("even",), "sl2"),
     (((F(2),),), ("even",), None)),
    (AdmissibilityReport, ("lse1", ()), ("lse1", (0,))),
    (Grid, (F(0), F(1), F(0), F(1), F(1, 2), VALUES, 0.0),
     (F(0), F(1), F(0), F(1), F(1, 2), VALUES, 1.0)),
    (GoursatData, (F(0), F(1), F(0), F(1), _edge, _edge),
     (F(0), F(1), F(0), F(2), _edge, _edge)),
    (SuperMatrix, (((F(1), F(0)), (F(0), F(-1))), ("even", "odd")),
     (((F(1), F(0)), (F(0), F(1))), ("even", "odd"))),
    (BracketTable, tuple(fixture_table("sl2")), tuple(fixture_table("osp12"))),
    (LieValuedField, tuple(FIELD), (OSP, {("H", 0): fn("beta", 1)})),
    (Connection, ("D+", FIELD),
     ("D-", LieValuedField(OSP, {("d-", 0): fn("b")}))),
    (CurvatureResult, ({}, {"dx": F(2)}), ({}, {"dy": F(2)})),
    (Equation, tuple(EQUATION), (fn("v"), fn("u").deriv_x())),
    (DerivedSystem, ((), (EQUATION,), ("d",), ("n",)),
     ((EQUATION,), (), (), ())),
    (SolutionVector, ((Jet.variable("x"),), SL2), ((Jet.variable("y"),), SL2)),
]


def _hashable(fields):
    try:
        hash(fields)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, other", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_is_an_immutable_tuple_equal_by_fields(cls, fields, other):
    record = cls(*fields)
    assert isinstance(record, tuple) and record._fields == cls._fields
    assert record == cls(*fields) == fields
    assert record != cls(*other)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], fields[0])
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ to hold it
    if _hashable(fields):
        assert hash(record) == hash(cls(*fields)) == hash(fields)
    else:
        with pytest.raises(TypeError):
            hash(record)


def _grid(x1, h, values):
    return Grid(F(0), x1, F(0), F(1), h, values)


# every constructor check; a row that breaks two checks pins their order
CHECKS = [
    (lambda: CartanMatrix((), ()), "cartan matrix must have rank >= 1"),
    (lambda: CartanMatrix(((F(2), F(0)),), ("even", "even")),
     "cartan matrix must be square"),
    (lambda: CartanMatrix(((F(2),),), ("even", "odd")),
     "parity list has length 2, expected 1"),
    (lambda: CartanMatrix(((F(2),),), ("bosonic",)),
     "parities must be 'even' or 'odd'"),
    (lambda: SuperMatrix(((F(1), F(0)),), ("bosonic", "odd")),
     "supermatrix must be square"),
    (lambda: SuperMatrix(((F(1),),), ("bosonic", "odd")),
     "parity vector length must equal matrix size"),
    (lambda: SuperMatrix(((F(1),),), ("bosonic",)),
     "parities must be 'even' or 'odd'"),
    (lambda: _grid(F(1), F(2, 3), np.zeros((2, 2, 1))),
     "step 2/3 does not evenly divide [0, 1]"),
    (lambda: _grid(F(2), F(1, 2), np.zeros((3, 3, 1))),
     "x and y ranges must contain the same number of steps"),
    (lambda: _grid(F(1), F(1, 2), np.full((2, 2, 1), np.nan)),
     "values shape (2, 2, 1) does not match 3 grid points per side"),
    (lambda: _grid(F(1), F(1, 2), np.full((3, 3, 1), np.inf)),
     "grid contains non-finite values"),
    (lambda: Connection("dz", LieValuedField(OSP, {("d+", 0): fn("a")})),
     "unknown direction 'dz'"),
    (lambda: Connection("dx", LieValuedField(OSP, {("d+", 0): fn("a", 1)})),
     "direction dx cannot carry generator d+"),
    (lambda: Connection("D+", LieValuedField(
        OSP, {("H", 0): fn("a") + fn("b", 1)})),
     "coefficient of ('H', 0) is not homogeneous"),
    (lambda: Connection("D+", LieValuedField(OSP, {("H", 0): fn("a")})),
     "coefficient parity 0 of ('H', 0) does not match direction D+"),
    (lambda: Connection("dx", LieValuedField(
        ChevalleyRelations(SL2), {("H", 0): fn("a", 1)})),
     "coefficient parity 1 of ('H', 0) does not match direction dx"),
    (lambda: Connection("dx", LieValuedField(
        ChevalleyRelations(SL2), {("d+", 0): fn("a")})),
     "unknown generator ('d+', 0)"),
    (lambda: Connection("dx", LieValuedField(
        ChevalleyRelations(SL2), {("X+", 1): fn("a")})),
     "unknown generator ('X+', 1)"),
    (lambda: Connection("dx", LieValuedField(OSP, {("H", 3): fn("a")})),
     "unknown generator ('H', 3)"),
    (lambda: Connection("dx", LieValuedField(OSP, {("Z", 0): fn("a")})),
     "unknown generator ('Z', 0)"),
    (lambda: SolutionVector((), SL2), "component count must equal the rank"),
]


@pytest.mark.parametrize("build, message", CHECKS,
                         ids=[message for _, message in CHECKS])
def test_constructor_check_keeps_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_supermatrix_does_not_repeat_as_a_tuple():
    m = SuperMatrix(((F(1), F(0)), (F(0), F(-1))), ("even", "odd"))
    for product in (lambda: m * 2, lambda: 2 * m):
        with pytest.raises(TypeError, match="unsupported operand"):
            product()
    assert m - m == m.scale(0) and -m == m.scale(-1)


def test_admissible_is_read_off_the_offending_indices():
    assert AdmissibilityReport("lse1", ()).admissible
    assert AdmissibilityReport("lse1").admissible
    assert not AdmissibilityReport("lse1", (0,)).admissible

