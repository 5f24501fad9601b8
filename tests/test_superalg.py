import itertools
import random
from fractions import Fraction

import pytest

from zcurv.superalg import (SuperMatrix, _expand_in_basis, bracket_table,
                            fixture_table, osp12_basis, sl2_basis,
                            supercommutator, supertrace)
from zcurv.zerocurv import Osp12Relations

_PN = {"even": 0, "odd": 1}


def plain_matmul(a: SuperMatrix, b: SuperMatrix):
    """Independent oracle: nested-loop product of the entry tuples."""
    n = a.size
    return tuple(tuple(sum((a.entries[i][k] * b.entries[k][j]
                            for k in range(n)), Fraction(0))
                       for j in range(n)) for i in range(n))


def oracle_bracket(a: SuperMatrix, b: SuperMatrix):
    ab = plain_matmul(a, b)
    ba = plain_matmul(b, a)
    sign = -1 if a.parity() * b.parity() else 1
    return tuple(tuple(x - sign * y for x, y in zip(ra, rb))
                 for ra, rb in zip(ab, ba))


def test_sl2_brackets_against_matrix_oracle():
    basis = sl2_basis()
    for x, y in itertools.product(basis, repeat=2):
        got = supercommutator(basis[x], basis[y])
        assert got.entries == oracle_bracket(basis[x], basis[y])


def test_osp12_brackets_against_matrix_oracle():
    basis = osp12_basis()
    for x, y in itertools.product(basis, repeat=2):
        got = supercommutator(basis[x], basis[y])
        assert got.entries == oracle_bracket(basis[x], basis[y])


# Frozen tables; every value was computed by the matrix oracle above.
SL2_TABLE = {
    ("H", "X+"): ((Fraction(2), "X+"),),
    ("H", "X-"): ((Fraction(-2), "X-"),),
    ("X+", "X-"): ((Fraction(1), "H"),),
    ("X+", "H"): ((Fraction(-2), "X+"),),
    ("X-", "H"): ((Fraction(2), "X-"),),
    ("X-", "X+"): ((Fraction(-1), "H"),),
    ("H", "H"): (),
    ("X+", "X+"): (),
    ("X-", "X-"): (),
}

OSP12_TABLE_EXTRA = {
    ("H", "d+"): ((Fraction(1), "d+"),),
    ("H", "d-"): ((Fraction(-1), "d-"),),
    ("d+", "d-"): ((Fraction(1), "H"),),
    ("d-", "d+"): ((Fraction(1), "H"),),
    ("d+", "d+"): ((Fraction(-2), "X+"),),
    ("d-", "d-"): ((Fraction(2), "X-"),),
    ("X+", "d-"): ((Fraction(1), "d+"),),
    ("X-", "d+"): ((Fraction(1), "d-"),),
    ("X+", "d+"): (),
    ("X-", "d-"): (),
    ("d+", "X-"): ((Fraction(-1), "d-"),),
    ("d-", "X+"): ((Fraction(-1), "d+"),),
}


def test_sl2_table_matches_frozen():
    table = bracket_table(sl2_basis())
    for pair, expected in SL2_TABLE.items():
        assert table.bracket(*pair) == expected


def test_osp12_table_matches_frozen():
    table = bracket_table(osp12_basis())
    for pair, expected in SL2_TABLE.items():
        assert table.bracket(*pair) == expected  # even part embeds sl(2)
    for pair, expected in OSP12_TABLE_EXTRA.items():
        assert table.bracket(*pair) == expected


def test_table_parities_come_from_the_matrices():
    for basis in (sl2_basis(), osp12_basis()):
        table = bracket_table(basis)
        for name, m in basis.items():
            assert table.parity(name) == m.parity()
    osp12 = osp12_basis()
    rel = Osp12Relations()
    for name, m in osp12.items():
        assert rel.parity((name, 0)) == m.parity()
    assert [rel.parity((n, 0)) for n in osp12] == [0, 0, 0, 1, 1]


def test_non_homogeneous_basis_element_rejected():
    basis = osp12_basis()
    basis["mixed"] = basis["H"] + basis["d+"]
    with pytest.raises(ValueError,
                       match="basis element mixed is not homogeneous"):
        bracket_table(basis)


def _sparse_matrix(rng, n, parities):
    rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             if rng.random() < 0.4 else 0 for _ in range(n)]
            for _ in range(n)]
    rows[rng.randrange(n)] = [0] * n            # an empty row
    col = rng.randrange(n)
    for row in rows:                            # an empty column
        row[col] = 0
    return SuperMatrix.from_rows(rows, parities)


def test_matmul_matches_plain_loop_on_sparse_matrices():
    rng = random.Random(20231)
    for n in (2, 3, 4):
        for parities in (("even",) * n,
                         tuple("odd" if i % 2 else "even" for i in range(n))):
            for _ in range(40):
                a = _sparse_matrix(rng, n, parities)
                b = _sparse_matrix(rng, n, parities)
                got = a.matmul(b)
                assert got.entries == plain_matmul(a, b)
                assert got.row_parities == parities
                assert all(type(v) is Fraction
                           for row in got.entries for v in row)


def test_single_element_table():
    basis = {"H": sl2_basis()["H"]}
    table = bracket_table(basis)
    assert table.bracket("H", "H") == ()


def test_graded_antisymmetry():
    for basis in (sl2_basis(), osp12_basis()):
        for x, y in itertools.product(basis.values(), repeat=2):
            sign = -1 if x.parity() * y.parity() else 1
            lhs = supercommutator(x, y)
            rhs = supercommutator(y, x).scale(-sign)
            assert lhs.entries == rhs.entries


def test_graded_jacobi_identity():
    # [X, [Y, Z]] = [[X, Y], Z] + (-1)^{p(X)p(Y)} [Y, [X, Z]]
    for basis in (sl2_basis(), osp12_basis()):
        for x, y, z in itertools.product(basis.values(), repeat=3):
            lhs = supercommutator(x, supercommutator(y, z))
            first = supercommutator(supercommutator(x, y), z)
            second = supercommutator(y, supercommutator(x, z))
            sign = -1 if x.parity() * y.parity() else 1
            rhs = first + second.scale(sign)
            assert lhs.entries == rhs.entries


def test_supertrace_vanishes_on_brackets():
    for basis in (sl2_basis(), osp12_basis()):
        for x, y in itertools.product(basis.values(), repeat=2):
            assert supertrace(supercommutator(x, y)) == 0


def test_supertrace_examples():
    identity = SuperMatrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ("even", "odd", "even"))
    assert supertrace(identity) == 1
    assert supertrace(osp12_basis()["H"]) == 0
    zero = SuperMatrix.from_rows(
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]], ("even", "odd", "even"))
    assert supertrace(zero) == 0


def test_homogeneity_and_parities():
    basis = osp12_basis()
    assert basis["H"].parity() == 0
    assert basis["X+"].parity() == 0
    assert basis["d+"].parity() == 1
    assert basis["d-"].parity() == 1
    mixed = basis["H"] + basis["d+"]
    with pytest.raises(ValueError, match="not homogeneous"):
        mixed.parity()
    with pytest.raises(ValueError):
        supercommutator(mixed, basis["H"])


def test_parity_vector_mismatch():
    a = sl2_basis()["H"]
    b = SuperMatrix.from_rows([[1, 0], [0, -1]], ("even", "odd"))
    with pytest.raises(ValueError):
        supercommutator(a, b)


def test_bracket_table_closure_error():
    basis = sl2_basis()
    with pytest.raises(ValueError):
        bracket_table({"X+": basis["X+"], "X-": basis["X-"]})


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        SuperMatrix.from_rows([[1, 0]], ("even",))


def test_aligned_printing():
    h = osp12_basis()["H"]
    assert str(h).splitlines() == [" 1  0  0", " 0  0  0", " 0  0 -1"]


def scale_and_subtract_expansion(m: SuperMatrix, basis):
    """Oracle: the whole-matrix ``residue - b.scale(c)`` expansion."""
    coeffs, residue = [], m
    for name, b in basis.items():
        pos = next(((i, j) for i in range(b.size) for j in range(b.size)
                    if b.entries[i][j]), None)
        if pos is None:
            continue
        c = residue.entries[pos[0]][pos[1]] / b.entries[pos[0]][pos[1]]
        if c:
            coeffs.append((c, name))
            residue = residue - b.scale(c)
    if not residue.is_zero():
        raise ValueError("outside the span")
    return tuple(coeffs)


def test_expansion_matches_scale_and_subtract():
    rng = random.Random(20261018)
    basis = osp12_basis()
    for _ in range(200):
        m = SuperMatrix.from_rows([[0] * 3] * 3, ("even", "odd", "even"))
        for b in basis.values():
            m = m + b.scale(rng.randint(-4, 4))
        expected = scale_and_subtract_expansion(m, basis)
        assert _expand_in_basis(m, basis) == expected
        assert all(isinstance(c, Fraction) for c, _ in expected)
    outside = SuperMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                                    ("even", "odd", "even"))
    with pytest.raises(ValueError):
        scale_and_subtract_expansion(outside, basis)
    with pytest.raises(ValueError, match="outside the span"):
        _expand_in_basis(outside, basis)


@pytest.mark.parametrize("name,basis", [("sl2", sl2_basis),
                                        ("osp12", osp12_basis)])
def test_fixture_table_equals_a_fresh_table(name, basis):
    assert fixture_table(name) == bracket_table(basis())


def test_osp12_relations_share_one_fixture_table():
    first, second = Osp12Relations(), Osp12Relations()
    assert first._table is second._table is fixture_table("osp12")


def test_shared_fixture_table_is_read_only():
    table = fixture_table("osp12")
    with pytest.raises(TypeError):
        table.table[("H", "H")] = ()
    with pytest.raises(TypeError):
        table.parities["H"] = 1
    assert table == bracket_table(osp12_basis())
