import itertools
import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from zcurv.cartan import (CartanFormatError, CartanMatrix, check_admissible,
                          determinant, invert_rational, parse_cartan,
                          parse_family, render_cartan, standard_cartan,
                          whitelist_superprincipal)


def test_parse_rank_one():
    m = parse_cartan('{"matrix":[[2]]}')
    assert m.rank == 1
    assert m.entries == ((Fraction(2),),)
    assert m.parities == ("even",)


def test_parse_super_liouville_matrix():
    m = parse_cartan('{"matrix":[[1]],"parities":["odd"]}')
    assert m.entries == ((Fraction(1),),)
    assert m.parities == ("odd",)


def test_parse_rational_entries_and_name():
    m = parse_cartan('{"matrix":[[2,"-1/2"],["1/3",2]],"name":"test"}')
    assert m.entries[0][1] == Fraction(-1, 2)
    assert m.entries[1][0] == Fraction(1, 3)
    assert m.name == "test"


def test_parity_length_mismatch_has_position():
    doc = '{"matrix":[[2,-1],[0,2]],\n "parities":["even","even","odd"]}'
    with pytest.raises(CartanFormatError) as err:
        parse_cartan(doc)
    assert "length 3" in str(err.value)
    assert err.value.line == 2


def test_non_square_matrix_has_position():
    with pytest.raises(CartanFormatError) as err:
        parse_cartan('{"matrix":[[2,-1],[0]]}')
    assert "non-square" in str(err.value)
    assert err.value.line == 1


@pytest.mark.parametrize("doc,fragment", [
    ('{"matrix":[[2.5]]}', "non-rational"),
    ('{"matrix":[["2/0"]]}', "non-rational"),
    ('{"matrix":[[2]],"parities":["big"]}', "parity"),
    ('{"matrix":[[2]],"extra":1}', "unknown key"),
    ('{"parities":["even"]}', "missing required key"),
    ('{"matrix":[[2]]', "expected"),
    ('{"matrix":[]}', "at least one row"),
    ('{"matrix":[[2]],"matrix":[[2]]}', "duplicate"),
])
def test_malformed_documents(doc, fragment):
    with pytest.raises(CartanFormatError) as err:
        parse_cartan(doc)
    assert fragment in str(err.value)


# Every error path of the reader, with the exact message and 1-based line and
# column.  Tabs and carriage returns count as one column; only '\n' starts a
# line.  The second row and the second parity are marked right after their
# comma, before any whitespace; the first row, the matrix and the parity list
# after it.
POSITIONED_ERRORS = [
    ('', "expected '{', found 'end of input'", 1, 1),
    ('  \n x', "expected '{', found 'x'", 2, 2),
    ('["matrix"]', "expected '{', found '['", 1, 1),
    ('{', 'expected \'"\', found \'end of input\'', 1, 2),
    ('{"matrix', "unterminated string", 1, 9),
    ('{"mat\\', "unterminated escape", 1, 7),
    ('{"m\\x"', "unsupported escape \\x", 1, 6),
    ('{"m\\\n"', "unsupported escape \\\n", 2, 1),
    ('{"matrix":[[2]],"name":"a\\qb"}', "unsupported escape \\q", 1, 28),
    ('{"name":"a\\"b\\\\","matrix":[[1,2]]}',
     "non-square matrix: row has 2 entries, expected 1", 1, 28),
    ('{"name":5,"matrix":[[2]]}', 'expected \'"\', found \'5\'', 1, 9),
    ('{"matrix" [[2]]}', "expected ':', found '['", 1, 11),
    ('{"matrix":[[2]],}', 'expected \'"\', found \'}\'', 1, 17),
    ('{"matrix":[[2]] "name":"x"}', 'expected \'}\', found \'"\'', 1, 17),
    ('{"matrix":[[2.5]]}',
     'non-rational entry: floats are not allowed; write "p/q"', 1, 13),
    ('{"matrix":[[1e3]]}',
     'non-rational entry: floats are not allowed; write "p/q"', 1, 13),
    ('{"matrix":[[2],[-7E1]]}',
     'non-rational entry: floats are not allowed; write "p/q"', 1, 17),
    ('{"matrix":[[-]]}', "expected an integer", 1, 14),
    ('{"matrix":[[-\n1]]}', "expected an integer", 1, 14),
    ('{"matrix":[[x]]}', "expected a rational entry, found 'x'", 1, 13),
    ('{"matrix":[[', "expected a rational entry, found 'end of input'", 1, 13),
    ('{"matrix":[[2 3]]}', "expected ']', found '3'", 1, 15),
    ('{"matrix":[[-1\n.5]]}', "expected ']', found '.'", 2, 1),
    ('{"matrix":[[2],]}', "expected '[', found ']'", 1, 16),
    ('{"matrix":[[2,]]}', "expected a rational entry, found ']'", 1, 15),
    ('{"matrix":[["2/0"]]}', "non-rational entry '2/0'", 1, 13),
    ('{"matrix":[["a"]]}', "non-rational entry 'a'", 1, 13),
    ('{"matrix":[["1/2/3"]]}', "non-rational entry '1/2/3'", 1, 13),
    ('{"matrix":[["1/2",\r"x"]]}', "non-rational entry 'x'", 1, 20),
    ('{"matrix":[[" 3"]]}', "non-rational entry ' 3'", 1, 13),
    ('{"matrix":[["+3"]]}', "non-rational entry '+3'", 1, 13),
    ('{"matrix":[["1_0"]]}', "non-rational entry '1_0'", 1, 13),
    ('{"matrix":[["1/ 2"]]}', "non-rational entry '1/ 2'", 1, 13),
    ('{"matrix":[[2]],"matrix":[[2]]}', "duplicate key 'matrix'", 1, 17),
    ('{"matrix":[[2]],\n\t"extra":1}', "unknown key 'extra'", 2, 2),
    ('{"mätrix":1}', "unknown key 'mätrix'", 1, 2),
    ('{\t"matrix":[[2]],\t\t"bad":0}', "unknown key 'bad'", 1, 20),
    ('{"matrix":[[2]],"parities":["big"]}',
     "parity must be 'even' or 'odd', got 'big'", 1, 29),
    ('{"matrix":[[2,0],[0,2]],"parities":["even",  "big"]}',
     "parity must be 'even' or 'odd', got 'big'", 1, 44),
    ('{"matrix":[[2]],"parities":[odd]}', 'expected \'"\', found \'o\'',
     1, 29),
    ('{"matrix":[[2]],"parities":["odd"', "expected ']', found 'end of input'",
     1, 34),
    ('{"matrix":[[2]]} x', "trailing content after document", 1, 18),
    ('{"matrix":[[2]]}\n\n  }', "trailing content after document", 3, 3),
    ('{"parities":["even"]}', "missing required key 'matrix'", 1, 1),
    ('{"matrix":[]}', "matrix must have at least one row", 1, 11),
    ('{"matrix": \n  []}', "matrix must have at least one row", 2, 3),
    ('{"matrix":[[2,-1],[0]]}',
     "non-square matrix: row has 1 entries, expected 2", 1, 19),
    ('{"matrix":[[2,-1],\r\n  [0]]}',
     "non-square matrix: row has 1 entries, expected 2", 1, 19),
    ('{"matrix":[ \t[2,-1]]}',
     "non-square matrix: row has 2 entries, expected 1", 1, 14),
    ('{"matrix":[[2,-1],[0,2]],\n "parities":["even","even","odd"]}',
     "parity list has length 3, expected 2", 2, 13),
    ('{\n"matrix":[[2]],\n"parities":["even","odd"]}',
     "parity list has length 2, expected 1", 3, 12),
    ('{"matrix":[[2]],"parities":  [\n"odd",\n"even"]}',
     "parity list has length 2, expected 1", 1, 30),
]


@pytest.mark.parametrize("doc,message,line,col", POSITIONED_ERRORS)
def test_error_message_and_position(doc, message, line, col):
    with pytest.raises(CartanFormatError) as err:
        parse_cartan(doc)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


# Integers are ASCII digits: a bare integer is '-?[0-9]+', and a "p/q" string
# holds no other digits either.
@pytest.mark.parametrize("doc,message,line,col", [
    ('{"matrix":[[2', "expected ']', found 'end of input'", 1, 14),
    ('{"matrix":[[-12', "expected ']', found 'end of input'", 1, 16),
    ('{"matrix":[[²]]}', "expected a rational entry, found '²'", 1, 13),
    ('{"matrix":[[٣]]}', "expected a rational entry, found '٣'", 1, 13),
    ('{"matrix":[[2²]]}', "expected ']', found '²'", 1, 14),
    ('{"matrix":[["٣"]]}', "non-rational entry '٣'", 1, 13),
    ('{"matrix":[["1/٣"]]}', "non-rational entry '1/٣'", 1, 13),
    pytest.param('{"matrix":[[' + "1" * 5000 + "]]}",
                 "integer of 5000 digits is too long", 1, 13,
                 id="5000-digit-integer"),
    # the sign is not a digit
    pytest.param('{"matrix":[[-' + "1" * 5000 + "]]}",
                 "integer of 5000 digits is too long", 1, 13,
                 id="minus-5000-digit-integer"),
    # a quoted integer past the int-string limit, as numerator or denominator
    pytest.param('{"matrix":[["1' + "0" * 5000 + '"]]}',
                 "integer of 5001 digits is too long", 1, 13,
                 id="quoted-5001-digit-integer"),
    pytest.param('{"matrix":[[2],["-1/' + "7" * 5000 + '"]]}',
                 "integer of 5000 digits is too long", 1, 17,
                 id="quoted-5000-digit-denominator"),
    # the fault in a later entry of a row: the row is read entry by entry
    ('{"matrix":[[2, -1, 2.5]]}',
     'non-rational entry: floats are not allowed; write "p/q"', 1, 20),
    ('{"matrix":[[2, -1, ²]]}', "expected a rational entry, found '²'", 1, 20),
    ('{"matrix":[[2,\f-1]]}', "expected a rational entry, found '\\x0c'",
     1, 15),
    ('{"matrix":[[1,]]}', "expected a rational entry, found ']'", 1, 15),
    ('{"matrix":[[1 2]]}', "expected ']', found '2'", 1, 15),
    ('{"matrix":[[2, 3], [1,\n 3 4]]}', "expected ']', found '4'", 2, 4),
    ('{"matrix":[[2], [1,\n 3, 4.0]]}',
     'non-rational entry: floats are not allowed; write "p/q"', 2, 5),
    pytest.param('{"matrix":[[2, ' + "7" * 5000 + "]]}",
                 "integer of 5000 digits is too long", 1, 16,
                 id="later-5000-digit-integer"),
])
def test_integers_are_ascii_and_end_cleanly(doc, message, line, col):
    with pytest.raises(CartanFormatError) as err:
        parse_cartan(doc)
    assert str(err.value) == f"{message} (line {line}, column {col})"


# An error echoes a quoted entry, a key or a parity with the middle of a
# long one left out and its length given.
@pytest.mark.parametrize("doc,message,col", [
    ('{"matrix":[["' + "x" * 5000 + '"]]}',
     "non-rational entry 'xxxxxxxxxxxxxxxxxxxxxxx...xxxxxxxxxxx' "
     "(5000 characters)", 13),
    ('{"' + "k" * 5000 + '":1}',
     "unknown key 'kkkkkkkkkkkkkkkkkkkkkkk...kkkkkkkkkkk' (5000 characters)",
     2),
    ('{"matrix":[[2]],"parities":["' + "p" * 5000 + '"]}',
     "parity must be 'even' or 'odd', got 'ppppppppppppppppppppppp..."
     "ppppppppppp' (5000 characters)", 29),
    # a repr of up to 48 characters is echoed whole
    ('{"matrix":[["' + "ab" * 23 + '"]]}',
     "non-rational entry '" + "ab" * 23 + "'", 13),
    ('{"matrix":[["' + "ab" * 23 + 'a"]]}',
     "non-rational entry 'abababababababababababa...abababababa' "
     "(47 characters)", 13),
], ids=["entry", "key", "parity", "48-character-repr", "49-character-repr"])
def test_errors_clip_the_values_they_echo(doc, message, col):
    with pytest.raises(CartanFormatError) as err:
        parse_cartan(doc)
    assert str(err.value) == f"{message} (line 1, column {col})"
    assert len(str(err.value)) < 200


_VALID = ['{"matrix":[[2,-1],[-1,2]],"parities":["even","odd"],"name":"a"}',
          '{ "matrix" : [ [ "1/2" ] ] }\n']
_FRAGMENTS = ['{', '}', '[', ']', ',', ':', '"', '\\', ' ', '\n', '\t', '-',
              '.', 'e', '/', '0', '7', '²', '٣', '"x"', '"odd"', '"1/3"', '']


@st.composite
def _mutated_documents(draw):
    """A valid document with a span replaced by a few fragments."""
    doc = draw(st.sampled_from(_VALID))
    i = draw(st.integers(0, len(doc)))
    j = draw(st.integers(i, min(len(doc), i + 3)))
    middle = "".join(draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=3)))
    return doc[:i] + middle + doc[j:]


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(st.one_of(
    st.text(max_size=24), _mutated_documents(),
    st.text("-0123456789.e²٣\"/ ],", max_size=8)
    .map('{"matrix":[['.__add__)))
def test_parse_cartan_raises_only_format_errors(text):
    try:
        parse_cartan(text)
    except CartanFormatError:
        pass


_SPACE = st.text(" \t\r\n", max_size=3)


@st.composite
def _valid_documents(draw):
    """Valid documents of rank 1-4 with whitespace between the tokens; a
    row is bare integers (one match) or mixes them with quoted entries."""
    n = draw(st.integers(1, 4))

    def entry(plain):
        if plain or draw(st.booleans()):
            return str(draw(st.integers(-10 ** 12, 10 ** 12)))
        p = draw(st.integers(-50, 50))
        q = draw(st.one_of(st.none(), st.integers(1, 12)))
        return f'"{p}"' if q is None else f'"{p}/{q}"'

    def padded(text):
        return draw(_SPACE) + text + draw(_SPACE)

    rows = []
    for _ in range(n):
        plain = draw(st.booleans())
        rows.append(padded(
            "[" + ",".join(padded(entry(plain)) for _ in range(n)) + "]"))
    return padded("{" + padded('"matrix"') + ":"
                  + padded("[" + ",".join(rows) + "]") + "}")


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_valid_documents())
@example('{"matrix":[[2,-1],[-1,2]]}')
@example('{"matrix":[["4/2", "-1/3"], [-1,"6"]]}')
def test_valid_documents_parse_like_json(doc):
    entries = parse_cartan(doc).entries
    assert entries == tuple(tuple(Fraction(v) for v in row)
                            for row in json.loads(doc)["matrix"])
    for v in itertools.chain.from_iterable(entries):
        assert type(v) is (int if v.denominator == 1 else Fraction)


def test_integral_entries_are_int():
    m = CartanMatrix.from_rows([[Fraction(4, 2), "-1/3"], [-1, "6/3"]])
    assert [[type(v) for v in row] for row in m.entries] \
        == [[int, Fraction], [int, int]]
    assert m.entries == ((2, Fraction(-1, 3)), (-1, 2))
    assert type(standard_cartan("sl3").entries[0][1]) is int


def test_render_parse_round_trip():
    samples = [
        CartanMatrix.from_rows([[2]]),
        CartanMatrix.from_rows([[1]], ["odd"], name="osp12"),
        CartanMatrix.from_rows([[2, Fraction(-1, 2)], [-1, 2]],
                               ["even", "odd"], name="mixed"),
        standard_cartan("sl4"),
    ]
    for m in samples:
        assert parse_cartan(render_cartan(m)) == m


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.sampled_from([[[2]], [[0, Fraction(-3, 7)], [5, 1]]]),
       st.text(st.one_of(st.sampled_from('"\\/\n'), st.characters()),
               max_size=12))
@example([[2]], 'a"b\\c/d\nπ²')
def test_render_parse_round_trip_escapes_names(rows, name):
    m = CartanMatrix.from_rows(rows, name=name)
    assert parse_cartan(render_cartan(m)) == m


def test_render_is_canonical():
    m = CartanMatrix.from_rows([[2, -1], [-1, 2]])
    text = render_cartan(m)
    assert text == '{"matrix":[[2,-1],[-1,2]],"parities":["even","even"]}'
    assert " " not in text


def test_admissible_examples():
    one = CartanMatrix.from_rows([[1]], ["odd"])
    two = CartanMatrix.from_rows([[2]])
    assert check_admissible(one, "lse1").admissible
    report = check_admissible(two, "lse1")
    assert not report.admissible
    assert report.offending_indices == (0,)
    assert check_admissible(two, "lse2").admissible


def test_admissible_truth_table_small_matrices():
    diag_values = [Fraction(v) for v in (-1, 0, 1, 2, 3)]
    for n in (1, 2):
        for diag in itertools.product(diag_values, repeat=n):
            rows = [[diag[i] if i == j else Fraction(-1) for j in range(n)]
                    for i in range(n)]
            m = CartanMatrix.from_rows(rows)
            r1 = check_admissible(m, "lse1")
            r2 = check_admissible(m, "lse2")
            assert r1.admissible == all(d in (0, 1) for d in diag)
            assert r2.admissible == all(d in (2, 1) for d in diag)
            assert r1.offending_indices == tuple(
                i for i, d in enumerate(diag) if d not in (0, 1))


def test_schemes_agree_exactly_on_all_ones_diagonal():
    for diag in itertools.product([0, 1, 2], repeat=2):
        rows = [[Fraction(diag[i]) if i == j else Fraction(0)
                 for j in range(2)] for i in range(2)]
        m = CartanMatrix.from_rows(rows)
        both = (check_admissible(m, "lse1").admissible
                and check_admissible(m, "lse2").admissible)
        assert both == all(d == 1 for d in diag)


def test_whitelist_examples():
    assert whitelist_superprincipal("sl(2|3)")
    assert whitelist_superprincipal("osp(1|2)")
    assert not whitelist_superprincipal("sl(2|2)")


def test_whitelist_families():
    positives = ["sl(1|2)", "sl(2|1)", "sl(3|4)", "sl(5|4)",
                 "osp(1|2)", "osp(3|2)", "osp(3|4)", "osp(5|4)", "osp(7|6)",
                 "osp(2|2)", "osp(4|4)", "osp(6|6)",
                 "osp(4|2)", "osp(6|4)", "osp(8|6)",
                 "osp_a(4|2)"]
    negatives = ["sl(2|2)", "sl(1|1)", "sl(1|3)", "sl(5|2)", "sl(0|1)",
                 "osp(2|4)", "osp(5|2)", "osp(1|4)", "osp(7|4)", "osp(6|2)",
                 "osp(1|3)", "osp(3|0)", "osp_a(4|4)", "osp_a(2|2)"]
    for name in positives:
        assert whitelist_superprincipal(name), name
    for name in negatives:
        assert not whitelist_superprincipal(name), name


def test_family_parse_errors():
    for bad in ("su(2|3)", "sl(2,3)", "sl(2|x)", "sl(2)", "osp(-1|2)"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_standard_cartan():
    assert standard_cartan("sl2").entries == ((Fraction(2),),)
    osp = standard_cartan("osp12")
    assert osp.entries == ((Fraction(1),),)
    assert osp.parities == ("odd",)
    sl3 = standard_cartan("sl3")
    assert sl3.entries == ((Fraction(2), Fraction(-1)),
                           (Fraction(-1), Fraction(2)))
    with pytest.raises(ValueError):
        standard_cartan("e8")
    with pytest.raises(ValueError):
        standard_cartan("sl1")


def test_invert_rational():
    inv = invert_rational([[2, -1], [-1, 2]])
    assert inv == ((Fraction(2, 3), Fraction(1, 3)),
                   (Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(ValueError):
        invert_rational([[0]])
    with pytest.raises(ValueError):
        invert_rational([[1, 1], [1, 1]])


_ENTRY = st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)))


@st.composite
def _rational_matrices(draw):
    """Square rational matrices of size 1-6, often with a zero row, a zero
    column or a row that is a multiple of another (singular cases)."""
    n = draw(st.integers(1, 6))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(
        ("plain", "zero row", "zero column", "dependent row")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "zero row":
        rows[i] = [Fraction(0)] * n
    elif kind == "zero column":
        for row in rows:
            row[i] = Fraction(0)
    elif kind == "dependent row" and i != j:
        q = draw(_ENTRY)
        rows[i] = [q * v for v in rows[j]]
    return rows


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in rows])


def _fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_rational_matrices())
def test_elimination_matches_sympy(rows):
    """determinant and invert_rational against sympy's det() and inv()."""
    m = _sympy_matrix(rows)
    det = m.det()
    assert determinant(rows) == _fraction(det)
    assert (determinant(rows) == 0) == (det == 0)
    if det == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            invert_rational(rows)
    else:
        inv = m.inv()
        n = len(rows)
        assert invert_rational(rows) == tuple(
            tuple(_fraction(inv[i, j]) for j in range(n)) for i in range(n))


def test_determinant_accepts_int_and_fraction_rows():
    assert determinant([[2, -1], [-1, 2]]) == 3
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[Fraction(1, 2), 1], [Fraction(1, 3), 5]]) \
        == Fraction(13, 6)
    assert determinant(standard_cartan("sl9").entries) == 9
    assert determinant([[2, -2], [-2, 2]]) == 0


def test_affine_matrix_accepted():
    affine = CartanMatrix.from_rows([[2, -2], [-2, 2]])
    assert check_admissible(affine, "lse2").admissible
    assert parse_cartan(render_cartan(affine)) == affine


@pytest.mark.parametrize("build,message", [
    (lambda: check_admissible(standard_cartan("sl2"), "lse3"),
     "unknown scheme 'lse3'; expected lse1 or lse2"),
    (lambda: standard_cartan("slx"), "unknown standard cartan matrix 'slx'"),
], ids=["unknown-scheme", "sl-without-a-rank"])
def test_cartan_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
