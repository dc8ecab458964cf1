import itertools
import random
from fractions import Fraction

import pytest

from pbw.normalizer import Strategy, normalize, transport
from pbw.presentation import (LieFormatError, LiePresentation, check_jacobi,
                              jacobi_defect, parse_presentation, serialize_presentation)
from pbw.tensor import TensorElement, monomial

from conftest import (ALL_FIXTURES, ALL_TABLES, JACOBI_FIXTURES, TEXT_TABLES, load_fixture,
                      load_table, random_tables)


def test_parse_abelian(abelian):
    assert abelian.names == ("a", "b", "c")
    assert abelian.dim == 3
    assert abelian.constants == {}


def test_repr_and_comparison_with_a_non_presentation(sl2):
    assert repr(sl2) == "LiePresentation(basis=e f h, brackets=3)"
    # __eq__ returns NotImplemented, so Python falls back to identity
    assert (sl2 == "sl2") is False


def test_tables_with_the_same_names_and_other_brackets_differ():
    L = parse_presentation("basis a b\nbracket a b = a\n")
    M = parse_presentation("basis a b\n")
    assert L.names == M.names and L != M and M != L
    assert L == parse_presentation("basis a b\nbracket b a = -1 a\n")
    with pytest.raises(ValueError, match="different presentation"):
        normalize(L, monomial(M, (1, 0)))


def test_basis_order_is_listing_order():
    L = parse_presentation("basis z y x\n")
    assert L.names == ("z", "y", "x")
    assert L.index("z") == 0 and L.index("x") == 2


@pytest.mark.parametrize("text, fragment", [
    ("basis a b\nbracket a a = b\n", "self-bracket"),
    ("basis a a\n", "duplicate"),
    ("basis a b\nbracket a q = b\n", "unknown"),
    ("basis a b c\nbracket a b = c\nbracket b a = c\n", "twice"),
    ("basis a b c\nbracket a b = 2/0 c\n", "malformed rational"),
    ("basis a b c\nbracket a b = 2//3 c\n", "malformed rational"),
    ("basis a b\nbracket a b = 2\n", "trailing"),
    ("basis a b\nbracket a b = q\n", "unknown"),
    ("bracket a b = c\n", "basis"),
    ("basis a b\nfrobnicate a b\n", "bracket"),
    ("# just a comment\n", "basis"),
    ("basis a 1b\n", "invalid basis name"),
    # names after another keyword on the first line are not a basis
    ("foo x y\n", "line 1: expected 'basis name...' first"),
    # the right-hand side follows the expression grammar, one name per term
    ("basis a b\nbracket a b = a b\n", "line 2"),
    ("basis a b\nbracket a b = 2 a b\n", "line 2"),
    ("basis a b\nbracket a b = a - - b\n", "line 2"),
    ("basis a b\nbracket a b = + + a\n", "line 2"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(LieFormatError, match=fragment):
        parse_presentation(text)


def test_parse_reversed_pair_negates():
    L = parse_presentation("basis a b c\nbracket b a = c\n")
    assert L._signed.get((0, 1), {}) == {2: -1}
    assert L._signed.get((1, 0), {}) == {2: 1}


def test_parse_explicit_zero_bracket():
    L = parse_presentation("basis a b\nbracket a b = 0\n")
    assert L.constants == {}


def test_parse_comments_and_signs():
    L = parse_presentation(
        "# header\nbasis a b c  # trailing comment\n"
        "bracket a b = -2/3 a + 1 b - c\n")
    assert L._signed.get((0, 1), {}) == {0: Fraction(-2, 3), 1: 1, 2: -1}


def test_constructor_rejects_descending_pair():
    with pytest.raises(LieFormatError, match="i < j"):
        LiePresentation(("a", "b"), {(1, 0): {0: 1}})


@pytest.mark.parametrize("names, constants, message", [
    ("abc", {(0.5, 1): {2.7: 1}}, r"bracket pair \(0\.5, 1\) is not two ints in range\(3\)"),
    ("abc", {("0", 1): {2: 1}}, r"bracket pair \('0', 1\) is not two ints in range\(3\)"),
    ("abc", {(0, 1): {2.7: 1}}, r"coefficient index 2\.7 is not an int in range\(3\)"),
    ("abc", {(0, 1): {"2": 1}}, r"coefficient index '2' is not an int in range\(3\)"),
    ("", None, "at least one basis name"),
    ("ab", {(0, 2): {0: 1}}, r"bracket pair \(0, 2\) is not two ints in range\(2\)"),
    ("ab", {(1, 1): {0: 1}}, r"self-bracket \[b, b\] is zero by antisymmetry"),
    ("ab", {(0, 1): {-1: 1}}, r"coefficient index -1 is not an int in range\(2\)"),
    ("abc", {(0, 1, 2): {2: 1}}, r"bracket pair \(0, 1, 2\) is not two ints in range\(3\)"),
    ("abc", {5: {2: 1}}, r"bracket pair 5 is not two ints in range\(3\)"),
    ("abc", {(0, 1): 5}, r"bracket pair \(0, 1\) maps to 5, not index -> rational"),
    ("abc", {(0, 1): {2: "x"}},
     r"coefficient 'x' of index 2 in bracket pair \(0, 1\) is not rational"),
], ids=["float-pair", "str-pair", "float-coefficient", "str-coefficient",
        "empty-basis", "pair-out-of-range", "self-pair", "coefficient-out-of-range",
        "three-index-pair", "int-pair", "int-vector", "str-value"])
def test_constructor_rejects_invalid_data(names, constants, message):
    # a float index used to be truncated ([a, b] = c from (0.5, 1): {2.7: 1}),
    # a str one to raise a bare TypeError, and a malformed entry a bare
    # ValueError or TypeError that did not name it
    with pytest.raises(LieFormatError, match=message):
        LiePresentation(names, constants)


def test_constructor_drops_zero_coefficients():
    L = LiePresentation(("a", "b", "c"), {(0, 1): {2: 0}})
    assert L.constants == {}


@pytest.mark.parametrize("name", ALL_TABLES)
def test_bracket_antisymmetry_exhaustive(name):
    L = load_table(name)
    signed = L._signed
    for i in range(L.dim):
        assert (i, i) not in signed
        for j in range(L.dim):
            assert signed.get((j, i), {}) == {k: -c for k, c in signed.get((i, j), {}).items()}
    # integral constants are ints in the signed view; 1/2 and 1/3 stay Fractions
    constants = [c for vec in signed.values() for c in vec.values()]
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in constants)
    assert any(type(c) is Fraction for c in constants) == (name in TEXT_TABLES)


@pytest.mark.parametrize("name", JACOBI_FIXTURES)
def test_check_jacobi_clean_tables(name):
    assert check_jacobi(load_fixture(name)) == []


def test_check_jacobi_bad_table(bad):
    # exhaustive over all 20 triples: (a,b,c) fails, [a,w] + [v,b] + [c,u] = a,
    # and so does (b,c,u) because [b,[c,u]] = [b,a] = -u while the other two
    # terms vanish
    assert check_jacobi(bad) == [
        ((0, 1, 2), {0: 1}),
        ((1, 2, 3), {3: -1}),
    ]


def constant(L, i, j):
    """[e_i, e_j] off the public read-only table, negated here for i > j."""
    if i > j:
        return {k: -c for k, c in constant(L, j, i).items()}
    return L.constants.get((i, j), {})


def reference_defect(L, i, j, k):
    """[e_i,[e_j,e_k]] + [[e_i,e_k],e_j] + [e_k,[e_i,e_j]] through `constant`."""
    out = {}
    for a, b, c, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)):
        for m, x in constant(L, b, c).items():
            for n, y in constant(L, a, m).items():
                out[n] = out.get(n, 0) + sign * x * y
    return {n: c for n, c in out.items() if c}


@pytest.mark.parametrize("name", ALL_TABLES)
def test_jacobi_reads_the_signed_table_not_bracket(name):
    # the signed table that jacobi_defect reads gives what the public table
    # gives with antisymmetry applied term by term, with Fraction coefficients
    L = load_table(name)
    triples = list(itertools.product(range(L.dim), repeat=3))
    expected = {t: reference_defect(L, *t) for t in triples}
    defects = {t: jacobi_defect(L, *t) for t in triples}
    assert defects == expected
    failing = check_jacobi(L)
    assert failing == [(t, expected[t])
                       for t in itertools.combinations(range(L.dim), 3) if expected[t]]
    assert all(type(c) is Fraction and c
               for d in [*defects.values(), *(d for _, d in failing)] for c in d.values())
    with pytest.raises(IndexError):
        jacobi_defect(L, 0, 0, L.dim)


def test_bracket_table_is_read_only():
    # a table changed after the first normalize used to leave the product
    # table's view stale: sl2 with [e, f] = 5 h still gave f e = e f - h there
    L = load_fixture("sl2")
    fe = monomial(L, (1, 0))
    expected = TensorElement(L, {(0, 1): 1, (2,): -1})
    assert normalize(L, fe) == expected
    with pytest.raises(TypeError):
        L.constants[(0, 1)] = {2: 5}
    with pytest.raises(TypeError):
        L.constants[(0, 1)][2] = 5
    with pytest.raises(TypeError):
        del L.constants[(0, 1)]
    with pytest.raises(AttributeError):
        L.constants = {(0, 1): {2: 5}}
    assert L.constants[(0, 1)] == {2: 1}
    for strategy in Strategy:
        assert normalize(L, fe, strategy) == expected
        assert normalize(L, fe, strategy, trace=lambda *step: None) == expected
    assert transport(L, (1, 0), (1,))[1] == TensorElement(L, {(2,): -1})
    # dim, index and the tables are built from the names, so the names cannot be rebound
    text = serialize_presentation(L)
    with pytest.raises(AttributeError):
        L.names = ("e", "f")
    assert L.names == ("e", "f", "h") and L.dim == 3 and L.index("h") == 2
    assert serialize_presentation(L) == text


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_jacobi_defect_alternating(name):
    L = load_fixture(name)
    if L.dim > 6:
        pytest.skip("exhaustive check kept to dim <= 6")
    for i, j, k in itertools.product(range(L.dim), repeat=3):
        d = jacobi_defect(L, i, j, k)
        minus_d = {m: -c for m, c in d.items()}
        assert jacobi_defect(L, j, i, k) == minus_d
        assert jacobi_defect(L, i, k, j) == minus_d
        if len({i, j, k}) < 3:
            assert d == {}


# seeded tables with negative and Fraction constants, Lie and not, beside the fixtures
ROUND_TRIP_TABLES = list(random_tables(random.Random("round-trip"), 40, alternate=True))


@pytest.mark.parametrize(
    "L", [load_fixture(name) for name in ALL_FIXTURES] + ROUND_TRIP_TABLES,
    ids=ALL_FIXTURES + [f"random{i}" for i in range(len(ROUND_TRIP_TABLES))])
def test_serialize_round_trip(L):
    again = parse_presentation(serialize_presentation(L))
    assert again == L
    assert serialize_presentation(again) == serialize_presentation(L)


def test_serialize_matches_fixture_style(sl2):
    assert "bracket e h = -2 e" in serialize_presentation(sl2)


def test_serialize_signs_every_later_term():
    L = parse_presentation("basis x y u v\n"
                           "bracket x y = 1/2 u - 3 v\n"
                           "bracket y u = -2 v + 1 x\n")
    text = serialize_presentation(L)
    assert text == ("basis x y u v\n"
                    "bracket x y = 1/2 u - 3 v\n"
                    "bracket y u = 1 x - 2 v\n")
    assert parse_presentation(text) == L
