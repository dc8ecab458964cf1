import itertools
from fractions import Fraction

import pytest

from pbw.presentation import (LieFormatError, LiePresentation, bracket,
                              check_jacobi, jacobi_defect, parse_presentation,
                              serialize_presentation)

from conftest import load_fixture

ALL_FIXTURES = ["abelian3", "heisenberg", "sl2", "f32", "f42", "bad"]


def test_parse_abelian(abelian):
    assert abelian.names == ("a", "b", "c")
    assert abelian.dim == 3
    assert abelian.constants == {}


def test_parse_sl2_is_lie(sl2):
    assert sl2.names == ("e", "f", "h")
    assert bracket(sl2, 0, 1) == {2: 1}
    assert bracket(sl2, 0, 2) == {0: -2}
    assert bracket(sl2, 1, 2) == {1: 2}
    assert check_jacobi(sl2) == []


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
    assert bracket(L, 0, 1) == {2: -1}
    assert bracket(L, 1, 0) == {2: 1}


def test_parse_explicit_zero_bracket():
    L = parse_presentation("basis a b\nbracket a b = 0\n")
    assert L.constants == {}


def test_parse_comments_and_signs():
    L = parse_presentation(
        "# header\nbasis a b c  # trailing comment\n"
        "bracket a b = -2/3 a + 1 b - c\n")
    assert bracket(L, 0, 1) == {0: Fraction(-2, 3), 1: 1, 2: -1}


def test_constructor_rejects_descending_pair():
    with pytest.raises(LieFormatError, match="i < j"):
        LiePresentation(("a", "b"), {(1, 0): {0: 1}})


def test_constructor_drops_zero_coefficients():
    L = LiePresentation(("a", "b", "c"), {(0, 1): {2: 0}})
    assert L.constants == {}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_bracket_antisymmetry_exhaustive(name):
    L = load_fixture(name)
    for i in range(L.dim):
        assert bracket(L, i, i) == {}
        for j in range(L.dim):
            assert bracket(L, j, i) == {k: -c for k, c in bracket(L, i, j).items()}


def test_bracket_index_out_of_range(sl2):
    with pytest.raises(IndexError):
        bracket(sl2, 0, 3)
    with pytest.raises(IndexError):
        bracket(sl2, -1, 0)


def test_jacobi_defect_examples(abelian, sl2, bad):
    for triple in itertools.combinations(range(3), 3):
        assert jacobi_defect(abelian, *triple) == {}
    assert jacobi_defect(sl2, 0, 1, 2) == {}
    # [a,[b,c]] + [[a,c],b] + [c,[a,b]] = [a,w] + [v,b] + [c,u] = a
    assert jacobi_defect(bad, 0, 1, 2) == {0: 1}


@pytest.mark.parametrize("name", ["abelian3", "heisenberg", "sl2", "f32", "f42"])
def test_check_jacobi_clean_tables(name):
    assert check_jacobi(load_fixture(name)) == []


def test_check_jacobi_bad_table(bad):
    # exhaustive over all 20 triples: (a,b,c) fails, and so does (b,c,u)
    # because [b,[c,u]] = [b,a] = -u while the other two terms vanish
    assert check_jacobi(bad) == [
        ((0, 1, 2), {0: 1}),
        ((1, 2, 3), {3: -1}),
    ]


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


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialize_round_trip(name):
    L = load_fixture(name)
    again = parse_presentation(serialize_presentation(L))
    assert again == L
    assert serialize_presentation(again) == serialize_presentation(L)


def test_serialize_matches_fixture_style(sl2):
    assert "bracket e h = -2 e" in serialize_presentation(sl2)
