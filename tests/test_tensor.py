import random
from fractions import Fraction

import pytest

from pbw.holonomy import transport
from pbw.normalizer import Strategy, normalize
from pbw.tensor import TensorElement, monomial


def test_add_cancellation(f32):
    x = monomial(f32, (0, 1), 2)
    y = monomial(f32, (0, 1), -2)
    assert not x + y
    assert x + y == TensorElement(f32)


def test_add_keeps_distinct_words(f32):
    s = monomial(f32, (0, 1)) + monomial(f32, (1, 0))
    assert s.terms == {(0, 1): 1, (1, 0): 1}


def test_add_rational_arithmetic(f32):
    s = monomial(f32, (0,), Fraction(1, 2)) + monomial(f32, (0,), Fraction(1, 3))
    assert s.terms == {(0,): Fraction(5, 6)}


def test_scale_examples(f32):
    x = monomial(f32, (0, 1))
    assert not 0 * x
    assert 1 * x == x
    assert (-1 * monomial(f32, (0, 1), 2)).terms == {(0, 1): -2}


def test_degree_additive(f32):
    # prefix ⊗ [x, y] ⊗ suffix has degree len(prefix) + 1 + len(suffix)
    rng = random.Random(7)
    for _ in range(50):
        prefix = tuple(rng.randrange(6) for _ in range(rng.randint(0, 3)))
        suffix = tuple(rng.randrange(6) for _ in range(rng.randint(0, 3)))
        w = prefix + (0, rng.choice((1, 2))) + suffix
        x = transport(f32, w, (len(prefix) + 1,))[1]
        assert {len(w) for w in x.terms} == {len(prefix) + 1 + len(suffix)}


def test_no_stored_zero_coefficients(f32):
    rng = random.Random(11)
    elems = []
    for _ in range(30):
        terms = {
            tuple(rng.randrange(6) for _ in range(rng.randint(0, 3))):
                Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))
        }
        elems.append(TensorElement(f32, terms))
    for x in elems:
        assert all(c != 0 for c in x.terms.values())
        for y in elems:
            for result in (x + y, 0 * x, -2 * y, x - x):
                assert all(c != 0 for c in result.terms.values())


def test_adding_a_non_element_is_a_type_error(sl2):
    # arithmetic takes elements and exact scalars only; Python raises the error
    x = TensorElement(sl2, {(1, 0): 1})
    for op in (lambda: x + 1, lambda: x - 1, lambda: 1 + x, lambda: x * 1.5):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_repr_and_comparison_with_a_non_element(f32):
    assert repr(TensorElement(f32, {})) == "TensorElement(0)"
    x = TensorElement(f32, {(): 2, (2, 1): Fraction(-1, 3)})
    assert repr(x) == "TensorElement(2*(1) + -1/3*(c b))"
    # __eq__ returns NotImplemented, so Python falls back to identity
    assert (TensorElement(f32, {}) == 1) is False


def test_mixed_presentations_rejected(f32, sl2):
    with pytest.raises(ValueError, match="different presentations"):
        monomial(f32, (0,)) + monomial(sl2, (0,))


def test_equal_presentations_may_mix(f32):
    from conftest import load_fixture
    other = load_fixture("f32")
    assert other is not f32
    assert (monomial(f32, (0,)) + monomial(other, (0,))).terms == {(0,): 2}


def test_element_rejects_bad_index(f32):
    with pytest.raises(IndexError):
        monomial(f32, (0, 6))
    with pytest.raises(IndexError):
        monomial(f32, (0, 1.5))


def test_results_from_int_inputs_hold_only_nonzero_fractions(f32):
    x = TensorElement(f32, {(2, 1, 0): 3, (1, 0): -2, (0,): 1})
    y = TensorElement(f32, {(1, 0): 2, (0, 1): 5})
    for result in (x + y, x - y, 2 * x, -1 * y,
                   normalize(f32, x), normalize(f32, x + y, Strategy.RIGHTMOST)):
        assert result.terms
        assert all(type(c) is Fraction and c for c in result.terms.values())
    assert (0 * x).terms == {}
    assert (x + -1 * x).terms == {}
    assert (monomial(f32, (1, 0), 3) + monomial(f32, (1, 0), -3)).terms == {}
    # the constructor merges keys that are the same word, drops a sum that
    # cancels and a zero input, and keeps the rest as Fractions
    built = TensorElement(f32, {range(1, 3): 2, (1, 2): -2, (1, 0): 0, (0,): 2})
    assert built.terms == {(0,): Fraction(2)}
    assert type(built.terms[(0,)]) is Fraction
    # it takes a mapping, not a list of pairs
    with pytest.raises(AttributeError):
        TensorElement(f32, [((0,), 1)])


def test_sorted_terms_printing_order(f32):
    x = TensorElement(f32, {(0, 1, 2): 1, (0, 5): -1, (1, 4): 2, (2,): 1})
    assert [w for w, _ in x.sorted_terms()] == [(2,), (0, 5), (1, 4), (0, 1, 2)]


def test_equal_elements_built_by_different_routes_hash_equal(f32):
    # cba straightens to abc - a w - b v - c u
    public = TensorElement(f32, {(0, 1, 2): 1, (0, 5): -1, (1, 4): -1, (2, 3): -1})
    summed = monomial(f32, (0, 1, 2)) + TensorElement(f32, {(0, 5): -1, (1, 4): -1, (2, 3): -1})
    straightened = normalize(f32, monomial(f32, (2, 1, 0)))
    assert public == summed == straightened
    assert hash(public) == hash(summed) == hash(straightened)
    assert len({public, summed, straightened}) == 1


def test_same_words_different_coefficients_stay_distinct_keys(f32):
    x = TensorElement(f32, {(1, 0): 1, (2,): 3})
    y = TensorElement(f32, {(1, 0): 1, (2,): Fraction(1, 3)})
    assert x != y
    assert hash(x) == hash(y)  # the hash reads only the words
    d = {x: "x", y: "y"}
    assert len(d) == 2 and d[x] == "x" and d[y] == "y"
