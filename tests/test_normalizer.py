import itertools
import random
import sys
from fractions import Fraction

import pytest

from pbw.errors import SearchBudgetExceeded
from pbw.normalizer import (Strategy, descents, inversions, is_canonical,
                            normalize, normalize_all_ways, swap_reduce_at)
from pbw.presentation import check_jacobi
from pbw.tensor import TensorElement, add, bracket_in_context, monomial, scale

from conftest import load_fixture

JACOBI_FIXTURES = ["abelian3", "heisenberg", "sl2", "f32", "f42"]


def all_words(dim, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(dim), repeat=length)


def test_is_canonical(f32):
    assert is_canonical(monomial(f32, (0, 1, 2)))
    assert not is_canonical(monomial(f32, (2, 1, 0)))
    assert is_canonical(TensorElement(f32, {(0, 0, 1): 1, (1,): 2}))
    assert is_canonical(TensorElement(f32, {}))


def test_descents():
    assert descents((2, 1, 0)) == [1, 2]
    assert descents((0, 1, 2)) == []
    assert descents((0, 2, 1)) == [2]
    assert descents(()) == []


def test_inversions():
    assert inversions((2, 1, 0)) == 3
    assert inversions((0, 1, 2)) == 0


def test_swap_reduce_examples(f32, abelian):
    # cba at position 2: cab - c[a,b]
    assert swap_reduce_at(f32, (2, 1, 0), 2).terms == {(2, 0, 1): 1, (2, 3): -1}
    # cba at position 1: bca - [b,c]a
    assert swap_reduce_at(f32, (2, 1, 0), 1).terms == {(1, 2, 0): 1, (5, 0): -1}
    assert swap_reduce_at(abelian, (1, 0), 1).terms == {(0, 1): 1}


def swapped_word(w, p):
    return w[: p - 1] + (w[p], w[p - 1]) + w[p + 1 :]


def test_one_swap_removes_exactly_one_inversion(f32):
    # the argument that replaced the per-step recount in swap_reduce_at
    rng = random.Random(5)
    words = list(all_words(3, 6))
    words += [tuple(rng.randrange(f32.dim) for _ in range(n))
              for n in range(2, 61) for _ in range(5)]
    for w in words:
        for p in descents(w):
            step = swap_reduce_at(f32, w, p).terms
            [swapped] = [v for v in step if len(v) == len(w)]
            assert swapped == swapped_word(w, p) and step[swapped] == 1
            assert inversions(swapped) == inversions(w) - 1, (w, p)


@pytest.mark.parametrize("name", JACOBI_FIXTURES + ["bad"])
def test_swap_reduce_matches_the_public_construction(name):
    L = load_fixture(name)
    for w in all_words(L.dim, 4):
        for p in descents(w):
            step = swap_reduce_at(L, w, p)
            x, y = w[p - 1], w[p]
            assert step == monomial(L, swapped_word(w, p)) + \
                bracket_in_context(L, w[: p - 1], x, y, w[p + 1 :]), (w, p)
            assert all(type(c) is Fraction and c for c in step.terms.values())


def test_swap_reduce_errors(f32):
    with pytest.raises(ValueError, match="not a descent"):
        swap_reduce_at(f32, (0, 1), 1)
    with pytest.raises(IndexError):
        swap_reduce_at(f32, (1, 0), 2)
    with pytest.raises(IndexError):
        swap_reduce_at(f32, (1, 0), 0)
    for word in [(7, 0), (3, -1), (0, 9, 2)]:  # out-of-range letters
        with pytest.raises(IndexError):
            swap_reduce_at(f32, word, descents(word)[0])


def test_normalize_three_letter_reversal(f32):
    # cba -> abc - aw - bv - cu under either strategy
    expected = TensorElement(
        f32, {(0, 1, 2): 1, (0, 5): -1, (1, 4): -1, (2, 3): -1})
    for strategy in Strategy:
        assert normalize(f32, monomial(f32, (2, 1, 0)), strategy) == expected


def test_normalize_already_canonical(f42):
    x = monomial(f42, (0, 1, 2))
    assert normalize(f42, x) == x


def test_normalize_sl2_fe(sl2):
    # fe = ef + [f, e] = ef - h
    assert normalize(sl2, monomial(sl2, (1, 0))).terms == {(0, 1): 1, (2,): -1}


def test_normalize_heisenberg(heisenberg):
    assert normalize(heisenberg, monomial(heisenberg, (1, 0))).terms == \
        {(0, 1): 1, (2,): -1}


def test_normalize_result_is_canonical(f42):
    rng = random.Random(3)
    for _ in range(40):
        w = tuple(rng.randrange(f42.dim) for _ in range(rng.randint(0, 5)))
        assert is_canonical(normalize(f42, monomial(f42, w)))


def test_normalize_idempotent(f32, bad):
    rng = random.Random(5)
    for L in (f32, bad):
        for _ in range(30):
            terms = {
                tuple(rng.randrange(6) for _ in range(rng.randint(0, 4))):
                    Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            }
            nf = normalize(L, TensorElement(L, terms))
            assert normalize(L, nf) == nf


def test_normalize_linear(f32):
    x = monomial(f32, (2, 1, 0))
    y = monomial(f32, (1, 0), 3)
    lhs = normalize(f32, add(x, y))
    assert lhs == add(normalize(f32, x), normalize(f32, y))
    assert normalize(f32, scale(Fraction(-1, 2), x)) == \
        scale(Fraction(-1, 2), normalize(f32, x))


@pytest.mark.parametrize("name", ["abelian3", "heisenberg", "sl2"])
def test_strategy_independence_exhaustive(name):
    L = load_fixture(name)
    for w in all_words(L.dim, 4):
        x = monomial(L, w)
        assert normalize(L, x, Strategy.LEFTMOST) == normalize(L, x, Strategy.RIGHTMOST)


def test_strategy_independence_f32(f32):
    for w in all_words(f32.dim, 3):
        x = monomial(f32, w)
        assert normalize(f32, x, Strategy.LEFTMOST) == \
            normalize(f32, x, Strategy.RIGHTMOST)


@pytest.mark.parametrize("name", ["abelian3", "heisenberg", "sl2", "f32"])
def test_step_soundness(name):
    # rewriting one redex never changes the normal form (Jacobi tables)
    L = load_fixture(name)
    max_len = 4 if L.dim <= 3 else 3
    for w in all_words(L.dim, max_len):
        x = monomial(L, w)
        nf = normalize(L, x)
        for p in descents(w):
            for strategy in Strategy:
                assert normalize(L, swap_reduce_at(L, w, p), strategy) == nf


def test_trace_reports_each_step(f32):
    steps = []
    normalize(f32, monomial(f32, (2, 1, 0)),
              trace=lambda w, p, repl: steps.append((w, p)))
    assert steps[0] == ((2, 1, 0), 1)
    assert len(steps) == 5


def reference_normalize(L, x, strategy):
    """The redex rule `normalize` must follow, as a plain rescan of every
    term per step: highest degree, then first in printing order."""
    steps = []
    cur = x
    while True:
        best = None
        for w in cur.terms:
            if not descents(w):
                continue
            if best is None or len(w) > len(best) or (len(w) == len(best) and w < best):
                best = w
        if best is None:
            return cur, steps
        ps = descents(best)
        p = ps[0] if strategy is Strategy.LEFTMOST else ps[-1]
        c = cur.terms[best]
        repl = c * swap_reduce_at(L, best, p)
        steps.append((best, p, repl))
        cur = (cur - monomial(L, best, c)) + repl


@pytest.mark.parametrize("name", ["f42", "sl2", "bad"])
def test_normalize_follows_the_reference_redex_order(name):
    L = load_fixture(name)
    rng = random.Random(name)
    cancelling = 0
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, 6)))
            terms[w] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        w = tuple(rng.randrange(L.dim) for _ in range(rng.randint(2, 6)))
        if descents(w):
            # w and minus its swap at one descent: one rewrite order cancels them
            p = rng.choice(descents(w))
            swapped = w[:p - 1] + (w[p], w[p - 1]) + w[p + 1:]
            c = Fraction(rng.randint(1, 3))
            terms[w] = c
            terms[swapped] = -c
            cancelling += 1
        x = TensorElement(L, terms)
        for strategy in Strategy:
            steps = []
            nf = normalize(L, x, strategy, trace=lambda *step: steps.append(step))
            assert (nf, steps) == reference_normalize(L, x, strategy)
    assert cancelling >= 10


def test_normalize_rejects_foreign_element(f32, sl2):
    with pytest.raises(ValueError, match="different presentation"):
        normalize(sl2, monomial(f32, (0,)))


def test_all_ways_singleton_matches_normalize(f32):
    forms = normalize_all_ways(f32, (2, 1, 0))
    assert forms == {normalize(f32, monomial(f32, (2, 1, 0)))}


def test_all_ways_abelian_sorts(abelian):
    forms = normalize_all_ways(abelian, (2, 1, 0))
    assert forms == {monomial(abelian, (0, 1, 2))}


def test_all_ways_bad_table_two_forms(bad):
    forms = normalize_all_ways(bad, (2, 1, 0))
    assert len(forms) == 2
    f1, f2 = sorted(forms, key=lambda f: len(f.terms))
    # the two reduction orders disagree by the Jacobi defect {a: 1}
    assert (f2 - f1).terms == {(0,): 1}


def test_all_ways_long_word_is_not_limited_by_recursion(abelian):
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(150)
        forms = normalize_all_ways(abelian, (1,) + (0,) * 250)
    finally:
        sys.setrecursionlimit(old)
    assert forms == {monomial(abelian, (0,) * 250 + (1,))}


def test_all_ways_budget(bad):
    with pytest.raises(SearchBudgetExceeded):
        normalize_all_ways(bad, (2, 1, 0), max_results=2)


def test_all_ways_shared_memo(f32):
    memo = {}
    first = normalize_all_ways(f32, (2, 1, 0), memo=memo)
    again = normalize_all_ways(f32, (2, 1, 0), memo=memo)
    assert first == again


def test_all_ways_shared_memo_keeps_both_bad_forms(bad):
    # memo states of one word set with different coefficients share a hash
    memo = {}
    for w in all_words(bad.dim, 3):
        normalize_all_ways(bad, w, memo=memo)
    assert len(normalize_all_ways(bad, (2, 1, 0), memo=memo)) == 2
    assert normalize_all_ways(bad, (2, 1, 0), memo=memo) == normalize_all_ways(bad, (2, 1, 0))


@pytest.mark.parametrize("name", JACOBI_FIXTURES + ["bad"])
def test_confluence_iff_jacobi(name):
    # words up to length 3 here; the acceptance suite pushes to length 4
    L = load_fixture(name)
    memo = {}
    confluent = all(
        len(normalize_all_ways(L, w, memo=memo)) == 1
        for w in all_words(L.dim, 3)
    )
    assert confluent == (check_jacobi(L) == [])
