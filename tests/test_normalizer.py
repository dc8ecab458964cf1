import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import pbw.normalizer
from pbw.errors import SearchBudgetExceeded
from pbw.holonomy import transport
from pbw.normalizer import (Strategy, _rewrite, descents, normalize,
                            normalize_all_ways, swap_reduce_at)
from pbw.presentation import check_jacobi, jacobi_defect, parse_presentation
from pbw.tensor import TensorElement, add, monomial, scale

from conftest import load_fixture

JACOBI_FIXTURES = ["abelian3", "heisenberg", "sl2", "f32", "f42"]


def all_words(dim, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(dim), repeat=length)


def inversions(w):
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])


def test_is_canonical(f32):
    # canonical means weakly increasing (repeats allowed): no word has a descent
    assert not any(descents(w) for w in monomial(f32, (0, 1, 2)).terms)
    assert any(descents(w) for w in monomial(f32, (2, 1, 0)).terms)
    assert not any(descents(w) for w in TensorElement(f32, {(0, 0, 1): 1, (1,): 2}).terms)
    assert not any(descents(w) for w in TensorElement(f32, {}).terms)


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
            top, rem = transport(L, w, (p,))
            assert top == swapped_word(w, p)
            assert step == monomial(L, top) + rem, (w, p)
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
        assert not any(descents(v) for v in normalize(f42, monomial(f42, w)).terms)


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


def rewrite(L, x, strategy=Strategy.LEFTMOST):
    """The rewriter route of `normalize`, which a Lie table skips without a trace."""
    return _rewrite(L, x, strategy, None)


@pytest.mark.parametrize("name", ["abelian3", "heisenberg", "sl2"])
def test_strategy_independence_exhaustive(name):
    L = load_fixture(name)
    for w in all_words(L.dim, 4):
        x = monomial(L, w)
        assert rewrite(L, x, Strategy.LEFTMOST) == rewrite(L, x, Strategy.RIGHTMOST)


def test_strategy_independence_f32(f32):
    for w in all_words(f32.dim, 3):
        x = monomial(f32, w)
        assert rewrite(f32, x, Strategy.LEFTMOST) == rewrite(f32, x, Strategy.RIGHTMOST)


@pytest.mark.parametrize("name", ["abelian3", "heisenberg", "sl2", "f32"])
def test_step_soundness(name):
    # rewriting one redex never changes the normal form (Jacobi tables)
    L = load_fixture(name)
    max_len = 4 if L.dim <= 3 else 3
    for w in all_words(L.dim, max_len):
        nf = rewrite(L, monomial(L, w))
        for p in descents(w):
            for strategy in Strategy:
                assert rewrite(L, swap_reduce_at(L, w, p), strategy) == nf


def cancelling_element(L, rng):
    """A few seeded terms plus c·w - c·(one rewrite step of w), whose normal
    form is zero, so terms cancel on the way."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, 6)))
        terms[w] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
    x = TensorElement(L, terms)
    w = tuple(rng.randrange(L.dim) for _ in range(rng.randint(2, 6)))
    if descents(w):
        c = Fraction(rng.randint(1, 3))
        x = x + monomial(L, w, c) - c * swap_reduce_at(L, w, rng.choice(descents(w)))
    return x


@pytest.mark.parametrize("name", JACOBI_FIXTURES)
def test_product_table_matches_rewriter(name):
    L = load_fixture(name)
    rng = random.Random(name)
    inputs = [monomial(L, w) for w in all_words(L.dim, 4)] if L.dim <= 3 else []
    # 240 per fixture: 1,200 seeded words over the five fixtures
    inputs += [monomial(L, tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, 9))))
               for _ in range(240)]
    inputs += [cancelling_element(L, rng) for _ in range(40)]
    for x in inputs:
        expected = rewrite(L, x)
        for strategy in Strategy:
            assert normalize(L, x, strategy) == expected, x
            assert rewrite(L, x, strategy) == expected, x


@pytest.mark.parametrize("name", JACOBI_FIXTURES + ["bad"])
def test_only_the_rewriter_route_makes_rewrite_steps(name, monkeypatch):
    L = load_fixture(name)
    x = monomial(L, tuple(reversed(range(L.dim))) * 2)
    calls = []
    step = pbw.normalizer.swap_reduce_at
    monkeypatch.setattr(pbw.normalizer, "swap_reduce_at",
                        lambda *args: calls.append(args) or step(*args))
    normalize(L, x)
    assert (len(calls) == 0) == (check_jacobi(L) == [])
    calls.clear()
    normalize(L, x, trace=lambda *step: None)
    assert calls


def test_product_table_is_not_limited_by_recursion(sl2, abelian):
    # h^k e = e (h + 2)^k: moving e left passes k letters above it
    k = 200
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(150)
        nf = normalize(sl2, monomial(sl2, (2,) * k + (0,)))
        sorted_abelian = normalize(abelian, monomial(abelian, (1,) + (0,) * 250))
    finally:
        sys.setrecursionlimit(old)
    assert nf == TensorElement(sl2, {(0,) + (2,) * j: math.comb(k, j) * 2 ** (k - j)
                                     for j in range(k + 1)})
    assert sorted_abelian == monomial(abelian, (0,) * 250 + (1,))


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


def test_all_ways_rejects_out_of_range_word(f32):
    memo = {}
    for w in all_words(f32.dim, 2):
        normalize_all_ways(f32, w, memo=memo)
    for w in [(6,), (2, -1), (0, 1, 6)]:
        with pytest.raises(IndexError, match="out of range"):
            normalize_all_ways(f32, w, memo=memo)


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


# no fixture has a non-integral structure constant, so the oracle's
# Fraction fallback is exercised on these two
SL2_HALF = """basis e f h
bracket e f = 1/2 h
bracket e h = -2 e
bracket f h = 2 f
"""
BAD_THIRD = """basis a b c u v w
bracket a b = u
bracket a c = v
bracket b c = w
bracket c u = 1/3 a
"""


def test_all_ways_fractional_lie_table_is_confluent():
    L = parse_presentation(SL2_HALF)
    assert check_jacobi(L) == []
    memo = {}
    for w in all_words(L.dim, 4):
        forms = normalize_all_ways(L, w, memo=memo)
        assert forms == {normalize(L, monomial(L, w))}, w
        assert all(type(c) is Fraction for f in forms for c in f.terms.values()), w


def test_product_table_matches_rewriter_on_fractional_constants():
    # the integral view keeps 1/2 as a Fraction next to int constants
    L = parse_presentation(SL2_HALF)
    rng = random.Random("sl2-half")
    inputs = [monomial(L, w) for w in all_words(L.dim, 4)]
    inputs += [monomial(L, tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, 9))),
                        Fraction(rng.choice((-3, 1, 2)), rng.randint(1, 3)))
               for _ in range(200)]
    inputs += [cancelling_element(L, rng) for _ in range(40)]
    for x in inputs:
        expected = rewrite(L, x)
        for strategy in Strategy:
            nf = normalize(L, x, strategy)
            assert nf == expected, x
            assert rewrite(L, x, strategy) == expected, x
            assert all(type(c) is Fraction for c in nf.terms.values()), x
    assert any(type(c) is Fraction and c.denominator > 1
               for vec in L._lie.values() for c in vec.values())


@pytest.mark.parametrize("text", [SL2_HALF, None], ids=["sl2-half", "f42"])
def test_product_table_results_hold_fractions_for_int_inputs(text):
    # `_own` adopts int coefficients as they are, so only normalize converts them
    L = parse_presentation(text) if text else load_fixture("f42")
    rng = random.Random(7)
    for _ in range(50):
        terms = {tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, 7))):
                 rng.choice((-2, -1, 1, 3)) for _ in range(rng.randint(1, 3))}
        x = TensorElement._own(L, terms)
        nf = normalize(L, x)
        assert nf == normalize(L, TensorElement(L, terms))
        assert all(type(c) is Fraction and c for c in nf.terms.values()), terms


def test_lie_view_is_built_once(monkeypatch):
    calls = []
    monkeypatch.setattr(pbw.normalizer, "check_jacobi",
                        lambda L: calls.append(L) or check_jacobi(L))
    steps = []
    step = pbw.normalizer.swap_reduce_at
    monkeypatch.setattr(pbw.normalizer, "swap_reduce_at",
                        lambda *args: steps.append(args) or step(*args))
    rng = random.Random(0)

    def words(L, count):
        return [monomial(L, tuple(rng.randrange(L.dim) for _ in range(rng.randint(2, 6))))
                for _ in range(count)]

    f42 = load_fixture("f42")
    for x in words(f42, 50):
        normalize(f42, x)
    assert calls == [f42] and not steps

    bad = load_fixture("bad")
    for x in words(bad, 20):
        steps.clear()
        normalize(bad, x + monomial(bad, (2, 1, 0)))
        assert steps
    assert calls == [f42, bad] and bad._lie is False

    # an empty bracket table is Lie: its view is {}, not "not Lie"
    abelian = load_fixture("abelian3")
    steps.clear()
    for x in words(abelian, 20):
        normalize(abelian, x)
    assert calls == [f42, bad, abelian] and abelian._lie == {} and not steps


def test_all_ways_fractional_bad_table_differs_by_jacobi_defect():
    L = parse_presentation(BAD_THIRD)
    forms = normalize_all_ways(L, (2, 1, 0))
    assert len(forms) == 2
    assert all(type(c) is Fraction for f in forms for c in f.terms.values())
    f1, f2 = forms
    defect = {(k,): c for k, c in jacobi_defect(L, 0, 1, 2).items()}
    assert Fraction(1, 3) in map(abs, defect.values())
    assert (f2 - f1).terms in (defect, {w: -c for w, c in defect.items()})


@pytest.mark.parametrize("name, states", [("f32", 7_946), ("bad", 12_452), ("sl2", 1_907)])
def test_all_ways_memo_size(name, states):
    # the number of states the search visits on all words of length <= 4,
    # so a faster oracle cannot silently explore less
    L = load_fixture(name)
    memo = {}
    for w in all_words(L.dim, 4):
        normalize_all_ways(L, w, memo=memo)
    assert len(memo) == states


def test_all_ways_budget_boundary(bad):
    assert len(normalize_all_ways(bad, (2, 1, 0), max_results=14)) == 2
    with pytest.raises(SearchBudgetExceeded, match="more than 13 states"):
        normalize_all_ways(bad, (2, 1, 0), max_results=13)


def test_all_ways_shares_no_step_code_with_the_rewriter(f32, monkeypatch):
    x = monomial(f32, (2, 1, 0))
    step = pbw.normalizer.swap_reduce_at

    def wrong_sign(L, w, p):
        # the swapped word is the only one as long as w; flip the brackets
        return TensorElement(L, {v: c if len(v) == len(w) else -c
                                 for v, c in step(L, w, p).terms.items()})

    monkeypatch.setattr(pbw.normalizer, "swap_reduce_at", wrong_sign)
    rewritten = normalize(f32, x, trace=lambda *step: None)
    forms = normalize_all_ways(f32, (2, 1, 0))
    assert forms == {normalize(f32, x)}
    assert rewritten not in forms
