import gc
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import pbw.normalizer
from pbw.coxeter import random_identity_loop
from pbw.holonomy import transport_loop
from pbw.normalizer import (SearchBudgetExceeded, Strategy, _product, _rewrite, descents,
                            normalize, normalize_all_ways, swap_reduce_at, transport)
from pbw.presentation import LiePresentation, check_jacobi, jacobi_defect, serialize_presentation
from pbw.tensor import TensorElement, monomial

import small_scope
from conftest import (ALL_FIXTURES, ALL_TABLES, JACOBI_FIXTURES, all_words, check_product,
                      load_fixture, load_table, random_tables, recursion_limit,
                      small_scope_tables)


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


@pytest.mark.parametrize("name", ALL_TABLES)
def test_swap_reduce_matches_the_public_construction(name):
    L = load_table(name)
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
    with pytest.raises(IndexError, match="position 1.0"):
        swap_reduce_at(f32, (2, 1, 0), 1.0)
    # letters are checked before the descent test
    with pytest.raises(IndexError, match="basis index 9"):
        swap_reduce_at(f32, (0, 9), 1)
    for word in [(7, 0), (3, -1), (0, 9, 2), (2.5, 0)]:  # letters that are not basis indices
        with pytest.raises(IndexError):
            swap_reduce_at(f32, word, descents(word)[0])


def test_normalize_heisenberg(heisenberg):
    assert normalize(heisenberg, monomial(heisenberg, (1, 0))).terms == \
        {(0, 1): 1, (2,): -1}


def random_element(L, rng, max_len):
    """One to three seeded words of at most `max_len` letters, with
    coefficients ±1, ±2 or ±3 over 1, 2 or 3."""
    return TensorElement(L, {tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, max_len))):
                             Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3))})


# seeded tables beside the fixtures, for properties that hold on any table
PROPERTY_TABLES = list(random_tables(random.Random("properties"), 40, alternate=True))


def test_normalize_idempotent(f32, bad):
    rng = random.Random(5)
    for L in (f32, bad):
        for _ in range(30):
            nf = normalize(L, random_element(L, rng, 4))
            assert normalize(L, nf) == nf
    rng = random.Random("idempotent")
    for L in PROPERTY_TABLES:
        for strategy in Strategy:
            nf = normalize(L, random_element(L, rng, 6), strategy)
            assert normalize(L, nf, strategy) == nf, serialize_presentation(L)


def test_normalize_linear(f32):
    x = monomial(f32, (2, 1, 0))
    y = monomial(f32, (1, 0), 3)
    lhs = normalize(f32, x + y)
    assert lhs == normalize(f32, x) + normalize(f32, y)
    assert normalize(f32, Fraction(-1, 2) * x) == Fraction(-1, 2) * normalize(f32, x)
    # each word has one rewrite under a fixed strategy, so normalize is
    # linear on a table that fails Jacobi too
    rng = random.Random("linear")
    for L in PROPERTY_TABLES:
        x, y = random_element(L, rng, 6), random_element(L, rng, 6)
        c = Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 3))
        for strategy in Strategy:
            lhs = normalize(L, x + c * y, strategy)
            assert lhs == normalize(L, x, strategy) + c * normalize(L, y, strategy), \
                serialize_presentation(L)


@pytest.mark.parametrize("name", ["abelian3", "heisenberg", "sl2", "f32"])
def test_step_soundness(name):
    # rewriting one redex never changes the normal form (Jacobi tables)
    L = load_fixture(name)
    max_len = 4 if L.dim <= 3 else 3
    for w in all_words(L.dim, max_len):
        nf = _rewrite(L, monomial(L, w), Strategy.LEFTMOST, None)
        for p in descents(w):
            for strategy in Strategy:
                assert _rewrite(L, swap_reduce_at(L, w, p), strategy, None) == nf


def cancelling_element(L, rng):
    """A `random_element` plus c·w - c·(one rewrite step of w), whose normal
    form is zero, so terms cancel on the way."""
    x = random_element(L, rng, 6)
    w = tuple(rng.randrange(L.dim) for _ in range(rng.randint(2, 6)))
    if descents(w):
        c = Fraction(rng.randint(1, 3))
        x = x + monomial(L, w, c) - c * swap_reduce_at(L, w, rng.choice(descents(w)))
    return x


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_closed_letters(name):
    # x is closed when the letters >= x span a subalgebra: every letter of
    # a Lie fixture, and in bad, whose bracket c u = a opens b and c, the rest
    L = load_fixture(name)
    assert L._closed is None
    _product(L, TensorElement(L))
    closed = "a u v w" if name == "bad" else " ".join(L.names)
    assert L._closed == {L.index(nm) for nm in closed.split()}


def spy_tables(monkeypatch):
    """A list that gets (brackets, table) of each `_product` call's table."""
    seen = []
    times = pbw.normalizer._times

    def spy(brackets, table, *rest):
        if not seen or seen[-1][1] is not table:
            seen.append((brackets, table))
        return times(brackets, table, *rest)
    monkeypatch.setattr(pbw.normalizer, "_times", spy)
    return seen


def permuted(L, sigma):
    """L re-presented with basis index k moved to sigma[k]: a pair that lands
    as i > j is stored negated under (j, i)."""
    names = [None] * L.dim
    for k, nm in enumerate(L.names):
        names[sigma[k]] = nm
    constants = {}
    for (i, j), vec in L.constants.items():
        vec = {sigma[k]: c for k, c in vec.items()}
        i, j = sigma[i], sigma[j]
        constants[(i, j) if i < j else (j, i)] = vec if i < j else {k: -c for k, c in vec.items()}
    return LiePresentation(names, constants)


def test_normalize_is_invariant_under_a_change_of_basis_order():
    # the renamed x and the renamed normalize(x) are the same element of the
    # enveloping algebra, so normalize in the permuted presentation must give
    # them one normal form: 400 checks, words up to 20 letters, far past the
    # oracle's 4
    rng = random.Random("basis-order")
    for name in JACOBI_FIXTURES:
        L = load_fixture(name)
        for _ in range(4):
            sigma = list(range(L.dim))
            while sigma == sorted(sigma):
                rng.shuffle(sigma)
            P = permuted(L, sigma)
            for _ in range(20):
                x = random_element(L, rng, 20)
                renamed = [TensorElement(P, {tuple(sigma[t] for t in w): c
                                             for w, c in y.terms.items()})
                           for y in (x, normalize(L, x))]
                assert normalize(P, renamed[0]) == normalize(P, renamed[1]), x


def test_product_table_work_on_f42(f42, monkeypatch):
    # d c b a x 6: a letter stores no product for the commuting letters it
    # passes, and a closed letter none for the letters at or below it that
    # m starts with, so the table holds 11,087 entries and 31,940 terms
    # (14,807 and 42,462 keyed by the whole of m; 97,979 entries when every
    # suffix of m had one) for the 3,616 terms of the result
    seen = spy_tables(monkeypatch)
    nf = normalize(f42, monomial(f42, (3, 2, 1, 0) * 6))
    assert len(nf.terms) == 3616
    [(_, table)] = seen
    assert (len(table), sum(map(len, table.values()))) == (11_087, 31_940)


def test_product_table_is_freed_on_memory_error(f42, monkeypatch):
    # a MemoryError raised at any of the 65 sums of one call, inside a
    # frame or at the add into the output, leaves the call's table empty
    seen = spy_tables(monkeypatch)
    x = monomial(f42, (3, 2, 1, 0) * 2) + 2 * monomial(f42, (2, 1, 0, 3))
    add = pbw.normalizer._add_scaled
    calls = []
    monkeypatch.setattr(pbw.normalizer, "_add_scaled", lambda *args: calls.append(1) or add(*args))
    _product(f42, x)
    assert len(calls) == 65
    seen.clear()
    held = []  # table entries when the error is raised
    for k in range(len(calls)):
        def fail(*args, k=k, n=itertools.count()):
            if next(n) == k:
                held.append(sum(len(table) for _, table in seen))
                raise MemoryError
            add(*args)
        monkeypatch.setattr(pbw.normalizer, "_add_scaled", fail)
        with pytest.raises(MemoryError):
            _product(f42, x)
    assert len(held) == 65 and all(held)
    assert not any(table for _, table in seen)


def mixed_element(L, rng, k):
    """The empty word, one-letter words, canonical words and words with a
    descent, with integral and non-integral `Fraction` coefficients in
    turn, offset by k so that each kind of word gets each."""
    def word(lo, hi):
        return tuple(rng.randrange(L.dim) for _ in range(rng.randint(lo, hi)))
    words = [(), word(1, 1), word(1, 1), tuple(sorted(word(2, 6))), tuple(sorted(word(2, 6)))]
    while len(words) < 9:
        w = word(2, 7)
        words += [w] if descents(w) else []
    coefficients = (lambda: Fraction(rng.choice((-3, -1, 2, 5))),
                    lambda: Fraction(rng.choice((-3, 1, 5)), rng.choice((2, 3, 4))))
    return TensorElement._own(L, {w: coefficients[(i + k) % 2]() for i, w in enumerate(words)})


# no fixture has a non-integral structure constant, so the Fraction
# fallbacks of the product table are exercised on sl2-half's 1/2
LIE_TABLES = JACOBI_FIXTURES + ["sl2-half"]


@pytest.mark.parametrize("name", LIE_TABLES)
def test_product_table_matches_rewriter(name):
    # every short word, 240 seeded words and 40 elements whose terms cancel
    L = load_table(name)
    rng = random.Random(name)
    xs = [monomial(L, w) for w in all_words(L.dim, 4 if L.dim <= 3 else 3)]
    xs += [monomial(L, tuple(rng.randrange(L.dim) for _ in range(rng.randint(0, 9))))
           for _ in range(240)]
    check_product(L, xs + [cancelling_element(L, rng) for _ in range(40)])


@pytest.mark.parametrize("name", LIE_TABLES)
def test_product_table_on_mixed_words_and_coefficient_types(name):
    L = load_table(name)
    rng = random.Random(f"mixed-{name}")
    xs = [mixed_element(L, rng, k) for k in range(30)]
    # integral input coefficients alone still give Fractions
    check_product(L, xs + [TensorElement._own(L, {(0,): Fraction(3), (): Fraction(-1)})])


def test_product_table_on_holonomy_remainders(f42):
    # a remainder of d c b a d c b a holds integral Fractions and
    # normalizes to zero on a Lie table; the part on its first half of
    # words does not
    rng = random.Random("remainders")
    nonzero = 0
    for _ in range(12):
        rem = transport_loop(f42, (3, 2, 1, 0) * 2, random_identity_loop(8, 24, rng))
        assert all(type(c) is Fraction and c.denominator == 1 for c in rem.terms.values())
        half = TensorElement._own(f42, dict(list(rem.terms.items())[:len(rem.terms) // 2]))
        [(whole, _), (part, _), _] = check_product(f42, [rem, half, Fraction(1, 3) * half])
        assert not whole
        nonzero += bool(part)
    assert nonzero >= 10


def test_product_table_equals_the_rewriter_on_a_slice_of_every_small_table():
    # every 64th dim-3 table with constants in {-1, 0, 1}, through the
    # check that small_scope.py runs on all 19,683 of them in CI
    tables = list(small_scope_tables(64))
    for L in tables:
        small_scope.check_table(L)
    assert len(tables) == 308
    # Lie and not, and with a letter open and every letter closed
    assert sum(not check_jacobi(L) for L in tables) == 14
    assert sum(len(L._closed) < 3 for L in tables) == 227


def test_product_table_equals_the_rewriter_on_any_antisymmetric_table(monkeypatch):
    # the product table follows LEFTMOST on every table, Lie or not, at
    # closed letters, where a request m·x is split, and at open ones
    splits = []
    split = pbw.normalizer.bisect_right
    monkeypatch.setattr(pbw.normalizer, "bisect_right",
                        lambda *args: splits.append(args) or split(*args))
    rng = random.Random("any-table")
    non_lie = differ = opened = 0
    for L in random_tables(rng, 100):
        forms = check_product(L, [random_element(L, rng, 8) for _ in range(8)])
        non_lie += bool(check_jacobi(L))
        differ += sum(left != right for left, right in forms)
        opened += len(L._closed) < L.dim
    # 59 tables fail Jacobi, the strategies disagree on 137 elements and 42
    # tables open a letter; in L and its mirror, which RIGHTMOST is held
    # to, 3,854 requests are split
    assert non_lie >= 40 and differ >= 100
    assert opened >= 30 and len(splits) >= 2000


def test_product_table_equals_the_rewriter_on_mostly_commuting_tables(monkeypatch):
    # with most brackets zero, x passes runs of letters that commute with
    # it: a frame waits for m0·x and then runs one commuting stage per
    # letter of the rest of m, and only m·x itself is stored
    seen = spy_tables(monkeypatch)
    rng = random.Random("mostly-commuting")
    non_lie = 0
    for L in random_tables(rng, 40):
        check_product(L, [random_element(L, rng, 9) for _ in range(8)])
        non_lie += bool(check_jacobi(L))
    # stored m·x whose m ends in at least two letters above x that commute with it
    stages = sum(len(m) > 2 and all(t > x and (t, x) not in brackets for t in m[-2:])
                 for brackets, table in seen for m, x in table)
    # 23 tables fail Jacobi, and 233 stored products end in such stages
    assert non_lie >= 15 and stages >= 200


@pytest.mark.parametrize("name", ALL_FIXTURES)
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
    with recursion_limit(150):
        nf = normalize(sl2, monomial(sl2, (2,) * k + (0,)))
        sorted_abelian = normalize(abelian, monomial(abelian, (1,) + (0,) * 250))
    assert nf == TensorElement(sl2, {(0,) + (2,) * j: math.comb(k, j) * 2 ** (k - j)
                                     for j in range(k + 1)})
    assert sorted_abelian == monomial(abelian, (0,) * 250 + (1,))


def test_commuting_pass_is_not_limited_by_recursion(f42):
    # b u6^250 a: a passes 250 central letters in one frame's commuting
    # stages, then b, with [b, a] = -u1
    x = monomial(f42, (1,) + (9,) * 250 + (0,))
    expected = _rewrite(f42, x, Strategy.LEFTMOST, None)
    with recursion_limit(150):
        nf = normalize(f42, x)
    assert nf == expected == TensorElement(f42, {(0, 1) + (9,) * 250: 1, (4,) + (9,) * 250: -1})


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


@pytest.mark.parametrize("name", ["f42", "sl2", "bad", "sl2-half", "bad-third"])
def test_normalize_follows_the_reference_redex_order(name):
    L = load_table(name)
    rng = random.Random(name)
    cancelling = 0
    for _ in range(40):
        x = random_element(L, rng, 6)
        w = tuple(rng.randrange(L.dim) for _ in range(rng.randint(2, 6)))
        if descents(w):
            # w and minus its swap at one descent: one rewrite order cancels them
            c = Fraction(rng.randint(1, 3))
            x = x + TensorElement(L, {w: c, swapped_word(w, rng.choice(descents(w))): -c})
            cancelling += 1
        for strategy in Strategy:
            steps = []
            nf = normalize(L, x, strategy, trace=lambda *step: steps.append(step))
            assert (nf, steps) == reference_normalize(L, x, strategy)
            assert all(type(c) is Fraction and c for c in nf.terms.values()), x
    assert cancelling >= 10


def test_normalize_rejects_foreign_element(f32, sl2, bad):
    with pytest.raises(ValueError, match="different presentation"):
        normalize(sl2, monomial(f32, (0,)))
    # a strategy that is not a `Strategy` member is refused, not read as RIGHTMOST
    for strategy in ["leftmost", "rightmost", 0, None]:
        with pytest.raises(TypeError) as e:
            normalize(bad, monomial(bad, (2, 1, 0)), strategy)
        assert str(e.value) == f"strategy must be a Strategy, not {strategy!r}"


def test_all_ways_bad_table_two_forms(bad):
    forms = normalize_all_ways(bad, (2, 1, 0))
    assert len(forms) == 2
    f1, f2 = sorted(forms, key=lambda f: len(f.terms))
    # the two reduction orders disagree by the Jacobi defect {a: 1}
    assert (f2 - f1).terms == {(0,): 1}


def test_all_ways_long_word_is_not_limited_by_recursion(abelian):
    with recursion_limit(150):
        forms = normalize_all_ways(abelian, (1,) + (0,) * 250)
    assert forms == {monomial(abelian, (0,) * 250 + (1,))}


def test_all_ways_shared_memo(f32):
    # the result is the memo's own frozenset, so a hit copies nothing
    memo = {}
    first = normalize_all_ways(f32, (2, 1, 0), memo=memo)
    again = normalize_all_ways(f32, (2, 1, 0), memo=memo)
    assert type(first) is frozenset
    assert again is first is memo[(bytes((2, 1, 0)), 1)]


def test_all_ways_rejects_out_of_range_word(f32):
    memo = {}
    for w in all_words(f32.dim, 2):
        normalize_all_ways(f32, w, memo=memo)
    # (1, 0.0) equals the stored word (1, 0), but `bytes` refuses its float
    # letter, so it misses the memo like a letter out of range
    for w in [(6,), (2, -1), (0, 1, 6), (0, 1.5), (1, 0.0)]:
        with pytest.raises(IndexError, match="out of range"):
            normalize_all_ways(f32, w, memo=memo)


def test_all_ways_letter_limit():
    # the oracle holds one letter per byte, so 256 basis elements at most
    names = [f"x{i}" for i in range(257)]
    L = LiePresentation(names[:256], {})
    assert normalize_all_ways(L, (255, 0)) == {monomial(L, (0, 255))}
    big, memo = LiePresentation(names, {}), {}
    for w in [(255, 0), (256, 0)]:
        with pytest.raises(ValueError, match="at most 256 basis elements, not 257"):
            normalize_all_ways(big, w, memo=memo)
    with pytest.raises(IndexError, match="out of range"):
        normalize_all_ways(big, (257, 0), memo=memo)
    assert memo == {}


def test_all_ways_shared_memo_keeps_both_bad_forms(bad):
    # states of one word set that differ only in their coefficients are
    # different memo keys, so each keeps its own forms
    memo = {}
    for w in all_words(bad.dim, 3):
        normalize_all_ways(bad, w, memo=memo)
    assert len(normalize_all_ways(bad, (2, 1, 0), memo=memo)) == 2
    assert normalize_all_ways(bad, (2, 1, 0), memo=memo) == normalize_all_ways(bad, (2, 1, 0))


def test_all_ways_memo_rejects_another_presentation(f32, bad):
    # memo keys are flat tuples of `bytes` words and coefficients, so only
    # the presentation of a stored form keeps another table's states out
    memo = {}
    words = list(all_words(f32.dim, 3))
    forms = {w: normalize_all_ways(f32, w, memo=memo) for w in words}
    size = len(memo)
    with pytest.raises(ValueError, match="different presentation"):
        normalize_all_ways(bad, (2, 1, 0), memo=memo)
    assert len(memo) == size
    # an equal presentation parsed apart shares the memo: every word hits
    again = load_fixture("f32")
    assert again is not f32 and again == f32
    assert {w: normalize_all_ways(again, w, memo=memo) for w in words} == forms
    assert len(memo) == size


@pytest.mark.parametrize("name", ["f32", "bad"])
def test_all_ways_memo_does_not_depend_on_word_order(name):
    # a key lists a state's words sorted, so one state reached along
    # different paths, in whatever order, is one memo entry
    L = load_fixture(name)
    words = list(all_words(L.dim, 3))
    shuffled = random.Random(name).sample(words, len(words))
    runs = []
    for order in (words, shuffled):
        memo = {}
        forms = {w: normalize_all_ways(L, w, memo=memo) for w in order}
        runs.append((len(memo), forms))
    assert runs[0] == runs[1]


def test_all_ways_memo_is_compact(f32):
    # each state costs its key, one flat tuple of sorted words and their
    # coefficients: no element or dict per state.  Bytes are counted over
    # every object the keys reach, each once, up to the presentation
    memo = {}
    for w in all_words(f32.dim, 4):
        normalize_all_ways(f32, w, memo=memo)
    seen, todo, size = {id(f32)}, list(memo), 0
    while todo:
        o = todo.pop()
        if id(o) not in seen and not isinstance(o, type):
            seen.add(id(o))
            size += sys.getsizeof(o)
            todo += gc.get_referents(o)
    assert size / len(memo) < 200


def test_all_ways_memo_keys_are_well_formed(sl2):
    # each successor's key is merged from its parent's: a word merged twice
    # or kept at coefficient 0 would leave a key that is not a state's
    # strictly ascending words followed by their nonzero coefficients
    def keys(L, words):
        memo = {}
        for w in words:
            normalize_all_ways(L, w, memo=memo)
        for key in memo:
            n, odd = divmod(len(key), 2)
            assert not odd, key
            assert all(type(v) is bytes for v in key[:n]), key
            assert all(u < v for u, v in zip(key[:n], key[1:n])), key
            assert all(type(c) in (int, Fraction) and c for c in key[n:]), key
        return set(memo)

    # h e f -> e h f + 2·e f -> e f h: the step at h f cancels 2·e f
    e, f, h = (bytes((k,)) for k in range(3))
    assert keys(sl2, [(2, 0, 1)]) == {(h + e + f, 1), (e + f, e + h + f, 2, 1), (e + f + h, 1)}
    keys(sl2, all_words(sl2.dim, 4))
    for L in random_tables(random.Random("well-formed keys"), 40, alternate=True):
        keys(L, all_words(L.dim, 3))


def test_all_ways_fractional_lie_table_is_confluent():
    L = load_table("sl2-half")
    assert check_jacobi(L) == []
    memo = {}
    for w in all_words(L.dim, 4):
        forms = normalize_all_ways(L, w, memo=memo)
        assert forms == {normalize(L, monomial(L, w))}, w
        assert all(type(c) is Fraction for f in forms for c in f.terms.values()), w


def test_lie_view_is_built_once(monkeypatch):
    calls = []
    monkeypatch.setattr(pbw.normalizer, "check_jacobi",
                        lambda L: calls.append(L) or check_jacobi(L))
    # the route each table takes is checked by
    # test_only_the_rewriter_route_makes_rewrite_steps
    rng = random.Random(0)

    def words(L, count):
        return [monomial(L, tuple(rng.randrange(L.dim) for _ in range(rng.randint(2, 6))))
                for _ in range(count)]

    f42 = load_fixture("f42")
    for x in words(f42, 50):
        normalize(f42, x)
    assert calls == [f42]

    bad = load_fixture("bad")
    for x in words(bad, 20):
        normalize(bad, x)
    assert calls == [f42, bad] and bad._lie is False

    # an empty bracket table is Lie: its view is {}, and its verdict True
    abelian = load_fixture("abelian3")
    for x in words(abelian, 20):
        normalize(abelian, x)
    assert calls == [f42, bad, abelian]
    assert abelian._signed == {} and abelian._lie is True


def test_all_ways_fractional_bad_table_differs_by_jacobi_defect():
    L = load_table("bad-third")
    forms = normalize_all_ways(L, (2, 1, 0))
    assert len(forms) == 2
    assert all(type(c) is Fraction for f in forms for c in f.terms.values())
    f1, f2 = forms
    defect = {(k,): c for k, c in jacobi_defect(L, 0, 1, 2).items()}
    assert Fraction(1, 3) in map(abs, defect.values())
    assert (f2 - f1).terms in (defect, {w: -c for w, c in defect.items()})


@pytest.mark.parametrize("name, states", [("f32", 7_946), ("bad", 12_452), ("sl2", 1_907),
                                          ("f42", 57_734)])
def test_all_ways_memo_size(name, states):
    # the number of states the search visits on all words of length <= 4,
    # so a faster oracle cannot silently explore less
    L = load_fixture(name)
    memo = {}
    for w in all_words(L.dim, 4):
        normalize_all_ways(L, w, memo=memo)
    assert len(memo) == states


def test_all_ways_shared_memo_values_are_never_mutated():
    # memo values are frozensets shared by every state with the same forms:
    # sharing one memo must give each word its own answer, and a value
    # stored early must hold the same forms at the end
    tables = list(random_tables(random.Random("shared-forms"), 40, alternate=True))
    assert sum(check_jacobi(L) == [] for L in tables) == 20
    spread = 0
    for L in tables:
        words = list(all_words(L.dim, 3))
        memo, snapshot = {}, None
        for n, w in enumerate(words):
            forms = normalize_all_ways(L, w, memo=memo)
            assert forms == normalize_all_ways(L, w), (L, w)
            spread += len(forms) > 1
            if n == len(words) // 2:
                snapshot = {k: set(v) for k, v in memo.items()}
        assert {k: set(memo[k]) for k in snapshot} == snapshot, L
    assert spread


def test_all_ways_budget_boundary(bad, monkeypatch):
    monkeypatch.setattr(pbw.normalizer, "_MAX_STATES", 14)
    assert len(normalize_all_ways(bad, (2, 1, 0))) == 2
    monkeypatch.setattr(pbw.normalizer, "_MAX_STATES", 13)
    with pytest.raises(SearchBudgetExceeded, match="more than 13 states"):
        normalize_all_ways(bad, (2, 1, 0))


def test_trace_step_bound_boundary(f32, monkeypatch):
    # c b a makes 5 rewrite steps; an untraced call is not bounded
    x = monomial(f32, (2, 1, 0))
    steps = []
    monkeypatch.setattr(pbw.normalizer, "_MAX_TRACE_STEPS", 5)
    nf = normalize(f32, x, trace=lambda *step: steps.append(step))
    assert len(steps) == 5
    monkeypatch.setattr(pbw.normalizer, "_MAX_TRACE_STEPS", 4)
    steps.clear()
    with pytest.raises(SearchBudgetExceeded, match="after 4 rewrite steps"):
        normalize(f32, x, trace=lambda *step: steps.append(step))
    assert len(steps) == 4
    assert _rewrite(f32, x, Strategy.LEFTMOST, None) == nf


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
