import copy
import functools
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from pbw.coxeter import (BRAID, CANCEL, COMMUTE, CellType, GeneratorWord,
                         Move, MoveError, _right_maps, codim2_census,
                         codim2_census_by_cosets, contract_loop, evaluate,
                         is_identity_loop, random_identity_loop, replay)
from pbw.geometry import render_svg

import contract_bound
from conftest import recursion_limit, run_limited
from excursions import loop_from_arrangements, sample_excursion_s4


def list_walk(n, letters):
    """`evaluate` as a walk over a list of all n slots."""
    perm = list(range(n))
    for p in letters:
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    return tuple(perm)


def test_evaluate_equals_the_list_walk():
    # evaluate reads the slots the letters move off `_moved` and leaves the
    # rest in place; the reference swaps in a list of every slot
    rng = random.Random("evaluate")
    assert evaluate(GeneratorWord(1)) == list_walk(1, ()) == (0,)
    for n in range(2, 13):
        for _ in range(200):
            letters = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 3 * n))]
            assert evaluate(GeneratorWord(n, letters)) == list_walk(n, letters), (n, letters)


def test_generator_word_validation():
    # letters and n that are not ints are named, not left to a TypeError later
    for args, message in [
        ((0,), "need an int n >= 1, got n=0"),
        ((2.5,), "need an int n >= 1, got n=2.5"),
        ((3, (3,)), "generator index 3 is not an int in 1..2 for n=3"),
        ((3, (1, 0)), "generator index 0 is not an int in 1..2 for n=3"),
        ((3, (1.0, 1.0)), "generator index 1.0 is not an int in 1..2 for n=3"),
        ((3, ("1",)), "generator index '1' is not an int in 1..2 for n=3"),
    ]:
        with pytest.raises(ValueError) as e:
            GeneratorWord(*args)
        assert str(e.value) == message
    assert GeneratorWord(3, (True, True)).letters == (1, 1)  # bools are ints
    # namedtuple's `_make`, and `_replace` through it, would skip the check
    g = GeneratorWord(3, (1, 2))
    for make, message in [
        (lambda: GeneratorWord._make((3, (0, 0))), "generator index 0 is not an int in 1..2 for n=3"),
        (lambda: g._replace(letters=(0, 0)), "generator index 0 is not an int in 1..2 for n=3"),
        (lambda: g._replace(n=2), "generator index 2 is not an int in 1..1 for n=2"),
        (lambda: g._replace(n=2.5), "need an int n >= 1, got n=2.5"),
    ]:
        with pytest.raises(ValueError) as e:
            make()
        assert str(e.value) == message
    assert GeneratorWord._make((3, [2, 1])) == g._replace(letters=(2, 1)) == GeneratorWord(3, (2, 1))
    assert copy.copy(g) == pickle.loads(pickle.dumps(g)) == g


def test_records_are_immutable_values():
    g = GeneratorWord(3, [1, 2])
    assert g.letters == (1, 2)  # any iterable, kept as a tuple
    assert repr(g) == "GeneratorWord(n=3, letters=(1, 2))"
    assert g == GeneratorWord(n=3, letters=(1, 2))
    assert hash(g) == hash(GeneratorWord(3, iter((1, 2))))
    assert g != GeneratorWord(4, (1, 2)) and g != GeneratorWord(3, (2, 1))
    assert repr(GeneratorWord(2)) == "GeneratorWord(n=2, letters=())"
    m = Move(CANCEL, 1)
    assert repr(m) == "Move(kind='cancel', pos=1)" and str(m) == "cancel@1"
    assert m == Move(kind="cancel", pos=1) and hash(m) == hash(Move(CANCEL, 1))
    assert m != Move(CANCEL, 2) and m != Move(COMMUTE, 1)
    for record, field in [(g, "n"), (g, "letters"), (g, "other"), (m, "kind"), (m, "pos")]:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    assert (g.n, g.letters, m.pos) == (3, (1, 2), 1)


def test_apply_move_examples():
    assert replay(GeneratorWord(2, (1, 1)), [Move(CANCEL, 1)]).letters == ()
    assert replay(GeneratorWord(4, (1, 3)), [Move(COMMUTE, 1)]).letters == (3, 1)
    assert replay(GeneratorWord(3, (1, 2, 1)), [Move(BRAID, 1)]).letters == (2, 1, 2)
    assert replay(GeneratorWord(3, (2, 1, 2)), [Move(BRAID, 1)]).letters == (1, 2, 1)


# (word, move) -> replay's full message for that one-move certificate on n = 4
INAPPLICABLE = {
    ((1, 2), Move(CANCEL, 1)): "step 1: cancel@1 not applicable to (1, 2)",
    ((1, 2), Move(COMMUTE, 1)): "step 1: commute@1 not applicable to (1, 2)",
    ((1, 2, 2), Move(BRAID, 1)): "step 1: braid@1 not applicable to (1, 2, 2)",
    ((1, 1), Move(CANCEL, 2)): "step 1: cancel@2 not applicable to (1, 1)",
    ((1, 1), Move("frobnicate", 1)): "step 1: unknown move kind 'frobnicate'",
    ((1, 1), Move(CANCEL, 1.0)): "step 1: cancel@1.0 has a position that is not an int",
}


@pytest.mark.parametrize("word, move", list(INAPPLICABLE))
def test_apply_move_inapplicable(word, move):
    with pytest.raises(MoveError) as e:
        replay(GeneratorWord(4, word), [move])
    assert str(e.value) == INAPPLICABLE[word, move]
    assert e.value.step == 1


def test_moves_preserve_evaluation():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.choice((3, 4, 5))
        g = GeneratorWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))
        perm = evaluate(g)
        for p in range(1, len(g.letters) + 1):
            for kind in (CANCEL, COMMUTE, BRAID):
                try:
                    moved = replay(g, [Move(kind, p)])
                except MoveError:
                    continue
                assert evaluate(moved) == perm


def test_move_length_bookkeeping():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.choice((3, 4))
        g = GeneratorWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, 8))))
        for p in range(1, len(g.letters) + 1):
            for kind, delta in ((CANCEL, -2), (COMMUTE, 0), (BRAID, 0)):
                try:
                    moved = replay(g, [Move(kind, p)])
                except MoveError:
                    continue
                assert len(moved.letters) == len(g.letters) + delta


def test_identity_loops_have_even_length():
    rng = random.Random(6)
    for _ in range(25):
        g = random_identity_loop(4, 12, rng)
        assert len(g.letters) % 2 == 0


def test_replay_reports_failing_step():
    # later steps print the letters as the moves before them left them
    g = GeneratorWord(5, (1, 2, 1, 4, 4, 4))
    done = [Move(BRAID, 1), Move(CANCEL, 4), Move(COMMUTE, 3)]  # (2, 1, 2, 4) -> (2, 1, 4, 2)
    for cert, message in [
        ([Move(CANCEL, 1)], "step 1: cancel@1 not applicable to (1, 2, 1, 4, 4, 4)"),
        ([Move(CANCEL, 4), Move(CANCEL, 1)], "step 2: cancel@1 not applicable to (1, 2, 1, 4)"),
        (done + [Move(COMMUTE, 1)], "step 4: commute@1 not applicable to (2, 1, 4, 2)"),
        (done + [Move(BRAID, 2)], "step 4: braid@2 not applicable to (2, 1, 4, 2)"),
        (done + [Move(CANCEL, 3)], "step 4: cancel@3 not applicable to (2, 1, 4, 2)"),
        (done + [Move(CANCEL, 4)], "step 4: cancel@4 not applicable to (2, 1, 4, 2)"),
        (done + [Move(BRAID, 3)], "step 4: braid@3 not applicable to (2, 1, 4, 2)"),
        (done + [Move(COMMUTE, 0)], "step 4: commute@0 not applicable to (2, 1, 4, 2)"),
        (done[:2] + [Move(CANCEL, "1")], "step 3: cancel@1 has a position that is not an int"),
        (done + [Move("flip", 1.5)], "step 4: flip@1.5 has a position that is not an int"),
        (done + [Move("flip", 1)], "step 4: unknown move kind 'flip'"),
        (done[:2] + [Move(CANCEL, 1)], "step 3: cancel@1 not applicable to (2, 1, 2, 4)"),
        (done + [Move(COMMUTE, 3), Move(BRAID, 1), Move(CANCEL, 2)],
         "step 6: cancel@2 not applicable to (1, 2, 1, 4)"),
    ]:
        with pytest.raises(MoveError) as info:
            replay(g, cert)
        assert (str(info.value), info.value.step) == (message, len(cert))
    assert g.letters == (1, 2, 1, 4, 4, 4)
    # a single letter prints as a one-tuple, no letters as ()
    with pytest.raises(MoveError) as info:
        replay(GeneratorWord(3, (1, 1, 2)), iter([Move(CANCEL, 1), Move(CANCEL, 1)]))
    assert (str(info.value), info.value.step) == ("step 2: cancel@1 not applicable to (2,)", 2)
    with pytest.raises(MoveError) as info:
        replay(GeneratorWord(3, (2, 2)), [Move(CANCEL, 1), Move(COMMUTE, 1)])
    assert (str(info.value), info.value.step) == ("step 2: commute@1 not applicable to ()", 2)


def test_replay_result_is_a_checked_word():
    # replay builds its result without the constructor's checks, so it must
    # still be the word the constructor would build: equal, a tuple, hashable
    g = GeneratorWord(5, (1, 2, 1, 4, 4, 4))
    got = replay(g, [Move(BRAID, 1), Move(CANCEL, 4), Move(COMMUTE, 3)])
    assert got == GeneratorWord(5, (2, 1, 4, 2)) and type(got) is GeneratorWord
    assert type(got.letters) is tuple
    assert hash(got) == hash(GeneratorWord(5, [2, 1, 4, 2]))
    empty = replay(GeneratorWord(3, (2, 2)), [Move(CANCEL, 1)])
    assert empty == GeneratorWord(3) and type(empty.letters) is tuple
    assert hash(empty) == hash(GeneratorWord(3))
    loop = random_identity_loop(5, 12, random.Random(4))
    assert type(loop) is GeneratorWord and type(loop.letters) is tuple
    assert loop == GeneratorWord(5, loop.letters) and hash(loop) == hash(GeneratorWord(5, loop.letters))


def test_contract_trivial_cases():
    assert contract_loop(GeneratorWord(3)) == []
    assert contract_loop(GeneratorWord(2, (1, 1))) == [Move(CANCEL, 1)]


def test_contract_rejects_non_loop():
    with pytest.raises(ValueError, match="identity"):
        contract_loop(GeneratorWord(3, (1,)))


def _w0_word(n):
    """One reduced word of the longest element w0 of S_n."""
    return tuple(p for top in range(n - 1, 0, -1) for p in range(1, top + 1))


def _w0_loops(n):
    """Two different reduced words A, B of the longest element of S_n, as
    the loops A + reversed(B) and B + reversed(A)."""
    a = _w0_word(n)
    b = tuple(p for low in range(1, n) for p in range(n - 1, low - 1, -1))
    return [GeneratorWord(n, a + b[::-1]), GeneratorWord(n, b + a[::-1])]


def test_contract_w0_family():
    loops = [g for n in range(3, 13) for g in _w0_loops(n)]
    start = time.perf_counter()
    certs = [contract_loop(g) for g in loops]
    elapsed = time.perf_counter() - start
    for g, cert in zip(loops, certs):
        assert replay(g, cert).letters == ()
    assert len(certs) == 20
    assert elapsed < 1.0


def test_contract_is_not_limited_by_recursion():
    g = _w0_loops(20)[0]  # reduced prefixes up to 190 letters
    with recursion_limit(150):
        cert = contract_loop(g)
    assert replay(g, cert).letters == ()


def _random_reduced_word(rng, perm):
    """A reduced word of `perm`, read off by undoing random descents."""
    perm, n = list(perm), len(perm)
    letters = []
    while True:
        descents = [p for p in range(1, n) if perm[p - 1] > perm[p]]
        if not descents:
            return tuple(reversed(letters))
        p = rng.choice(descents)
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
        letters.append(p)


def _end_in(r, d, cert):
    """r ended in its right descent d, by the rule in `_bring_to_end`'s
    docstring, recursively on tuples: with a = r[-1] != d, end r[:-1] in d
    and commute if |a-d| >= 2; else end r[:-1] in d, then the letters
    before that d in a, and braid."""
    a = r[-1]
    if a == d:
        return r
    if abs(a - d) >= 2:
        s = _end_in(r[:-1], d, cert)
        cert.append(Move(COMMUTE, len(r) - 1))
        return s[:-1] + (a, d)
    s = _end_in(r[:-1], d, cert)
    s = _end_in(s[:-1], a, cert)
    cert.append(Move(BRAID, len(r) - 2))
    return s[:-1] + (d, a, d)


def _reference_contract(g):
    """contract_loop's certificate, rebuilt with `_end_in` on tuples."""
    cert, r, perm = [], (), list(range(g.n))
    for p in g.letters:
        if perm[p - 1] < perm[p]:
            r += (p,)
        else:
            r = _end_in(r, p, cert)
            cert.append(Move(CANCEL, len(r)))
            r = r[:-1]
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    assert r == ()
    return cert


def test_contract_equals_recursive_reference():
    rng = random.Random(25)
    loops = [g for n in range(3, 8) for g in _w0_loops(n)]
    for n in range(3, 9):
        loops += [random_identity_loop(n, 24, rng) for _ in range(45)]
        for _ in range(45):
            perm = list(range(n))
            rng.shuffle(perm)
            a, b = _random_reduced_word(rng, perm), _random_reduced_word(rng, perm)
            loops.append(GeneratorWord(n, a + b[::-1]))
    assert len(loops) >= 500
    kinds = set()
    for g in loops:
        letters = g.letters
        cert = contract_loop(g)
        assert cert == _reference_contract(g)
        assert all(type(m) is Move for m in cert)
        kinds |= {m.kind for m in cert}
        assert replay(g, cert) == GeneratorWord(g.n, ())
        assert g.letters is letters  # replay works on a copy
    assert kinds == {CANCEL, COMMUTE, BRAID}


def _check_bound(g, cert):
    """At most C(l, 2) commutes and braids before each cancel, l <=
    min(L/2, n(n-1)/2) the length of the reduced prefix it shortens; every
    commute a square cell, every braid a hexagon cell."""
    letters = g.letters
    cap = min(len(letters) // 2, g.n * (g.n - 1) // 2)
    moves = cancels = 0
    for mv in cert:
        k = mv.pos
        if mv.kind == CANCEL:
            assert moves <= math.comb(k, 2) and k <= cap
            moves, cancels = 0, cancels + 1
        else:
            moves += 1
            # a hexagon cell has adjacent generators, a square cell distant ones
            assert (abs(letters[k - 1] - letters[k]) == 1) == (mv.kind == BRAID)
        letters = replay(GeneratorWord(g.n, letters), [mv]).letters
    assert not letters and cancels == len(g.letters) // 2


def test_contract_certificate_bound():
    rng = random.Random(12)
    loops = [g for n in range(3, 13) for g in _w0_loops(n)]
    for n in range(3, 10):
        loops += [random_identity_loop(n, 24, rng) for _ in range(40)]
    for n in range(3, 13):
        for _ in range(30):
            perm = list(range(n))
            rng.shuffle(perm)
            a, b = _random_reduced_word(rng, perm), _random_reduced_word(rng, perm)
            loops.append(GeneratorWord(n, a + b[::-1]))
    assert len(loops) >= 500
    for g in loops:
        _check_bound(g, contract_loop(g))


def _move_class(n, start):
    """The words reached from `start` by commutes and braids, found by a
    breadth-first search."""
    found, todo = {start}, [start]
    for w in todo:  # breadth first; todo grows while it is read
        for p in range(1, len(w)):
            for kind in (COMMUTE, BRAID):
                try:
                    v = replay(GeneratorWord(n, w), [Move(kind, p)]).letters
                except MoveError:
                    continue
                if v not in found:
                    found.add(v)
                    todo.append(v)
    return found


@pytest.mark.parametrize("n, count", [(3, 2), (4, 16), (5, 768)])
def test_reduced_words_of_w0_form_one_move_class(n, count):
    # Matsumoto-Tits: commutes and braids join any two reduced words of w0.
    # Stanley: they number the standard tableaux of the staircase
    # (n-1, ..., 1), whose cell (i, j) has hook length 2(n-1-i-j) - 1.
    words = _move_class(n, _w0_word(n))
    cells = [(i, j) for i in range(n - 1) for j in range(n - 1 - i)]
    hooks = math.prod(2 * (n - 1 - i - j) - 1 for i, j in cells)
    assert len(words) == count == math.factorial(len(cells)) // hooks
    w0 = tuple(range(n - 1, -1, -1))
    for w in words:
        assert len(w) == len(cells) and evaluate(GeneratorWord(n, w)) == w0


@functools.cache
def _reduced_words_by_descents(w):
    """The reduced words of the arrangement w, by right descents alone: a
    reduced word of w ends in p exactly when p is a right descent of w
    (w[p-1] > w[p]), and the rest is a reduced word of w s_p."""
    words = set()
    for p in range(1, len(w)):
        if w[p - 1] > w[p]:
            v = w[:p - 1] + (w[p], w[p - 1]) + w[p + 1:]
            words |= {u + (p,) for u in _reduced_words_by_descents(v)}
    return frozenset(words) if words else frozenset({()})


def test_reduced_words_of_every_permutation_form_one_move_class():
    # Matsumoto-Tits for every w, not only w0: the reduced words found by
    # descents are exactly the commute/braid class of any one of them
    total = 0
    for n in range(2, 6):
        for w in itertools.permutations(range(n)):
            words = _reduced_words_by_descents(w)
            assert all(evaluate(GeneratorWord(n, u)) == w for u in words)
            assert _move_class(n, min(words)) == words
            total += len(words)
    assert total == 3136


def test_contract_bound_for_every_reduced_word_and_descent():
    # the moves before a cancel depend only on the reduced prefix r and the
    # descent d brought to its end, so for each n the bound is a finite
    # statement over all pairs (r, d); contract_bound.py also runs n = 6
    for n in (3, 4, 5):
        found = {}
        for r, w in contract_bound.reduced_words(n):
            found.setdefault(w, set()).add(r)
        assert found == {w: _reduced_words_by_descents(w)
                         for w in itertools.permutations(range(n))}
    census = {n: contract_bound.census(n) for n in (3, 4, 5)}
    assert {n: (pairs, full) for n, (pairs, full, _) in census.items()} == \
        {3: (8, 1), 4: (133, 5), 5: (9184, 17)}
    ratios = {(n, l): ratio for n, (_, _, by_l) in census.items() for l, ratio in by_l.items()}
    assert {key for key, ratio in ratios.items() if ratio == 1} == {(4, 2), (5, 2)}
    longer = {key: ratio for key, ratio in ratios.items() if key[1] >= 3}
    assert max(longer.values()) == Fraction(2, 3)
    assert [key for key, ratio in longer.items() if ratio == Fraction(2, 3)] == [(5, 3)]


# Literal counts, so that a broken formula and a broken partition cannot
# agree; criterion 6 checks n = 3..5 against the same numbers.
CENSUS = {6: (480, 1080), 7: (4200, 12600), 8: (40320, 151200)}


@pytest.mark.parametrize("n", sorted(CENSUS))
def test_census_matches_coset_partition(n):
    expected = dict(zip((CellType.TRICKY, CellType.EASY), CENSUS[n]))
    assert codim2_census_by_cosets(n) == expected
    assert codim2_census(n) == expected


def right_maps_by_index(n):
    """The census's right maps built by lookup, as the census once built
    them: arrangement k is keyed by the bytes of its inverse (byte x is the
    slot of letter x), the k-th permutation of range(n) in `itertools`
    order.  The key of w ∘ s_p is w's key with the byte values p-1 and p
    swapped, one `bytes.translate`, looked up in a dict of all n! keys."""
    index = {bytes(w): k for k, w in enumerate(itertools.permutations(range(n)))}
    swaps = {p: bytes.maketrans(bytes((p - 1, p)), bytes((p, p - 1))) for p in range(1, n)}
    return {p: list(map(index.__getitem__, map(bytes.translate, index, itertools.repeat(t))))
            for p, t in swaps.items()}


@pytest.mark.parametrize("n", range(3, 9))
def test_right_maps_equal_the_index_construction(n):
    right = _right_maps(n)
    assert right == right_maps_by_index(n)
    # each boundary walk closes only on bijections: every map is an
    # involution (s_p squared is 1) with no fixed point (w s_p != w)
    nf = math.factorial(n)
    for p, a in right.items():
        assert len(a) == nf
        assert all(a[a[k]] == k != a[k] for k in range(nf)), p


def test_loop_from_arrangements_validates():
    with pytest.raises(ValueError, match="adjacent swap"):
        loop_from_arrangements(3, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError, match="arrangement"):
        loop_from_arrangements(3, [(0, 1, 1), (0, 1, 1)])
    g = loop_from_arrangements(3, [(0, 1, 2), (1, 0, 2), (0, 1, 2)])
    assert g.letters == (1, 1)


def test_sample_excursion():
    g = sample_excursion_s4()
    assert g.n == 4
    assert len(g.letters) == 18
    assert is_identity_loop(g)
    # the tour visits 18 distinct arrangements before closing up
    seen = {(0, 1, 2, 3)}
    perm = list(range(4))
    for p in g.letters[:-1]:
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
        assert tuple(perm) not in seen
        seen.add(tuple(perm))
    assert len(seen) == 18


@pytest.mark.parametrize("call, message", [
    (lambda: codim2_census(2), "need n >= 3"),
    (lambda: codim2_census_by_cosets(2), "need n >= 3"),
    (lambda: random_identity_loop(1, 12), "need n >= 2 and max_len >= 2"),
    (lambda: random_identity_loop(4, 1), "need n >= 2 and max_len >= 2"),
    (lambda: random_identity_loop(3, 2.5), "need int n and max_len, got n=3, max_len=2.5"),
    (lambda: random_identity_loop(3.0, 12), "need int n and max_len, got n=3.0, max_len=12"),
    (lambda: render_svg(0), "need an int size >= 1, got size=0"),
    (lambda: render_svg(-3), "need an int size >= 1, got size=-3"),
    (lambda: render_svg(2.5), "need an int size >= 1, got size=2.5"),
], ids=["formula-n-2", "census-n-2", "loop-n-1", "loop-max-len-1", "loop-max-len-float",
        "loop-n-float", "render-size-0", "render-size-negative", "render-size-float"])
def test_guards_reject_degenerate_sizes(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


def full_arrangement_loop(n, max_len, rng):
    """`random_identity_loop` as it was built on a list walk: the whole
    arrangement of n slots, rescanned over 1..n-1 for every letter undone."""
    letters = [rng.randint(1, n - 1) for _ in range(rng.randint(1, max_len // 2))]
    perm = list(list_walk(n, letters))
    while descents := [p for p in range(1, n) if perm[p - 1] > perm[p]]:
        p = rng.choice(descents)
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
        letters.append(p)
    return GeneratorWord(n, letters)


def test_random_identity_loop_draws_the_full_arrangement_loops():
    # tracking only the moved slots changes no draw: the same loops, and
    # the generator left in the same state
    meta = random.Random("moved-slots")
    for _ in range(1500):
        n, max_len, seed = meta.randint(2, 10), meta.randint(2, 30), meta.randrange(10**9)
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_identity_loop(n, max_len, rng) == full_arrangement_loop(n, max_len, ref)
        assert rng.random() == ref.random()


def test_random_identity_loop_memory_does_not_grow_with_n():
    # n = 10^8 under a 512 MB address-space limit that binds the child
    # process alone: a list of n slots would need gigabytes
    script = ("import random\n"
              "from pbw.coxeter import is_identity_loop, random_identity_loop\n"
              "g = random_identity_loop(10**8, 12, random.Random(0))\n"
              "print(len(g.letters), is_identity_loop(g))\n")
    proc = run_limited(["-c", script], 512, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "8 True\n")


def test_random_identity_loop_seeded_determinism():
    a = [random_identity_loop(4, 12, random.Random(0)).letters for _ in range(3)]
    assert a[0] == a[1] == a[2]
    g = random_identity_loop(5, 8, random.Random(9))
    assert is_identity_loop(g)
    assert 2 <= len(g.letters) <= 8

