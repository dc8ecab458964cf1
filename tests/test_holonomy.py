import itertools
import random
from fractions import Fraction

import pytest

from pbw.coxeter import GeneratorWord
from pbw.holonomy import hexagon_defect, transport, transport_loop
from pbw.normalizer import normalize
from pbw.presentation import check_jacobi, jacobi_defect, serialize_presentation
from pbw.tensor import monomial

from conftest import (ALL_FIXTURES, ALL_TABLES, FIXTURES, load_fixture, load_table, random_tables,
                      run_limited)
from excursions import sample_excursion_s4


def test_transport_step_f32(f32):
    top, rem = transport(f32, (2, 1, 0), (1,))
    assert top == (1, 2, 0)
    assert rem.terms == {(5, 0): -1}  # -[b,c] a = -wa
    # c . [a, b] with [a, b] = u: an ascent reads the table as stored
    assert transport(f32, (2, 0, 1), (2,)) == ((2, 1, 0), monomial(f32, (2, 3)))


def test_transport_step_abelian(abelian):
    top, rem = transport(abelian, (2, 0, 1), (2,))
    assert top == (2, 1, 0)
    assert not rem
    assert not transport(abelian, (0, 1, 2, 0), (2,))[1]


def test_transport_step_sl2(sl2):
    top, rem = transport(sl2, (1, 0), (1,))
    assert top == (0, 1)
    assert rem.terms == {(2,): -1}  # [f, e] = -h
    # [e, h] = -2 e, suffix f
    assert transport(sl2, (0, 2, 1), (1,))[1].terms == {(0, 1): -2}


def test_transport_step_out_of_range(f32):
    for p in (0, 2):
        with pytest.raises(IndexError, match="position"):
            transport(f32, (0, 1), (p,))
    with pytest.raises(IndexError, match="position"):
        transport(f32, (0, 1, 2), (1, 2, 3))
    with pytest.raises(IndexError, match="position 1.0"):
        transport(f32, (2, 1, 0), (1.0,))


@pytest.mark.parametrize("word", [(0, 6, 0, 1), (0, 1, 1, -1), (9, 0, 1, 0), (0, 1.5)])
def test_transport_checks_every_letter(f32, abelian, word):
    # checked before the first swap, even on an empty path ...
    with pytest.raises(IndexError, match="basis index"):
        transport(f32, word, ())
    # ... and even when every bracket is zero
    for path in ((), (2,)):
        with pytest.raises(IndexError, match="basis index"):
            transport(abelian, word, path)


def test_transport_remainder_is_one_letter_shorter(f42):
    # a b [c, d] b
    top, rem = transport(f42, (0, 1, 2, 3, 1), (3,))
    assert top == (0, 1, 3, 2, 1)
    assert rem and all(len(v) == 4 for v in rem.terms)


@pytest.mark.parametrize("name", ALL_TABLES)
def test_transport_telescopes(name):
    # P then Q from where P ends adds up to P + Q in one pass
    L = load_table(name)
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        w = tuple(rng.randrange(L.dim) for _ in range(n))
        P, Q = (tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
                for _ in range(2))
        top_p, rem_p = transport(L, w, P)
        top_q, rem_q = transport(L, top_p, Q)
        top, rem = transport(L, w, P + Q)
        assert (top, rem) == (top_q, rem_p + rem_q), (w, P, Q)
        assert all(type(c) is Fraction and c for c in rem.terms.values())


def test_transport_loop_empty(f32):
    assert not transport_loop(f32, (0, 1, 2), GeneratorWord(3))


def test_transport_loop_hexagon_f32(f32):
    r = transport_loop(f32, (2, 1, 0), GeneratorWord(3, (1, 2) * 3))
    assert r  # raw corrections accumulate ...
    assert not normalize(f32, r)  # ... but straighten to zero


def test_transport_loop_errors(f32):
    with pytest.raises(ValueError, match="identity"):
        transport_loop(f32, (0, 1, 2), GeneratorWord(3, (1,)))
    with pytest.raises(ValueError, match="length"):
        transport_loop(f32, (0, 1), GeneratorWord(3, (1, 2) * 3))


def test_transport_loop_memory_does_not_grow_with_n():
    # a two-letter loop on 10^8 slots, under a 512 MB address-space limit
    # that binds the child process alone: n slots would need gigabytes, so
    # the length is checked first and the loop test tracks moved slots only
    script = (
        "from pbw.coxeter import GeneratorWord, is_identity_loop\n"
        "from pbw.holonomy import transport_loop\n"
        "from pbw.presentation import parse_presentation\n"
        "assert is_identity_loop(GeneratorWord(10**8, (7, 7)))\n"
        "assert not is_identity_loop(GeneratorWord(10**8, (7, 8)))\n"
        f"L = parse_presentation(open({str(FIXTURES / 'f32.lie')!r}).read())\n"
        "try:\n"
        "    transport_loop(L, (0, 1, 2), GeneratorWord(10**8, (1, 1)))\n"
        "except ValueError as e:\n"
        "    print(e)\n")
    proc = run_limited(["-c", script], 512, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "word length 3 does not match the loop's n=100000000\n"


def test_transport_conserves_class(f32, sl2):
    # normalize(top + remainder) is invariant along every open path
    rng = random.Random(13)
    for L in (f32, sl2):
        for _ in range(20):
            w = tuple(rng.randrange(L.dim) for _ in range(4))
            path = tuple(rng.randint(1, 3) for _ in range(6))
            reference = normalize(L, monomial(L, w))
            for m in range(1, len(path) + 1):
                top, rem = transport(L, w, path[:m])
                assert normalize(L, monomial(L, top) + rem) == reference


@pytest.mark.parametrize("name", ALL_TABLES)
def test_hexagon_defect_equals_jacobi_defect(name):
    # criterion 2 compares the two defects; here, the loop that hexagon_defect
    # straightens holds the (1, 2, 1) remainder minus the (2, 1, 2) one, and
    # the defect has Fraction coefficients
    L = load_table(name)
    if L.dim <= 6:
        triples = itertools.product(range(L.dim), repeat=3)
    else:
        triples = itertools.combinations(range(L.dim), 3)
    for i, j, k in triples:
        w = (k, j, i)
        two_paths = transport(L, w, (1, 2, 1))[1] - transport(L, w, (2, 1, 2))[1]
        assert transport(L, w, (1, 2) * 3) == (w, two_paths)
        assert all(type(c) is Fraction and c for c in hexagon_defect(L, i, j, k).values())


def test_hexagon_defect_index_error(sl2):
    with pytest.raises(IndexError):
        hexagon_defect(sl2, 0, 1, 3)


def _square_residuals(L, w, p, q):
    """Remainders of the two orders of the commuting swaps p, q (|p - q| >= 2)."""
    (top1, r1), (top2, r2) = transport(L, w, (p, q)), transport(L, w, (q, p))
    assert top1 == top2
    return r1, r2


def test_square_residuals_f42(f42):
    # w = cbda, swaps at 1 and 3; u3 = [a,d] partner, u4 = [b,c]
    r1, r2 = _square_residuals(f42, (2, 1, 3, 0), 1, 3)
    assert r1.terms == {(7, 3, 0): -1, (1, 2, 6): -1}
    assert r2.terms == {(2, 1, 6): -1, (7, 0, 3): -1}
    assert r1 != r2
    assert normalize(f42, r1) == normalize(f42, r2)


def test_square_residuals_abelian(abelian):
    # four slots out of three letters: repetition is fine
    r1, r2 = _square_residuals(abelian, (2, 1, 0, 2), 1, 3)
    assert not r1 and not r2


def test_transport_out_and_back_is_zero(f42):
    rng = random.Random(17)
    for _ in range(15):
        letters = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
        loop = GeneratorWord(4, letters + tuple(reversed(letters)))
        w = tuple(rng.randrange(f42.dim) for _ in range(4))
        assert not normalize(f42, transport_loop(f42, w, loop))


def test_check_pbw_consistency_f42(f42):
    # every arrangement of a b c d, around the S4 2-cells and the excursion
    words = list(itertools.permutations(range(4)))
    loops = [GeneratorWord(4, (1, 2) * 3), GeneratorWord(4, (2, 3) * 3),
             GeneratorWord(4, (1, 3) * 2), sample_excursion_s4()]
    holonomies = [normalize(f42, transport_loop(f42, w, g)) for w in words for g in loops]
    assert len(holonomies) == 96
    assert not any(holonomies)


def test_zero_holonomy_iff_jacobi():
    # the falsifying direction: a table that fails Jacobi shows holonomy.
    # The hexagon loop from each arrangement of three distinct letters has
    # zero holonomy exactly where their Jacobi defect is zero
    hexagon = GeneratorWord(3, (1, 2) * 3)
    tables = [load_fixture(name) for name in ALL_FIXTURES]
    tables += random_tables(random.Random("holonomy"), 40, alternate=True)
    for L in tables:
        holonomies = []
        for w in itertools.permutations(range(L.dim), 3):
            h = normalize(L, transport_loop(L, w, hexagon))
            assert bool(h) == bool(jacobi_defect(L, *w)), (serialize_presentation(L), w)
            holonomies.append(h)
        assert any(holonomies) == bool(check_jacobi(L)), serialize_presentation(L)


def test_long_excursion_has_zero_holonomy(f42):
    g = sample_excursion_s4()
    r = transport_loop(f42, (0, 1, 2, 3), g)
    assert r  # eighteen frozen corrections
    assert not normalize(f42, r)
