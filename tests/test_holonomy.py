import itertools
import random

import pytest

from pbw.coxeter import (GeneratorWord, hexagon_loop, sample_excursion_s4,
                         square_loop)
from pbw.holonomy import (TransportState, hexagon_defect, transport_loop,
                          transport_step)
from pbw.normalizer import normalize
from pbw.presentation import jacobi_defect
from pbw.tensor import add, monomial, zero

from conftest import load_fixture

ALL_FIXTURES = ["abelian3", "heisenberg", "sl2", "f32", "f42", "bad"]


def test_transport_step_f32(f32):
    st = transport_step(f32, TransportState((2, 1, 0), zero(f32)), 1)
    assert st.top == (1, 2, 0)
    assert st.remainder.terms == {(5, 0): -1}  # -[b,c] a = -wa
    assert st.steps == 1


def test_transport_step_abelian(abelian):
    st0 = TransportState((2, 0, 1), zero(abelian))
    st = transport_step(abelian, st0, 2)
    assert st.top == (2, 1, 0)
    assert not st.remainder


def test_transport_step_sl2(sl2):
    st = transport_step(sl2, TransportState((1, 0), zero(sl2)), 1)
    assert st.top == (0, 1)
    assert st.remainder.terms == {(2,): -1}  # [f, e] = -h


def test_transport_step_out_of_range(f32):
    with pytest.raises(IndexError):
        transport_step(f32, TransportState((0, 1), zero(f32)), 2)


def test_transport_loop_empty(f32):
    assert not transport_loop(f32, (0, 1, 2), GeneratorWord(3))


def test_transport_loop_hexagon_f32(f32):
    r = transport_loop(f32, (2, 1, 0), hexagon_loop(3))
    assert r  # raw corrections accumulate ...
    assert not normalize(f32, r)  # ... but straighten to zero


def test_transport_loop_hexagon_bad(bad):
    r = transport_loop(bad, (2, 1, 0), hexagon_loop(3))
    # frozen reference value for this loop orientation
    assert normalize(bad, r).terms == {(0,): 1}


def test_transport_loop_errors(f32):
    with pytest.raises(ValueError, match="identity"):
        transport_loop(f32, (0, 1, 2), GeneratorWord(3, (1,)))
    with pytest.raises(ValueError, match="length"):
        transport_loop(f32, (0, 1), hexagon_loop(3))


def test_transport_conserves_class(f32, sl2):
    # normalize(top + remainder) is invariant under every step
    rng = random.Random(13)
    for L in (f32, sl2):
        for _ in range(20):
            w = tuple(rng.randrange(L.dim) for _ in range(4))
            st = TransportState(w, zero(L))
            reference = normalize(L, monomial(L, w))
            for _ in range(6):
                st = transport_step(L, st, rng.randint(1, 3))
                current = add(monomial(L, st.top), st.remainder)
                assert normalize(L, current) == reference


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_hexagon_defect_equals_jacobi_defect(name):
    L = load_fixture(name)
    if L.dim <= 6:
        triples = itertools.product(range(L.dim), repeat=3)
    else:
        triples = itertools.combinations(range(L.dim), 3)
    for i, j, k in triples:
        assert hexagon_defect(L, i, j, k) == jacobi_defect(L, i, j, k)


def test_hexagon_defect_examples(abelian, sl2, bad):
    assert hexagon_defect(abelian, 0, 1, 2) == {}
    assert hexagon_defect(sl2, 0, 1, 2) == {}
    assert hexagon_defect(bad, 0, 1, 2) == {0: 1}
    # repeated indices are allowed
    assert hexagon_defect(bad, 0, 0, 2) == {}


def test_hexagon_defect_index_error(sl2):
    with pytest.raises(IndexError):
        hexagon_defect(sl2, 0, 1, 3)


def _square_residuals(L, w, p, q):
    """Remainders of the two orders of the commuting swaps p, q (|p - q| >= 2)."""
    ends = []
    for path in ((p, q), (q, p)):
        st = TransportState(w, zero(L))
        for pos in path:
            st = transport_step(L, st, pos)
        ends.append(st)
    assert ends[0].top == ends[1].top
    return ends[0].remainder, ends[1].remainder


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


def _holonomies(L, words, loops):
    return [normalize(L, transport_loop(L, w, g)) for w in words for g in loops]


def test_check_pbw_consistency_f42(f42):
    # every arrangement of a b c d, around the S4 2-cells and the excursion
    words = list(itertools.permutations(range(4)))
    loops = [hexagon_loop(4, 1), hexagon_loop(4, 2), square_loop(4, 1, 3),
             sample_excursion_s4()]
    holonomies = _holonomies(f42, words, loops)
    assert len(holonomies) == 96
    assert not any(holonomies)


def test_check_pbw_consistency_abelian(abelian):
    holonomies = _holonomies(abelian, [(0, 1, 2), (2, 1, 0)], [hexagon_loop(3)])
    assert len(holonomies) == 2
    assert not any(holonomies)


def test_zero_holonomy_iff_jacobi():
    # the falsifying direction: the bad table shows holonomy on some loop
    loops3 = [hexagon_loop(3)]
    for name in ALL_FIXTURES:
        L = load_fixture(name)
        if L.dim < 3:
            continue
        words = list(itertools.permutations(range(3)))
        holonomies = [
            normalize(L, transport_loop(L, w, g)) for w in words for g in loops3
        ]
        from pbw.presentation import check_jacobi
        if check_jacobi(L) == []:
            assert all(not h for h in holonomies)
        else:
            assert any(h for h in holonomies)


def test_long_excursion_has_zero_holonomy(f42):
    g = sample_excursion_s4()
    r = transport_loop(f42, (0, 1, 2, 3), g)
    assert r  # eighteen frozen corrections
    assert not normalize(f42, r)
