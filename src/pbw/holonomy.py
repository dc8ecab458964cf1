"""Transport of monomials along paths of adjacent swaps, with frozen remainders.

At each position of a path, `transport` (defined in `normalizer`, whose
rewrite step is transport at a descent) swaps two adjacent letters of the
leading word and adds prefix ⊗ [x, y] ⊗ suffix, read straight from the
bracket table, to the remainder, where it stays.  Swaps are allowed at
descents and ascents alike, since a loop traverses both.  Remainders of
consecutive paths add up.  Around an identity loop the leading word returns
to its start and the remainder is the loop's holonomy; it normalizes to
zero precisely when the structure constants satisfy the Jacobi identity.
"""

from __future__ import annotations

from typing import Iterable

from .coxeter import GeneratorWord, is_identity_loop
from .normalizer import _times, _transport
from .presentation import LiePresentation, Vector, _fractions
from .tensor import TensorElement

__all__ = ["hexagon_defect", "transport_loop"]


def transport_loop(L: LiePresentation, w: Iterable[int], g: GeneratorWord) -> TensorElement:
    """Holonomy remainder of transporting the word w around the loop g."""
    w = tuple(w)
    # the length first: it costs nothing, however large g.n is
    if len(w) != g.n:
        raise ValueError(f"word length {len(w)} does not match the loop's n={g.n}")
    if not is_identity_loop(g):
        raise ValueError("generator word does not evaluate to the identity")
    L.check_word(w)
    top, remainder = _transport(L._signed, w, g.letters)
    assert top == w
    return TensorElement._own(L, _fractions(remainder))


def hexagon_defect(L: LiePresentation, i: int, j: int, k: int) -> Vector:
    """Normalized holonomy of the hexagon loop (s1 s2)^3 from (k, j, i).

    The loop runs the (1, 2, 1) path to (i, j, k) and the (2, 1, 2) path
    back, and undoing a swap adds the negated bracket, so the remainder is
    the difference of the two three-step transports.  Their degree-2 parts
    cancel pairwise and each residual x⊗v - v⊗x straightens uniquely to
    [x, v], so the result is a degree-1 element equal to the Jacobi defect
    of (i, j, k) for every antisymmetric table, Lie or not.  `_times`
    straightens the remainder (`int`s where integral) with no `normalize`
    and so no Jacobi check: a degree-2 word takes at most one rewrite, so
    the product table's step equals every rewriter on any antisymmetric table,
    and it needs no closed letters, since only a longer word is ever split.
    """
    L.check_word((i, j, k))
    w, signed, table, out = (k, j, i), L._signed, {}, {}
    top, remainder = _transport(signed, w, (1, 2) * 3)
    assert top == w
    for v, c in remainder.items():
        _times(signed, table, v, out, c, ())
    return {x: c for (x,), c in _fractions(out).items()}  # (x,) fails on a word of degree 2
