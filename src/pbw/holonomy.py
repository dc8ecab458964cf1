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
from .normalizer import normalize, transport
from .presentation import LiePresentation, Vector
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
    top, remainder = transport(L, w, g.letters)
    assert top == w
    return remainder


def hexagon_defect(L: LiePresentation, i: int, j: int, k: int) -> Vector:
    """Normalized holonomy of the hexagon loop (s1 s2)^3 from (k, j, i).

    The loop runs the (1, 2, 1) path to (i, j, k) and the (2, 1, 2) path
    back, and undoing a swap adds the negated bracket, so the remainder is
    the difference of the two three-step transports.  Their degree-2 parts
    cancel pairwise and each residual x⊗v - v⊗x straightens uniquely to
    [x, v], so the result is a degree-1 element equal to the Jacobi defect
    of (i, j, k) for every antisymmetric table, Lie or not.
    """
    w = (k, j, i)
    top, remainder = transport(L, w, (1, 2) * 3)
    assert top == w
    out: Vector = {}
    for word, c in normalize(L, remainder).terms.items():
        assert len(word) == 1
        out[word[0]] = c
    return out
