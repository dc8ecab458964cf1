"""Transport of monomials around generator-word loops, with frozen remainders.

Each transport step swaps two adjacent letters of the leading word and
deposits the bracket correction, in context, into a remainder that is never
touched again.  Steps are allowed at descents and ascents alike, since a
loop necessarily traverses both.  Around an identity loop the leading word
returns to its start and the accumulated remainder is the loop's holonomy;
it normalizes to zero precisely when the structure constants satisfy the
Jacobi identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .coxeter import GeneratorWord, is_identity_loop
from .normalizer import normalize
from .presentation import LiePresentation, Vector
from .tensor import TensorElement, Word, bracket_in_context, zero

__all__ = [
    "TransportState",
    "hexagon_defect",
    "transport_loop",
    "transport_step",
]


@dataclass(frozen=True)
class TransportState:
    """Leading word plus the frozen lower-degree remainder collected so far."""

    top: Word
    remainder: TensorElement
    steps: int = 0


def transport_step(L: LiePresentation, st: TransportState, p: int) -> TransportState:
    """Swap slots p, p+1 of the leading word; the remainder gains
    prefix ⊗ [x, y] ⊗ suffix with x, y read off before the swap."""
    top = st.top
    if not 1 <= p < len(top):
        raise IndexError(f"position {p} out of range for a word of length {len(top)}")
    x, y = top[p - 1], top[p]
    new_top = top[: p - 1] + (y, x) + top[p + 1 :]
    corr = bracket_in_context(L, top[: p - 1], x, y, top[p + 1 :])
    return TransportState(new_top, st.remainder + corr, st.steps + 1)


def transport_loop(L: LiePresentation, w: Iterable[int], g: GeneratorWord) -> TensorElement:
    """Holonomy remainder of transporting the word w around the loop g."""
    w = tuple(w)
    if not is_identity_loop(g):
        raise ValueError("generator word does not evaluate to the identity")
    if len(w) != g.n:
        raise ValueError(f"word length {len(w)} does not match the loop's n={g.n}")
    st = _transport_path(L, w, g.letters)
    assert st.top == w
    return st.remainder


def _transport_path(L: LiePresentation, w: Word, positions: Sequence[int]) -> TransportState:
    st = TransportState(w, zero(L))
    for p in positions:
        st = transport_step(L, st, p)
    return st


def hexagon_defect(L: LiePresentation, i: int, j: int, k: int) -> Vector:
    """Difference of the two three-step transports of (k, j, i) to (i, j, k).

    The degree-2 parts of the two remainders cancel pairwise and each
    residual x⊗v - v⊗x straightens uniquely to [x, v], so the result is a
    degree-1 element equal to the Jacobi defect of (i, j, k) for every
    antisymmetric table, Lie or not.
    """
    for t in (i, j, k):
        L.check_index(t)
    w = (k, j, i)
    r1 = _transport_path(L, w, (1, 2, 1)).remainder
    r2 = _transport_path(L, w, (2, 1, 2)).remainder
    nf = normalize(L, r1 - r2)
    out: Vector = {}
    for word, c in nf.terms.items():
        assert len(word) == 1
        out[word[0]] = c
    return out
