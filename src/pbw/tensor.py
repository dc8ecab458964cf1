"""Sparse exact arithmetic in the tensor algebra of a presented Lie algebra.

Elements are finite rational linear combinations of words; a word is a
tuple of basis indices and the empty word is the multiplicative unit.
Nothing here imposes the straightening relation: this is the multilinear
bookkeeping layer shared by the normalizer and the holonomy transport.

Trust boundary: each public value has one checked way in.  These private
paths check nothing, and beside each are the public ones that check first:
- `TensorElement._own`: the constructor, `parse_terms` and the entries below;
- `normalizer._transport`: `transport`, `swap_reduce_at`, `transport_loop`
  and `hexagon_defect`;
- `_times` and `_product`: `normalize` and `hexagon_defect`;
- `presentation._defect`: `jacobi_defect`, and `check_jacobi` on its triples;
- `_fractions`, `_accumulate`, `_add_scaled`: whichever checked the words;
- `tuple.__new__` on `GeneratorWord` and `Move`: `replay`, `contract_loop`
  and `random_identity_loop`, from letters already checked or drawn in range.
The types do not enforce that `TensorElement.terms`, the element's own
dict, is never mutated: the oracle's memo shares its forms.

The hash of an element reads only its words, not its coefficients: equal
elements still hash equal, and equality still compares the coefficients,
but hashing skips one `Fraction.__hash__` per term.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .presentation import LiePresentation, _accumulate

__all__ = ["TensorElement", "monomial"]

Word = tuple[int, ...]


class TensorElement:
    """Immutable sparse map word -> nonzero rational over one presentation."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LiePresentation, terms: Mapping | None = None):
        pairs = []
        for w, c in (terms or {}).items():
            w = tuple(w)
            alg.check_word(w)
            pairs.append((w, Fraction(c)))
        self.alg = alg
        self.terms: dict[Word, Fraction] = _accumulate({}, pairs)

    @classmethod
    def _own(cls, alg: LiePresentation, terms: dict) -> TensorElement:
        """Trusted constructor: adopt `terms` as is, a dict that the caller gives
        up, of words in range for `alg` to nonzero `Fraction`s."""
        self = object.__new__(cls)
        self.alg, self.terms = alg, terms
        return self

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms in printing order (length ascending, then lexicographic)."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.terms != other.terms:
            return False
        return self.alg is other.alg or self.alg == other.alg

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if not (self.alg is other.alg or self.alg == other.alg):
            raise ValueError("elements belong to different presentations")
        return TensorElement._own(self.alg, _accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, c):
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = Fraction(c)
        return TensorElement._own(self.alg, {w: c * v for w, v in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "TensorElement(0)"
        bits = []
        for w, c in self.sorted_terms():
            word = " ".join(self.alg.names[t] for t in w) if w else "1"
            bits.append(f"{c}*({word})")
        return "TensorElement(" + " + ".join(bits) + ")"


def monomial(L: LiePresentation, word: Iterable[int], coeff=1) -> TensorElement:
    return TensorElement(L, {tuple(word): coeff})

