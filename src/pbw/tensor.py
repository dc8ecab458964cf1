"""Sparse exact arithmetic in the tensor algebra of a presented Lie algebra.

Elements are finite rational linear combinations of words; a word is a
tuple of basis indices and the empty word is the multiplicative unit.
Nothing here imposes the straightening relation: this is the multilinear
bookkeeping layer shared by the normalizer and the holonomy transport.

Inputs are validated once, by the public constructor.  Internal arithmetic
builds results with the trusted `TensorElement._own(alg, terms)`, which
checks nothing: its caller guarantees that every word is in range for
`alg`, every coefficient is a nonzero `int` or `Fraction` (public results
are all `Fraction`), and `terms` is a dict the caller owns and nothing
mutates afterwards.

The hash of an element reads only its words, not its coefficients: equal
elements still hash equal, and equality still compares the coefficients,
but hashing a state skips one `Fraction.__hash__` per term.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .presentation import LiePresentation, _accumulate

__all__ = [
    "TensorElement",
    "Word",
    "add",
    "monomial",
    "scale",
]

Word = tuple[int, ...]


class TensorElement:
    """Immutable sparse map word -> nonzero rational over one presentation."""

    __slots__ = ("alg", "terms", "_hash")

    def __init__(self, alg: LiePresentation, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = []
        for w, c in items:
            w = tuple(w)
            alg.check_word(w)
            pairs.append((w, Fraction(c)))
        self.alg = alg
        self.terms: dict[Word, Fraction] = _accumulate({}, pairs)
        self._hash = None

    @classmethod
    def _own(cls, alg: LiePresentation, terms: dict) -> TensorElement:
        """Trusted constructor: adopt `terms` as is (see the module docstring)."""
        self = object.__new__(cls)
        self.alg, self.terms, self._hash = alg, terms, None
        return self

    @property
    def degree(self) -> int:
        """Longest word present; 0 for the zero element."""
        return max((len(w) for w in self.terms), default=0)

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
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms))
            self._hash = h
        return h

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1, other))

    def __neg__(self):
        return scale(-1, self)

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return scale(c, self)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "TensorElement(0)"
        bits = []
        for w, c in self.sorted_terms():
            word = " ".join(self.alg.names[t] for t in w) if w else "1"
            bits.append(f"{c}*({word})")
        return "TensorElement(" + " + ".join(bits) + ")"


def _require_same(x: TensorElement, y: TensorElement) -> None:
    if not (x.alg is y.alg or x.alg == y.alg):
        raise ValueError("elements belong to different presentations")


def monomial(L: LiePresentation, word: Iterable[int], coeff=1) -> TensorElement:
    return TensorElement(L, {tuple(word): coeff})


def add(x: TensorElement, y: TensorElement) -> TensorElement:
    _require_same(x, y)
    return TensorElement._own(x.alg, _accumulate(dict(x.terms), y.terms.items()))


def scale(c, x: TensorElement) -> TensorElement:
    c = Fraction(c)
    if not c:
        return TensorElement._own(x.alg, {})
    return TensorElement._own(x.alg, {w: c * v for w, v in x.terms.items()})
