"""Lie algebra presentations: an ordered basis with exact structure constants.

A presentation lists basis names (listing order defines the basis ordering
used everywhere downstream) and, for each index pair i < j, the sparse
rational expansion of the bracket [e_i, e_j].  Antisymmetry is structural:
only i < j pairs are stored, [e_j, e_i] is derived by negation, and
[e_i, e_i] is zero because the pair (i, i) cannot be represented at all.

Whether a table satisfies the Jacobi identity is a question, answered by
`check_jacobi`, not a construction requirement: the holonomy machinery
deliberately consumes non-Jacobi tables to exhibit inconsistent rewriting.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "LieFormatError",
    "LiePresentation",
    "Vector",
    "bracket",
    "check_jacobi",
    "jacobi_defect",
    "parse_presentation",
    "parse_terms",
    "serialize_presentation",
]

#: Sparse element of the Lie algebra: basis index -> nonzero rational.
#: A plain dict because perfbench's straighten gate compares `hexagon_defect` with one.
Vector = dict[int, Fraction]

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class LieFormatError(ValueError):
    """Malformed `.lie` text or invalid presentation data."""


def _accumulate(acc: dict, items: Iterable) -> dict:
    """Add (key, coefficient) pairs into acc in place; keys that cancel to
    zero are dropped.  Returns acc."""
    get = acc.get
    for k, c in items:
        s = get(k)
        s = c if s is None else s + c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


class LiePresentation:
    """Ordered basis names plus the bracket table over the rationals."""

    # _lie is filled by normalize on first use: False when the table fails
    # Jacobi, else the table's integral view (each integral constant as an
    # int), which the product table computes on; None until then
    __slots__ = ("names", "constants", "_index", "_lie")

    def __init__(self, names: Iterable[str], constants: Mapping | None = None):
        names = tuple(names)
        if not names:
            raise LieFormatError("a presentation needs at least one basis name")
        index: dict[str, int] = {}
        for nm in names:
            if not isinstance(nm, str) or not _NAME.match(nm):
                raise LieFormatError(f"invalid basis name {nm!r}")
            if nm in index:
                raise LieFormatError(f"duplicate basis name {nm!r}")
            index[nm] = len(index)
        table: dict[tuple[int, int], Vector] = {}
        for pair, vec in (constants or {}).items():
            i, j = pair
            if not (0 <= i < len(names) and 0 <= j < len(names)):
                raise LieFormatError(f"bracket pair {pair} out of range")
            if i == j:
                raise LieFormatError(
                    f"self-bracket [{names[i]}, {names[i]}] is zero by antisymmetry"
                )
            if i > j:
                raise LieFormatError(f"bracket pair {pair} must be keyed with i < j")
            clean: Vector = {}
            for k, c in dict(vec).items():
                if not 0 <= k < len(names):
                    raise LieFormatError(f"coefficient index {k} out of range")
                c = Fraction(c)
                if c:
                    clean[int(k)] = c
            if clean:
                table[(int(i), int(j))] = clean
        self.names = names
        self.constants = table
        self._index = index
        self._lie = None

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LieFormatError(f"unknown basis name {name!r}") from None

    def check_index(self, i: int) -> None:
        if not isinstance(i, int) or not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range for dimension {self.dim}")

    def __eq__(self, other):
        if not isinstance(other, LiePresentation):
            return NotImplemented
        return self.names == other.names and self.constants == other.constants

    def __repr__(self):
        return f"LiePresentation(basis={' '.join(self.names)}, brackets={len(self.constants)})"


def parse_terms(L: LiePresentation, text: str) -> list[tuple[tuple[int, ...], Fraction]]:
    """Parse `['-'] term (('+'|'-') term)*`, term = `[rational] name*`.

    A term is a whitespace-separated optional rational followed by basis
    names of L; a bare rational denotes a multiple of the empty word.
    Returns one (word, signed coefficient) pair per term, unmerged.
    """
    tokens = text.split()
    if not tokens:
        raise LieFormatError("empty expression")
    pairs: list[tuple[tuple[int, ...], Fraction]] = []
    pos = 0
    sign = 1
    if tokens[0] in ("+", "-"):
        sign = -1 if tokens[0] == "-" else 1
        pos = 1
    while True:
        if pos >= len(tokens):
            raise LieFormatError("empty term")
        coeff = Fraction(1)
        has_content = False
        tok = tokens[pos]
        if tok[0].isdigit() or (tok[0] in "+-" and len(tok) > 1):
            if not _RATIONAL.match(tok):
                raise LieFormatError(f"malformed rational {tok!r}")
            try:
                coeff = Fraction(tok)
            except ZeroDivisionError:
                raise LieFormatError(f"malformed rational {tok!r}") from None
            pos += 1
            has_content = True
        word = []
        while pos < len(tokens) and tokens[pos] not in ("+", "-"):
            nm = tokens[pos]
            if nm[0].isdigit() or nm[0] in "+-":
                raise LieFormatError(f"unexpected {nm!r} inside a term")
            word.append(L.index(nm))
            pos += 1
            has_content = True
        if not has_content:
            raise LieFormatError("empty term")
        pairs.append((tuple(word), sign * coeff))
        if pos == len(tokens):
            break
        sign = -1 if tokens[pos] == "-" else 1
        pos += 1
    return pairs


def parse_presentation(text: str) -> LiePresentation:
    """Parse the line-oriented `.lie` format.

    `#` starts a comment; the first significant line is `basis n1 n2 ...`
    (listing order defines the basis order); each following line reads
    `bracket x y = EXPR`, where EXPR is a `parse_terms` expression whose
    terms are each a single basis name with an optional rational, or
    literally `0` for an explicit zero bracket.  Unlisted pairs are zero.
    A pair written in descending order is stored negated under the
    ascending key.
    """
    basis: LiePresentation | None = None
    constants: dict[tuple[int, int], Vector] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if basis is None:
                if fields[0] != "basis" or len(fields) < 2:
                    raise LieFormatError("expected 'basis name...' first")
                basis = LiePresentation(fields[1:])
                continue
            if fields[0] != "bracket" or len(fields) < 5 or fields[3] != "=":
                raise LieFormatError("expected 'bracket x y = ...'")
            x, y = fields[1], fields[2]
            i, j = basis.index(x), basis.index(y)
            if i == j:
                raise LieFormatError(f"self-bracket [{x}, {x}]")
            key = (min(i, j), max(i, j))
            if key in constants:
                raise LieFormatError(f"pair ({x}, {y}) listed twice")
            terms = [] if fields[4:] == ["0"] else parse_terms(basis, " ".join(fields[4:]))
            for w, _ in terms:
                if len(w) != 1:
                    raise LieFormatError("trailing coefficient without a basis name" if not w
                                         else f"{len(w)} basis names in one bracket term")
            constants[key] = _accumulate({}, ((w[0], c if i < j else -c) for w, c in terms))
        except LieFormatError as e:
            raise LieFormatError(f"line {lineno}: {e}") from None
    if basis is None:
        raise LieFormatError("missing 'basis' line")
    return LiePresentation(basis.names, constants)


def serialize_presentation(L: LiePresentation) -> str:
    """Emit `.lie` text that re-parses to an identical presentation."""
    lines = ["basis " + " ".join(L.names)]
    for i, j in sorted(L.constants):
        parts: list[str] = []
        for k, c in sorted(L.constants[(i, j)].items()):
            body = f"{abs(c)} {L.names[k]}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        lines.append(f"bracket {L.names[i]} {L.names[j]} = " + " ".join(parts))
    return "\n".join(lines) + "\n"


def bracket(L: LiePresentation, i: int, j: int) -> Vector:
    """Expansion of [e_i, e_j]; antisymmetric by construction."""
    L.check_index(i)
    L.check_index(j)
    if i == j:
        return {}
    if i < j:
        return dict(L.constants.get((i, j), {}))
    return {k: -c for k, c in L.constants.get((j, i), {}).items()}


def jacobi_defect(L: LiePresentation, i: int, j: int, k: int) -> Vector:
    """[e_i,[e_j,e_k]] + [[e_i,e_k],e_j] + [e_k,[e_i,e_j]].

    Zero on every triple exactly when the table is a Lie algebra; the
    expression is alternating in (i, j, k) for any antisymmetric table.
    """
    out: Vector = {}
    # sign * [e_a, [e_b, e_c]] per term; [[i,k],j] = -[j,[i,k]]
    for a, b, c, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)):
        for m, x in bracket(L, b, c).items():
            _accumulate(out, ((n, sign * x * y) for n, y in bracket(L, a, m).items()))
    return out


def check_jacobi(L: LiePresentation) -> list[tuple[tuple[int, int, int], Vector]]:
    """All triples i < j < k with nonzero Jacobi defect; empty means Lie."""
    bad = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                d = jacobi_defect(L, i, j, k)
                if d:
                    bad.append(((i, j, k), d))
    return bad
