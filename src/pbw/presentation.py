"""Lie algebra presentations: an ordered basis with exact structure constants.

A presentation lists basis names (listing order defines the basis ordering
used everywhere downstream) and, for each index pair i < j, the sparse
rational expansion of the bracket [e_i, e_j].  Antisymmetry is structural:
only i < j pairs are stored, [e_j, e_i] is derived by negation, and
[e_i, e_i] is zero because the pair (i, i) cannot be represented at all.
The stored table is read-only, and the one signed view that the engine reads
instead, [e_x, e_y] for every ordered pair, is built with it: integral
constants are `int`s there, and results leave the engine as `Fraction`s.

Whether a table satisfies the Jacobi identity is a question, answered by
`check_jacobi`, not a construction requirement: the holonomy machinery
deliberately consumes non-Jacobi tables to exhibit inconsistent rewriting.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "LieFormatError",
    "LiePresentation",
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
_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


class LieFormatError(ValueError):
    """Malformed `.lie` text or invalid presentation data."""


def _is_index(t, dim: int) -> bool:
    return isinstance(t, int) and 0 <= t < dim


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


def _add_scaled(acc: dict, terms: dict, c) -> None:
    """acc += c·terms in place; keys that cancel to zero are dropped."""
    get = acc.get
    for v, d in terms.items():
        d = c if d == 1 else -c if d == -1 else c * d
        s = get(v)
        s = d if s is None else s + d
        if s:
            acc[v] = s
        else:
            del acc[v]


def _fractions(acc: dict) -> dict:
    """acc with each `int` value made a `Fraction` in place: a result leaving the engine."""
    for k, c in acc.items():
        if type(c) is int:
            acc[k] = Fraction(c)
    return acc


class LiePresentation:
    """Ordered basis names plus the bracket table over the rationals."""

    # built here from the read-only table: _signed maps each ordered pair with
    # a nonzero bracket to [e_x, e_y], with integral constants as ints; _lie,
    # normalize's Jacobi verdict, and _closed, the product table's closed
    # letters, are None until their first use
    __slots__ = ("_names", "_constants", "_index", "_signed", "_lie", "_closed")

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
        dim, table = len(names), {}
        for pair, vec in (constants or {}).items():
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and _is_index(pair[0], dim) and _is_index(pair[1], dim)):
                raise LieFormatError(f"bracket pair {pair!r} is not two ints in range({dim})")
            i, j = pair
            if i == j:
                raise LieFormatError(
                    f"self-bracket [{names[i]}, {names[i]}] is zero by antisymmetry"
                )
            if i > j:
                raise LieFormatError(f"bracket pair {pair} must be keyed with i < j")
            clean: Vector = {}
            try:
                vec = dict(vec)
            except (TypeError, ValueError):
                raise LieFormatError(
                    f"bracket pair {pair} maps to {vec!r}, not index -> rational") from None
            for k, c in vec.items():
                if not _is_index(k, dim):
                    raise LieFormatError(f"coefficient index {k!r} is not an int in range({dim})")
                try:
                    c = Fraction(c)
                except (ArithmeticError, TypeError, ValueError):
                    raise LieFormatError(
                        f"coefficient {c!r} of index {k} in bracket pair {pair} is not rational") from None
                if c:
                    clean[int(k)] = c
            if clean:
                table[(int(i), int(j))] = clean
        self._names = names
        self._constants = MappingProxyType({p: MappingProxyType(v) for p, v in table.items()})
        self._index = index
        signed = {**table, **{(j, i): {k: -c for k, c in v.items()} for (i, j), v in table.items()}}
        self._signed = {p: {k: c.numerator if c.denominator == 1 else c for k, c in v.items()}
                        for p, v in signed.items()}
        self._lie = self._closed = None

    @property
    def names(self) -> tuple[str, ...]:
        """The basis names, in basis order; read-only like the table."""
        return self._names

    @property
    def constants(self) -> Mapping:
        """The read-only bracket table: (i, j) with i < j -> [e_i, e_j]."""
        return self._constants

    @property
    def dim(self) -> int:
        return len(self._names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LieFormatError(f"unknown basis name {name!r}") from None

    def check_word(self, w) -> None:
        """Raise IndexError unless every letter of w is an int basis index."""
        dim = len(self._names)
        for t in w:
            if not (isinstance(t, int) and 0 <= t < dim):  # `_is_index`, without its call
                raise IndexError(f"basis index {t!r} out of range in word {w}")

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
    if tokens[0] not in ("+", "-"):
        tokens.insert(0, "+")
    cuts = [k for k, tok in enumerate(tokens) if tok in ("+", "-")] + [len(tokens)]
    pairs: list[tuple[tuple[int, ...], Fraction]] = []
    for k, end in zip(cuts, cuts[1:]):  # tokens[k] is the sign of tokens[k + 1:end]
        term, coeff = tokens[k + 1:end], Fraction(1)
        if not term:
            raise LieFormatError("empty term")
        if _numeric(term[0]):
            coeff = _rational(term.pop(0))
        try:
            word = tuple(map(L._index.__getitem__, term))
        except KeyError as e:  # its key is the term's first token that is not a name of L
            nm = e.args[0]
            raise LieFormatError(f"unexpected {nm!r} inside a term" if _numeric(nm)
                                 else f"unknown basis name {nm!r}") from None
        pairs.append((word, -coeff if tokens[k] == "-" else coeff))
    return pairs


def _numeric(tok: str) -> bool:
    """Whether a token starts like a number; terms hold no bare `+` or `-`."""
    return tok[0].isdigit() or tok[0] in "+-"


def _rational(tok: str) -> Fraction:
    m = _RATIONAL.match(tok)
    if m:
        n, d = m.groups()
        try:
            return Fraction(int(n), int(d)) if d else Fraction(int(n))
        except ZeroDivisionError:
            pass
        except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
            raise LieFormatError(
                f"rational {tok[:12] + '...'!r} has {len(tok)} characters, too many digits") from None
    raise LieFormatError(f"malformed rational {tok!r}")


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


def jacobi_defect(L: LiePresentation, i: int, j: int, k: int) -> Vector:
    """[e_i,[e_j,e_k]] + [[e_i,e_k],e_j] + [e_k,[e_i,e_j]].

    Zero on every triple exactly when the table is a Lie algebra; the
    expression is alternating in (i, j, k) for any antisymmetric table.
    """
    L.check_word((i, j, k))
    return _defect(L._signed, i, j, k)


def _defect(signed: dict, i: int, j: int, k: int) -> Vector:
    """`jacobi_defect` on a signed table, for indices already checked."""
    out: Vector = {}
    # sign * [e_a, [e_b, e_c]] per term; [[i,k],j] = -[j,[i,k]]
    for a, b, c, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)):
        for m, x in signed.get((b, c), {}).items():
            vec = signed.get((a, m))
            if vec:
                _add_scaled(out, vec, sign * x)
    return _fractions(out)


def check_jacobi(L: LiePresentation) -> list[tuple[tuple[int, int, int], Vector]]:
    """All triples i < j < k with nonzero Jacobi defect; empty means Lie."""
    return [(t, d) for t in itertools.combinations(range(L.dim), 3)
            if (d := _defect(L._signed, *t))]
