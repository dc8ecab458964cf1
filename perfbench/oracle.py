"""Independent correctness checks for the benchmark's outputs.

Nothing here imports `pbw`.  The bracket tables are read by a parser of
their own, Jacobi defects are expanded from that parse, elements are
checked through exact integer matrix representations, certificates are
replayed by a move interpreter of their own and the cell census is
compared with its closed formula.  A check that passes here therefore does
not rest on the code it checks.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Fixed, so that a representation is part of the checker and not of the
# workload's seeded input.
_REP_SEED = 20171031

Word = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class GateError(AssertionError):
    """An output disagreed with its independent check."""


class Table:
    """Basis names and the antisymmetric bracket [i, j] -> {k: coefficient}."""

    def __init__(self, names: tuple[str, ...],
                 brackets: dict[tuple[int, int], dict[int, Fraction]]):
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}
        self.brackets = brackets

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        return self.brackets.get((i, j), {})

    def bracket_vec(self, i: int, v: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for m, c in v.items():
            for k, d in self.bracket(i, m).items():
                out[k] = out.get(k, 0) + c * d
        return {k: c for k, c in out.items() if c}


def read_table(text: str) -> Table:
    """Parse `.lie` text: a `basis` line, then `bracket x y = terms` lines."""
    names: tuple[str, ...] = ()
    index: dict[str, int] = {}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "basis":
            names = tuple(fields[1:])
            index = {nm: i for i, nm in enumerate(names)}
            continue
        if fields[0] != "bracket" or fields[3] != "=":
            raise ValueError(f"unreadable table line {raw!r}")
        i, j = index[fields[1]], index[fields[2]]
        vec = {w[0]: c for w, c in parse_terms(index, " ".join(fields[4:])).items()}
        brackets[(i, j)] = vec
        brackets[(j, i)] = {k: -c for k, c in vec.items()}
    return Table(names, brackets)


def parse_terms(index: dict[str, int], text: str) -> dict[Word, Fraction]:
    """Sign-separated terms `[rational] name*` -> {word: coefficient}."""
    out: dict[Word, Fraction] = {}
    sign, coeff, word, seen = 1, Fraction(1), [], False

    def flush():
        if not seen:
            raise ValueError(f"empty term in {text!r}")
        w = tuple(word)
        out[w] = out.get(w, 0) + sign * coeff

    for tok in text.split():
        if tok in ("+", "-"):
            if seen:
                flush()
                sign, coeff, word, seen = 1, Fraction(1), [], False
            if tok == "-":
                sign = -sign
        elif tok[0].isdigit() or tok[0] == "-":
            if word:
                raise ValueError(f"coefficient after a name in {text!r}")
            coeff, seen = Fraction(tok), True
        else:
            word.append(index[tok])
            seen = True
    flush()
    return {w: c for w, c in out.items() if c}


def format_terms(names: tuple[str, ...], terms: dict[Word, Fraction]) -> str:
    """One canonical text for a term map, used only for output digests."""
    if not terms:
        return "0"
    return " ".join(f"{c}*{'.'.join(names[t] for t in w) or '1'}"
                    for w, c in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])))


def is_canonical(terms) -> bool:
    """Every word weakly increasing."""
    return all(all(a <= b for a, b in zip(w, w[1:])) for w in terms)


def jacobi(tab: Table, i: int, j: int, k: int) -> dict[int, Fraction]:
    """[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]]."""
    out: dict[int, Fraction] = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, v in tab.bracket_vec(a, tab.bracket(b, c)).items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


# -- exact matrix representations -------------------------------------------

def _mul(x: Matrix, y: Matrix) -> Matrix:
    cols = tuple(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in x)


def _comm(x: Matrix, y: Matrix) -> Matrix:
    xy, yx = _mul(x, y), _mul(y, x)
    return tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(xy, yx))


def _combo(terms, size: int) -> list[list]:
    out = [[0] * size for _ in range(size)]
    for c, m in terms:
        for r in range(size):
            for s in range(size):
                out[r][s] += c * m[r][s]
    return out


class Representation:
    """An algebra map from U(g) to exact square matrices, with a word cache."""

    def __init__(self, images: list[Matrix]):
        self.images = images
        self.size = len(images[0])
        ident = tuple(tuple(int(r == s) for s in range(self.size)) for r in range(self.size))
        self._cache: dict[Word, Matrix] = {(): ident}

    def word(self, w: Word) -> Matrix:
        m = self._cache.get(w)
        if m is None:
            m = _mul(self.word(w[:-1]), self.images[w[-1]])
            if len(w) <= 6:
                self._cache[w] = m
        return m

    def element(self, terms) -> list[list]:
        return _combo(((c, self.word(w)) for w, c in terms.items()), self.size)


def representation(name: str, tab: Table) -> Representation | None:
    """sl2 acts on its 2-dim module.  A two-step nilpotent table sends each
    generator to N + lambda*I with N strictly upper triangular 3x3, and each
    bracket element to the commutator of its generators' images; abelian
    tables send each element to c*E13 + lambda*I.  Returns None for a table
    with no such map (one that fails Jacobi), after checking the map is a
    Lie homomorphism on every basis pair."""
    if name == "sl2":
        images = {"e": ((0, 1), (0, 0)), "f": ((0, 0), (1, 0)), "h": ((1, 0), (0, -1))}
        rep = Representation([images[nm] for nm in tab.names])
    else:
        rng = random.Random(f"{_REP_SEED}:{name}")
        dim = len(tab.names)
        derived: dict[int, tuple[int, int, Fraction]] = {}
        for (i, j), vec in sorted(tab.brackets.items()):
            if i < j and len(vec) == 1:
                (k, c), = vec.items()
                derived.setdefault(k, (i, j, c))
        images: list[Matrix | None] = [None] * dim
        slopes: set[Fraction] = set()
        for t in range(dim):
            if t in derived:
                continue
            a, b = 0, 0
            while tab.brackets and Fraction(b, a or 1) in slopes | {0}:
                # distinct slopes b/a keep every generator commutator nonzero
                a, b = rng.randint(1, 4), rng.randint(1, 4)
            slopes.add(Fraction(b, a or 1))
            c, lam = rng.randint(-3, 3), rng.randint(1, 4)
            images[t] = ((lam, a, c), (0, lam, b), (0, 0, lam))
        for k, (i, j, c) in derived.items():
            if images[i] is None or images[j] is None:
                return None
            comm = _comm(images[i], images[j])
            if any(v % c for row in comm for v in row):
                return None
            images[k] = tuple(tuple(v // c for v in row) for row in comm)
        rep = Representation(images)
    for i in range(len(tab.names)):
        for j in range(len(tab.names)):
            want = rep.element({(k,): c for k, c in tab.bracket(i, j).items()})
            got = _comm(rep.images[i], rep.images[j])
            if [list(r) for r in got] != want:
                return None
    return rep


# -- Coxeter checks ------------------------------------------------------------

def replay(letters: Word, moves: list[tuple[str, int]]) -> Word:
    """Apply cancel/commute/braid moves at 1-based positions; raise GateError
    on a move that does not apply."""
    w = tuple(letters)
    for step, (kind, p) in enumerate(moves, start=1):
        if kind == "cancel" and 1 <= p < len(w) and w[p - 1] == w[p]:
            w = w[: p - 1] + w[p + 1:]
        elif kind == "commute" and 1 <= p < len(w) and abs(w[p - 1] - w[p]) >= 2:
            w = w[: p - 1] + (w[p], w[p - 1]) + w[p + 1:]
        elif (kind == "braid" and 1 <= p <= len(w) - 2 and w[p - 1] == w[p + 1]
              and abs(w[p - 1] - w[p]) == 1):
            w = w[: p - 1] + (w[p], w[p - 1], w[p]) + w[p + 2:]
        else:
            raise GateError(f"move {step} ({kind}@{p}) does not apply to {w}")
    return w


def census_formula(n: int) -> tuple[int, int]:
    """(hexagonal, square) codimension-2 cells of S_n: each pair of adjacent
    generators gives n!/6 cosets, each commuting pair n!/4."""
    adjacent = n - 2
    commuting = (n - 1) * (n - 2) // 2 - adjacent
    return adjacent * math.factorial(n) // 6, commuting * math.factorial(n) // 4
