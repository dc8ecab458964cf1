"""The symmetric group on adjacent transpositions, viewed as a Coxeter group.

A generator word is a sequence of 1-based positions p, each meaning "swap
slots p and p+1".  Three local moves preserve the evaluated permutation:
cancelling an equal adjacent pair, commuting generators at distance >= 2,
and the braid substitution s_i s_{i+1} s_i <-> s_{i+1} s_i s_{i+1}.
`contract_loop` reduces any identity loop to the empty word with these
moves and returns a replayable certificate, without search: each letter
that would shorten the reduced word read so far is cancelled after the
exchange condition (Matsumoto, Tits) brings its partner next to it by
commutes and braids, the square and hexagon cells below.

Codimension-2 cells of the associated complex correspond to cosets of the
rank-2 subgroups <s_i, s_j>: hexagonal ("tricky") when the generators are
adjacent, square ("easy") when they commute.  `codim2_census_by_cosets`
walks each cell's boundary, s_i and s_j in turn, and reads its type off the
walk's length; right multiplication by a generator is one byte translation.

>>> evaluate(GeneratorWord(3, (1, 2, 1)))
(2, 1, 0)
>>> evaluate(GeneratorWord(3, (1, 2, 1))) == evaluate(GeneratorWord(3, (2, 1, 2)))
True
"""

from __future__ import annotations

import collections
import enum
import itertools
import math
import random
from typing import Iterable, NamedTuple

__all__ = [
    "BRAID",
    "CANCEL",
    "COMMUTE",
    "CellType",
    "GeneratorWord",
    "Move",
    "MoveError",
    "Permutation",
    "codim2_census",
    "codim2_census_by_cosets",
    "contract_loop",
    "evaluate",
    "is_identity_loop",
    "random_identity_loop",
    "replay",
]

#: One-line notation: position t holds the letter perm[t].
Permutation = tuple[int, ...]

CANCEL = "cancel"
COMMUTE = "commute"
BRAID = "braid"


class GeneratorWord(collections.namedtuple("GeneratorWord", "n letters")):
    """A word in adjacent transpositions of n slots; indices are 1-based."""

    __slots__ = ()

    def __new__(cls, n: int, letters: Iterable[int] = ()):
        letters = tuple(letters)
        if not (isinstance(n, int) and n >= 1):
            raise ValueError(f"need an int n >= 1, got n={n!r}")
        for p in letters:
            if not (isinstance(p, int) and 1 <= p < n):
                raise ValueError(f"generator index {p!r} is not an int in 1..{n - 1} for n={n}")
        return super().__new__(cls, n, letters)


def evaluate(g: GeneratorWord) -> Permutation:
    """Compose the swaps in order, starting from the identity arrangement."""
    perm = list(range(g.n))
    for p in g.letters:
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    return tuple(perm)


def is_identity_loop(g: GeneratorWord) -> bool:
    return evaluate(g) == tuple(range(g.n))


class Move(NamedTuple):
    """One local rewriting move at a 1-based position."""

    kind: str
    pos: int

    def __str__(self):
        return f"{self.kind}@{self.pos}"


class MoveError(ValueError):
    """A move was not applicable; `step` is set when raised during replay."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def _apply_to_letters(w: tuple[int, ...], move: Move) -> tuple[int, ...]:
    p = move.pos
    if not isinstance(p, int):
        raise MoveError(f"{move} has a position that is not an int")
    if move.kind == CANCEL:
        if not (1 <= p < len(w)) or w[p - 1] != w[p]:
            raise MoveError(f"{move} not applicable to {w}")
        return w[: p - 1] + w[p + 1 :]
    if move.kind == COMMUTE:
        if not (1 <= p < len(w)) or abs(w[p - 1] - w[p]) < 2:
            raise MoveError(f"{move} not applicable to {w}")
        return w[: p - 1] + (w[p], w[p - 1]) + w[p + 1 :]
    if move.kind == BRAID:
        if not (1 <= p <= len(w) - 2) or w[p - 1] != w[p + 1] or abs(w[p - 1] - w[p]) != 1:
            raise MoveError(f"{move} not applicable to {w}")
        x, y = w[p - 1], w[p]
        return w[: p - 1] + (y, x, y) + w[p + 2 :]
    raise MoveError(f"unknown move kind {move.kind!r}")


def replay(g: GeneratorWord, certificate: Iterable[Move]) -> GeneratorWord:
    """Apply a certificate move by move; reports the failing step index."""
    letters = g.letters
    for k, move in enumerate(certificate, start=1):
        try:
            letters = _apply_to_letters(letters, move)
        except MoveError as e:
            raise MoveError(f"step {k}: {e}", step=k) from None
    return GeneratorWord(g.n, letters)


def contract_loop(g: GeneratorWord) -> list[Move]:
    """A certificate of local moves reducing an identity loop to ().

    One left-to-right pass keeps the letters read so far as a reduced word
    r with its permutation.  A letter p with perm[p-1] < perm[p] keeps r
    reduced and is appended.  Otherwise p is a right descent of r: by the
    exchange condition, commutes and braids bring a p to the end of r,
    then cancel@len(r) removes it with the incoming p.  So r is empty at
    the end exactly when the loop closes.  perm holds only the slots the
    letters moved, so memory grows with the loop, not with n.

    Bound: a loop of length L has L/2 cancels.  Before one, r has length
    l <= min(L/2, n(n-1)/2), since r and the rest of the loop spell
    inverse permutations of length l.  The letter brought to the end only
    moves right, past each later letter of r once, but the nested moves
    that make way for it can swap one pair of letters more than once, so
    the swapped pairs do not bound the moves.  At most C(l, 2) moves precede
    each cancel: checked for every reduced word and descent for n <= 6;
    reached only at l = 2; not proven.

    >>> [str(m) for m in contract_loop(GeneratorWord(3, (1, 2) * 3))]
    ['braid@1', 'cancel@3', 'cancel@2', 'cancel@1']
    """
    cert: list[Move] = []
    prefix: list[int] = []
    perm: dict[int, int] = {}  # an unmoved slot t holds t
    for p in g.letters:
        a, b = perm.get(p - 1, p - 1), perm.get(p, p)
        if a < b:
            prefix.append(p)
        else:
            _bring_to_end(prefix, p, cert)
            cert.append(Move(CANCEL, len(prefix)))
            prefix.pop()
        perm[p - 1], perm[p] = b, a
    if prefix:
        raise ValueError("word does not evaluate to the identity")
    return cert


def _bring_to_end(r: list[int], d: int, cert: list[Move]) -> None:
    """End the reduced word r in its right descent d, in place, appending
    the moves to cert.  To end r[:end] in d with a = r[end-1] != d: if
    |a-d| >= 2, end r[:end-1] in d and commute; else end r[:end-1] in d,
    r[:end-2] in a, and braid.  The stack holds such goals and the moves
    to apply after them, as the recursion is as deep as r is long."""
    todo: list = [(d, len(r))]
    while todo:
        item = todo.pop()
        if isinstance(item, Move):
            k = item.pos
            if item.kind == COMMUTE:
                r[k - 1], r[k] = r[k], r[k - 1]
            else:
                r[k - 1:k + 2] = (r[k], r[k - 1], r[k])
            cert.append(item)
            continue
        d, end = item
        a = r[end - 1]
        if a == d:
            continue
        if abs(a - d) >= 2:
            todo += [Move(COMMUTE, end - 1), (d, end - 1)]
        else:
            todo += [Move(BRAID, end - 2), (a, end - 2), (d, end - 1)]


class CellType(enum.Enum):
    """Rank-2 cell flavor: hexagon (adjacent pair) or square (commuting pair)."""

    TRICKY = "tricky"
    EASY = "easy"


def codim2_census(n: int) -> dict[CellType, int]:
    """Counts of codim-2 cells by type, via the closed coset-count formula.

    Each unordered generator pair {i, j} contributes the cosets of
    <s_i, s_j>: n!/6 of them for an adjacent pair, n!/4 otherwise.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    nf = math.factorial(n)
    tricky_pairs = n - 2
    easy_pairs = (n - 1) * (n - 2) // 2 - (n - 2)
    return {
        CellType.TRICKY: tricky_pairs * nf // 6,
        CellType.EASY: easy_pairs * nf // 4,
    }


def codim2_census_by_cosets(n: int) -> dict[CellType, int]:
    """Same counts as `codim2_census`, by explicitly partitioning S_n into
    right cosets of each rank-2 subgroup.  Independent route, kept for checking.

    Each arrangement w is keyed by the bytes of its inverse (byte x is the
    slot of letter x), so the n! keys are the permutations of range(n),
    numbered in `itertools` order with the identity at 0.  The key of
    w ∘ s_p is w's key with the byte values p-1 and p swapped, one
    `bytes.translate`, so right[p][k] is the number of w_k ∘ s_p.  The
    coset of w_k under <s_i, s_j> is the boundary of one cell: the walk
    from k that applies s_i and s_j in turn until it is back at k.  Three
    step pairs make a hexagon, two a square; each k not yet seen opens one.

    >>> codim2_census_by_cosets(4)
    {<CellType.TRICKY: 'tricky'>: 8, <CellType.EASY: 'easy'>: 6}
    """
    if n < 3:
        raise ValueError("need n >= 3")
    index = {bytes(w): k for k, w in enumerate(itertools.permutations(range(n)))}
    swaps = {p: bytes.maketrans(bytes((p - 1, p)), bytes((p, p - 1))) for p in range(1, n)}
    right = {p: list(map(index.__getitem__, map(bytes.translate, index, itertools.repeat(t))))
             for p, t in swaps.items()}
    laps = [0, 0, 0, 0]  # laps[m]: cells whose boundary walk took m step pairs
    for i in range(1, n):
        for j in range(i + 1, n):
            a, b, seen = right[i], right[j], bytearray(len(index))
            k = 0
            while k >= 0:  # k opens a coset; the scan for the next resumes after it
                h, m = k, 0
                while m == 0 or h != k:  # a and b are bijections, so the walk closes
                    h = a[h]
                    seen[h] = 1
                    h = b[h]
                    seen[h] = 1
                    m += 1
                laps[m] += 1
                k = seen.find(0, k + 1)
    return {CellType.TRICKY: laps[3], CellType.EASY: laps[2]}


def random_identity_loop(n: int, max_len: int = 12,
                         rng: random.Random | None = None) -> GeneratorWord:
    """A nonempty identity loop of even length <= max_len, by construction:
    a walk of 1 to max_len // 2 random letters, then random descents of its
    arrangement undone until the arrangement is sorted.  The walk's length
    bounds the descents undone and has their parity, so no draw is rejected."""
    if n < 2 or max_len < 2:
        raise ValueError("need n >= 2 and max_len >= 2")
    rng = rng if rng is not None else random.Random(0)
    letters = [rng.randint(1, n - 1) for _ in range(rng.randint(1, max_len // 2))]
    perm = list(evaluate(GeneratorWord(n, letters)))
    while descents := [p for p in range(1, n) if perm[p - 1] > perm[p]]:
        p = rng.choice(descents)
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
        letters.append(p)
    return GeneratorWord(n, letters)
