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
walk's length; right multiplication by a generator is one list lookup, in
maps built block by block from the order of `itertools.permutations`.

>>> evaluate(GeneratorWord(3, (1, 2, 1)))
(2, 1, 0)
>>> evaluate(GeneratorWord(3, (1, 2, 1))) == evaluate(GeneratorWord(3, (2, 1, 2)))
True
"""

from __future__ import annotations

import collections
import enum
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


def _moved(letters: Iterable[int]) -> dict[int, int]:
    """{slot: letter it holds} after `letters`, for the slots they swap."""
    perm: dict[int, int] = {}
    for p in letters:
        perm[p - 1], perm[p] = perm.get(p, p), perm.get(p - 1, p - 1)
    return perm


def is_identity_loop(g: GeneratorWord) -> bool:
    """Whether g evaluates to the identity, tracking only the slots it moves."""
    return all(t == v for t, v in _moved(g.letters).items())


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


def replay(g: GeneratorWord, certificate: Iterable[Move]) -> GeneratorWord:
    """Apply a certificate move by move; reports the failing step index.

    The letters are copied into one list, and each move is checked and
    then applied to it in place: a cancel deletes a two-letter slice, a
    commute swaps two letters and a braid stores three.  g is unchanged,
    and the result is not checked again: every move only deletes or
    rearranges letters of g."""
    w = list(g.letters)
    for k, move in enumerate(certificate, start=1):
        kind, p = move
        if not isinstance(p, int):
            raise MoveError(f"step {k}: {move} has a position that is not an int", step=k)
        if kind == CANCEL:
            if 1 <= p < len(w) and w[p - 1] == w[p]:
                del w[p - 1:p + 1]
                continue
        elif kind == COMMUTE:
            if 1 <= p < len(w) and abs(w[p - 1] - w[p]) >= 2:
                w[p - 1], w[p] = w[p], w[p - 1]
                continue
        elif kind == BRAID:
            if 1 <= p <= len(w) - 2 and w[p - 1] == w[p + 1] and abs(w[p - 1] - w[p]) == 1:
                x = w[p - 1]
                w[p - 1] = w[p + 1] = w[p]
                w[p] = x
                continue
        else:
            raise MoveError(f"step {k}: unknown move kind {kind!r}", step=k)
        raise MoveError(f"step {k}: {move} not applicable to {tuple(w)}", step=k)
    return GeneratorWord._make((g.n, tuple(w)))


def contract_loop(g: GeneratorWord) -> list[Move]:
    """A certificate of local moves reducing an identity loop to ().

    One left-to-right pass keeps the letters read so far as a reduced word
    r with its permutation.  A letter p with perm[p-1] < perm[p] keeps r
    reduced and is appended.  Otherwise p is a right descent of r: by the
    exchange condition, commutes and braids bring a p to the end of r,
    then cancel@len(r) removes it with the incoming p.  So r is empty at
    the end exactly when the loop closes.  perm holds only the slots the
    letters moved, so memory grows with the loop, not with n.  r is one
    list, rewritten in place by `_bring_to_end`, and a `Move` is made only
    when it is appended to the certificate.

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
            cert.append(tuple.__new__(Move, (CANCEL, len(prefix))))
            prefix.pop()
        perm[p - 1], perm[p] = b, a
    if prefix:
        raise ValueError("word does not evaluate to the identity")
    return cert


def _bring_to_end(r: list[int], d: int, cert: list[Move]) -> None:
    """End the reduced word r in its right descent d, in place, appending
    the moves to cert.  To end r[:end] in d with a = r[end-1] != d: if
    |a-d| >= 2, end r[:end-1] in d and commute; else end r[:end-1] in d,
    r[:end-2] in a, and braid.  The recursion is as deep as r is long, so
    one explicit stack holds int pairs instead: a goal (d, end) with the
    letter d >= 1, or a move to apply after the goals above it, (0, k)
    for commute@k and (-1, k) for braid@k."""
    todo = [(d, len(r))]
    while todo:
        d, end = todo.pop()
        if d > 0:
            a = r[end - 1]
            if a == d:
                continue
            if abs(a - d) >= 2:
                todo += ((0, end - 1), (d, end - 1))
            else:
                todo += ((-1, end - 2), (a, end - 2), (d, end - 1))
        elif d:  # r[end-1:end+2] is (a, b, a): make it (b, a, b)
            a = r[end - 1]
            r[end - 1] = r[end + 1] = r[end]
            r[end] = a
            cert.append(tuple.__new__(Move, (BRAID, end)))
        else:
            r[end - 1], r[end] = r[end], r[end - 1]
            cert.append(tuple.__new__(Move, (COMMUTE, end)))


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


def _right_maps(n: int) -> dict[int, list[int]]:
    """{p: right[p]} for p in 1..n-1: right[p][k] is the number of w_k ∘ s_p.

    w_k is the arrangement whose inverse (entry x is the slot of letter x)
    is the k-th permutation of range(n) in `itertools` order, so the
    identity is 0, and w ∘ s_p swaps the values p-1 and p of the inverse.
    On m values block q of that order holds the (m-1)! permutations that
    start with the value of rank q.  Swapping the values of ranks r and r+1
    exchanges blocks r and r+1 whole, at the same offset; inside any other
    block it swaps the values of the same two ranks among the m-1 values
    left, which are ranks r-1 and r when q < r.  Every number is taken from
    one list, so the maps share one int object per number."""
    ints = list(range(math.factorial(n)))
    memo: dict[tuple[int, int], list[int]] = {}

    def swap(m: int, r: int) -> list[int]:  # ranks r and r+1 of m values
        if (m, r) not in memo:
            size = math.factorial(m - 1)
            out: list[int] = []
            for q in range(m):
                if r <= q <= r + 1:
                    start = (2 * r + 1 - q) * size
                    out += ints[start:start + size]
                else:
                    sub = swap(m - 1, r if q > r else r - 1)
                    out += map(ints.__getitem__, map((q * size).__add__, sub)) if q else sub
            memo[m, r] = out
        return memo[m, r]

    return {p: swap(n, p - 1) for p in range(1, n)}


def codim2_census_by_cosets(n: int) -> dict[CellType, int]:
    """Same counts as `codim2_census`, by explicitly partitioning S_n into
    right cosets of each rank-2 subgroup.  Independent route, kept for checking.

    The n! arrangements are numbered as in `_right_maps`, and right[p][k] is
    the number of w_k ∘ s_p.  The coset of w_k under <s_i, s_j> is the
    boundary of one cell: the walk from k that applies s_i and s_j in turn
    until it is back at k.  Three step pairs make a hexagon, two a square;
    each k not yet seen opens one.

    >>> codim2_census_by_cosets(4)
    {<CellType.TRICKY: 'tricky'>: 8, <CellType.EASY: 'easy'>: 6}
    """
    if n < 3:
        raise ValueError("need n >= 3")
    right = _right_maps(n)
    laps = [0, 0, 0, 0]  # laps[m]: cells whose boundary walk took m step pairs
    for i in range(1, n):
        for j in range(i + 1, n):
            a, b, seen = right[i], right[j], bytearray(len(right[i]))
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
    bounds the descents undone and has their parity, so no draw is rejected.
    Only the slots the loop moves are tracked, so neither memory nor time
    grows with n."""
    if n < 2 or max_len < 2:
        raise ValueError("need n >= 2 and max_len >= 2")
    rng = rng if rng is not None else random.Random(0)
    letters = [rng.randint(1, n - 1) for _ in range(rng.randint(1, max_len // 2))]
    perm = _moved(letters)
    get = perm.get
    # a letter above p reaches slot p - 1 only through slot p, so a descent
    # at p has moved slot p: scan the moved slots, in ascending order as 1..n-1
    while descents := [p for p in sorted(perm) if p and get(p - 1, p - 1) > get(p, p)]:
        p = rng.choice(descents)
        perm[p - 1], perm[p] = get(p, p), get(p - 1, p - 1)
        letters.append(p)
    return GeneratorWord(n, letters)
