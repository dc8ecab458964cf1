"""Straightening to canonical form: weakly increasing words only.

The rewrite replaces a descent x⊗y (adjacent letters with x > y) by
y⊗x + [x, y] in context.  The swapped word loses exactly one inversion and
the bracket correction is one letter shorter, so rewriting terminates no
matter the order.  `normalize` fixes the order with a deterministic redex
rule plus a descent strategy; `normalize_all_ways` branches over every
(word, descent) redex instead, and is the brute-force oracle that decides
whether all reduction orders agree on a given input.
"""

from __future__ import annotations

import enum
import heapq
from fractions import Fraction

from .errors import SearchBudgetExceeded
from .presentation import LiePresentation, _accumulate
from .tensor import TensorElement, Word, monomial, term_order

__all__ = [
    "Strategy",
    "descents",
    "inversions",
    "is_canonical",
    "normalize",
    "normalize_all_ways",
    "swap_reduce_at",
]

_ONE = Fraction(1)


class Strategy(enum.Enum):
    """Which descent of the selected word is rewritten first."""

    LEFTMOST = "leftmost"
    RIGHTMOST = "rightmost"


def descents(w: Word) -> list[int]:
    """1-based positions p with w[p] > w[p+1]."""
    return [p for p in range(1, len(w)) if w[p - 1] > w[p]]


def inversions(w: Word) -> int:
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])


def is_canonical(x: TensorElement) -> bool:
    """True iff every word of x is weakly increasing (repeats allowed)."""
    return all(not descents(w) for w in x.terms)


def swap_reduce_at(L: LiePresentation, w, p: int) -> TensorElement:
    """Rewrite the descent at p: ...x y... -> ...y x... + prefix [x,y] suffix.

    The swapped word has coefficient 1 and is the only word of the result
    as long as w; every bracket term is one letter shorter.

    Termination: the swapped word has exactly one inversion fewer than w.
    Every position outside the swapped pair is before both of its letters
    or after both, before and after the swap, so only the pair itself
    changes relative order, and x > y means it goes from inverted to not.
    The descent test is therefore the whole termination check.
    """
    w = tuple(w)
    if not 1 <= p < len(w):
        raise IndexError(f"position {p} out of range for a word of length {len(w)}")
    x, y = w[p - 1], w[p]
    # x > y is the termination measure: the swap removes exactly this inversion
    if x <= y:
        raise ValueError(f"position {p} is not a descent of {w}")
    dim = L.dim
    for t in w:
        if not 0 <= t < dim:
            raise IndexError(f"basis index {t} out of range in word {w}")
    prefix, suffix = w[: p - 1], w[p + 1 :]
    terms = {prefix + (y, x) + suffix: _ONE}
    # [x, y] = -[y, x] for x > y, and the table stores only (y, x)
    for k, c in L.constants.get((y, x), {}).items():
        terms[prefix + (k,) + suffix] = -c
    return TensorElement._own(L, terms)


def _scaled_step(L: LiePresentation, w: Word, p: int, c: Fraction) -> dict:
    """Terms of c * swap_reduce_at(L, w, p).  The swapped word (the only one
    as long as w) has coefficient 1, so it keeps c; only brackets multiply."""
    n = len(w)
    return {v: c if len(v) == n else c * d for v, d in swap_reduce_at(L, w, p).terms.items()}


def normalize(L: LiePresentation, x: TensorElement,
              strategy: Strategy = Strategy.LEFTMOST, trace=None) -> TensorElement:
    """Canonical form of x: linear, terminating, idempotent.

    Each step rewrites one descent of the redex word: the word of highest
    degree that has a descent, first in printing order among those.
    `trace`, when given, is called with (word, position, replacement) for
    every rewrite step, in order.
    """
    if not (x.alg is L or x.alg == L):
        raise ValueError("element belongs to a different presentation")
    cur = dict(x.terms)
    # lazy heap of words with a descent; entries whose word has since left
    # `cur` are skipped when popped
    heap = [(-len(w), w) for w in cur if descents(w)]
    heapq.heapify(heap)
    while heap:
        _, w = heapq.heappop(heap)
        c = cur.pop(w, None)
        if c is None:
            continue
        ps = descents(w)
        p = ps[0] if strategy is Strategy.LEFTMOST else ps[-1]
        repl = TensorElement._own(L, _scaled_step(L, w, p, c))
        if trace is not None:
            trace(w, p, repl)
        for v in repl.terms:
            if v not in cur and descents(v):
                heapq.heappush(heap, (-len(v), v))
        _accumulate(cur, repl.terms.items())
    return TensorElement._own(L, cur)


def normalize_all_ways(L: LiePresentation, w, max_results: int = 100_000,
                       memo: dict | None = None) -> set[TensorElement]:
    """Every canonical form reachable from {w: 1} by descent rewrites.

    At each step every (word, descent) redex of the current element is
    branched on; a singleton result certifies that all reduction orders
    agree on this input.  The memo is keyed by the state element itself
    (its hash is cached), so a shared `memo` dict may be passed to reuse
    work across many words of the same presentation (never share it across
    presentations).  The search keeps its own stack, so word length is not
    bounded by the recursion limit.  Raises SearchBudgetExceeded after
    expanding more than `max_results` states.
    """
    start = monomial(L, tuple(w))
    if memo is None:
        memo = {}
    expanded = 0

    def expand(el: TensorElement) -> tuple:
        # a stack frame: the state, its pending redexes, the forms found so far
        nonlocal expanded
        expanded += 1
        if expanded > max_results:
            raise SearchBudgetExceeded(
                f"normalize_all_ways expanded more than {max_results} states")
        redexes = sorted(
            ((word, p) for word in el.terms for p in descents(word)),
            key=lambda t: (term_order(t[0]), t[1]),
        )
        return el, iter(redexes), set()

    out = memo.get(start)
    stack = [] if out is not None else [expand(start)]
    while stack:
        el, redexes, acc = stack[-1]
        for word, p in redexes:
            terms = dict(el.terms)
            c = terms.pop(word)
            step = _scaled_step(L, word, p, c).items()
            nxt = TensorElement._own(L, _accumulate(terms, step))
            hit = memo.get(nxt)
            if hit is None:
                stack.append(expand(nxt))
                break
            acc.update(hit)
        else:
            stack.pop()
            # a state with no redex is canonical and is its own only form
            out = memo[el] = frozenset(acc) if acc else frozenset((el,))
            if stack:
                stack[-1][2].update(out)
    return set(out)
