"""Straightening to canonical form: weakly increasing words only.

`transport` carries a word along a path of adjacent swaps, and each swap
x⊗y -> y⊗x adds prefix ⊗ [x, y] ⊗ suffix to a remainder.  The rewrite
step, `swap_reduce_at`, is transport at a descent (x > y): the word
reached plus the remainder.  The swapped word loses exactly one inversion
and the bracket correction is one letter shorter, so rewriting terminates
no matter the order.  `normalize_all_ways` branches over every (word,
descent) redex, and is the brute-force oracle that decides whether all
reduction orders agree on a given input.

`normalize` takes one of two routes.  On a Lie table with no `trace`, PBW
makes the normal form independent of the reduction order, so it is built
from a product table: each word is rebuilt from its first letter by
right-multiplying canonical monomials one letter at a time, with
m'·y·x = (m'·x)·y + m'·[y, x] for y > x, and each product of a
(canonical word, letter) pair is computed once per call.  No word is
split at its first descent: `_times` appends a letter that is not below
the monomial's last one.  The table computes in exact `int`s wherever
the structure constants are integral: it reads the integral view of the
signed bracket table, which the presentation builds at construction.  With a `trace`, or on a table that
fails Jacobi, the rewriter runs instead: a deterministic redex rule plus
a descent strategy, one `swap_reduce_at` step at a time.  A presentation's
bracket table is read-only, so these views cannot go stale.  The
confluence oracle's `_steps` reads `L.constants` itself, so it shares no
step code or derived table with the rewriter.
"""

from __future__ import annotations

import enum
import heapq
from fractions import Fraction
from typing import Iterable

from .presentation import LiePresentation, _accumulate, check_jacobi
from .tensor import TensorElement, Word

__all__ = [
    "SearchBudgetExceeded",
    "Strategy",
    "descents",
    "normalize",
    "normalize_all_ways",
    "swap_reduce_at",
    "transport",
]

_ONE = Fraction(1)
_INT = frozenset((int,))


class SearchBudgetExceeded(RuntimeError):
    """A bounded exhaustive search ran past its configured node budget."""


class Strategy(enum.Enum):
    """Which descent of the redex word the rewriter takes first."""

    LEFTMOST = "leftmost"
    RIGHTMOST = "rightmost"


def descents(w: Word) -> list[int]:
    """1-based positions p with w[p] > w[p+1]."""
    return [p for p in range(1, len(w)) if w[p - 1] > w[p]]


def transport(L: LiePresentation, w: Iterable[int],
              positions: Iterable[int]) -> tuple[Word, TensorElement]:
    """(word reached, remainder) of transporting w along `positions`.

    Each position p swaps slots p, p+1 of the current word, ...x y... ->
    ...y x..., and the remainder gains prefix ⊗ [x, y] ⊗ suffix.  The
    letters of w are checked once, up front; each position (an `int` in
    1..len(w)-1) when it is read.
    """
    top = tuple(w)
    L.check_word(top)
    n, signed = len(top), L._signed
    acc: dict[Word, Fraction] = {}
    for p in positions:
        if not (isinstance(p, int) and 1 <= p < n):
            raise IndexError(f"position {p!r} is not an int in 1..{n - 1}")
        x, y = top[p - 1], top[p]
        prefix, suffix = top[: p - 1], top[p + 1 :]
        vec = signed.get((x, y))
        if vec:
            _accumulate(acc, ((prefix + (k,) + suffix, c) for k, c in vec.items()))
        top = prefix + (y, x) + suffix
    return top, TensorElement._own(L, acc)


def swap_reduce_at(L: LiePresentation, w, p: int) -> TensorElement:
    """Rewrite the descent at p: ...x y... -> ...y x... + prefix [x,y] suffix.

    This is `transport` of w along (p,): the swapped word, with coefficient
    1 and the only word as long as w, plus the remainder, one letter shorter.

    Termination: the swapped word has exactly one inversion fewer than w.
    Every position outside the swapped pair is before both of its letters
    or after both, before and after the swap, so only the pair itself
    changes relative order, and x > y means it goes from inverted to not.
    The descent test is therefore the whole termination check.
    """
    w = tuple(w)
    top, rest = transport(L, w, (p,))
    # x > y is the termination measure: the swap removes exactly this inversion
    if w[p - 1] <= w[p]:
        raise ValueError(f"position {p} is not a descent of {w}")
    return TensorElement._own(L, {top: _ONE, **rest.terms})


def normalize(L: LiePresentation, x: TensorElement,
              strategy: Strategy = Strategy.LEFTMOST, trace=None) -> TensorElement:
    """Canonical form of x: linear, terminating, idempotent.

    On a Lie table with no `trace`, the result comes from a product table
    built for this call, and `strategy` plays no part.  The product table
    computes in exact `int`s wherever the structure constants are
    integral, and x's coefficients are applied once per output term, so
    the result has `Fraction` coefficients as always.  Otherwise the
    rewriter runs: each step rewrites one descent, picked by `strategy`, of
    the redex word (the word of highest degree that has a descent, first
    in printing order among those), and `trace`, when given, is called with
    (word, position, replacement) for every step, in order.  On a Lie table
    both routes give the same result under either strategy.

    Whether L is Lie is decided by `check_jacobi` on the first call and
    kept in `L._lie`; L's bracket table is read-only, so the verdict holds.
    """
    if not (x.alg is L or x.alg == L):
        raise ValueError("element belongs to a different presentation")
    if trace is None:
        if L._lie is None:
            L._lie = not check_jacobi(L)
        if L._lie:
            return _product(L, x)
    return _rewrite(L, x, strategy, trace)


def _rewrite(L: LiePresentation, x: TensorElement, strategy: Strategy,
             trace) -> TensorElement:
    """The rewriter route of `normalize`, on any table."""
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
        step = swap_reduce_at(L, w, p).terms
        repl = TensorElement._own(L, {v: c if d is _ONE else c * d for v, d in step.items()})
        if trace is not None:
            trace(w, p, repl)
        for v in repl.terms:
            if v not in cur and descents(v):
                heapq.heappush(heap, (-len(v), v))
        _accumulate(cur, repl.terms.items())
    return TensorElement._own(L, cur)


def _add_scaled(acc: dict, terms: dict, c) -> None:
    """acc += c·terms in place; words that cancel to zero are dropped."""
    get = acc.get
    for v, d in terms.items():
        d = c if d == 1 else -c if d == -1 else c * d
        s = get(v)
        s = d if s is None else s + d
        if s:
            acc[v] = s
        else:
            del acc[v]


def _product(L: LiePresentation, x: TensorElement) -> TensorElement:
    """The product-table route of `normalize`, on L's integral view.

    Each word is multiplied on one letter at a time through `_times`,
    starting from its first letter with coefficient 1; `_times` appends a
    letter that is not below the word's last one, so a weakly increasing
    run costs no table lookup.  The word's coefficient in x is applied to
    the finished terms.  `table` maps (canonical word m, letter x) to the
    terms of m·x when m ends in a letter above x; it lives for this call
    only.
    """
    brackets = L._integral
    table: dict = {}
    out: dict = {}
    try:
        for w, c in x.terms.items():
            cur = {w[:1]: 1}
            for letter in w[1:]:
                nxt: dict = {}
                for m, d in cur.items():
                    _add_scaled(nxt, _times(brackets, table, m, letter), d)
                cur = nxt
            # an int input coefficient is made a Fraction, so the result is all Fractions
            _add_scaled(out, cur, c if type(c) is Fraction else Fraction(c))
    except MemoryError:
        table.clear()  # before the frames further out unwind: see `_times`
        raise
    return TensorElement._own(L, out)


def _times(brackets: dict, table: dict, m: Word, x: int) -> dict:
    """Terms of m·x for canonical m, filling `table`.

    A product that needs smaller products is a generator that yields each
    (word, letter) it needs and is sent its terms; the generators wait on
    an explicit stack, so word length is not bounded by the recursion limit.
    """
    stack: list = []
    try:
        while True:
            key = (m, x)
            if not m or m[-1] <= x:
                got = {m + (x,): 1}
            elif key in table:
                got = table[key]
            elif len(m) == 1:
                # y·x = x·y + [y, x] needs no smaller product
                got = table[key] = {(x,) + m: 1}
                for k, c in brackets.get((m[0], x), {}).items():
                    got[(k,)] = c
            else:
                got = None
                stack.append((key, _expand(brackets, m, x)))
            while stack:
                key, frame = stack[-1]
                try:
                    m, x = frame.send(got)
                    break
                except StopIteration as done:
                    got = table[key] = done.value
                    stack.pop()
            else:
                return got
    except MemoryError:
        # the traceback keeps each frame it passes alive, with its locals,
        # until the error is handled, and each frame further out needs memory
        # to unwind (CPython 3.11 loses the error as a SystemError when there
        # is none): free the table, then the waiting generators, first
        table.clear()
        stack.clear()
        raise


def _expand(brackets: dict, m: Word, x: int):
    """Generator behind `_times`: m = m'·y with y > x, and
    m·x = (m'·x)·y + m'·[y, x]."""
    head, y = m[:-1], m[-1]
    out: dict = {}
    for t, c in (yield head, x).items():
        if t[-1] <= y:
            v = t + (y,)
            s = out.get(v, 0) + c
            if s:
                out[v] = s
            else:
                del out[v]
        else:
            _add_scaled(out, (yield t, y), c)
    for k, c in brackets.get((y, x), {}).items():
        _add_scaled(out, (yield head, k), c)
    return out


def normalize_all_ways(L: LiePresentation, w, max_results: int = 100_000,
                       memo: dict | None = None) -> set[TensorElement]:
    """Every canonical form reachable from {w: 1} by descent rewrites.

    Every (word, descent) redex of each state is branched on; a singleton
    result certifies that all reduction orders agree on this input.  A
    `memo` dict, keyed by the states, may be shared by many words of one
    presentation (never across presentations).  Its values are frozensets
    of forms, never mutated: every state with the same forms holds one
    shared frozenset, and a state whose successors all reach the same
    forms keeps theirs, so a new set is built only where two successors'
    forms differ.  States keep `int` coefficients while integral; returned
    forms have `Fraction` ones.
    Steps come from the bracket table, not `swap_reduce_at`, so no step
    code is shared with the rewriter.  The search keeps its own stack, so
    word length is not bounded by the recursion limit.  Raises
    SearchBudgetExceeded after expanding more than `max_results` states.
    """
    w = tuple(w)
    if not _INT.issuperset(map(type, w)):
        L.check_word(w)  # a float letter would find the equal int word's state
    start = TensorElement._own(L, {w: 1})
    if memo is None:
        memo = {}
    out = memo.get(start)
    if out is not None:
        return set(out)
    L.check_word(w)  # a word out of range is never a memo key
    steps: dict = {}  # word -> (word, terms) of each of its descent rewrites
    expanded = 0
    # frames: a state, its pending redexes (None until expanded), its forms so far
    stack = [[start, None, None]]
    while stack:
        el, redexes, acc = frame = stack[-1]
        if redexes is None:
            expanded += 1
            if expanded > max_results:
                raise SearchBudgetExceeded(
                    f"normalize_all_ways expanded more than {max_results} states")
            redexes = []
            for word in el.terms:
                found = steps.get(word)
                if found is None:
                    found = steps[word] = list(_steps(L, word))
                if found:
                    redexes += found
            frame[1] = redexes = iter(redexes)
        for word, step in redexes:
            terms = dict(el.terms)
            c = terms.pop(word)
            for v, d in step:
                s = terms.get(v, 0) + c * d
                if s:
                    terms[v] = s
                else:
                    del terms[v]
            nxt = TensorElement._own(L, terms)
            hit = memo.get(nxt)
            if hit is None:
                frame[2] = acc
                stack.append([nxt, None, None])
                break
            if acc is None:
                acc = hit
            elif hit is not acc:
                acc = _join(acc, hit)
        else:
            stack.pop()
            # a state with no redex is canonical: its Fraction form is built once, here
            out = memo[el] = acc or frozenset((TensorElement(L, el.terms),))
            if stack:
                parent = stack[-1]
                parent[2] = out if parent[2] is None else _join(parent[2], out)
    return set(out)


def _join(acc: frozenset, forms: frozenset) -> frozenset:
    """acc ∪ forms, returning either operand itself when it holds the other."""
    if acc <= forms:
        return forms
    return acc if forms <= acc else acc | forms


def _steps(L: LiePresentation, w: Word):
    """(w, terms) of each rewrite x y -> y x - [y, x] at a descent of w,
    with `int` factors for integral structure constants."""
    for p in range(1, len(w)):
        pre, (x, y), suf = w[: p - 1], w[p - 1 : p + 1], w[p + 1 :]
        if x > y:
            yield w, [(pre + (y, x) + suf, 1)] + [
                (pre + (k,) + suf, -c.numerator if c.denominator == 1 else -c)
                for k, c in L.constants.get((y, x), {}).items()]
