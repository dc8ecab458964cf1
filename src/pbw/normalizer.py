"""Straightening to canonical form: weakly increasing words only.

`transport` carries a word along a path of adjacent swaps, and each swap
x⊗y -> y⊗x adds prefix ⊗ [x, y] ⊗ suffix to a remainder.  The rewrite
step, `swap_reduce_at`, is transport at a descent (x > y): the word
reached plus the remainder.  The swapped word loses exactly one inversion
and the bracket correction is one letter shorter, so rewriting terminates
no matter the order.  `normalize_all_ways` branches over every (word,
descent) redex: the brute-force oracle that the tests hold the
`confluence` command's one pass of `swap_reduce_at` steps against.

`normalize` takes one of two routes.  On a Lie table with no `trace`, PBW
makes the normal form independent of the reduction order, so it is built
from a product table: one `_times` call per input word adds the word's
normal form, times its coefficient, into the output, right-multiplying
canonical monomials by the word's letters one at a time, with m'·y·x =
(m'·x)·y + m'·[y, x] for y > x, and keeping each product at a letter that
does not commute with it for the rest of the call.  The table is keyed by
the part of m that x must pass: at a closed x (the letters >= x span a
subalgebra), m's leading run of letters <= x rides along untouched.
With a `trace`, or on a table that fails Jacobi, the rewriter runs
instead: a deterministic redex rule plus a descent strategy, one
`swap_reduce_at` step at a time.  `transport`, the product table and the
Jacobi check read the presentation's one signed view of its read-only
bracket table, whose integral constants are `int`s: sums stay exact
`int`s wherever they can, and each result term is made a `Fraction` as
it leaves.  The confluence oracle's `_steps` reads `L.constants` itself,
so it shares no step code or derived table with the rewriter.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable

from .presentation import LiePresentation, _accumulate, _add_scaled, _fractions, check_jacobi
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
_MAX_DIM = 256  # the oracle holds one letter per byte
_MAX_STATES = 100_000  # the states one oracle call may expand
_MAX_TRACE_STEPS = 20_000  # the rewrite steps one traced call may make


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran past its budget of oracle states or traced steps."""


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
    ...y x..., and the remainder gains prefix ⊗ [x, y] ⊗ suffix.  Every
    letter of w and every position (an `int` in 1..len(w)-1) is checked first.
    """
    w, positions = tuple(w), tuple(positions)
    _check(L, w, positions)
    top, acc = _transport(L._signed, w, positions)
    return top, TensorElement._own(L, _fractions(acc))


def _check(L: LiePresentation, w: Word, positions: tuple) -> None:
    """Raise IndexError unless w's letters and the positions are valid for `transport`."""
    L.check_word(w)
    for p in positions:
        if not (isinstance(p, int) and 1 <= p < len(w)):
            raise IndexError(f"position {p!r} is not an int in 1..{len(w) - 1}")


def _transport(signed: dict, w: Word, positions) -> tuple[Word, dict]:
    """`transport` of a checked word along checked positions; the remainder keeps `int` sums."""
    top = list(w)  # swapped in place; tuples are built only for a nonzero bracket
    acc: dict = {}
    get = acc.get
    for p in positions:
        x, y = top[p - 1], top[p]
        vec = signed.get((x, y))
        if vec:
            prefix, suffix = tuple(top[: p - 1]), tuple(top[p + 1 :])
            for k, c in vec.items():
                v = prefix + (k,) + suffix
                s = get(v, 0) + c
                if s:
                    acc[v] = s
                else:
                    del acc[v]
        top[p - 1], top[p] = y, x
    return tuple(top), acc


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
    _check(L, w, (p,))
    # x > y is the termination measure: the swap removes exactly this inversion
    if w[p - 1] <= w[p]:
        raise ValueError(f"position {p} is not a descent of {w}")
    top, rest = _transport(L._signed, w, (p,))
    return TensorElement._own(L, {top: _ONE, **_fractions(rest)})


def normalize(L: LiePresentation, x: TensorElement,
              strategy: Strategy = Strategy.LEFTMOST, trace=None) -> TensorElement:
    """Canonical form of x: linear, terminating, idempotent.

    On a Lie table with no `trace`, the result comes from a product table
    built for this call, keyed by the part of each monomial a letter must
    pass (see `_times`), and `strategy` plays no part; it sums in `int`s
    where it can, and each output term is made a `Fraction` once.
    Otherwise the rewriter runs: each step rewrites one descent, picked by
    `strategy`, of the redex word (the word of highest degree that has a
    descent, first in printing order among those), and `trace`, when
    given, is called with (word, position, replacement) for every step, in
    order; past `_MAX_TRACE_STEPS` traced steps it raises
    `SearchBudgetExceeded`.  On a Lie table both routes give the same
    result under either strategy.

    A zero x gives a new zero element at once, with no `trace` call, on
    any table.  Otherwise whether L is Lie is decided by `check_jacobi` on
    the first call and kept in `L._lie`; L's bracket table is read-only, so
    the verdict holds.
    """
    if not (x.alg is L or x.alg == L):
        raise ValueError("element belongs to a different presentation")
    if not isinstance(strategy, Strategy):
        raise TypeError(f"strategy must be a Strategy, not {strategy!r}")
    if not x.terms:  # zero takes no step on any route
        return TensorElement._own(L, {})
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
    steps = 0
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
            steps += 1
            if steps > _MAX_TRACE_STEPS:
                raise SearchBudgetExceeded(
                    f"normalize stopped its trace after {_MAX_TRACE_STEPS} rewrite steps")
            trace(w, p, repl)
        for v in repl.terms:
            if v not in cur and descents(v):
                heapq.heappush(heap, (-len(v), v))
        _accumulate(cur, repl.terms.items())
    return TensorElement._own(L, cur)


def _product(L: LiePresentation, x: TensorElement) -> TensorElement:
    """The product-table route of `normalize`, on L's signed view.

    One `_times` call per word w of x adds c·(normal form of w) into `out`,
    with c its coefficient in x as an `int` when it is integral: the sums
    stay in `int`s, and each output term is made a `Fraction` once, at the
    end.  `table` maps (s, x) to the terms of s·x, for canonical s with
    a letter above x that does not commute with x (see `_times`); it lives
    for this call only.  `L._closed` keeps the closed letters.
    """
    brackets, table, out, closed = L._signed, {}, {}, L._closed
    if closed is None:  # a bracket of letters >= x with a letter below x opens x
        closed = L._closed = frozenset(range(L.dim)).difference(
            *(range(min(vec) + 1, min(pair) + 1) for pair, vec in brackets.items()))
    for w, c in x.terms.items():
        _times(brackets, table, w, out, c.numerator if c.denominator == 1 else c, closed)
    return TensorElement._own(L, _fractions(out))


def _times(brackets: dict, table: dict, w: Word, out: dict, c, closed) -> None:
    """out += c·(normal form of w), filling `table`.

    The word's frame [w, None, 1, ...] is seeded with w[:1] before the
    loop, and its stages multiply by the rest of w one letter at a time; a
    stage's product that is not one word is a letter request m·x, for
    canonical nonempty m, resolved inside the same loop.  x first passes
    every letter above it that commutes with it: each such step of the
    recurrence, m'·y·x = (m'·x)·y + m'·[y, x], has [y, x] = 0.  If that is
    all of them, m·x is the one word with x inserted.  Otherwise m = m0·z,
    where m0 ends in a letter y > x with [y, x] != 0 and x commutes with
    every letter of z, so m·x = (m0·x)·z, and m0·x = (m'·x)·y + m'·[y, x]
    for m0 = m'·y: the same recurrence, with its zero terms left out, so
    the result is the same on any antisymmetric table.  Unless `table`
    has m·x, or m is one letter (y·x = x·y + [y, x]), a frame [m, x, j,
    terms, pending, next index, p] waits for m[:j]·x (m'·x if z is empty,
    else m0·x), then builds m[:j+1]·x = (m[:j]·x)·m[j] + m[:j]·[m[j], x]
    stage by stage up to m·x and stores it in `table`; a letter of z adds
    no bracket term, and neither does a letter of w (no pair (y, None) is
    in `brackets`).  Each pending product is scaled into its stage's terms
    as it arrives.  The frames wait on an explicit stack, so word length
    is not bounded by the recursion limit.

    x is in `closed` when every bracket of two letters >= x has only
    letters >= x.  Then m = p·s, p = m[:bisect_right(m, x)], is keyed (s,
    x): the recurrence never reaches p, and each word u of s·x starts at or
    above x >= p[-1], so m·x has the words p + u; p goes back on as s·x
    leaves the table or its frame finishes.  An open x keys the whole of m.
    """
    stack = [[w, None, 1, None, None, 0, ()]]
    got = {w[:1]: 1}
    try:
        while stack:
            frame = stack[-1]
            m, x, j, terms, pending, i, p = frame
            if pending is not None:  # got is pending[i - 1]'s product
                _add_scaled(terms, got, pending[i - 1][2])
                if i < len(pending):
                    frame[5] = i + 1
                    m, x, _ = pending[i]
                else:
                    j += 1
                    got = terms
                    pending = None
            if pending is None:
                # got is m[:j]·x: build stages until one leaves a product pending
                while j < len(m):
                    y, terms, pending = m[j], {}, []
                    for t, d in got.items():
                        if t[-1] <= y:
                            terms[t + (y,)] = d
                            continue
                        i = len(t) - 1
                        while i >= 0 and t[i] > y and (t[i], y) not in brackets:
                            i -= 1
                        if i >= 0 and t[i] > y:
                            pending.append((t, y, d))
                        else:
                            terms[t[:i + 1] + (y,) + t[i + 1:]] = d
                    vec = brackets.get((y, x))
                    if vec:
                        head = m[:j]
                        for k, d in vec.items():
                            if head[-1] <= k:
                                v = head + (k,)
                                s = terms.pop(v, 0) + d
                                if s:
                                    terms[v] = s
                            else:
                                pending.append((head, k, d))
                    if pending:
                        break
                    j += 1
                    got = terms
                else:
                    if x is not None:  # a word's own normal form is not kept
                        table[(m, x)] = got
                    if p:
                        got = {p + u: d for u, d in got.items()}
                    stack.pop()
                    continue
                frame[2:6] = j, terms, pending, 1
                m, x, _ = pending[0]
            while True:  # the letter request m·x
                i = len(m) - 1
                while i >= 0 and m[i] > x and (m[i], x) not in brackets:
                    i -= 1
                if i < 0 or m[i] <= x:  # x passes every letter above it
                    got = {m[:i + 1] + (x,) + m[i + 1:]: 1}
                    break
                p = ()
                if m[0] <= x and x in closed:  # m = p·s: s·x is stored, p rides along
                    n = bisect_right(m, x)
                    p, m, i = m[:n], m[n:], i - n
                got = table.get((m, x))
                if got is None and len(m) > 1:
                    j = i if i == len(m) - 1 else i + 1
                    stack.append([m, x, j, None, None, 0, p])
                    m = m[:j]
                    continue
                if got is None:  # y·x = x·y + [y, x] needs no smaller product
                    got = table[(m, x)] = {(x,) + m: 1}
                    for k, d in brackets[(m[0], x)].items():
                        got[(k,)] = d
                if p:
                    got = {p + u: d for u, d in got.items()}
                break
        _add_scaled(out, got, c)
    except MemoryError:
        # the traceback keeps each frame it passes alive, with its locals,
        # until the error is handled, and each frame further out needs memory
        # to unwind (CPython 3.11 loses the error as a SystemError when there
        # is none): free the table, then the waiting frames, first
        table.clear()
        stack.clear()
        raise


def normalize_all_ways(L: LiePresentation, w,
                       memo: dict | None = None) -> frozenset[TensorElement]:
    """Every canonical form reachable from {w: 1} by descent rewrites.

    Every (word, descent) redex of each state is branched on; a singleton
    result certifies that all reduction orders agree on this input.  The
    search keeps its states on its own stack, so word length is not bounded
    by the recursion limit.  It holds each word as `bytes`, one letter per
    byte, whose hash is cached and whose comparisons run in C; so L may
    have at most 256 basis elements, and a larger one raises ValueError on
    a memo miss.  A state is its memo key: one flat tuple of the state's
    sorted words then their nonzero coefficients, (bytes(w), 1) at the
    start.  Each successor's key is merged from its parent's, with no dict
    or sort per successor: the reduced word drops out, and each step term
    is added to its word's coefficient (both dropped at 0) or inserted at
    its rank, found by bisection among the words.  A `memo` dict may be
    shared by the words of one presentation (or of equal ones); a memo of
    another presentation raises ValueError.  It maps keys to frozensets of
    forms, shared and never mutated: a new one is built only where two
    successors' forms differ, and the result is the memo's own frozenset.
    States keep `int` coefficients while integral; each form is built
    once, from the two halves of a canonical state's key, as a
    `TensorElement` with tuple words and `Fraction` coefficients.  Steps
    come from the bracket table, not `swap_reduce_at`, so no step code is
    shared with the rewriter.  Raises SearchBudgetExceeded after expanding
    more than `_MAX_STATES` states.
    """
    w = tuple(w)
    try:
        b = bytes(w)
    except (TypeError, ValueError):  # not an int, or outside 0..255: raised below
        b = None
    if memo is None:
        memo = {}
    elif memo:  # one stored form names the memo's presentation
        alg = next(iter(next(iter(memo.values())))).alg
        if not (alg is L or alg == L):
            raise ValueError("memo belongs to a different presentation")
    out = memo.get((b, 1))
    if out is not None:
        return out
    L.check_word(w)  # a word out of range is never a memo key
    if L.dim > _MAX_DIM:
        raise ValueError(
            f"normalize_all_ways takes at most {_MAX_DIM} basis elements, not {L.dim}")
    steps: dict = {}  # word -> the terms of each of its descent rewrites
    expanded, max_states = 0, _MAX_STATES
    stack = [[(b, 1), None, None]]  # key, redexes (None until expanded), forms
    while stack:
        key, redexes, acc = frame = stack[-1]
        n = len(key) // 2
        if redexes is None:
            expanded += 1
            if expanded > max_states:
                raise SearchBudgetExceeded(
                    f"normalize_all_ways expanded more than {max_states} states")
            redexes = []
            for i in range(n):
                found = steps.get(key[i])
                if found is None:
                    found = steps[key[i]] = _steps(L, key[i])
                for step in found:
                    redexes.append((i, step))
            frame[1] = redexes = iter(redexes)
        for i, step in redexes:
            # merge c·step into the key without word i: words stay sorted
            terms = list(key)
            c = terms.pop(n + i)
            del terms[i]
            m = n - 1
            for v, d in step:
                j = bisect_left(terms, v, 0, m)
                if j < m and terms[j] == v:
                    s = terms[m + j] + c * d
                    if s:
                        terms[m + j] = s
                    else:
                        del terms[m + j], terms[j]
                        m -= 1
                else:
                    terms.insert(m + j, c * d)
                    terms.insert(j, v)
                    m += 1
            nxt = tuple(terms)
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
            out = memo[key] = acc or frozenset((TensorElement._own(
                L, {tuple(v): Fraction(c) for v, c in zip(key[:n], key[n:])}),))
            if stack:
                stack[-1][2] = _join(stack[-1][2], out)
    return out


def _join(acc: frozenset | None, forms: frozenset) -> frozenset:
    """acc ∪ forms; forms if acc is None, and either operand itself if it holds the other."""
    if acc is None or acc <= forms:
        return forms
    return acc if forms <= acc else acc | forms


def _steps(L: LiePresentation, w: bytes) -> list:
    """The terms of each rewrite x y -> y x - [y, x] at a descent of w,
    with `bytes` words and `int` factors for integral structure constants."""
    out = []
    for p in range(1, len(w)):
        x, y = w[p - 1], w[p]
        if x > y:
            pre, suf = w[: p - 1], w[p + 1 :]
            out.append([(pre + bytes((y, x)) + suf, 1)] + [
                (pre + bytes((k,)) + suf, -c.numerator if c.denominator == 1 else -c)
                for k, c in L.constants.get((y, x), {}).items()])
    return out
