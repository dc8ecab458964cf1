"""Straightening to canonical form: weakly increasing words only.

The rewrite replaces a descent x⊗y (adjacent letters with x > y) by
y⊗x + [x, y] in context.  The swapped word loses exactly one inversion and
the bracket correction is one letter shorter, so rewriting terminates no
matter the order.  `normalize_all_ways` branches over every (word, descent)
redex, and is the brute-force oracle that decides whether all reduction
orders agree on a given input.

`normalize` takes one of two routes.  On a Lie table with no `trace`, PBW
makes the normal form independent of the reduction order, so it is built
from a product table: canonical monomials are right-multiplied one letter
at a time, with m'·y·x = (m'·x)·y + m'·[y, x] for y > x, and each product
of a (canonical word, letter) pair is computed once per call.  The table
computes in exact `int`s wherever the structure constants are integral:
it reads an integral view of the bracket table, built once per
presentation together with the Jacobi check and kept in `L._lie`.  With a
`trace`, or on a table that fails Jacobi, the rewriter runs instead: a
deterministic redex rule plus a descent strategy, one `swap_reduce_at`
step at a time.
"""

from __future__ import annotations

import enum
import heapq
from fractions import Fraction

from .errors import SearchBudgetExceeded
from .presentation import LiePresentation, _accumulate, check_jacobi
from .tensor import TensorElement, Word, monomial

__all__ = [
    "Strategy",
    "descents",
    "normalize",
    "normalize_all_ways",
    "swap_reduce_at",
]

_ONE = Fraction(1)


class Strategy(enum.Enum):
    """Which descent of the redex word the rewriter takes first."""

    LEFTMOST = "leftmost"
    RIGHTMOST = "rightmost"


def descents(w: Word) -> list[int]:
    """1-based positions p with w[p] > w[p+1]."""
    return [p for p in range(1, len(w)) if w[p - 1] > w[p]]


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

    Whether L is Lie is decided by `check_jacobi` on the first call, and
    the integral view of a Lie table is built then too; both are kept in
    `L._lie`, so L's bracket table must not be changed after that.
    """
    if not (x.alg is L or x.alg == L):
        raise ValueError("element belongs to a different presentation")
    if trace is None:
        brackets = _lie_view(L)
        if brackets is not False:
            return _product(L, brackets, x)
    return _rewrite(L, x, strategy, trace)


def _lie_view(L: LiePresentation) -> dict | bool:
    """L's bracket table with each integral constant as an `int`, or False
    when L fails Jacobi; decided on the first call and kept in `L._lie`.
    An empty table is Lie, so callers test for `is False`."""
    view = L._lie
    if view is None:
        view = L._lie = False if check_jacobi(L) else {
            pair: {k: c.numerator if c.denominator == 1 else c for k, c in vec.items()}
            for pair, vec in L.constants.items()}
    return view


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


def _product(L: LiePresentation, brackets: dict, x: TensorElement) -> TensorElement:
    """The product-table route of `normalize`; `brackets` is `_lie_view(L)`.

    Each word is split after its longest weakly increasing prefix, which is
    already canonical, and the rest is multiplied on one letter at a time,
    starting from coefficient 1; the word's coefficient in x is applied to
    the finished terms.  `table` maps (canonical word m, letter x) to the
    terms of m·x when m ends in a letter above x; it lives for this call
    only.
    """
    table: dict = {}
    out: dict = {}
    for w, c in x.terms.items():
        ds = descents(w)
        p = ds[0] if ds else len(w)
        cur = {w[:p]: 1}
        for letter in w[p:]:
            nxt: dict = {}
            for m, d in cur.items():
                if m[-1] <= letter:
                    v = m + (letter,)
                    s = nxt.get(v, 0) + d
                    if s:
                        nxt[v] = s
                    else:
                        del nxt[v]
                else:
                    _add_scaled(nxt, _times(brackets, table, m, letter), d)
            cur = nxt
        # an int input coefficient is made a Fraction, so the result is all Fractions
        _add_scaled(out, cur, c if type(c) is Fraction else Fraction(c))
    return TensorElement._own(L, out)


def _times(brackets: dict, table: dict, m: Word, x: int) -> dict:
    """Terms of m·x for canonical m, filling `table`.

    A product that needs smaller products is a generator that yields each
    (word, letter) it needs and is sent its terms; the generators wait on
    an explicit stack, so word length is not bounded by the recursion limit.
    """
    stack: list = []
    while True:
        key = (m, x)
        if not m or m[-1] <= x:
            got = {m + (x,): 1}
        elif key in table:
            got = table[key]
        elif len(m) == 1:
            # y·x = x·y + [y, x] needs no smaller product
            got = table[key] = {(x,) + m: 1}
            for k, c in brackets.get((x, m[0]), {}).items():
                got[(k,)] = -c
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
    # [y, x] = -[x, y] for y > x, and the table stores only (x, y)
    for k, c in brackets.get((x, y), {}).items():
        _add_scaled(out, (yield head, k), -c)
    return out


def normalize_all_ways(L: LiePresentation, w, max_results: int = 100_000,
                       memo: dict | None = None) -> set[TensorElement]:
    """Every canonical form reachable from {w: 1} by descent rewrites.

    Every (word, descent) redex of each state is branched on; a singleton
    result certifies that all reduction orders agree on this input.  A
    `memo` dict, keyed by the states, may be shared by many words of one
    presentation (never across presentations).  States keep `int`
    coefficients while integral; returned forms have `Fraction` ones.
    Steps come from the bracket table, not `swap_reduce_at`, so no step
    code is shared with the rewriter.  The search keeps its own stack, so
    word length is not bounded by the recursion limit.  Raises
    SearchBudgetExceeded after expanding more than `max_results` states.
    """
    w = tuple(w)
    start = TensorElement._own(L, {w: 1})
    if memo is None:
        memo = {}
    out = memo.get(start)
    if out is not None:
        return set(out)
    monomial(L, w)  # validates w; a word out of range is never a memo key
    steps: dict = {}  # word -> (word, terms) of each of its descent rewrites
    expanded = 0
    # frames: a state, its pending redexes (None until expanded), its forms so far
    stack = [[start, None, set()]]
    while stack:
        el, redexes, acc = frame = stack[-1]
        if redexes is None:
            expanded += 1
            if expanded > max_results:
                raise SearchBudgetExceeded(
                    f"normalize_all_ways expanded more than {max_results} states")
            redexes = []
            for word in el.terms:
                if word not in steps:
                    steps[word] = list(_steps(L, word))
                redexes += steps[word]
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
                stack.append([nxt, None, set()])
                break
            acc.update(hit)
        else:
            stack.pop()
            # a state with no redex is canonical: its Fraction form is built once, here
            out = memo[el] = frozenset(acc) if acc else frozenset((TensorElement(L, el.terms),))
            if stack:
                stack[-1][2].update(out)
    return set(out)


def _steps(L: LiePresentation, w: Word):
    """(w, terms) of each rewrite x y -> y x - [y, x] at a descent of w,
    with `int` factors for integral structure constants."""
    for p in range(1, len(w)):
        pre, (x, y), suf = w[: p - 1], w[p - 1 : p + 1], w[p + 1 :]
        if x > y:
            yield w, [(pre + (y, x) + suf, 1)] + [
                (pre + (k,) + suf, -c.numerator if c.denominator == 1 else -c)
                for k, c in L.constants.get((y, x), {}).items()]
