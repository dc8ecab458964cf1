"""Shared setup of the test suite: the fixture tables and their names, the
non-integral tables `SL2_HALF` and `BAD_THIRD`, word enumeration, seeded
random tables, every small table (`small_scope_tables`), the one check of
the product table (`check_product`), memory-limited child runs and a
lowered recursion limit.

Test modules import shared helpers from this file, never from each other;
a helper that a second test module needs moves here.  Each check is made
once: an acceptance criterion in `test_acceptance.py` is the one home of
its checks, and a unit test keeps only what no criterion checks.  Golden
bytes are compared only in criterion 8 (the `--trace` stderr golden, which
no criterion reads, in `test_cli.py`).  A unit test does not re-assert what
a golden, a doctest or a render pin (`RENDER_SHA256`) already fixes.
"""

import itertools
import os
import resource
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import pbw
from pbw.cli import format_element
from pbw.normalizer import Strategy, _product, _rewrite
from pbw.presentation import (LiePresentation, check_jacobi, parse_presentation,
                              serialize_presentation)
from pbw.tensor import TensorElement

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
JACOBI_FIXTURES = ["abelian3", "heisenberg", "sl2", "f32", "f42"]
ALL_FIXTURES = JACOBI_FIXTURES + ["bad"]
# sl2 with [e, f] = h/2: a Lie table with a non-integral structure constant,
# which no fixture has
SL2_HALF = """basis e f h
bracket e f = 1/2 h
bracket e h = -2 e
bracket f h = 2 f
"""
# a table that fails Jacobi with a non-integral constant, 1/3
BAD_THIRD = """basis a b c u v w
bracket a b = u
bracket a c = v
bracket b c = w
bracket c u = 1/3 a
"""
TEXT_TABLES = {"sl2-half": SL2_HALF, "bad-third": BAD_THIRD}
ALL_TABLES = ALL_FIXTURES + list(TEXT_TABLES)


def load_fixture(name):
    return parse_presentation((FIXTURES / f"{name}.lie").read_text(encoding="utf-8"))


def load_table(name):
    """A fixture, or SL2_HALF or BAD_THIRD by its name in `TEXT_TABLES`."""
    return parse_presentation(TEXT_TABLES[name]) if name in TEXT_TABLES else load_fixture(name)


def all_words(dim, max_len):
    """Every word over range(dim) of length at most max_len, shortest first."""
    for length in range(max_len + 1):
        yield from itertools.product(range(dim), repeat=length)


# draws in a row of the wrong kind after which `random_tables(..., alternate=True)`
# gives up; the seeded tables of the suite never need more than 8
MAX_REJECTED_DRAWS = 1000


def random_tables(rng, count, alternate=False):
    """`count` seeded antisymmetric tables of dim 3-5 with one to three
    brackets of small rational constants: Lie or not as they fall, or with
    `alternate` alternately Lie and not, by rejection.  Rejection raises
    AssertionError after `MAX_REJECTED_DRAWS` draws in a row of the wrong
    kind, so a `check_jacobi` that calls every table one kind fails instead
    of drawing for ever."""
    rejected = 0
    while count:
        dim = rng.randint(3, 5)
        pairs = rng.sample(list(itertools.combinations(range(dim), 2)), rng.randint(1, 3))
        L = LiePresentation("abcde"[:dim], {
            p: {k: rng.choice((-2, -1, 1, 2, Fraction(1, 2)))
                for k in rng.sample(range(dim), rng.randint(1, 2))}
            for p in pairs})
        if not alternate or (check_jacobi(L) == []) is (count % 2 == 0):
            count -= 1
            rejected = 0
            yield L
            continue
        rejected += 1
        if rejected == MAX_REJECTED_DRAWS:
            raise AssertionError(
                f"random_tables: {MAX_REJECTED_DRAWS} draws in a row of the wrong kind")


def small_scope_tables(step=1):
    """Every antisymmetric table on the basis a b c with constants in
    {-1, 0, 1}, Lie or not: 3^9 = 19,683 tables in a fixed order, fewest
    nonzero constants first, so the first that fails a check is small;
    with `step`, every step-th of them, from the first."""
    pairs = list(itertools.combinations(range(3), 2))
    order = sorted(itertools.product((0, 1, -1), repeat=9), key=lambda cs: cs.count(0),
                   reverse=True)
    for cs in order[::step]:
        yield LiePresentation("abc", {p: dict(enumerate(cs[3 * n:3 * n + 3]))
                                      for n, p in enumerate(pairs)})


def mismatch(L, x, *forms):
    """A failed check's report: L as `.lie` text, then x and each (label, form)."""
    return serialize_presentation(L) + "".join(
        f"{label:<17}{format_element(L, form)}\n" for label, form in [("input", x), *forms])


def check_product(L, xs):
    """Check the product table's one claim, that `normalize`'s product route
    `_product` is the LEFTMOST rewriter on any antisymmetric table, on each
    element x of xs: the product is `_rewrite`'s LEFTMOST form; the product
    on the mirrored table (letter k -> d-1-k, words reversed, so the
    rightmost descent becomes the leftmost), read back, is the RIGHTMOST
    form; the two forms agree if L is Lie; and every coefficient of the
    product is a nonzero `Fraction`.  Returns each x's (LEFTMOST, RIGHTMOST)
    forms; the first check that fails raises AssertionError with its report."""
    d, lie = L.dim, check_jacobi(L) == []
    mirror = LiePresentation(L.names, {
        (d - 1 - j, d - 1 - i): {d - 1 - k: c for k, c in vec.items()}
        for (i, j), vec in L.constants.items()})

    def flip(alg, x):
        return TensorElement._own(alg, {tuple(d - 1 - t for t in reversed(w)): c
                                        for w, c in x.terms.items()})

    forms = []
    for x in xs:
        # (label, form) pairs, as `mismatch` reports them
        product = ("product", _product(L, x))
        mirrored = ("mirrored product", flip(L, _product(mirror, flip(mirror, x))))
        left = ("LEFTMOST", _rewrite(L, x, Strategy.LEFTMOST, None))
        right = ("RIGHTMOST", _rewrite(L, x, Strategy.RIGHTMOST, None))
        for got, want in [(product, left), (mirrored, right)] + ([(right, left)] if lie else []):
            if got[1] != want[1]:
                raise AssertionError(mismatch(L, x, got, want))
        terms = product[1].terms
        if not all(type(c) is Fraction and c for c in terms.values()):
            raise AssertionError(mismatch(L, x, product) + repr(list(terms.items())))
        forms.append((left[1], right[1]))
    return forms


def run_limited(args, megabytes, timeout):
    """`python *args` with this checkout's `src` on its path, under an
    address-space limit of `megabytes` that binds the child process alone."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))
    src = Path(pbw.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(src)},
                          preexec_fn=limit, capture_output=True, text=True, timeout=timeout)


@contextmanager
def recursion_limit(limit):
    """Run the block under `sys.setrecursionlimit(limit)`, then restore it."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def abelian():
    return load_fixture("abelian3")


@pytest.fixture(scope="session")
def heisenberg():
    return load_fixture("heisenberg")


@pytest.fixture(scope="session")
def sl2():
    return load_fixture("sl2")


@pytest.fixture(scope="session")
def f32():
    return load_fixture("f32")


@pytest.fixture(scope="session")
def f42():
    return load_fixture("f42")


@pytest.fixture(scope="session")
def bad():
    return load_fixture("bad")
