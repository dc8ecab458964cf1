"""Exhaustive small-scope check of the product table: every dim-3 table.

    PYTHONPATH=src python tests/small_scope.py

Most bugs show on some small input (the small-scope hypothesis: Jackson,
*Software Abstractions*, 2006), so checking every small input is worth
more than sampling a larger space.  For each of the 19,683 antisymmetric
tables on the basis a b c with constants in {-1, 0, 1}, Lie or not, this
script checks that `normalize`'s product table (`_product`) gives the
LEFTMOST rewriter's normal form (`_rewrite`) on every word of length at
most 3: 787,320 words.  The tables come from `conftest.small_scope_tables`
in a fixed order, fewest nonzero constants first, so the first failure is
already small: the script prints that table as `.lie` text, the word and
both forms, and exits 1.

pytest does not collect this file; the Tier-1 test runs every 64th table
through `first_mismatch`.  Besides `pbw` it imports only the standard
library and the suite's `conftest.py`, which imports pytest.
"""

from __future__ import annotations

import sys
import time

from conftest import all_words, small_scope_tables
from pbw.cli import format_element
from pbw.normalizer import Strategy, _product, _rewrite
from pbw.presentation import LiePresentation, serialize_presentation
from pbw.tensor import TensorElement, monomial

MAX_LEN = 3


def first_mismatch(L: LiePresentation) -> tuple[tuple, TensorElement, TensorElement] | None:
    """(word, product form, LEFTMOST form) for the first word of length at
    most MAX_LEN, shortest first, whose two forms differ; None if none does."""
    for w in all_words(L.dim, MAX_LEN):
        x = monomial(L, w)
        got, want = _product(L, x), _rewrite(L, x, Strategy.LEFTMOST, None)
        if got != want:
            return w, got, want
    return None


def main() -> int:
    start, count = time.perf_counter(), 0
    for L in small_scope_tables():
        bad = first_mismatch(L)
        if bad is not None:
            w, got, want = bad
            print(serialize_presentation(L), end="")
            print(f"word     {' '.join(L.names[t] for t in w)}")
            print(f"product  {format_element(L, got)}")
            print(f"LEFTMOST {format_element(L, want)}")
            return 1
        count += 1
    print(f"ok {count} tables, every word of length <= {MAX_LEN} "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
