"""Exhaustive small-scope check of the product table: every dim-3 table.

    PYTHONPATH=src python tests/small_scope.py

Most bugs show on some small input (the small-scope hypothesis: Jackson,
*Software Abstractions*, 2006), so checking every small input is worth
more than sampling a larger space.  For each of the 19,683 antisymmetric
tables on the basis a b c with constants in {-1, 0, 1}, Lie or not, this
script runs `conftest.check_product` on every word of length at most 3
(787,320 words), and checks the LEFTMOST and RIGHTMOST forms against the
oracle, `normalize_all_ways`: both are among the forms it reaches, and it
reaches one form for every word exactly when `check_jacobi` finds no
defect.  The tables come from `conftest.small_scope_tables` in a fixed
order, fewest nonzero constants first, so the first failure is already
small: the script prints that table as `.lie` text, the word and the
forms, and exits 1.

pytest does not collect this file; the Tier-1 test runs every 64th table
through `check_table`.  Besides `pbw` it imports only the standard
library and the suite's `conftest.py`, which imports pytest.
"""

from __future__ import annotations

import sys
import time

from conftest import all_words, check_product, mismatch, small_scope_tables
from pbw.normalizer import normalize_all_ways
from pbw.presentation import LiePresentation, check_jacobi, serialize_presentation
from pbw.tensor import monomial

MAX_LEN = 3


def check_table(L: LiePresentation) -> None:
    """Check every word of L of length at most MAX_LEN, shortest first;
    the first check that fails raises AssertionError with its report."""
    words = list(all_words(L.dim, MAX_LEN))
    lie, memo, split = check_jacobi(L) == [], {}, None
    for w, (left, right) in zip(words, check_product(L, [monomial(L, w) for w in words])):
        reached = normalize_all_ways(L, w, memo=memo)
        oracle = [("oracle", f) for f in reached]
        for form in ("LEFTMOST", left), ("RIGHTMOST", right):
            if form[1] not in reached:
                raise AssertionError(mismatch(L, monomial(L, w), form, *oracle))
        if len(reached) > 1 and split is None:
            split = monomial(L, w), *oracle
    if lie == (split is not None):
        report = mismatch(L, *split) if split else serialize_presentation(L)
        raise AssertionError(report + f"Lie {lie}, but one form for every word {split is None}\n")


def main() -> int:
    start = time.perf_counter()
    for count, L in enumerate(small_scope_tables(), 1):
        try:
            check_table(L)
        except AssertionError as e:
            print(e, end="")
            return 1
    print(f"ok {count} tables, every word of length <= {MAX_LEN} "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
