"""Exhaustive check of the contraction bound, up to n = 6.

    PYTHONPATH=src python tests/contract_bound.py [n ...]    (default: 3 4 5 6)

The moves `contract_loop` makes before a cancel depend only on the reduced
prefix r and the right descent d that `_bring_to_end(r, d)` brings to its
end, so for each n the bound of at most C(l, 2) moves, l = len(r), is a
finite statement over all pairs (r, d).  This script walks every reduced
word of every arrangement of n slots depth first, holding only the current
branch, and for each right descent checks that the moves replay, end r in
d, and number at most C(l, 2).  It then compares the pair count and the
most moves at full length l = C(n, 2) with the values pinned below, and
checks that the ratio of moves to C(l, 2) reaches 1 only at l = 2 and is
at most 2/3 beyond.  Exits 1 on any mismatch.

pytest does not collect this file; the Tier-1 test runs it for n <= 5, and
n = 6 (4,381,065 pairs) is a separate CI step.  It uses the standard
library only.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction

from pbw.coxeter import GeneratorWord, _bring_to_end, replay

#: n -> (pairs (r, d), most moves at full length)
EXPECTED = {3: (8, 1), 4: (133, 5), 5: (9184, 17), 6: (4381065, 45)}


def reduced_words(n: int):
    """(r, w) for every reduced word r of every arrangement w of n slots.
    r·p is reduced exactly when p is an ascent of w (w[p-1] < w[p]), so
    each word is reached once, from its prefix."""
    stack = [((), tuple(range(n)))]
    while stack:
        r, w = stack.pop()
        yield r, w
        for p in range(1, n):
            if w[p - 1] < w[p]:
                stack.append((r + (p,), w[:p - 1] + (w[p], w[p - 1]) + w[p + 1:]))


def census(n: int) -> tuple[int, int, dict[int, Fraction]]:
    """(pairs, most moves at full length, largest ratio of moves to C(l, 2)
    for each l >= 2), over every reduced word r and right descent d of its
    arrangement.  Raises AssertionError on a pair that breaks the bound."""
    pairs = full = 0
    ratios: dict[int, Fraction] = {}
    for r, w in reduced_words(n):
        l = len(r)
        for d in range(1, n):
            if w[d - 1] < w[d]:
                continue
            cert, ended = [], list(r)
            _bring_to_end(ended, d, cert)
            if ended[-1] != d or replay(GeneratorWord(n, r), cert).letters != tuple(ended):
                raise AssertionError(f"n={n}: moves {cert} do not end {r} in {d}")
            if len(cert) > math.comb(l, 2):
                raise AssertionError(f"n={n}: {len(cert)} moves end {r} in {d}, "
                                     f"over C({l}, 2)")
            pairs += 1
            if l == math.comb(n, 2):
                full = max(full, len(cert))
            if l >= 2:
                ratios[l] = max(ratios.get(l, Fraction(0)), Fraction(len(cert), math.comb(l, 2)))
    return pairs, full, ratios


def main(argv: list[str]) -> int:
    bad = 0
    for n in map(int, argv or EXPECTED):
        start = time.perf_counter()
        pairs, full, ratios = census(n)
        top = [l for l, ratio in ratios.items() if ratio == 1]
        beyond = max((ratio for l, ratio in ratios.items() if l >= 3), default=Fraction(0))
        ok = ((pairs, full) == EXPECTED.get(n, (pairs, full))
              and top in ([], [2]) and beyond <= Fraction(2, 3))
        bad += not ok
        print(f"{'ok' if ok else 'MISMATCH':9} n={n}: {pairs} pairs, {full} moves at full "
              f"length, ratio 1 at l in {top}, at most {beyond} beyond "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
