"""Identity loops written as tours of arrangements, for the tests."""

from __future__ import annotations

from typing import Sequence

from pbw.coxeter import GeneratorWord


def loop_from_arrangements(n: int, arrangements: Sequence[Sequence[int]]) -> GeneratorWord:
    """Generator word stepping through consecutive arrangements, each pair
    differing by exactly one adjacent swap."""
    arrs = [tuple(a) for a in arrangements]
    for a in arrs:
        if sorted(a) != list(range(n)):
            raise ValueError(f"{a} is not an arrangement of 0..{n - 1}")
    letters = []
    for a, b in zip(arrs, arrs[1:]):
        diff = [t for t in range(n) if a[t] != b[t]]
        if (len(diff) != 2 or diff[1] != diff[0] + 1
                or a[diff[0]] != b[diff[1]] or a[diff[1]] != b[diff[0]]):
            raise ValueError(f"{a} -> {b} is not an adjacent swap")
        letters.append(diff[0] + 1)
    return GeneratorWord(n, tuple(letters))


TOUR_S4 = ("abcd abdc adbc adcb acdb cadb cdab dcab dacb dabc dbac dbca "
           "dcba cdba cbda cbad bcad bacd abcd").split()


def sample_excursion_s4() -> GeneratorWord:
    """An 18-step identity loop through 18 distinct arrangements of 4 letters."""
    arrs = [tuple(ord(ch) - ord("a") for ch in word) for word in TOUR_S4]
    return loop_from_arrangements(4, arrs)
