"""Host speed reference: a fixed pure-Python kernel, timed between items.

On a shared host the same interpreter runs the same code up to ~1.6x
slower from one stretch of seconds to the next.  The benchmark times this
kernel around each stretch of items and reports every time scaled to the
speed at which the kernel takes `REF_KERNEL_S`: a time t measured where the
kernel took k seconds is reported as t * REF_KERNEL_S / k.  The kernel does
not touch pbw, so a change to pbw moves the scaled times exactly as it
moves the raw ones.  Its mix (tuple keys, dict updates, exact fractions,
sorting) follows the engine's.
"""

import time
from fractions import Fraction

REF_KERNEL_S = 0.001


def _kernel():
    acc = {}
    for i in range(150):
        w = (i % 7, i % 5, i % 3, i % 2)
        w = w[:2] + (w[3], w[2])
        acc[w] = acc.get(w, 0) + Fraction(i % 13 + 1, i % 4 + 1)
    counts = {}
    for k in range(2000):
        t = (k & 7, k >> 3 & 7, k % 5)
        counts[t] = counts.get(t, 0) + 1
    return sorted(acc.items()), len(counts)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
