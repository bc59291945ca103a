"""Machine-speed reference for case times.

The speed of a shared machine drifts by up to 2x within seconds with the
load of other tenants. Every timed case runs a fixed Fraction sum in the
same process, and the case's time is scaled to a machine on which that sum
takes NOMINAL_S (this machine's quiet state: ~0.9 ms).
"""

import time
from fractions import Fraction

TERMS = 400
NOMINAL_S = 0.001


def reference_seconds():
    """Time of the fixed Fraction sum: the machine's speed right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def scaled_ms(seconds, reference_s):
    """Milliseconds at the nominal speed."""
    return seconds * 1000 * NOMINAL_S / reference_s
