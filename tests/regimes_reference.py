"""Reference regime analysis: orderings read from exact component values.

Each open piece between crossings is ordered by the exact component values
at a rational point inside it, found by bisecting between the crossings'
reported numbers; each crossing inside the domain gets a single-point
regime made from the ordering just left of it, with the groups of the
pairs that meet there merged (continuity keeps every other order). The
crossings, their exact comparison and the domain are the engine's.

admcdm.nonlinear.regime_analysis must give the same report, or raise the
same error with the same message (see test_nonlinear.py).
"""

from __future__ import annotations

from fractions import Fraction

from admcdm.nonlinear import (
    Regime,
    RegimeReport,
    _compare,
    _crossing,
    _domain,
    _exactly,
)


def _sample(lo, hi) -> Fraction:
    """A rational strictly between the crossings lo < hi, or above lo when
    hi is None. Each reported z is exact or the float nearest to its root,
    so [z_lo / 2, 2 z_hi] holds both roots, and bisecting it exactly ends
    inside (lo, hi)."""
    a = Fraction(lo[0])
    if hi is None:
        return 2 * a if a > 0 else Fraction(1)
    a, b = a / 2, 2 * Fraction(hi[0])
    while True:
        s = (a + b) / 2
        if s ** lo[2] <= lo[1]:
            a = s
        elif s ** hi[2] >= hi[1]:
            b = s
        else:
            return s


def _ordering(values):
    """Criterion indices grouped by exact component value, largest first."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    groups = []
    for k in order:
        if groups and values[groups[-1][-1]] == values[k]:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(tuple(g) for g in groups)


def _merge_ties(groups, tied):
    """The ordering just left of a crossing, with neighbouring groups merged
    where a pair of ``tied`` (index pairs, smaller first) meets there."""
    merged = []
    for group in groups:
        if merged and any((min(j, k), max(j, k)) in tied
                          for j in merged[-1] for k in group):
            merged[-1].extend(group)
        else:
            merged.append(list(group))
    return tuple(tuple(g) for g in merged)


def regime_analysis(sol, inequalities=()):
    components = [(Fraction(c), d) for c, d in sol.components]
    n = len(components)
    lower, upper = _domain(components, inequalities)

    meetings = sorted(
        ((point, a, b) for a in range(n) for b in range(a + 1, n)
         if (point := _crossing(*components[a], *components[b]))),
        key=lambda m: _exactly(m[0]))
    crossings = []
    for point, a, b in meetings:
        if crossings and _compare(crossings[-1][0], point) == 0:
            crossings[-1][1].add((a, b))
        else:
            crossings.append((point, {(a, b)}))

    inside = [(point, tied) for point, tied in crossings
              if _compare(point, lower) > 0
              and (upper is None or _compare(point, upper) < 0)]

    regimes = []
    lo = lower
    for hi, tied in [*inside, (upper, None)]:
        z = _sample(lo, hi)
        ordering = _ordering([c * z**d for c, d in components])
        regimes.append(Regime(lo[0], hi and hi[0], ordering))
        if tied:
            regimes.append(Regime(hi[0], hi[0], _merge_ties(ordering, tied)))
        lo = hi

    breakpoints = tuple(point[0] for point, _ in crossings)
    return RegimeReport((lower[0], upper and upper[0]), breakpoints,
                        tuple(regimes))
