"""Consistency classification from the extremes of the derived ratios.

Single-term statements form a ratio graph: the statement "x_i equals k times
x_j" is an edge carrying k from i to j (and 1/k the other way). A simple
path derives a two-variable relation, and substituting such relations into
a multi-term statement, one per term, collapses it to a two-variable or
self relation. Two derivations of the same pair that disagree on the same
side of 1 are a weak disagreement; derivations on opposite sides of 1 flip
the preference order itself, a strong disagreement. A self-relation with
k != 1 is weak: the statement chain deflates or inflates a criterion against
itself without reversing any ordering. Every comparison is exact, with no
band: a ratio p / q lies above 1 when p > q, and two ratios differ when
p1 * q2 != p2 * q1.

The derived picture is cross-checked against the algebraic one (the
statements are consistent exactly when their homogeneous system has rank
below n); agreement of the search's own verdict with it is reported as a
diagnostic, since the derivations of multi-term statements can miss a
disagreement the exact test finds. A set the exact test calls
inconsistent is never labelled Consistent: if no rule fired it is
WeakInconsistent with no rule.

A set that one positive vector w solves as written needs no search: every
derivation of a pair (i, j) has the ratio w_i / w_j and every
self-relation the ratio 1, so no rule can fire and the search would find
the set Consistent. When the exact test passes and the solution with every
free variable at 1 is positive, that report is returned without deriving
anything.

A pair's rule reads only its smallest and largest derived ratio, so no
derivation is enumerated. The extremes of the ratio product over the
simple paths joining a pair come from the recursion over (node set, end
node) of Bellman (1962) and Held and Karp (1962), since a product of
positive ratios is smallest, or largest, when each factor is. Each layer
of a start's recursion takes the paths one statement longer. After each
layer a pair whose range crosses 1 fires SD4, which no rule outranks, and
ends the search. The states count toward _RELATION_CAP: (n - 1) *
2**(n - 2) per start of a complete set, 1,024 at n = 9. Past the cap the
report is truncated and its label conservative, and the ranges built are
read as below. Unless SD4 ended the search, each multi-term statement
x_s = sum c_j x_j is then substituted once toward each target t that all
its terms have ranges to: x_s / x_t = sum c_j x_j / x_t rises in each
term's ratio, so its extremes are the sums at the terms' extremes, for any
combination of derivations (one statement may serve several terms). That
range joins pair (s, t), or is s's self range when s = t, and is not
substituted again. A criterion whose self range is not exactly 1 fires
WD3. A ratio travels as an unreduced pair of ints (p, q), read off the
statement's integer form and never as a float, so a recursion step is two
int products; a substituted sum is over the form's scale.

The witnesses are listed, up to _WITNESS_CAP, on the report's first read
of them; a caller that reads only the label, the rule or the flags lists
none, and only the witnesses' relations become DerivedRelation objects.
A fired pair lists its derivations at the two ends of its range, a
criterion with WD3 the one at its smallest self ratio, or at its largest
when that is 1. A path is traced back through the layers each start keeps
from the first state at its end, one predecessor state and one statement
per layer; a substituted derivation is its statement, then each term's
traced path. On a tie the path goes first, then the statements in order.
A start read whole gives its pairs' true extremes. The start where the
search stopped, at SD4 or at the cap, gives the extremes of the layers it
built, so an SD4 witness has one ratio on each side of 1; the starts after
it list nothing. No start is recursed twice. A cycle of the ratio graph
lists no WD3 witness: one whose product is not 1 fires every pair it
joins. No search leaves a reference cycle, so reference counting frees a
case's ranges when its report goes.
"""
from __future__ import annotations

from collections import defaultdict
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import isqrt, prod

from .errors import FullRank, NonEquationPreference, NonlinearPreferencePresent
from .linalg import det_coefficients, null_vector
from .model import (
    InequalityPreference,
    MonomialPreference,
    Problem,
    row_at,
    statement_rows,
    unit_rows,
)
from .scalars import Record

_RELATION_CAP = 5000
_WITNESS_CAP = 200


class Label(Enum):
    CONSISTENT = "Consistent"
    WEAK_INCONSISTENT = "WeakInconsistent"
    STRONG_INCONSISTENT = "StrongInconsistent"


class DerivedRelation(Record):
    """x_i = ratio * x_j, derived through the preferences listed in trail."""

    i: int
    j: int
    ratio: Fraction
    trail: tuple

    def describe(self, names) -> str:
        k = self.ratio
        via = ",".join(str(p + 1) for p in self.trail)
        return f"{names[self.i]} = {k} * {names[self.j]} (via {via})"


class ClassificationReport(Record):
    """A label and the witnesses and rule behind it.

    classify() lists the witnesses on their first read, by a callable its
    search left, and stores the tuple: equality, hashing, repr, pickling
    and copying read it first, so a report compares and copies as one
    built with its witnesses."""

    label: Label
    witnesses: tuple       # (rule, relation, other relation or None)
    rule_fired: str        # strongest rule observed, or "" when consistent
    det_agrees: bool
    depth_exceeded: bool   # the recursion stopped at _RELATION_CAP states

    def __getattr__(self, name):
        # only a report whose witnesses are not listed yet lacks a field
        d = self.__dict__
        if name != "witnesses" or "_pending" not in d:
            raise AttributeError(
                f"{type(self).__qualname__!r} object has no attribute "
                f"{name!r}")
        # dropped once called: the listing holds what the search kept
        d["witnesses"] = witnesses = d.pop("_pending")()
        return witnesses

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self):
        self.witnesses  # listed on first read
        return super().__repr__()

    def __getstate__(self):
        return dict(zip(self._fields, self._values()))


def _statements(problem: Problem):
    """From each statement's form, the ratio edges (subject, term, w,
    scale, position), k = w / scale, and the multi-term statements
    (position, subject, scale, terms); refuses the rest."""
    edges = []
    multi = []
    for pos, pref in enumerate(problem.preferences):
        if isinstance(pref, InequalityPreference):
            raise NonEquationPreference(
                "classification is defined on equation preferences only")
        if isinstance(pref, MonomialPreference):
            raise NonlinearPreferencePresent(
                "classification is defined on linear preferences only")
        s, scale, terms = pref.form
        if len(terms) == 1:
            ((w, ((j, _),)),) = terms
            edges.append((s, j, w, scale, pos))
        else:
            multi.append((pos, s, scale, terms))
    return edges, multi


def _adjacency(edges):
    adjacency = defaultdict(list)
    for a, b, p, q, pos in edges:
        adjacency[a].append((b, p, q, pos))
        adjacency[b].append((a, q, p, pos))
    return adjacency


def _relation(r) -> DerivedRelation:
    i, j, p, q, trail = r
    return DerivedRelation(i, j, Fraction(p, q), trail)


# the rule two differing ratios fire, by their sides of 1, the lower first
_RULE = {(-1, 1): "SD4", (0, 1): "WD1", (1, 1): "WD1",
         (-1, 0): "WD2", (-1, -1): "WD2"}

_RANK = {"": 0, "WD3": 1, "WD2": 2, "WD1": 3, "SD4": 4}


def _rule(lp, lq, hp, hq) -> str:
    """The rule of derivations from lp / lq to hp / hq, or "" if equal."""
    if lp * hq == hp * lq:
        return ""
    return _RULE[(lp > lq) - (lp < lq), (hp > hq) - (hp < hq)]


def _fires(key, span) -> str:
    """The rule the range span of _spans' key fires: a pair's, or WD3
    for a criterion's self-relations unless all are exactly 1."""
    i, j = key
    if i != j:
        return _rule(*span)
    lp, lq, hp, hq = span
    return "WD3" if lp != lq or hp != hq else ""


def _in_order(spans):
    """The items of _spans' spans in report order: the pairs (i, j),
    i < j, in order, then the criteria's self-relations."""
    return sorted(spans.items(), key=lambda item: (item[0][0] == item[0][1],
                                                   item[0]))


def _witnesses(found) -> tuple:
    """The first _WITNESS_CAP of found's witnesses (rule, relation, other
    relation or None), each relation an (i, j, p, q, trail) tuple, with
    the relations as DerivedRelation objects."""
    return tuple((rule, _relation(a), b and _relation(b))
                 for rule, a, b in islice(found, _WITNESS_CAP))


def _finish(strongest, pending, truncated, det_ok) -> ClassificationReport:
    """The report with the rule strongest, whose witnesses pending() lists
    on first read, on a search that was truncated or not."""
    # the search finds the set consistent when no rule fired and nothing was
    # left unexplored; a capped search, or one the exact test contradicts,
    # is labelled WeakInconsistent conservatively
    found_consistent = not strongest and not truncated
    if strongest == "SD4":
        label = Label.STRONG_INCONSISTENT
    elif found_consistent and det_ok:
        label = Label.CONSISTENT
    else:
        label = Label.WEAK_INCONSISTENT

    report = ClassificationReport.__new__(ClassificationReport)
    report.__dict__.update(label=label, rule_fired=strongest,
                           det_agrees=found_consistent == det_ok,
                           depth_exceeded=truncated, _pending=pending)
    return report


def _wider(old, lp, lq, hp, hq) -> tuple:
    """The ratios lp / lq .. hp / hq, widened to take in old if given."""
    if old is not None:
        olp, olq, ohp, ohq = old
        if olp * lq < lp * olq:
            lp, lq = olp, olq
        if ohp * hq > hp * ohq:
            hp, hq = ohp, ohq
    return lp, lq, hp, hq


def _ranges(steps, layers, held: int):
    """Extend layers, whose last holds states (S, v) of the paths from one
    start, S their node bitmask and v their end, each with the range of
    their ratio products: each new layer takes the paths one statement
    longer. After each this yields (ends, held), ends[v] taking in every S
    so far and held counting the states toward _RELATION_CAP. Past the cap
    it yields the layers finished once more, with held past the cap, and
    stops."""
    ends = {}
    while layers[-1]:
        nxt = {}
        for (mask, v), (lp, lq, hp, hq) in layers[-1].items():
            for u, (sp, sq, tp, tq) in steps[v].items():
                if mask >> u & 1:
                    continue
                key = (mask | 1 << u, u)
                old = nxt.get(key)
                held += old is None
                if held > _RELATION_CAP:
                    yield ends, held
                    return
                nxt[key] = _wider(old, lp * sp, lq * sq, hp * tp, hq * tq)
        for (_, v), span in nxt.items():
            ends[v] = _wider(ends.get(v), *span)
        layers.append(nxt)
        yield ends, held


def _inverted(span) -> tuple:
    """The range of the reciprocals of span's ratios."""
    lp, lq, hp, hq = span
    return hq, hp, lq, lp


def _pair_range(s, t, span) -> tuple:
    """(key, range): the range span of x_s / x_t as that of the pair
    key, s and t in order, read from its smaller criterion."""
    return ((s, t), span) if s <= t else ((t, s), _inverted(span))


def _path_range(kept, j, t):
    """The range of x_j / x_t over the paths kept holds: 1 when j == t,
    else the ends of start min(j, t), inverted when j > t; None when no
    path was taken."""
    if j == t:
        return 1, 1, 1, 1
    i, v = min(j, t), max(j, t)
    span = kept[i][1].get(v) if i < len(kept) else None
    return span if span is None or j < t else _inverted(span)


def _substituted(kept, scale, terms, t):
    """The range of x_s / x_t over a multi-term statement scale * x_s =
    sum w_j x_j: it rises in each x_j / x_t, so its ends are the sums at
    each term's ends over scale, as unreduced int pairs; None unless every
    term has a range to t."""
    lp, lq, hp, hq = 0, 1, 0, 1
    for w, ((j, _),) in terms:
        span = _path_range(kept, j, t)
        if span is None:
            return None
        lp, lq = lp * span[1] + w * span[0] * lq, lq * span[1]
        hp, hq = hp * span[3] + w * span[2] * hq, hq * span[3]
    return lp, lq * scale, hp, hq * scale


def _spans(n: int, edges, multi):
    """(spans, truncated, kept): spans[i, j], i < j, the range (lp, lq, hp,
    hq) of the derived ratios x_i / x_j, spans[s, s] that of s's
    self-relations, and kept[i] start i's (layers, ends).

    _ranges takes each start i < n - 1 in turn, up to the first layer where
    a pair's range crosses 1 (SD4), all within _RELATION_CAP. Unless SD4
    fired, each multi-term statement is then substituted once toward each
    target its terms have ranges to, from the ranges built; what it derives
    is not substituted again."""
    steps = defaultdict(dict)  # steps[a][b]: the range of a's statements on b
    for a, b, p, q, _ in edges:
        steps[a][b] = _wider(steps[a].get(b), p, q, p, q)
        steps[b][a] = _wider(steps[b].get(a), q, p, q, p)
    held, kept, crossed = 0, [], False
    for i in range(n - 1):
        layers = [{(1 << i, i): (1, 1, 1, 1)}]
        for ends, held in _ranges(steps, layers, held):
            # the smallest ratio below 1 and the largest above it
            crossed = any(lp < lq and hp > hq
                          for v, (lp, lq, hp, hq) in ends.items() if v > i)
            if crossed:
                break
        kept.append((layers, ends))
        if crossed or held > _RELATION_CAP:
            break
    spans = {(i, j): span for i, (_, ends) in enumerate(kept)
             for j, span in ends.items() if j > i}
    for _, s, scale, terms in () if crossed else multi:
        for t in range(n):
            span = _substituted(kept, scale, terms, t)
            if span is not None:
                key, span = _pair_range(s, t, span)
                spans[key] = _wider(spans.get(key), *span)
    return spans, held > _RELATION_CAP, kept


def _deriver(edges, multi, kept, spans):
    """derivation(key, side): a derivation (i, j, p, q, trail), x_i equal
    to p / q times x_j, at the low (side 0) or high (side 2) end of
    _spans' range spans[key]. A tie goes to the ratio graph's path first,
    then to the multi-term statements in order.

    A path is traced back through kept[i]'s layers from their first state
    at that end, one predecessor state and one statement per layer; a path
    of one statement keeps the statement's own orientation. A substituted
    derivation reads x_s = ratio * x_t, its trail the statement's position
    and then each term's path in term order, each at the end of its range
    that the statement's end takes."""
    adjacency = _adjacency(edges)
    subject = {pos: a for a, _, _, _, pos in edges}
    firsts = {}  # firsts[i][v, side]: (depth, mask) of that first state

    def path(i, j, side):
        layers, ends = kept[i]
        first = firsts.get(i)
        if first is None:
            first = firsts[i] = {}
            for depth, layer in enumerate(layers):
                for (mask, v), (lp, lq, hp, hq) in layer.items():
                    if v > i:
                        elp, elq, ehp, ehq = ends[v]
                        if lp * elq == elp * lq:
                            first.setdefault((v, 0), (depth, mask))
                        if hp * ehq == ehp * hq:
                            first.setdefault((v, 2), (depth, mask))
        depth, mask = first[j, side]
        p, q = layers[depth][mask, j][side:side + 2]
        v, ratio, trail = j, (p, q), []
        while depth:
            depth -= 1
            prev = mask & ~(1 << v)
            # x_v = (a / b) x_u: the statement from u to v multiplies by b / a
            for u, a, b, pos in adjacency[v]:
                state = layers[depth].get((prev, u))
                if state and state[side] * b * q == p * state[side + 1] * a:
                    break
            trail.append(pos)
            (p, q), mask, v = state[side:side + 2], prev, u
        if len(trail) == 1 and subject[trail[0]] == j:
            return j, v, ratio[1], ratio[0], tuple(trail)
        return v, j, *ratio, tuple(reversed(trail))

    def substituted(pos, s, scale, terms, t, side):
        total, trail = 0, (pos,)
        for w, ((j, _),) in terms:
            if j == t:
                total += w
                continue
            a, _, p, q, tr = path(min(j, t), max(j, t),
                                  side if j < t else 2 - side)
            total += w * (Fraction(p, q) if a == j else Fraction(q, p))
            trail += tr
        total /= scale
        return s, t, total.numerator, total.denominator, trail

    def derivation(key, side):
        i, j = key
        lp, lq = spans[key][side:side + 2]
        span = i < j and _path_range(kept, i, j)
        if span and span[side] * lq == lp * span[side + 1]:
            return path(i, j, side)
        for pos, s, scale, terms in multi:
            t = j if s == i else i
            span = s in key and _substituted(kept, scale, terms, t)
            if not span:
                continue
            span = _pair_range(s, t, span)[1]
            if span[side] * lq == lp * span[side + 1]:
                # the pair's low end is the statement's high one when
                # x_s / x_t is the pair's reciprocal
                return substituted(pos, s, scale, terms, t,
                                   side if s <= t else 2 - side)

    return derivation


def _found(spans, derivation):
    """The witnesses (rule, a, b) in report order: each pair whose rule
    fires, a and b its derivations at the ends of its range; then each
    criterion whose self-relations are not all exactly 1, a the one at the
    smallest ratio, or at the largest when that is 1, and b None."""
    for key, span in _in_order(spans):
        rule = _fires(key, span)
        if rule == "WD3":
            yield rule, derivation(key, 0 if span[0] != span[1] else 2), None
        elif rule:
            yield rule, derivation(key, 0), derivation(key, 2)


def _ratios(n: int, edges, multi, det_ok: bool) -> ClassificationReport:
    """The report on _statements' output, its rule read off _spans'
    ranges; the witnesses are listed on first read."""
    spans, truncated, kept = _spans(n, edges, multi)
    strongest = max(["", *map(_fires, spans.keys(), spans.values())],
                    key=_RANK.get)
    return _finish(
        strongest,
        lambda: _witnesses(_found(spans, _deriver(edges, multi, kept, spans))),
        truncated, det_ok)


def derive_relations(problem: Problem):
    """The derivations classify's search reads, with its stops: each pair
    (i, j), i < j, in order, at its smallest ratio and, if it differs, at
    its largest; then each criterion's self-relations the same way."""
    edges, multi = _statements(problem)
    spans, _, kept = _spans(problem.criteria.n, edges, multi)
    derivation = _deriver(edges, multi, kept, spans)
    return [_relation(derivation(key, side))
            for key, (lp, lq, hp, hq) in _in_order(spans)
            for side in ((0,) if lp * hq == hp * lq else (0, 2))]


# the exhaustive search's report on statements one positive vector solves
_SOLVED = ClassificationReport(
    label=Label.CONSISTENT,
    witnesses=(),
    rule_fired="",
    det_agrees=True,
    depth_exceeded=False,
)


def _core_det(rows, core) -> list:
    """c: the determinant of the integer statement rows at the positions
    core is the sum of c[k] * alpha**k, from those rows at one
    alpha = 2**k by det_coefficients, under Hadamard's bound (a row
    (s, L, B) has the squared norm L**2 + sum B**2)."""
    rows = [rows[i] for i in core]
    return det_coefficients(
        lambda x: [row_at(r, x, 1) for r in rows],
        isqrt(prod(s * s + sum(b * b for b in bs) for _, s, bs in rows)))


def _exact_test(problem: Problem, rows):
    """(v, det, line) for statement_rows' rows: v solves every statement
    as written (None when only 0 does), det is _core_det's f when computed,
    and line is (v, free), the core's null vector at alpha = 1 and its
    count of free variables, when f(1) = 0 and the set is inconsistent.
    f(1) = 0 makes 1 the root chosen, so line is the core at that root.

    With every multiplier 1 and n core rows, f comes first: those rows at
    alpha = 1 are the statements as written, so f(1) != 0 makes the set
    inconsistent. Otherwise the core rows alone are eliminated at 1. If
    their null space is a line spanned by v, the set is consistent exactly
    when each other row vanishes on v, and the whole system then has that
    line and its free column, so the same normalized vector. Without other
    rows the core is the system. Every other case eliminates all m rows."""
    b, n = problem.binding, len(rows[0][2])
    core, det, line = b.core_mask, None, None
    if len(core) == n and all(c == 1 for c in b.multipliers):
        det = _core_det(rows, core)
        if sum(det):  # f(1) != 0
            return None, det, None
        v, free = null_vector([row_at(rows[i], 1, 1) for i in core])
        line = (v, free)
        extras = [r for i, r in enumerate(rows) if i not in core]
        if free == 1 or not extras:
            if all(scale * v[s] == sum(a * x for a, x in zip(terms, v) if a)
                   for s, scale, terms in extras):
                return v, det, None
            return None, det, line
    try:
        v, _ = null_vector(unit_rows(problem, rows))
    except FullRank:
        return None, det, line
    return v, det, None


def classify(problem: Problem) -> ClassificationReport:
    # refuses what the search cannot classify
    statements = _statements(problem)
    # priority()'s exact test; a vector solving the set has positive
    # secondary variables
    v = _exact_test(problem, statement_rows(problem))[0]
    det_ok = v is not None
    if det_ok and min(v) > 0:
        return _SOLVED
    return _ratios(problem.criteria.n, *statements, det_ok)


def _classify_solved(problem: Problem, solved: bool) -> ClassificationReport:
    """classify(problem) for priority(), which passes whether it found a
    positive vector solving every statement as written; it classifies no
    other consistent set, so when it did not, the exact test has failed."""
    if solved:
        return _SOLVED
    return _ratios(problem.criteria.n, *_statements(problem), False)
