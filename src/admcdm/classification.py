"""Consistency classification by substitution closure.

Single-term statements form a ratio graph: the statement "x_i equals k times
x_j" is an edge carrying k from i to j (and 1/k the other way). Walking
simple paths derives new two-variable relations, closing a cycle derives a
self-relation x_i = k * x_i, and substituting derived single-variable
relations into a multi-term statement collapses it to a two-variable or
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
diagnostic, since multi-term statements can defeat the substitution
search. A set the exact test calls inconsistent is never labelled
Consistent: if no rule fired it is WeakInconsistent with no rule.

A set that one positive vector w solves as written needs no search: every
derivation of a pair (i, j) has the ratio w_i / w_j and every
self-relation the ratio 1, so no rule can fire and the search would find
the set Consistent. When the exact test passes and the solution with every
free variable at 1 is positive, that report is returned without deriving
anything.

Cost model. Derivation stops as soon as _RELATION_CAP relations are held
and the result is known to be truncated, so the cap bounds memory and the
time of the walk; it and the conservative label of a truncated search
concern only sets without such a positive solution. Of these, a set of
one-term statements is not searched (below). The substitution tries the
combinations of derived relations for a multi-term statement's terms,
depth-first, and drops a partial combination at its first statement
shared with the rest. Each combination it tries, partial or whole, kept
or dropped, is a step; past _RELATION_CAP steps the result is truncated
too, so the cap bounds the substitution's time as well, also on a dense
ratio graph. A ratio travels as an
unreduced pair of ints (p, q), read off the statement's Fraction and never
as a float, so a path step is two int products. The walk keeps its nodes
as a bitmask, forms that product only for an edge it takes, checks only
an edge that closes a cycle against its trail, and does not enter a node
past which it could neither close a cycle at its start nor reach a
greater node. Each criterion pair is read in one pass: its strongest rule
is the rule of its smallest and largest derived ratio, by cross
products, and its witness is the two derivations that rule reads, the
first derived at each extreme. Each criterion with a self-relation whose
ratio is not 1 then has one WD3 witness, its first such. The witnesses
are listed, up to _WITNESS_CAP, on the report's first read of them; a
caller that reads only the label, the rule or the flags lists none, and
only the witnesses' relations become DerivedRelation objects. No search
leaves a reference cycle, so reference counting frees a case's relations
when its report goes. Classifying R relations therefore costs O(R), and
so does listing the witnesses.

A set of one-term statements is not enumerated: the extremes of the
ratio product over the simple paths joining a pair come from the
recursion over (node set, end node) of Bellman (1962) and Held and Karp
(1962), since a product of positive ratios is smallest, or largest, when
each factor is. Each layer of a start's recursion takes the paths one
statement longer. After each layer a pair whose range crosses 1 fires
SD4, which no rule outranks, and ends the search; otherwise a start's
pairs are read when its recursion ends. The states count toward
_RELATION_CAP: (n - 1) * 2**(n - 2) per start of a complete set, 1,024 at
n = 9. Past the cap the report is truncated and its label conservative.
Each start's layers are kept, and a pair's witness is traced back
through them from the first state at each end of its range, one
predecessor state and one statement per layer. A start read whole gives
its pairs' true extremes. The start where the search stopped, at SD4 or
at the cap, gives the extremes of the layers it built, so an SD4 witness
has one ratio on each side of 1; the starts after it list nothing. No
start is recursed twice and no path is walked. Such a set lists no WD3
witness: a cycle whose product is not 1 fires every pair it joins.
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
    depth_exceeded: bool   # the search stopped at _RELATION_CAP relations
                           # (states, for one-term statements only)

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


class _Settled(Exception):
    """A derivation was attempted with the relation list full: the result
    is truncated, walking further can change nothing, so derivation
    stops."""


def _statements(problem: Problem):
    """The ratio edges (subject, term, p, q, position), k = p / q, and the
    multi-term statements (position, subject, terms); refuses the rest."""
    edges = []
    multi = []
    for pos, pref in enumerate(problem.preferences):
        if isinstance(pref, InequalityPreference):
            raise NonEquationPreference(
                "classification is defined on equation preferences only")
        if isinstance(pref, MonomialPreference):
            raise NonlinearPreferencePresent(
                "classification is defined on linear preferences only")
        if len(pref.terms) == 1:
            j, k = pref.terms[0]
            edges.append((pref.subject, j, k.numerator, k.denominator, pos))
        else:
            multi.append((pos, pref.subject, pref.terms))
    return edges, multi


def _adjacency(edges):
    adjacency = defaultdict(list)
    for a, b, p, q, pos in edges:
        adjacency[a].append((b, p, q, pos))
        adjacency[b].append((a, q, p, pos))
    return adjacency


def _walk(adjacency, n: int, keep, add):
    """From each start, walk the simple paths, passing keep each one of two
    or more statements that ends at a node above start, and add each cycle
    whose smallest node is start."""

    def walk(node, p, q, trail, visited, lowest, above):
        """Extend the path start..node; visited: a bitmask of its nodes,
        lowest: it may still close a cycle (start is its smallest node),
        above: how many nodes above start it has not visited."""
        for nxt, kp, kq, pos in adjacency[node]:
            # the product is formed only for an edge the walk takes
            if nxt == start:
                if trail and lowest and pos not in trail:
                    add(start, start, p * kp, q * kq, trail + (pos,))
                continue
            # a trail edge joins two visited nodes, so an edge to a node
            # not visited is not on the trail
            if visited >> nxt & 1:
                continue
            up = nxt > start
            found = trail and up
            low = lowest and up
            # a path past nxt derives something only if it can still close
            # a cycle at start or reach a node above start
            onward = low or above - up > 0
            if not (found or onward):
                continue
            here_p, here_q = p * kp, q * kq
            path = trail + (pos,)
            if found:
                # a simple path is fixed by its edge set and endpoints, so
                # no other walk step derives it
                keep(start, nxt, here_p, here_q, path)
            if onward:
                walk(nxt, here_p, here_q, path, visited | 1 << nxt, low,
                     above - up)

    try:
        for start in range(n):
            walk(start, 1, 1, (), 1 << start, True, n - 1 - start)
    finally:
        del walk  # it refers to itself: reference counting frees it


def _combine(add, subject, target, terms, choices, used, trail, total,
             room):
    """Substitute one of choices[0]'s relations for terms[0], then the rest
    in turn, and add each result: the combinations of itertools.product,
    in its order, but a branch ends at its first relation that shares a
    statement with used. Each call is a step out of room; the room left
    is returned, and _Settled raised once none is."""
    if not room:
        raise _Settled
    room -= 1
    if not choices:
        add(subject, target, total.numerator, total.denominator, trail)
        return room
    coef = terms[0][1]
    for k, tr in choices[0]:
        if used.isdisjoint(tr):
            room = _combine(add, subject, target, terms[1:], choices[1:],
                            used.union(tr), trail + tr, total + coef * k,
                            room)
    return room


def _search(n: int, edges, multi):
    """All derived relations from _statements' edges and multi-term
    statements, as tuples (i, j, p, q, trail) with the ratio p / q
    unreduced, plus a flag for truncated exploration.

    Once _RELATION_CAP relations are held, any further derivation attempt
    marks the result truncated and ends the walk; the relations and the
    flag are those an exhaustive walk would report.
    """
    adjacency = _adjacency(edges)
    relations = []
    seen = set()

    def keep(i, j, p, q, trail):
        """Record a relation no earlier derivation has produced."""
        if len(relations) >= _RELATION_CAP:
            raise _Settled
        relations.append((i, j, p, q, trail))

    def add(i, j, p, q, trail):
        """keep() unless the pair was derived through the same statements;
        at the cap even such a repeat marks the result truncated."""
        key = (i, j, frozenset(trail))
        if key in seen and len(relations) < _RELATION_CAP:
            return
        seen.add(key)
        keep(i, j, p, q, trail)

    def substitute():
        pool = defaultdict(list)
        for i, j, p, q, trail in relations:
            if i != j:
                pool[(i, j)].append((Fraction(p, q), trail))
                pool[(j, i)].append((Fraction(q, p), trail))

        room = _RELATION_CAP
        for pos, subject, terms in multi:
            for target in range(n):
                choices = [[(1, ())] if j == target else
                           [(k, tr) for k, tr in pool[(j, target)]
                            if pos not in tr]
                           for j, _ in terms]
                if all(choices):
                    room = _combine(add, subject, target, terms, choices,
                                    {pos}, (pos,), 0, room)

    try:
        for a, b, p, q, pos in edges:
            add(a, b, p, q, (pos,))
        _walk(adjacency, n, keep, add)
        if multi:
            substitute()
    except _Settled:
        return relations, True
    return relations, False


def _derive(problem: Problem):
    """_search with each relation as a DerivedRelation."""
    relations, truncated = _search(problem.criteria.n, *_statements(problem))
    return [_relation(r) for r in relations], truncated


def _relation(r) -> DerivedRelation:
    i, j, p, q, trail = r
    return DerivedRelation(i, j, Fraction(p, q), trail)


def derive_relations(problem: Problem):
    """Closure of substitution-derived two-variable and self relations."""
    return _derive(problem)[0]


# the rule two differing ratios fire, by their sides of 1, the lower first
_RULE = {(-1, 1): "SD4", (0, 1): "WD1", (1, 1): "WD1",
         (-1, 0): "WD2", (-1, -1): "WD2"}

_RANK = {"": 0, "WD3": 1, "WD2": 2, "WD1": 3, "SD4": 4}


def _rule(lp, lq, hp, hq) -> str:
    """The rule of derivations from lp / lq to hp / hq, or "" if equal."""
    if lp * hq == hp * lq:
        return ""
    return _RULE[(lp > lq) - (lp < lq), (hp > hq) - (hp < hq)]


def _witnesses(found) -> tuple:
    """The first _WITNESS_CAP of found's witnesses (rule, relation, other
    relation or None), each relation an (i, j, p, q, trail) tuple, with
    the relations as DerivedRelation objects."""
    return tuple((rule, _relation(a), b and _relation(b))
                 for rule, a, b in islice(found, _WITNESS_CAP))


def _report(relations, truncated: bool, det_ok: bool) -> ClassificationReport:
    """The report on _search's relations. Each pair's ratios are oriented
    from its smaller criterion, so a relation (j, i, p, q) reads q / p.
    A pair's rule is that of its smallest and largest ratio: some two
    ratios differ exactly when these do, and they carry the lowest and the
    highest side of 1. Its witness is the first relation at each; then a
    criterion's is its first self-relation whose ratio is not 1."""
    spans, selves = {}, {}
    for r in relations:
        i, j, p, q, _ = r
        if i == j:
            if p != q:
                selves.setdefault(i, r)
            continue
        if i > j:
            i, j, p, q = j, i, q, p
        span = spans.get((i, j))
        if span is None:
            spans[i, j] = [p, q, r, p, q, r]
            continue
        if p * span[1] < span[0] * q:
            span[:3] = p, q, r
        if p * span[4] > span[3] * q:
            span[3:] = p, q, r

    found = []
    for _, (lp, lq, a, hp, hq, b) in sorted(spans.items()):
        rule = _rule(lp, lq, hp, hq)
        if rule:
            found.append((rule, a, b))
    found += [("WD3", selves[i], None) for i in sorted(selves)]
    strongest = max(["", *(rule for rule, _, _ in found)], key=_RANK.get)
    return _finish(strongest, lambda: _witnesses(found), truncated, det_ok)


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


def _ratios(n: int, edges, det_ok: bool) -> ClassificationReport:
    """The report on _statements' edges alone, from _ranges of each start
    in turn up to the first layer where a pair's range crosses 1 (SD4),
    all within _RELATION_CAP. Each start's layers and ends are kept for
    the listing."""
    steps = defaultdict(dict)  # steps[a][b]: the range of a's statements on b
    for a, b, p, q, _ in edges:
        steps[a][b] = _wider(steps[a].get(b), p, q, p, q)
        steps[b][a] = _wider(steps[b].get(a), q, p, q, p)
    strongest, held, kept = "", 0, []
    for i in range(n - 1):
        layers = [{(1 << i, i): (1, 1, 1, 1)}]
        for ends, held in _ranges(steps, layers, held):
            # the smallest ratio below 1 and the largest above it
            if any(lp < lq and hp > hq
                   for v, (lp, lq, hp, hq) in ends.items() if v > i):
                break
        kept.append((layers, ends))
        rules = [_rule(*ends[j]) for j in ends if j > i]
        strongest = max([strongest, *rules], key=_RANK.get)
        if strongest == "SD4" or held > _RELATION_CAP:
            break
    return _finish(strongest, lambda: _witnesses(_traced(edges, kept)),
                   held > _RELATION_CAP, det_ok)


def _traced(edges, kept):
    """The witness (rule, a, b) of each pair (i, j) whose rule fires on
    kept[i]'s ends, in order: a and b are paths to the first states of
    kept[i]'s layers at the pair's smallest and largest ratio, traced
    back one predecessor state and one statement per layer. A path of one
    statement keeps the statement's own orientation."""
    adjacency = _adjacency(edges)
    subject = {pos: a for a, _, _, _, pos in edges}

    def trace(layers, depth, mask, v, side):
        """The relation (i, v, p, q, trail) whose ratio p / q is the low
        (side 0) or high (side 2) end of state (mask, v) of layers[depth]."""
        p, q = layers[depth][mask, v][side:side + 2]
        j, ratio, trail = v, (p, q), []
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

    for i, (layers, ends) in enumerate(kept):
        fired = {j: _rule(*ends[j]) for j in sorted(ends) if j > i}
        fired = {j: rule for j, rule in fired.items() if rule}
        first = {}  # (j, side): the first state at that end of j's range
        for depth, layer in enumerate(layers):
            for (mask, v), (lp, lq, hp, hq) in layer.items():
                if v not in fired:
                    continue
                elp, elq, ehp, ehq = ends[v]
                if lp * elq == elp * lq:
                    first.setdefault((v, 0), (depth, mask))
                if hp * ehq == ehp * hq:
                    first.setdefault((v, 2), (depth, mask))
        for j, rule in fired.items():
            yield (rule, trace(layers, *first[j, 0], j, 0),
                   trace(layers, *first[j, 2], j, 2))


def _searched(n: int, statements, det_ok: bool):
    """The report on the search over _statements' output."""
    edges, multi = statements
    if multi:
        return _report(*_search(n, edges, multi), det_ok)
    return _ratios(n, edges, det_ok)


# the exhaustive search's report on statements one positive vector solves
_SOLVED = ClassificationReport(
    label=Label.CONSISTENT,
    witnesses=(),
    rule_fired="",
    det_agrees=True,
    depth_exceeded=False,
)


def _core_det(rows, core):
    """(scale, c): the determinant of the statement rows at the positions
    core is the sum of c[k] * alpha**k / scale, from the integer rows at
    one alpha = 2**k by det_coefficients, under Hadamard's bound (a row
    (s, L, B) has the squared norm L**2 + sum B**2)."""
    rows = [rows[i] for i in core]
    return prod(r[1] for r in rows), det_coefficients(
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
        if sum(det[1]):  # f(1) != 0
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
    return _searched(problem.criteria.n, statements, det_ok)


def _classify_solved(problem: Problem, solved: bool) -> ClassificationReport:
    """classify(problem) for priority(), which passes whether it found a
    positive vector solving every statement as written; it classifies no
    other consistent set, so when it did not, the exact test has failed."""
    if solved:
        return _SOLVED
    return _searched(problem.criteria.n, _statements(problem), False)
