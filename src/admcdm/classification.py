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
products. The witnesses are listed on the report's first read of them:
the report keeps the derivations of the pairs whose rule fired and the
self-relations whose ratio is not 1, and lists their disagreements, each
side of 1 computed once, until _WITNESS_CAP witnesses are held. A caller
that reads only the label, the rule or the flags lists none. Only the
witnesses' relations become DerivedRelation objects, each built once at
a constant cost. No search leaves a reference cycle, so reference
counting frees a case's relations when its report goes. Classifying R
relations therefore costs O(R); a first read of the witnesses adds
their listing.

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
The witnesses are listed as the search with no cap lists them: the pairs
whose rule fires, in the report's order, then the cycles through them,
each walked within _RELATION_CAP derivations, so a pair whose derivations
past the cap would add to its list is listed from the capped walk. The
start where SD4 fired and those after it are taken then in full, within a
cap each. A pair's walk ends once its first derivation disagrees with as
many others as there is room for, and enters no node past which the
pair's other end is cut off.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from fractions import Fraction
from itertools import combinations
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
        # dropped once called: the listing holds the search's derivations
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


def _reaches(near, v, visited, want) -> bool:
    """Whether a path from v off visited meets want (node bitmasks)."""
    seen = front = 1 << v
    while front:
        grow = 0
        while front:
            grow |= near[(front & -front).bit_length() - 1]
            front &= front - 1
        if grow & want:
            return True
        front = grow & ~seen & ~visited
        seen |= front
    return False


def _walk(adjacency, starts, keep, add=None):
    """For each (start, goals) of starts, walk the simple paths from start,
    passing keep each one of two or more statements that ends at a node of
    goals. With add, each cycle whose smallest node is start is added too
    (with no goals, the walk keeps to the nodes above start); without, the
    walk enters no node past which every goal is cut off."""
    near = {v: sum({1 << u for u, *_ in out}) for v, out in adjacency.items()}

    def walk(node, p, q, trail, visited, lowest, above):
        """Extend the path start..node; visited: a bitmask of its nodes,
        lowest: it may still close a cycle (start is its smallest node),
        above: how many goals it has not visited."""
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
            up = nxt in goals
            found = trail and up
            low = lowest and nxt > start
            # a path past nxt derives something only if it can still close
            # a cycle at start or reach a goal
            onward = low or above - up > 0
            if onward and add is None:
                onward = _reaches(near, nxt, visited, want & ~visited)
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
        for start, goals in starts:
            want = sum(1 << g for g in goals)
            walk(start, 1, 1, (), 1 << start, add is not None, len(goals))
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
        _walk(adjacency, [(start, range(start + 1, n)) for start in range(n)],
              keep, add)
        if multi:
            substitute()
    except _Settled:
        return relations, True
    return relations, False


def _derive(problem: Problem):
    """_search with each relation as a DerivedRelation."""
    relations, truncated = _search(problem.criteria.n, *_statements(problem))
    return [DerivedRelation(i, j, Fraction(p, q), trail)
            for i, j, p, q, trail in relations], truncated


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


def _list(oriented, witnesses):
    """Append to witnesses, while it holds fewer than _WITNESS_CAP, the
    witness (rule, relation, relation) of each two disagreeing derivations
    of one pair, in derivation order, the lower side of 1 first; each
    derivation's DerivedRelation is built once. A run of derivations equal
    to the first of two is passed in one step, so d derivations cost O(d)
    besides the witnesses."""
    d = len(oriented)
    sides = [(p > q) - (p < q) for p, q, _ in oriented]
    built = [None] * d
    past = [d] * d  # past[y]: the first derivation after y that differs
    for y in range(d - 2, -1, -1):
        (p1, q1, _), (p2, q2, _) = oriented[y], oriented[y + 1]
        past[y] = y + 1 if p1 * q2 != p2 * q1 else past[y + 1]
    for x, (p1, q1, _) in enumerate(oriented):
        y = x + 1
        while y < d:
            p2, q2, _ = oriented[y]
            if p1 * q2 == p2 * q1:
                y = past[y]
                continue
            a, b = (y, x) if sides[x] > sides[y] else (x, y)
            for z in (a, b):
                if built[z] is None:
                    i, j, p, q, trail = oriented[z][2]
                    built[z] = DerivedRelation(i, j, Fraction(p, q), trail)
            witnesses.append((_RULE[sides[a], sides[b]], built[a], built[b]))
            if len(witnesses) >= _WITNESS_CAP:
                return
            y += 1


def _listed(fired, selves) -> tuple:
    """The witnesses of the pairs fired (their oriented derivations) and
    of the self-relations selves, in that order, up to _WITNESS_CAP."""
    witnesses = []
    for oriented in fired:
        if len(witnesses) >= _WITNESS_CAP:
            break
        _list(oriented, witnesses)
    for i, j, p, q, trail in selves[:_WITNESS_CAP - len(witnesses)]:
        witnesses.append(
            ("WD3", DerivedRelation(i, j, Fraction(p, q), trail), None))
    return tuple(witnesses)


def _report(relations, truncated: bool, det_ok: bool) -> ClassificationReport:
    """The report on _search's relations. Each pair's ratios are oriented
    from its smaller criterion, so a relation (j, i, p, q) reads q / p.
    A pair's rule is that of its smallest and largest ratio (_wider): some
    two ratios differ exactly when these do, and they carry the lowest and
    the highest side of 1."""
    pairs = defaultdict(list)
    selves = []
    for r in relations:
        i, j, p, q, _ = r
        if i == j:
            if p != q:
                selves.append(r)
        elif i < j:
            pairs[(i, j)].append((p, q, r))
        else:
            pairs[(j, i)].append((q, p, r))

    strongest, fired = "", []
    for _, oriented in sorted(pairs.items()):
        span = None
        for p, q, _ in oriented:
            span = _wider(span, p, q, p, q)
        rule = _rule(*span)
        if rule:
            fired.append(oriented)
            if _RANK[rule] > _RANK[strongest]:
                strongest = rule
    if selves:
        strongest = strongest or "WD3"  # the weakest rule
    return _finish(strongest, lambda: _listed(fired, selves), truncated,
                   det_ok)


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


def _ranges(steps, i: int, held: int):
    """From start i, each state (S, v), S the node bitmask of paths from i
    to v, holds the range of their ratio products; after each layer this
    yields (ends, held), ends[v] taking in every S so far and held counting
    the states toward _RELATION_CAP. Past the cap it yields the layers
    finished once more, with held past the cap, and stops."""
    ends = {}
    layer = {(1 << i, i): (1, 1, 1, 1)}
    while layer:
        nxt = {}
        for (mask, v), (lp, lq, hp, hq) in layer.items():
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
        yield ends, held
        layer = nxt


def _ratios(n: int, edges, det_ok: bool) -> ClassificationReport:
    """The report on _statements' edges alone, from _ranges of each start
    in turn up to the first layer where a pair's range crosses 1 (SD4),
    all within _RELATION_CAP. The start where SD4 fires is left unread:
    the listing takes it in full."""
    steps = defaultdict(dict)  # steps[a][b]: the range of a's statements on b
    for a, b, p, q, _ in edges:
        steps[a][b] = _wider(steps[a].get(b), p, q, p, q)
        steps[b][a] = _wider(steps[b].get(a), q, p, q, p)
    strongest, held, read = "", 0, {}
    for i in range(n - 1):
        for ends, held in _ranges(steps, i, held):
            # the smallest ratio below 1 and the largest above it
            if any(lp < lq and hp > hq
                   for v, (lp, lq, hp, hq) in ends.items() if v > i):
                strongest = "SD4"
                break
        if strongest == "SD4":
            break
        read[i] = {j: _rule(*ends[j]) for j in ends if j > i}
        strongest = max([*read[i].values(), strongest], key=_RANK.get)
        if held > _RELATION_CAP:
            break
    truncated = held > _RELATION_CAP
    return _finish(strongest,
                   lambda: _walked(n, edges, steps, read, truncated),
                   truncated, det_ok)


def _derivations(adjacency, stated, i, j, room) -> list:
    """Pair (i, j)'s derivations (p, q, relation), oriented from i, as
    _search holds them: its statements, then the paths _walk finds. At
    most _RELATION_CAP, and none past the room-th that differs from the
    first: _list would list only the first's disagreements."""
    oriented, differ = [], 0

    def keep(a, b, p, q, trail):
        nonlocal differ
        if len(oriented) >= _RELATION_CAP:
            raise _Settled
        r = (a, b, p, q, trail)
        if a > b:
            p, q = q, p
        oriented.append((p, q, r))
        differ += p * oriented[0][1] != oriented[0][0] * q
        if differ >= room:
            raise _Settled

    try:
        for r in stated:
            keep(*r)
        _walk(adjacency, [(i, (j,))], keep)
    except _Settled:
        pass
    return oriented


def _walked(n: int, edges, steps, read, truncated) -> tuple:
    """The witnesses _report lists from _search over edges alone, with no
    cap on the derivations: those of each pair that fires, in order, then
    of the cycles through such pairs, as an unbalanced cycle fires each
    pair it joins. read[i] has the rules _ranges finds from start i; a
    start classify() did not finish (the one where SD4 fired, and those
    after it) is taken here, within a cap of its own, unless the report is
    truncated. Each pair's walk, and the cycles', holds at most
    _RELATION_CAP derivations."""
    adjacency = _adjacency(edges)
    stated = defaultdict(list)
    for a, b, p, q, pos in edges:
        stated[min(a, b), max(a, b)].append((a, b, p, q, (pos,)))
    witnesses, live = [], set()
    for i, j in combinations(range(n), 2):
        if i not in read:
            ends = {}
            if not truncated:
                for ends, _ in _ranges(steps, i, 0):
                    pass
            read[i] = {v: _rule(*ends[v]) for v in ends if v > i}
        if read[i].get(j):
            live.add((i, j))
            _list(_derivations(adjacency, stated[i, j], i, j,
                               _WITNESS_CAP - len(witnesses)), witnesses)
            if len(witnesses) >= _WITNESS_CAP:
                return tuple(witnesses)

    room, cycles, selves = _WITNESS_CAP - len(witnesses), set(), []

    def cycle(i, j, p, q, trail):  # the walk takes each cycle both ways
        if frozenset(trail) in cycles:
            return
        if len(cycles) >= _RELATION_CAP:
            raise _Settled
        cycles.add(frozenset(trail))
        if p != q:
            selves.append((i, j, p, q, trail))
            if len(selves) >= room:
                raise _Settled

    fired = [e for e in edges if (min(e[:2]), max(e[:2])) in live]
    try:
        _walk(_adjacency(fired), [(start, ()) for start in range(n)], None,
              cycle)
    except _Settled:
        pass
    return tuple(witnesses) + _listed((), selves)


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
