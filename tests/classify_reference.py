"""Reference classifier: the straightforward derive-and-compare.

It walks every simple path and cycle of the ratio graph, substitutes every
combination of those paths into each multi-term statement (one path per
term; a statement may recur across the terms), and fires the rule of every
two differing derivations of each criterion pair, read from the sides of
1 their Fractions lie on, exactly, sharing no comparison code with the
engine. It has no cap. A pair whose rule fired
has one witness: the first derivation at its smallest ratio and the first
at its largest. Then each criterion whose substituted self-relations are
not all 1 has one WD3 witness: the first at the smallest such ratio when
that is not 1, else the first at the largest. A cycle of the ratio graph
counts toward the rule but lists no WD3 witness, since a cycle whose
product is not 1 fires every pair it joins.

admcdm.classify must give the same label, rule and det_agrees wherever
its search is not truncated, and witnesses with the same rules, pairs and
ratios wherever it read every range whole; where two derivations tie at
an extreme it may list the other (see test_classify_equivalence.py).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from importlib import import_module
from itertools import combinations_with_replacement
from itertools import product as iter_product

from admcdm.classification import ClassificationReport, DerivedRelation, Label
from admcdm.errors import NonEquationPreference, NonlinearPreferencePresent
from admcdm.linalg import rank
from admcdm.model import InequalityPreference, MonomialPreference, assemble

# the witness cap is read from here at call time, so a test that lowers it
# lowers it for the reference too
classify_module = import_module("admcdm.classification")


def _side(k):
    """The side of 1 of the Fraction k: -1, 0 or 1."""
    return (k > 1) - (k < 1)


def reference_rule(low, high):
    """The rule two derivations of one pair fire, by their ratios, low
    below high, both oriented from the pair's smaller criterion."""
    s1, s2 = _side(low), _side(high)
    if s1 == -1 and s2 == 1:
        return "SD4"
    return "WD1" if s2 == 1 else "WD2"


def reference_derive(problem):
    """Every derived relation: each statement, each simple path of two or
    more one-term statements from a criterion to a greater one, each cycle
    from its smallest criterion, and each multi-term statement with a path
    substituted for each term, in every combination."""
    n = problem.criteria.n
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
            (j, k), = pref.terms
            edges.append((pref.subject, j, Fraction(k), pos))
        else:
            multi.append((pos, pref.subject, pref.terms))

    adjacency = defaultdict(list)
    for a, b, k, pos in edges:
        adjacency[a].append((b, k, pos))
        adjacency[b].append((a, 1 / k, pos))

    relations = []
    seen = set()

    def add(i, j, k, trail):
        # a cycle is walked both ways round
        key = (i, j, frozenset(trail))
        if key not in seen:
            seen.add(key)
            relations.append(DerivedRelation(i, j, k, tuple(trail)))

    for a, b, k, pos in edges:
        add(a, b, k, (pos,))

    def walk(start, node, prod, trail, visited):
        for nxt, k, pos in adjacency[node]:
            if pos in trail:
                continue
            here = prod * k
            if nxt == start:
                if start == min(visited):
                    add(start, start, here, trail + (pos,))
                continue
            if nxt in visited:
                continue
            if trail and start < nxt:
                add(start, nxt, here, trail + (pos,))
            walk(start, nxt, here, trail + (pos,), visited | {nxt})

    for start in range(n):
        walk(start, start, Fraction(1), (), frozenset({start}))

    pool = defaultdict(list)
    for r in relations:
        if r.i != r.j:
            pool[(r.i, r.j)].append((r.ratio, r.trail))
            pool[(r.j, r.i)].append((1 / r.ratio, r.trail))
    for pos, subject, terms in multi:
        for target in range(n):
            choices = [[(Fraction(1), ())] if j == target else pool[(j, target)]
                       for j, _ in terms]
            for combo in iter_product(*choices):
                total = sum(Fraction(coef) * k
                            for (_, coef), (k, _) in zip(terms, combo))
                trail = (pos,)
                for _k, tr in combo:
                    trail += tr
                relations.append(DerivedRelation(subject, target, total, trail))
    return relations


def reference_classify(problem):
    relations = reference_derive(problem)

    pairs = defaultdict(list)
    selves = []
    for r in relations:
        if r.i == r.j:
            selves.append(r)
        else:
            a, b = (r.i, r.j) if r.i < r.j else (r.j, r.i)
            k = r.ratio if r.i < r.j else 1 / r.ratio
            pairs[(a, b)].append((k, r))

    rank_of = {"": 0, "WD3": 1, "WD2": 2, "WD1": 3, "SD4": 4}
    strongest = "WD3" if any(r.ratio != 1 for r in selves) else ""
    witnesses = []
    for _, rels in sorted(pairs.items()):
        # the rules of every two differing derivations: two ratios on sides
        # s1 <= s2 of 1 differ when the sides do or the side holds two
        # ratios, and the rule reads only the sides
        sides = defaultdict(set)
        for k, _ in rels:
            sides[_side(k)].add(k)
        fired = {reference_rule(min(sides[s1]), max(sides[s2]))
                 for s1, s2 in combinations_with_replacement(sorted(sides), 2)
                 if s1 < s2 or len(sides[s1]) > 1}
        if fired:
            strongest = max([strongest, *fired], key=rank_of.get)
            # min and max return the first of equal ratios
            (low, r1), (high, r2) = (min(rels, key=lambda kr: kr[0]),
                                     max(rels, key=lambda kr: kr[0]))
            witnesses.append((reference_rule(low, high), r1, r2))
    multi = {pos for pos, p in enumerate(problem.preferences)
             if len(p.terms) > 1}
    for i in range(problem.criteria.n):
        own = [r for r in selves if r.i == i and r.trail[0] in multi]
        if any(r.ratio != 1 for r in own):
            low = min(own, key=lambda r: r.ratio)
            witness = low if low.ratio != 1 else max(own,
                                                     key=lambda r: r.ratio)
            witnesses.append(("WD3", witness, None))

    det_ok = rank(assemble(problem)) < problem.criteria.n
    found_consistent = not strongest
    if strongest == "SD4":
        label = Label.STRONG_INCONSISTENT
    elif found_consistent and det_ok:
        label = Label.CONSISTENT
    else:
        label = Label.WEAK_INCONSISTENT

    return ClassificationReport(
        label=label,
        witnesses=tuple(witnesses[:classify_module._WITNESS_CAP]),
        rule_fired=strongest,
        det_agrees=found_consistent == det_ok,
        depth_exceeded=False,
    )
