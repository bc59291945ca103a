"""Reference classifier: the straightforward O(R^2) derive-and-compare.

It walks every simple path to the end even after the relation list is full,
and compares every two derivations of each criterion pair. admcdm.classify
must return exactly the same ClassificationReport on every input; see
test_classify_equivalence.py. The caps are read from admcdm.classification
at call time, so a test that lowers them lowers them here too.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from importlib import import_module
from itertools import product as iter_product

from admcdm.classification import (
    ClassificationReport,
    DerivedRelation,
    Label,
    _inv,
    _differ,
    _side,
)
from admcdm.errors import NonEquationPreference, NonlinearPreferencePresent
from admcdm.linalg import system_consistent
from admcdm.model import (
    InequalityPreference,
    MonomialPreference,
    assemble,
    canonicalize,
)

classify_module = import_module("admcdm.classification")


def reference_derive(problem, max_depth):
    """All derived relations plus a flag for truncated exploration."""
    cap = classify_module._RELATION_CAP
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
        lin = canonicalize(pref)
        if len(lin.terms) == 1:
            j, k = lin.terms[0]
            edges.append((lin.subject, j, k, pos))
        else:
            multi.append((pos, lin.subject, lin.terms))

    adjacency = defaultdict(list)
    for a, b, k, pos in edges:
        adjacency[a].append((b, k, pos))
        adjacency[b].append((a, _inv(k), pos))

    relations = []
    seen = set()
    truncated = False

    def add(i, j, k, trail):
        nonlocal truncated
        if len(relations) >= cap:
            truncated = True
            return
        key = (i, j, frozenset(trail))
        if key in seen:
            return
        seen.add(key)
        relations.append(DerivedRelation(i, j, k, tuple(trail)))

    for a, b, k, pos in edges:
        add(a, b, k, (pos,))

    def walk(start, node, prod, trail, visited):
        nonlocal truncated
        if len(trail) >= max_depth:
            if any(pos not in trail for _, _, pos in adjacency[node]):
                truncated = True
            return
        for nxt, k, pos in adjacency[node]:
            if pos in trail:
                continue
            here = prod * k
            if nxt == start:
                if len(trail) >= 1 and start == min(visited):
                    add(start, start, here, trail + (pos,))
                continue
            if nxt in visited:
                continue
            if len(trail) + 1 >= 2 and start < nxt:
                add(start, nxt, here, trail + (pos,))
            walk(start, nxt, here, trail + (pos,), visited | {nxt})

    for start in range(n):
        walk(start, start, Fraction(1), (), frozenset({start}))

    if multi:
        pool = defaultdict(list)
        for r in relations:
            if r.i != r.j:
                pool[(r.i, r.j)].append((r.ratio, r.trail))
                pool[(r.j, r.i)].append((_inv(r.ratio), r.trail))
        for pos, subject, terms in multi:
            for target in range(n):
                choices = []
                for j, _coef in terms:
                    if j == target:
                        opts = [(Fraction(1), ())]
                    else:
                        opts = [(k, tr) for k, tr in pool[(j, target)]
                                if pos not in tr]
                    if not opts:
                        choices = None
                        break
                    choices.append(opts)
                if choices is None:
                    continue
                for combo in iter_product(*choices):
                    used = set()
                    ok = True
                    for _k, tr in combo:
                        tset = set(tr)
                        if used & tset:
                            ok = False
                            break
                        used |= tset
                    if not ok:
                        continue
                    total = sum(coef * k
                                for (_, coef), (k, _) in zip(terms, combo))
                    trail = (pos,)
                    for _k, tr in combo:
                        trail += tr
                    add(subject, target, total, trail)

    return relations, truncated


def reference_classify(problem, max_depth=None):
    if max_depth is None:
        max_depth = problem.criteria.n
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    relations, truncated = reference_derive(problem, max_depth)

    pairs = defaultdict(list)
    selves = []
    for r in relations:
        if r.i == r.j:
            selves.append(r)
        else:
            a, b = (r.i, r.j) if r.i < r.j else (r.j, r.i)
            k = r.ratio if r.i < r.j else _inv(r.ratio)
            pairs[(a, b)].append((k, r))

    rank_of = {"": 0, "WD3": 1, "WD2": 2, "WD1": 3, "SD4": 4}
    strongest = ""
    witnesses = []

    def fire(rule, rel, other=None):
        nonlocal strongest
        if rank_of[rule] > rank_of[strongest]:
            strongest = rule
        if len(witnesses) < classify_module._WITNESS_CAP:
            witnesses.append((rule, rel, other))

    for _, rels in sorted(pairs.items()):
        for x in range(len(rels)):
            for y in range(x + 1, len(rels)):
                (k1, r1), (k2, r2) = rels[x], rels[y]
                if not _differ(k1, k2):
                    continue
                s1, s2 = _side(k1), _side(k2)
                if s1 > s2:
                    s1, s2 = s2, s1
                    r1, r2 = r2, r1
                if s1 == -1 and s2 == 1:
                    fire("SD4", r1, r2)
                elif s2 == 1:
                    fire("WD1", r1, r2)
                elif s1 == -1:
                    fire("WD2", r1, r2)
    for r in selves:
        if _side(r.ratio) != 0:
            fire("WD3", r)

    det_ok = system_consistent(assemble(problem), problem.criteria.n)
    found_consistent = not strongest and not truncated
    if strongest == "SD4":
        label = Label.STRONG_INCONSISTENT
    elif found_consistent and det_ok:
        label = Label.CONSISTENT
    else:
        label = Label.WEAK_INCONSISTENT

    return ClassificationReport(
        label=label,
        witnesses=tuple(witnesses),
        rule_fired=strongest,
        det_agrees=found_consistent == det_ok,
        depth_exceeded=truncated,
    )
