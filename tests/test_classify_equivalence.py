"""The classifier returns exactly what the exhaustive reference returns.

classify_reference.py keeps the straightforward derive-and-compare; here
both run on the corpus, seeded pairwise sets, seeded multi-term sets that
exercise substitution, a set that fills the witness cap, and lowered
relation caps, and the full reports (label, witnesses in order, rule,
det_agrees, depth_exceeded) and derived relations must be equal.
"""

import random
from fractions import Fraction

import pytest

from admcdm.classify import _derive, classify
from admcdm.errors import EngineError
from admcdm.model import CriteriaSet, LinearPreference, Problem
from admcdm.parser import parse_problem

from classify_reference import (
    classify_module,
    reference_classify,
    reference_derive,
)
from conftest import CORPUS

SAATY = [Fraction(k) for k in range(1, 10)] + [Fraction(1, k)
                                               for k in range(2, 10)]


def pairwise(n, seed, consistent):
    """Full pairwise set on the Saaty scale: weights from {1,2,4,8} when
    consistent, else ratios of spread weights rounded to the scale."""
    rng = random.Random(f"pairwise:{n}:{seed}:{consistent}")
    if consistent:
        w = [Fraction(rng.choice((1, 2, 4, 8))) for _ in range(n)]
    else:
        w = [9 ** rng.random() for _ in range(n)]

    def ratio(i, j):
        if consistent:
            return w[i] / w[j]
        return min(SAATY, key=lambda s: abs(float(s) - w[i] / w[j]))

    prefs = tuple(LinearPreference(i, ((j, ratio(i, j)),))
                  for i in range(n) for j in range(i + 1, n))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))), prefs)


def multi_term(n, seed):
    """A ratio chain through every criterion, a few extra ratios, and two
    multi-term statements whose terms the chain links, so substitution
    derives new relations."""
    rng = random.Random(f"multi:{n}:{seed}")

    def coef():
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))

    order = list(range(n))
    rng.shuffle(order)
    prefs = [LinearPreference(a, ((b, coef()),))
             for a, b in zip(order, order[1:])]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        prefs.append(LinearPreference(a, ((b, coef()),)))
    for _ in range(2):
        subject, *terms = rng.sample(range(n), 3)
        prefs.append(LinearPreference(
            subject, tuple((j, coef()) for j in sorted(terms))))
    rng.shuffle(prefs)
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                   tuple(prefs))


def outcome(fn, problem, *args):
    try:
        return fn(problem, *args)
    except EngineError as exc:
        return type(exc).__name__, str(exc)


def assert_same(problem, max_depth=None):
    depth = problem.criteria.n if max_depth is None else max_depth
    assert outcome(_derive, problem, depth) == outcome(
        reference_derive, problem, depth)
    got = outcome(classify, problem, max_depth)
    assert got == outcome(reference_classify, problem, max_depth)
    return got


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.admp")))
def test_corpus(name):
    problem = parse_problem((CORPUS / name).read_text(encoding="utf-8"))
    for depth in (None, 1, 2):
        assert_same(problem, depth)


@pytest.mark.parametrize("n", range(3, 7))
def test_pairwise(n):
    for seed in range(3 if n < 6 else 1):
        for consistent in (True, False):
            assert_same(pairwise(n, seed, consistent))


@pytest.mark.parametrize("seed", range(12))
def test_multi_term_substitution(seed):
    problem = multi_term(4 + seed % 3, seed)
    assert_same(problem)
    assert_same(problem, 2)


def test_substitution_is_exercised():
    multi = 0
    for seed in range(12):
        problem = multi_term(4 + seed % 3, seed)
        positions = {pos for pos, p in enumerate(problem.preferences)
                     if len(p.terms) > 1}
        relations = _derive(problem, problem.criteria.n)[0]
        multi += sum(r.trail[0] in positions for r in relations)
    assert multi > 0


def test_witness_cap_is_reached():
    report = assert_same(pairwise(6, 0, False))
    assert len(report.witnesses) == classify_module._WITNESS_CAP


def test_lowered_relation_cap(monkeypatch):
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 300)
    for consistent in (True, False):
        report = assert_same(pairwise(6, 0, consistent))
        assert report.depth_exceeded


@pytest.mark.parametrize("name", ["ex1.admp", "ex2.admp", "ex9.admp",
                                  "ex11.admp"])
def test_relation_cap_at_the_exact_count(name, monkeypatch):
    # a cap equal to the number of relations is full but not truncated
    # unless another derivation is attempted; around it the flag flips
    problem = parse_problem((CORPUS / name).read_text(encoding="utf-8"))
    total = len(reference_derive(problem, problem.criteria.n)[0])
    for cap in (total - 1, total, total + 1):
        monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
        assert_same(problem)
