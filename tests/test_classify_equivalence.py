"""The classifier returns exactly what the exhaustive reference returns.

classify_reference.py keeps the straightforward derive-and-compare; here
both run on the corpus, seeded pairwise sets, seeded multi-term sets that
exercise substitution, a set that fills the witness cap, and lowered
relation caps, and the full reports (label, witnesses in order, rule,
det_agrees, depth_exceeded) and derived relations must be equal. A set
that one positive vector solves as written is labelled without a search;
where the reference search is not truncated its report is the same.
"""

import random
from fractions import Fraction

import pytest

from admcdm.classification import ClassificationReport, Label, _derive, classify
from admcdm.errors import EngineError
from admcdm.linalg import general_solution, particular_positive
from admcdm.model import (
    CriteriaSet,
    LinearPreference,
    Problem,
    assemble,
    canonicalize,
)
from admcdm.parser import parse_problem

from classify_reference import (
    classify_module,
    reference_classify,
    reference_derive,
)
from conftest import CORPUS, pairwise

# what the exhaustive search reports on a set that one positive vector
# solves: no rule can fire
SOLVED = ClassificationReport(label=Label.CONSISTENT, witnesses=(),
                              rule_fired="", det_agrees=True,
                              depth_exceeded=False)


def multi_term(n, seed, planted=False):
    """A ratio chain through every criterion, a few extra ratios, and two
    multi-term statements whose terms the chain links, so substitution
    derives new relations. When planted, each statement's coefficients are
    scaled so that every statement holds at one positive vector."""
    rng = random.Random(f"multi:{n}:{seed}")
    w = [Fraction(rng.randint(1, 9)) for _ in range(n)] if planted else None

    def statement(subject, terms):
        coefs = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for _ in terms]
        if w:
            scale = w[subject] / sum(c * w[j] for c, j in zip(coefs, terms))
            coefs = [c * scale for c in coefs]
        return LinearPreference(subject, tuple(zip(terms, coefs)))

    order = list(range(n))
    rng.shuffle(order)
    prefs = [statement(a, (b,)) for a, b in zip(order, order[1:])]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        prefs.append(statement(a, (b,)))
    for _ in range(2):
        subject, *terms = rng.sample(range(n), 3)
        prefs.append(statement(subject, sorted(terms)))
    rng.shuffle(prefs)
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                   tuple(prefs))


def dyadic(n, seed):
    """Float coefficients that are exact binary fractions, solved by one
    positive vector: a ratio chain through C1..C(n-1), whose weights are
    powers of two, C0 = 0.5 x_a + 0.25 x_b, and one ratio from C0."""
    rng = random.Random(f"dyadic:{n}:{seed}")
    w = [Fraction(2) ** rng.randint(-3, 3) for _ in range(n)]
    a, b = rng.sample(range(1, n), 2)
    w[0] = w[a] / 2 + w[b] / 4
    order = list(range(1, n))
    rng.shuffle(order)
    prefs = [LinearPreference(0, ((a, 0.5), (b, 0.25)))]
    prefs += [LinearPreference(i, ((j, float(w[i] / w[j])),))
              for i, j in zip(order, order[1:])]
    c = rng.randrange(1, n)
    prefs.append(LinearPreference(0, ((c, float(w[0] / w[c])),)))
    rng.shuffle(prefs)
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                   tuple(prefs))


def holds_at_a_positive_vector(problem):
    """Whether the vector with every free variable at 1 is positive and
    solves every statement exactly."""
    w = particular_positive(general_solution(assemble(problem)))
    return all(x > 0 for x in w) and all(
        w[lin.subject] == sum(Fraction(c) * w[j] for j, c in lin.terms)
        for lin in map(canonicalize, problem.preferences))


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


def test_depth_cutoff_met_only_past_every_greater_node():
    # at depth 2 only the walk from C2 through C0 meets the cutoff, at C1,
    # whose second statement is unused; that walk derives nothing, yet it
    # marks the search truncated
    problem = parse_problem("criteria: C0 C1 C2\n"
                            "pref: C0 = 2 C1\n"
                            "pref: C0 = 3 C1\n"
                            "pref: C2 = 3 C0\n")
    assert assert_same(problem, 2).depth_exceeded


def test_witness_cap_is_reached():
    report = assert_same(pairwise(6, 0, False))
    assert len(report.witnesses) == classify_module._WITNESS_CAP


def assert_solved_past_the_cap(problem):
    """The relations stop at the cap as the reference's do, but a set one
    positive vector solves is labelled without the search."""
    depth = problem.criteria.n
    assert _derive(problem, depth) == reference_derive(problem, depth)
    assert classify(problem) == SOLVED


def test_lowered_relation_cap(monkeypatch):
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 300)
    report = assert_same(pairwise(6, 0, False))
    assert report.depth_exceeded
    consistent = pairwise(6, 0, True)
    assert reference_derive(consistent, 6)[1]  # the search is truncated
    assert_solved_past_the_cap(consistent)


@pytest.mark.parametrize("name", ["ex1.admp", "ex2.admp", "ex9.admp",
                                  "ex11.admp"])
def test_relation_cap_at_the_exact_count(name, monkeypatch):
    # a cap equal to the number of relations is full but not truncated
    # unless another derivation is attempted; around it the flag flips.
    # ex1 is consistent: only its relations meet the cap
    problem = parse_problem((CORPUS / name).read_text(encoding="utf-8"))
    total = len(reference_derive(problem, problem.criteria.n)[0])
    for cap in (total - 1, total, total + 1):
        monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
        if name == "ex1.admp":
            assert_solved_past_the_cap(problem)
        else:
            assert_same(problem)


def solved_sets():
    for n in range(3, 7):
        for seed in range(3 if n < 6 else 1):
            yield pairwise(n, seed, True)
    for seed in range(12):
        yield multi_term(4 + seed % 3, seed, planted=True)
    for seed in range(6):
        yield dyadic(4 + seed % 3, seed)


def test_positive_solution_needs_no_search(monkeypatch):
    problems = list(solved_sets())
    multi = floats = 0
    for problem in problems:
        assert holds_at_a_positive_vector(problem)
        relations, truncated = reference_derive(problem, problem.criteria.n)
        assert not truncated
        assert reference_classify(problem) == SOLVED
        multi += any(len(r.trail) > 1 and len(
            problem.preferences[r.trail[0]].terms) > 1 for r in relations)
        floats += any(isinstance(c, float)
                      for p in problem.preferences for _, c in p.terms)
    # every set with a multi-term statement reaches substitution
    assert multi == 18 and floats == 6

    def no_search(*args):
        raise AssertionError("a solved set was searched")

    monkeypatch.setattr(classify_module, "_derive", no_search)
    for problem in problems:
        assert classify(problem) == SOLVED
        assert classify(problem, problem.criteria.n + 1) == SOLVED


def test_no_positive_vector_falls_back_to_the_search():
    # the exact test passes (two rows, three unknowns), but the solution
    # with C2 at 1 has C0 = C1 = 0, so the search decides the label
    problem = parse_problem("criteria: C0 C1 C2\n"
                            "pref: C0 = 2 C1\n"
                            "pref: C0 = 3 C1\n")
    report = assert_same(problem)
    assert report.label is Label.WEAK_INCONSISTENT
    assert report.rule_fired == "WD1"
    assert report.witnesses
