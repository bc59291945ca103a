"""The classifier returns exactly what the exhaustive reference returns.

classify_reference.py keeps the straightforward derive-and-compare; here
both run on the corpus, seeded pairwise sets, seeded multi-term sets that
exercise substitution (some over a dense ratio graph), seeded ratio
multigraphs, a set that fills the witness cap, lowered relation caps,
float coefficients (read exactly) and a ratio past the float range, and
the full reports (label, witnesses in order, rule, det_agrees,
depth_exceeded) and derived relations must be equal. A set that one
positive vector solves as written is labelled without a search; where the
reference search is not truncated its report is the same.

A set of one-term statements is not searched: the range of each pair's
derived ratios comes from a recursion over (node set, end node), whose
states count toward the relation cap. Its report is the reference's with
the relation cap raised past the whole search, so it differs from the
capped reference exactly on such sets that the reference truncates. Its
witnesses are listed from the pairs that fire, each walked within the
cap on its own, so a consistent block cannot use up the walk of a pair
that fires; they are the uncapped reference's while no such pair has
more derivations than the cap that would add to its list. Past the cap,
at n = 7, the engine's own capped search is the check, which the
reference would take seconds per set to give.
"""

import random
from collections import defaultdict
from fractions import Fraction
from math import comb

import pytest

from admcdm.classification import (
    ClassificationReport,
    Label,
    _derive,
    _report,
    _search,
    _statements,
    classify,
)
from admcdm.errors import EngineError
from admcdm.linalg import general_solution, particular_positive
from admcdm.model import (
    CriteriaSet,
    LinearPreference,
    Problem,
    assemble,
    canonicalize,
    make_cyclic_example,
)
from admcdm.parser import parse_problem
from admcdm.solver import priority

from classify_reference import (
    classify_module,
    reference_classify,
    reference_derive,
)
from conftest import CORPUS, blocks, pairwise, ranked

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


def dense_multi_term(seed, ratios, width):
    """C0 stated as a sum of width terms over C1..C6, which ratio
    statements link densely: a chain through C1..C6 and extra pairs up to
    the given number of ratios, so many derivations reach each term."""
    rng = random.Random(f"dense-multi:{seed}")
    order = rng.sample(range(1, 7), 6)
    pairs = list(zip(order, order[1:]))
    rest = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)
            if (a, b) not in pairs and (b, a) not in pairs]
    pairs += rng.sample(rest, ratios - 5)
    prefs = [LinearPreference(a, ((b, Fraction(rng.randint(1, 9))),))
             for a, b in pairs]
    terms = sorted(rng.sample(range(1, 7), width))
    prefs.append(LinearPreference(
        0, tuple((j, Fraction(rng.randint(1, 3))) for j in terms)))
    rng.shuffle(prefs)
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(7))),
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


def with_coefficients(problem, read):
    """problem with every coefficient c replaced by read(c)."""
    prefs = tuple(LinearPreference(p.subject,
                                   tuple((j, read(c)) for j, c in p.terms))
                  for p in map(canonicalize, problem.preferences))
    return Problem(problem.criteria, prefs)


def float_sources():
    """Inconsistent sets whose rationals (7/3, ...) have no float."""
    for seed in range(1, 5):
        yield multi_term(4 + seed % 3, seed)
    yield pairwise(5, 0, False)


def float_sets():
    """float_sources() built from float coefficients (7/3 as 2.333...)."""
    for source in float_sources():
        yield with_coefficients(source, float)


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


def ratio_only(problem):
    return all(len(p.terms) == 1 for p in problem.preferences)


def uncapped(fn, problem, *args):
    """fn(problem, *args) with the relation cap raised past every search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify_module, "_RELATION_CAP", 10**9)
        return fn(problem, *args)


def assert_same(problem):
    """classify equals the reference, which on a set of one-term
    statements it truncates is taken with the relation cap raised."""
    assert outcome(_derive, problem) == outcome(
        reference_derive, problem, problem.criteria.n)
    got = outcome(classify, problem)
    want = outcome(reference_classify, problem)
    if getattr(want, "depth_exceeded", False) and ratio_only(problem):
        want = uncapped(reference_classify, problem)
    assert got == want
    return got


def recursion_states(problem):
    """How many states the recursion builds, counted from the simple
    paths: from each start i < n - 1 in turn, one per node set and end of
    the paths from i, layer by layer (the paths one statement longer), up
    to the first layer whose paths give a pair (i, j) derivations on both
    sides of 1 (SD4)."""
    n = problem.criteria.n
    adjacency = classify_module._adjacency(_statements(problem)[0])
    total = 0
    for i in range(n - 1):
        paths = [(i, frozenset((i,)), Fraction(1))]
        sides = defaultdict(set)
        while paths:
            paths = [(u, nodes | {u}, k * Fraction(p, q))
                     for v, nodes, k in paths
                     for u, p, q, _ in adjacency[v] if u not in nodes]
            total += len({(nodes, v) for v, nodes, _ in paths})
            for v, _, k in paths:
                if v > i:
                    sides[v].add((k > 1) - (k < 1))
            if any({-1, 1} <= side for side in sides.values()):
                return total
    return total


def substitution_steps(problem):
    """How many partial combinations the substitution tries, counted from
    the reference's relations of one-term statements alone: per multi-term
    statement and target whose every term has a derivation, the empty one
    and each prefix whose relations share no statement with each other or
    with the statement."""
    n = problem.criteria.n
    multi = _statements(problem)[1]
    positions = {pos for pos, *_ in multi}
    pool = defaultdict(list)
    for r in uncapped(reference_derive, problem, n)[0]:
        if r.i != r.j and positions.isdisjoint(r.trail):
            pool[r.i, r.j].append(r.trail)
            pool[r.j, r.i].append(r.trail)

    def prefixes(choices, used):
        if not choices:
            return 1
        return 1 + sum(prefixes(choices[1:], used | set(trail))
                       for trail in choices[0] if used.isdisjoint(trail))

    total = 0
    for pos, _, terms in multi:
        for target in range(n):
            choices = [[()] if j == target else
                       [trail for trail in pool[j, target] if pos not in trail]
                       for j, _ in terms]
            if all(choices):
                total += prefixes(choices, {pos})
    return total


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.admp")))
def test_corpus(name):
    assert_same(parse_problem((CORPUS / name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("n", range(3, 7))
def test_pairwise(n):
    for seed in range(3 if n < 6 else 1):
        for consistent in (True, False):
            assert_same(pairwise(n, seed, consistent))


def ratio_multigraph(seed):
    """2..7 criteria and one-term statements k/l, k and l in 1..9, on
    random pairs: a pair may be stated several times, either way round,
    and the graph need not be connected."""
    rng = random.Random(f"ratio-multigraph:{seed}")
    n = rng.randint(2, 7)
    prefs = []
    for _ in range(rng.randint(1, n + 4)):
        a, b = rng.sample(range(n), 2)
        prefs.append(LinearPreference(
            a, ((b, Fraction(rng.randint(1, 9), rng.randint(1, 9))),)))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                   tuple(prefs))


@pytest.mark.parametrize("block", range(4))
def test_ratio_multigraphs_equal_the_uncapped_reference(block):
    searched = 0
    for seed in range(50 * block, 50 * block + 50):
        problem = ratio_multigraph(seed)
        report = classify(problem)
        assert report == uncapped(reference_classify, problem), seed
        searched += report.label is not Label.CONSISTENT
    assert searched >= 25


def test_dead_ends_are_skipped_without_changing_the_witnesses(monkeypatch):
    # listing walks a pair's paths only through criteria from which the
    # pair's other end can still be reached; walking every criterion, as
    # the search does, lists the same witnesses
    problems = [ratio_multigraph(seed) for seed in range(100)]
    problems += [blocks(m, seed) for m in (4, 5) for seed in range(3)]
    pruned = [classify(problem).witnesses for problem in problems]
    monkeypatch.setattr(classify_module, "_reaches", lambda *args: True)
    assert [classify(p).witnesses for p in problems] == pruned
    assert sum(len(w) for w in pruned[-6:]) == 6 * 200


def block_and_pair(m, triangle=False):
    """A consistent full set on m criteria, then C_m = 2 C_(m+1) and
    C_m = 3 C_(m+1); with triangle, three criteria ahead of them whose
    statements fire SD4, so the recursion stops at C0."""
    rng = random.Random(f"block-and-pair:{m}")
    w = [rng.randint(1, 9) for _ in range(m)]
    at = 3 if triangle else 0
    prefs = [LinearPreference(0, ((1, Fraction(2)),)),
             LinearPreference(1, ((2, Fraction(2)),)),
             LinearPreference(0, ((2, Fraction(1, 2)),))] if triangle else []
    prefs += [LinearPreference(at + a, ((at + b, Fraction(w[a], w[b])),))
              for a in range(m) for b in range(a + 1, m)]
    prefs += [LinearPreference(at + m, ((at + m + 1, Fraction(k)),))
              for k in (2, 3)]
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(at + m + 2))),
                   tuple(prefs))


def test_a_consistent_block_leaves_the_fired_pair_its_walk():
    # the 21 pairs of the block hold 326 derivations each, more than the
    # relation cap together; none fires, so none is walked, and the
    # parallel pair and its cycle are listed as the uncapped search lists
    problem = block_and_pair(7)
    report = classify(problem)
    assert report.rule_fired == "WD1" and not report.depth_exceeded
    assert [w[0] for w in report.witnesses] == ["WD1", "WD3"]
    assert report == uncapped(reference_classify, problem)


@pytest.mark.parametrize("m", [8, 11])
def test_criteria_past_sd4_are_read_when_listing(m, monkeypatch):
    # SD4 fires from C0, so classifying takes no later criterion; listing
    # takes them within a cap each (a full set on 11 criteria passes it,
    # and its pairs are read from the states built), and the list is the
    # one classifying every criterion with no cap gives
    problem = block_and_pair(m, triangle=True)
    report = classify(problem)
    assert report.rule_fired == "SD4" and not report.depth_exceeded
    listed = report.witnesses
    assert [w[0] for w in listed] == ["SD4"] * 3 + ["WD1"] + ["WD3"] * 2
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 10**7)
    assert classify(problem).witnesses == listed


def full_searches(monkeypatch):
    """A list that gets one entry per full search run from now on."""
    calls = []
    real = classify_module._search

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classify_module, "_search", counted)
    return calls


def assert_settled(problem, monkeypatch):
    """classify equals the reference, and a set of one-term statements
    never runs the full search."""
    report = assert_same(problem)
    calls = full_searches(monkeypatch)
    assert classify(problem) == report
    assert report.witnesses == classify(problem).witnesses
    assert calls == []
    return report


@pytest.mark.parametrize("n, seed", [(5, s) for s in range(3, 8)]
                         + [(6, 1), (6, 2)])
def test_pairwise_settles_from_the_first_pairs(n, seed, monkeypatch):
    report = assert_settled(pairwise(n, seed, False), monkeypatch)
    assert report.rule_fired == "SD4" and not report.depth_exceeded


def test_statement_order_and_orientation(monkeypatch):
    # the pairs are read in sorted order whatever the statements' order,
    # and a statement made the other way round (Cj = 1/k Ci) is inverted
    rng = random.Random("shuffled-pairwise")
    for n, seed in ((5, 0), (6, 0)):
        prefs = [LinearPreference(j, ((p.subject, 1 / c),))
                 for p in pairwise(n, seed, False).preferences
                 for (j, c), in [p.terms]]
        rng.shuffle(prefs)
        problem = Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                          tuple(prefs))
        assert_settled(problem, monkeypatch)
        monkeypatch.undo()


@pytest.mark.parametrize("consistent", [True, False])
def test_complete_set_with_a_ratio_past_the_float_range(consistent,
                                                        monkeypatch):
    # ratios are compared as exact int pairs, so a 10^400 ratio takes the
    # pair-by-pair path like any other
    base = pairwise(5, 0, consistent)
    (j, _), = base.preferences[0].terms
    prefs = (LinearPreference(base.preferences[0].subject,
                              ((j, Fraction(10**400)),)),
             *base.preferences[1:])
    report = assert_settled(Problem(base.criteria, prefs), monkeypatch)
    assert report.rule_fired and report.det_agrees


def test_complete_set_without_sd4_is_finished_from_its_pairs(monkeypatch):
    # every pair's derivations stay on one side of 1: WD1, never settled,
    # yet the pairs already walked give the report without a full search
    problem = pairwise(5, 8, False)
    report = assert_settled(problem, monkeypatch)
    assert report.rule_fired == "WD1"
    assert len(report.witnesses) == classify_module._WITNESS_CAP


@pytest.mark.parametrize("seed", range(3))
def test_unsettled_complete_set_adds_its_cycles(seed, monkeypatch):
    # with room for every witness the pairs leave some for the cycles: the
    # WD3 witnesses follow the pairs' in the full search's order
    monkeypatch.setattr(classify_module, "_WITNESS_CAP", 1000)
    base = pairwise(5, seed, True)
    (j, c), = base.preferences[0].terms
    prefs = (LinearPreference(base.preferences[0].subject, ((j, 2 * c),)),
             *base.preferences[1:])
    report = assert_settled(Problem(base.criteria, prefs), monkeypatch)
    rules = [w[0] for w in report.witnesses]
    assert report.rule_fired == "SD4" and len(rules) < 1000
    assert rules[-15:] == ["WD3"] * 15 and "WD3" not in rules[:-15]


@pytest.mark.parametrize("cap", [1, 3, 4])
def test_lowered_witness_cap_settles_small_sets(cap, monkeypatch):
    # K3 holds 3 witnesses at most, one per pair; K4 (pairwise(4, 0)) 39
    monkeypatch.setattr(classify_module, "_WITNESS_CAP", cap)
    cycle = make_cyclic_example(Fraction(9))
    assert_settled(cycle, monkeypatch)
    report = assert_settled(pairwise(4, 0, False), monkeypatch)
    assert len(report.witnesses) == cap


def test_unreachable_witness_cap_walks_no_pair(monkeypatch):
    # classifying walks no path; K4 holds at most 6 * C(5, 2) = 60
    # witnesses, fewer than the cap, so listing them walks every pair in
    # the report's order and then the cycles from every criterion
    walks = []
    real = classify_module._walk

    def recorded(*args, **kwargs):
        walks.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(classify_module, "_walk", recorded)
    report = classify(pairwise(4, 0, False))
    assert report.rule_fired == "SD4" and walks == []
    assert len(report.witnesses) == 39
    assert walks[:-1] == [[(i, (j,))] for i in range(4)
                          for j in range(i + 1, 4)]
    assert walks[-1] == [(start, ()) for start in range(4)]


def complete_states(n):
    """The states the recursion builds from each start of a complete set:
    one per nonempty node set S of the n - 1 others and end node in S."""
    return (n - 1) * 2 ** (n - 2)


def assert_capped(problem, exact):
    """A truncated report: its rule is one the exact report's rule
    outranks or equals, and its label is conservative."""
    report = classify(problem)
    assert report.depth_exceeded and report.label is not Label.CONSISTENT
    assert (report.rule_fired, exact.rule_fired) in {
        ("", ""), ("", "WD1"), ("WD1", "WD1"), ("", "SD4"), ("WD1", "SD4"),
        ("SD4", "SD4")}
    return report


@pytest.mark.parametrize("n", [5, 6])
def test_relation_cap_around_the_closed_form_count(n, monkeypatch):
    # ranked sets fire no SD4, so the recursion takes every start
    problem = ranked(n, 0)
    exact = uncapped(reference_classify, problem)
    total = (n - 1) * complete_states(n)
    for cap in (total - 1, total, total + 1):
        monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
        if cap < total:
            assert_capped(problem, exact)
        else:
            assert assert_settled(problem, monkeypatch) == exact
        monkeypatch.undo()


def layer_states(n, layers):
    """The states the recursion builds from one start of a complete set on
    n criteria in its first layers: l * C(n - 1, l) in layer l."""
    return sum(layer * comb(n - 1, layer) for layer in range(1, layers + 1))


# (n, seed, start, layer): where SD4 first fires on pairwise(n, seed, False)
_SD4_AT = [(5, 0, 1, 3), (5, 1, 1, 4), (5, 2, 2, 3), (6, 0, 1, 3),
           (6, 1, 0, 3), (6, 2, 0, 5), (7, 2, 0, 4)] + [
    (n, s, 0, 3) for n in (7, 8, 9, 10, 11, 12) for s in range(2)]


def test_closed_form_relation_count(monkeypatch):
    # the states counted from the simple paths take the closed form per
    # layer, and the report stops being truncated at a cap of that many:
    # every start of a ranked set; of a pairwise set, every start before
    # the one whose pairs fire SD4, and that one's layers up to the first
    # where its pairs do
    assert complete_states(9) == 1024
    assert all(layer_states(n, n - 1) == complete_states(n)
               for n in range(2, 13))
    cases = [(ranked(n, 0), (n - 1) * complete_states(n))
             for n in range(3, 7)]
    cases += [(pairwise(n, s, False),
               start * complete_states(n) + layer_states(n, layer))
              for n, s, start, layer in _SD4_AT]
    for problem, total in cases:
        assert recursion_states(problem) == total
        for cap, truncated in ((total - 1, True), (total, False)):
            monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
            assert classify(problem).depth_exceeded is truncated
        monkeypatch.undo()


def test_settled_sets_skip_the_full_search(monkeypatch):
    problem = pairwise(6, 0, False)
    expected = reference_classify(problem)

    def no_search(*args):
        raise AssertionError("a set of one-term statements was searched")

    monkeypatch.setattr(classify_module, "_search", no_search)
    assert classify(problem) == expected
    assert priority(problem)[2] == expected
    # the sets the relation cap used to truncate are read whole
    for n in (7, 8):
        report = classify(pairwise(n, 0, False))
        assert report.rule_fired == "SD4" and not report.depth_exceeded
        assert len(report.witnesses) == classify_module._WITNESS_CAP


# the relations the full search holds when its walks from C0 and C1 end,
# and all of them, for a complete 7-criteria set
_SEVEN_ENDS = (2946, 4731, 8018)


@pytest.mark.parametrize("cap", [c + d for c in _SEVEN_ENDS
                                 for d in (-1, 0, 1)])
def test_capped_complete_sets_settle_as_the_search_reports(cap, monkeypatch):
    # the full search of a complete 7-criteria set passes any of these
    # caps but holds every relation of the pairs of C0; the recursion
    # builds at most 1,152 states, so its report is never truncated and
    # otherwise the capped search's
    monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
    for seed in range(10):
        problem = pairwise(7, seed, False)
        expected = _report(*_search(7, *_statements(problem)), False)
        report = classify(problem)
        assert expected.depth_exceeded == (cap < 8018)
        assert not report.depth_exceeded
        assert (report.label, report.rule_fired, report.witnesses) == (
            expected.label, expected.rule_fired, expected.witnesses)


def test_pairwise_past_the_relation_cap():
    # the capped reference holds every relation of the pairs of C0, which
    # list the witnesses; only its truncation differs
    problem = pairwise(7, 0, False)
    report = classify(problem)
    expected = reference_classify(problem)
    assert expected.depth_exceeded and not report.depth_exceeded
    assert report == ClassificationReport(
        expected.label, expected.witnesses, expected.rule_fired,
        expected.det_agrees, False)
    assert len(report.witnesses) == classify_module._WITNESS_CAP


def test_only_witnesses_become_relation_objects(monkeypatch):
    built = 0
    real = classify_module.DerivedRelation

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(classify_module, "DerivedRelation", counting)
    report = classify(pairwise(7, 0, False))
    assert len(report.witnesses) == classify_module._WITNESS_CAP
    assert 0 < built <= 2 * classify_module._WITNESS_CAP


def test_float_coefficients():
    for problem in float_sets():
        report = assert_same(problem)
        assert report.label is not Label.CONSISTENT


def test_float_coefficients_are_read_exactly():
    inexact = 0
    for source in float_sources():
        problem = with_coefficients(source, float)
        twin = with_coefficients(source, lambda c: Fraction(float(c)))
        read = [c for p in problem.preferences for _, c in p.terms]
        assert all(isinstance(c, Fraction) for c in read)
        # the binary value of 1/3 or 7/3 has a large power-of-two denominator
        inexact += any(c.denominator > 2**40 for c in read)
        assert problem == twin
        assert classify(problem) == classify(twin)
        assert _derive(problem) == _derive(twin)
    assert inexact == 4  # multi_term seed 4 draws only dyadic coefficients


@pytest.mark.parametrize("seed", range(12))
def test_multi_term_substitution(seed):
    assert_same(multi_term(4 + seed % 3, seed))


def test_substitution_is_exercised():
    multi = 0
    for seed in range(12):
        problem = multi_term(4 + seed % 3, seed)
        positions = {pos for pos, p in enumerate(problem.preferences)
                     if len(p.terms) > 1}
        relations = _derive(problem)[0]
        multi += sum(r.trail[0] in positions for r in relations)
    assert multi > 0


@pytest.mark.parametrize("seed, ratios, width",
                         [(1, 8, 5), (0, 9, 4), (1, 9, 5)])
def test_dense_multi_term_substitution(seed, ratios, width):
    # many combinations of derived relations share a statement; those
    # the search drops must be the ones the exhaustive product drops
    problem = dense_multi_term(seed, ratios, width)
    assert_same(problem)
    relations = _derive(problem)[0]
    assert any(len(problem.preferences[r.trail[0]].terms) > 1
               for r in relations)


def test_witness_cap_is_reached():
    report = assert_same(pairwise(6, 0, False))
    assert len(report.witnesses) == classify_module._WITNESS_CAP


def assert_solved_past_the_cap(problem):
    """The relations stop at the cap as the reference's do, but a set one
    positive vector solves is labelled without the search."""
    assert _derive(problem) == reference_derive(problem, problem.criteria.n)
    assert classify(problem) == SOLVED


def test_lowered_relation_cap(monkeypatch):
    # 300 relations truncate the reference; the recursion builds 80
    # states from C0, where SD4 fires, and a cap below them truncates it
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 300)
    problem = pairwise(6, 0, False)
    assert reference_classify(problem).depth_exceeded
    exact = assert_same(problem)
    assert exact.rule_fired == "SD4" and not exact.depth_exceeded
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 40)
    assert_capped(problem, exact)
    consistent = pairwise(6, 0, True)
    assert reference_derive(consistent, 6)[1]  # the search is truncated
    assert_solved_past_the_cap(consistent)


@pytest.mark.parametrize("name", ["ex1.admp", "ex2.admp", "ex9.admp",
                                  "ex11.admp"])
def test_relation_cap_at_the_exact_count(name, monkeypatch):
    # a cap equal to the number of relations, of the substitution's steps
    # when it takes more, or of the recursion's states for a set of
    # one-term statements, is full but not truncated unless another is
    # attempted; around it the flag flips. ex1 is consistent: only its
    # relations meet the cap. ex2's substitution takes 9 steps for its 6
    # relations. Each pair's listing holds up to the cap's derivations on
    # its own, so ex11's witnesses are whole at a cap of its 4 states,
    # below its 7 relations
    problem = parse_problem((CORPUS / name).read_text(encoding="utf-8"))
    total = len(reference_derive(problem, problem.criteria.n)[0])
    exact = uncapped(reference_classify, problem)
    searched = name != "ex1.admp" and ratio_only(problem)
    if searched:
        total = recursion_states(problem)
    else:
        total = max(total, substitution_steps(problem))
    if name == "ex2.admp":
        assert total == 9
    for cap in (total - 1, total, total + 1):
        monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
        if name == "ex1.admp":
            assert_solved_past_the_cap(problem)
        elif cap < total:
            assert_capped(problem, exact)
        else:
            assert assert_same(problem) == exact


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
        assert all(isinstance(c, Fraction)
                   for p in problem.preferences for _, c in p.terms)
        # dyadic() states C0 = 0.5 x_a + 0.25 x_b in floats
        floats += any({c for _, c in p.terms} == {Fraction(1, 2),
                                                  Fraction(1, 4)}
                      for p in problem.preferences)
    # every set with a multi-term statement reaches substitution
    assert multi == 18 and floats == 6

    def no_search(*args):
        raise AssertionError("a solved set was searched")

    monkeypatch.setattr(classify_module, "_search", no_search)
    for problem in problems:
        assert classify(problem) == SOLVED


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
