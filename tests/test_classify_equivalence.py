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
witnesses are traced back through the recursion's states, so where two
paths tie the engine may list the other: they are compared with the
reference's by rule, pair and ratios, and each is checked to be a simple
path of statements whose product is its ratio (assert_witnesses). Past
the cap, at n = 7, the engine's own capped search is the check, which the
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
    reference_rule,
)
from conftest import CORPUS, pairwise, ranked

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


def fields(report):
    """A report's fields but its witnesses."""
    return (report.label, report.rule_fired, report.det_agrees,
            report.depth_exceeded)


def oriented(problem, relation):
    """The pair (i, j), i < j, of a derivation from one-term statements,
    and its ratio oriented from i, once its trail is checked to be a
    simple path of statements from relation.i to relation.j whose
    product is relation.ratio."""
    node, nodes, k = relation.i, [relation.i], Fraction(1)
    for pos in relation.trail:
        pref = canonicalize(problem.preferences[pos])
        (term, c), = pref.terms
        if node == pref.subject:
            node, k = term, k * Fraction(c)
        else:
            assert node == term, (relation, pos)
            node, k = pref.subject, k / Fraction(c)
        nodes.append(node)
    assert node == relation.j and k == relation.ratio, relation
    assert len(set(nodes)) == len(nodes), relation
    i, j = sorted((relation.i, relation.j))
    return (i, j), k if i == relation.i else 1 / k


def listed(problem, witness):
    """(rule, pair, low, high) of a witness on one-term statements, once
    both its relations are checked to derive the pair, low below high,
    and its rule to be theirs: an SD4 witness has one ratio on each side
    of 1."""
    rule, a, b = witness
    (pair, low), (other, high) = oriented(problem, a), oriented(problem, b)
    assert pair == other and low < high, witness
    assert rule == reference_rule(low, high), witness
    assert rule != "SD4" or low < 1 < high
    return rule, pair, low, high


def assert_witnesses(problem, report, reference):
    """report's witnesses on one-term statements against the uncapped
    reference's. Each is valid (listed). The pairs read whole are the
    reference's, by rule, pair and ratios: all of them, unless the search
    stopped at SD4 or at the cap, and then the pairs of the criteria
    before the last one listed. That one's pairs fired within the layers
    its recursion built, so their ratios lie within the reference's
    range."""
    got = [listed(problem, w) for w in report.witnesses]
    want = [listed(problem, w) for w in reference.witnesses]
    stopped = report.rule_fired == "SD4" or report.depth_exceeded
    last = got[-1][1][0] if stopped and got else problem.criteria.n
    assert [w for w in got if w[1][0] < last] == [
        w for w in want if w[1][0] < last]
    ranges = {pair: (low, high) for _, pair, low, high in want}
    for _, pair, low, high in got:
        if pair[0] == last:
            assert ranges[pair][0] <= low < high <= ranges[pair][1]


def assert_matches(problem, report, reference):
    """report is reference, up to the witnesses' paths on a set of one-term
    statements, which assert_witnesses checks."""
    if ratio_only(problem):
        assert fields(report) == fields(reference)
        assert_witnesses(problem, report, reference)
    else:
        assert report == reference


def assert_same(problem):
    """classify equals the reference (assert_matches), which on a set of
    one-term statements it truncates is taken with the relation cap
    raised."""
    assert outcome(_derive, problem) == outcome(
        reference_derive, problem, problem.criteria.n)
    got = outcome(classify, problem)
    want = outcome(reference_classify, problem)
    if not isinstance(want, ClassificationReport):
        assert got == want
        return got
    if want.depth_exceeded and ratio_only(problem):
        want = uncapped(reference_classify, problem)
    assert_matches(problem, got, want)
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
        assert_matches(problem, report,
                       uncapped(reference_classify, problem))
        searched += report.label is not Label.CONSISTENT
    assert searched >= 25


@pytest.mark.parametrize("kind", ["multigraph", "multi-term", "pairwise"])
def test_each_fired_pair_lists_its_extremes(kind):
    # one witness per fired pair, in the pairs' order: two derivations of
    # it, at its smallest and its largest ratio where its start was read
    # whole; then, with a multi-term statement, one WD3 witness per
    # criterion, its first self-relation whose ratio is not 1
    if kind == "multigraph":
        fired = 0
        for seed in range(300):
            problem = ratio_multigraph(seed)
            report = classify(problem)
            assert_witnesses(problem, report,
                             uncapped(reference_classify, problem))
            fired += len(report.witnesses)
        assert fired > 300
    elif kind == "multi-term":
        for seed in range(30):
            problem = multi_term(4 + seed % 4, seed)
            report = assert_same(problem)
            relations = _derive(problem)[0]
            assert all(r in relations for w in report.witnesses
                       for r in w[1:] if r is not None)
            selves = [w[1].i for w in report.witnesses if w[0] == "WD3"]
            assert selves == sorted(set(selves))
    else:
        for n in range(7, 15):
            for seed in range(3):
                problem = pairwise(n, seed, False)
                report = classify(problem)
                assert report.rule_fired == "SD4" and report.witnesses
                pairs = [listed(problem, w)[1] for w in report.witnesses]
                assert pairs == sorted(set(pairs))


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
    # relation cap together; none fires, and the parallel pair is listed
    # as the uncapped search lists it
    problem = block_and_pair(7)
    report = classify(problem)
    assert report.rule_fired == "WD1" and not report.depth_exceeded
    assert [w[0] for w in report.witnesses] == ["WD1"]
    assert_matches(problem, report, uncapped(reference_classify, problem))


@pytest.mark.parametrize("m", [8, 11])
def test_criteria_past_sd4_are_not_listed(m, monkeypatch):
    # SD4 fires from C0, so classifying takes no later criterion, and
    # listing takes none either: only C0's pairs are listed, the same
    # however high the relation cap
    problem = block_and_pair(m, triangle=True)
    report = classify(problem)
    assert report.rule_fired == "SD4" and not report.depth_exceeded
    witnesses = report.witnesses
    assert [listed(problem, w)[:2] for w in witnesses] == [
        ("SD4", (0, 1)), ("SD4", (0, 2))]
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 10**7)
    assert classify(problem).witnesses == witnesses


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
    # yet every start read whole gives the report without a full search,
    # and lists each of the ten pairs, all of which fire
    problem = pairwise(5, 8, False)
    report = assert_settled(problem, monkeypatch)
    assert report.rule_fired == "WD1"
    assert [listed(problem, w)[1] for w in report.witnesses] == [
        (i, j) for i in range(5) for j in range(i + 1, 5)]


@pytest.mark.parametrize("seed", range(3))
def test_unsettled_complete_set_lists_the_pairs_its_cycles_join(seed,
                                                                monkeypatch):
    # one statement of a consistent complete set doubled: every cycle
    # through it has the product 2 or 1/2, and fires each pair it joins,
    # which is every pair; those are listed, and no WD3 witness
    base = pairwise(5, seed, True)
    (j, c), = base.preferences[0].terms
    prefs = (LinearPreference(base.preferences[0].subject, ((j, 2 * c),)),
             *base.preferences[1:])
    problem = Problem(base.criteria, prefs)
    report = assert_settled(problem, monkeypatch)
    assert report.rule_fired == "SD4" and report.witnesses
    assert "WD3" not in [w[0] for w in report.witnesses]


@pytest.mark.parametrize("cap", [1, 3, 4])
def test_lowered_witness_cap_settles_small_sets(cap, monkeypatch):
    # the K3 cycle lists two pairs and K4 (pairwise(4, 0)) three, all from
    # C0, where SD4 fires; the cap keeps the first of them
    whole = [classify(p).witnesses for p in (
        make_cyclic_example(Fraction(9)), pairwise(4, 0, False))]
    assert [len(w) for w in whole] == [2, 3]
    monkeypatch.setattr(classify_module, "_WITNESS_CAP", cap)
    cycle = assert_settled(make_cyclic_example(Fraction(9)), monkeypatch)
    report = assert_settled(pairwise(4, 0, False), monkeypatch)
    assert cycle.witnesses == whole[0][:cap]
    assert report.witnesses == whole[1][:cap]


def test_listing_walks_no_path(monkeypatch):
    # on one-term statements, listing traces the witnesses back through
    # the layers the recursion kept: it walks no path, and no start's
    # recursion runs again
    problems = [pairwise(n, 0, False) for n in range(4, 10)]
    problems += [ranked(n, 0) for n in (5, 12)]
    problems += [ratio_multigraph(seed) for seed in range(50)]
    starts = []
    real = classify_module._ranges

    def recorded(steps, layers, held):
        starts.extend(v for _, v in layers[0])
        return real(steps, layers, held)

    def no_walk(*args):
        raise AssertionError("listing walked a path")

    monkeypatch.setattr(classify_module, "_walk", no_walk)
    monkeypatch.setattr(classify_module, "_ranges", recorded)
    listed_any = False
    for problem in problems:
        report = classify(problem)
        recursed = list(starts)
        assert len(set(recursed)) == len(recursed)
        listed_any |= bool(report.witnesses)
        assert starts == recursed
        starts.clear()
    assert listed_any


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
            assert_matches(problem, assert_settled(problem, monkeypatch),
                           exact)
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
    assert_matches(problem, classify(problem), expected)
    assert_matches(problem, priority(problem)[2], expected)
    # the sets the relation cap used to truncate are read whole
    for n in (7, 8):
        problem = pairwise(n, 0, False)
        report = classify(problem)
        assert report.rule_fired == "SD4" and not report.depth_exceeded
        assert report.witnesses
        for witness in report.witnesses:
            listed(problem, witness)


# the relations the full search holds when its walks from C0 and C1 end,
# and all of them, for a complete 7-criteria set
_SEVEN_ENDS = (2946, 4731, 8018)


@pytest.mark.parametrize("cap", [c + d for c in _SEVEN_ENDS
                                 for d in (-1, 0, 1)])
def test_capped_complete_sets_settle_as_the_search_reports(cap, monkeypatch):
    # the full search of a complete 7-criteria set passes any of these
    # caps but holds every relation of the pairs of C0; the recursion
    # builds at most 1,152 states, so its report is never truncated and
    # otherwise the capped search's, and its witnesses derive their pairs
    monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
    for seed in range(10):
        problem = pairwise(7, seed, False)
        expected = _report(*_search(7, *_statements(problem)), False)
        report = classify(problem)
        assert expected.depth_exceeded == (cap < 8018)
        assert not report.depth_exceeded
        assert (report.label, report.rule_fired) == (
            expected.label, expected.rule_fired)
        for witness in report.witnesses:
            listed(problem, witness)


def test_pairwise_past_the_relation_cap():
    # the capped reference holds every relation of the pairs of C0, where
    # SD4 fires and whose pairs list the witnesses; only its truncation
    # differs
    problem = pairwise(7, 0, False)
    report = classify(problem)
    expected = reference_classify(problem)
    assert expected.depth_exceeded and not report.depth_exceeded
    assert_matches(problem, report, ClassificationReport(
        expected.label, expected.witnesses, expected.rule_fired,
        expected.det_agrees, False))
    assert {w[1].i for w in report.witnesses} == {0}


def test_only_witnesses_become_relation_objects(monkeypatch):
    built = 0
    real = classify_module.DerivedRelation

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(classify_module, "DerivedRelation", counting)
    report = classify(pairwise(7, 0, False))
    assert built == 0
    witnesses = report.witnesses
    assert 0 < built == 2 * len(witnesses)


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


def test_witness_cap_is_reached(monkeypatch):
    # a lowered cap keeps the first witnesses of the list, on one-term
    # statements and, with its WD3 witnesses, on a multi-term set
    for problem in (pairwise(6, 0, False), multi_term(6, 2)):
        whole = assert_same(problem).witnesses
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify_module, "_WITNESS_CAP", len(whole) - 1)
            assert assert_same(problem).witnesses == whole[:-1]
        assert len(whole) > 3


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
    # relations. ex11's witnesses are traced back through the states its
    # recursion keeps, so they are whole at a cap of its 4 states, below
    # its 7 relations
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
            assert_matches(problem, assert_same(problem), exact)


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
