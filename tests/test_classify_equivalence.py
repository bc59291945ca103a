"""The classifier gives what the exhaustive reference gives.

classify_reference.py keeps the straightforward derive-and-compare, which
walks every path and substitutes every combination of them; here both run
on the corpus, seeded pairwise sets, seeded multi-term sets that exercise
substitution (some over a dense ratio graph), seeded ratio multigraphs,
random small linear sets, lowered caps, float coefficients (read exactly)
and a ratio past the float range. The label, rule and det_agrees must be
equal. A set that one positive vector solves as written is labelled
without a search.

The engine searches no path or combination: the range of each pair's
derived ratios comes from a recursion over (node set, end node), whose
states count toward the relation cap, and a multi-term statement's range
toward each target from its terms' ranges. Its witnesses are the
derivations at the ends of those ranges, so where two derivations tie the
engine may list the other: they are compared with the reference's by
rule, pair and ratios, and each is checked to derive its ratio
(assert_witnesses). Where the search stopped, at SD4 or at the cap, each
lies within the reference's range.
"""

import random
from collections import defaultdict
from fractions import Fraction
from math import comb

import pytest

from admcdm.classification import (
    ClassificationReport,
    Label,
    _spans,
    _statements,
    classify,
    derive_relations,
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


def dense_multi_term(seed, ratios, width, graded=False):
    """C0 stated as a sum of width terms over C1..C6, which ratio
    statements link densely: a chain through C1..C6 and extra pairs up to
    the given number of ratios, so many derivations reach each term. When
    graded, each ratio states Ca = 10**(b - a) * k Cb, a < b and k in
    {10/11, 1, 11/10}, so no derivation of Ca / Cb lies below 1 and no
    pair of C1..C6 fires SD4 (as in conftest.ranked)."""
    rng = random.Random(f"dense-multi:{seed}")
    order = rng.sample(range(1, 7), 6)
    pairs = list(zip(order, order[1:]))
    rest = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)
            if (a, b) not in pairs and (b, a) not in pairs]
    pairs += rng.sample(rest, ratios - 5)
    noise = (Fraction(10, 11), Fraction(1), Fraction(11, 10))
    prefs = [LinearPreference(min(a, b), ((max(a, b), 10 ** abs(b - a)
                                           * rng.choice(noise)),))
             if graded else LinearPreference(a, ((b, Fraction(
                 rng.randint(1, 9))),))
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


def fields(report):
    """A report's fields but its witnesses."""
    return (report.label, report.rule_fired, report.det_agrees,
            report.depth_exceeded)


def follow(problem, node, trail, end):
    """(k, rest): x_node = k x_end along trail's first statements, once
    they are checked to be one-term statements on a simple path from node
    that first reaches end at the last of them; rest the statements after
    it."""
    nodes, k = [node], Fraction(1)
    for taken, pos in enumerate(trail, 1):
        pref = problem.preferences[pos]
        (term, c), = pref.terms
        if node == pref.subject:
            node, k = term, k * c
        else:
            assert node == term, (trail, pos)
            node, k = pref.subject, k / c
        nodes.append(node)
        if node == end:
            assert len(set(nodes)) == len(nodes), trail
            return k, trail[taken:]
    raise AssertionError(f"{trail} does not reach {end}")


def derived(problem, relation):
    """The pair (i, j), i <= j, of a derivation and its ratio oriented from
    i, once its trail is checked to give relation.ratio. The trail is a
    simple path of one-term statements from relation.i to relation.j, or a
    multi-term statement whose subject is relation.i followed, for each
    term but relation.j in term order, by a simple path between the term
    and relation.j, from the smaller of the two."""
    head = problem.preferences[relation.trail[0]]
    if len(head.terms) == 1:
        k, rest = follow(problem, relation.i, relation.trail, relation.j)
    else:
        assert head.subject == relation.i, relation
        k, rest, t = 0, relation.trail[1:], relation.j
        for j, c in head.terms:
            if j == t:
                k += c
                continue
            r, rest = follow(problem, min(j, t), rest, max(j, t))
            k += c * (r if j < t else 1 / r)
    assert not rest and k == relation.ratio, relation
    i, j = sorted((relation.i, relation.j))
    return (i, j), k if i == relation.i else 1 / k


def listed(problem, witness):
    """(rule, pair, low, high) of a witness, once it is checked: a pair's
    two relations derive it (derived), low below high, and its rule is
    theirs, so an SD4 witness has one ratio on each side of 1; a WD3
    witness's one relation derives a self-relation whose ratio is not 1,
    both low and high."""
    rule, a, b = witness
    pair, low = derived(problem, a)
    if b is None:
        assert rule == "WD3" and pair[0] == pair[1] and low != 1, witness
        return rule, pair, low, low
    other, high = derived(problem, b)
    assert pair == other and pair[0] < pair[1] and low < high, witness
    assert rule == reference_rule(low, high), witness
    return rule, pair, low, high


def assert_witnesses(problem, report, reference):
    """report's witnesses against the reference's, each checked (listed).
    Where the search read every range whole they are the reference's, by
    rule, pair and ratios. Where it may have stopped, at SD4 or at the
    cap, each pair's lies within the reference's range; on one-term
    statements the pairs of the criteria before the last one listed are
    the reference's, whose starts were read whole."""
    got = [listed(problem, w) for w in report.witnesses]
    want = [listed(problem, w) for w in reference.witnesses]
    if report.rule_fired != "SD4" and not report.depth_exceeded:
        assert got == want
        return
    ranges = {pair: (low, high) for _, pair, low, high in want}
    for rule, pair, low, high in got:
        if rule != "WD3":
            assert ranges[pair][0] <= low < high <= ranges[pair][1]
    if ratio_only(problem):
        last = got[-1][1][0] if got else problem.criteria.n
        assert [w for w in got if w[1][0] < last] == [
            w for w in want if w[1][0] < last]


def assert_matches(problem, report, reference):
    """report is reference but for the witnesses' derivations, which
    assert_witnesses checks."""
    assert fields(report) == fields(reference)
    assert_witnesses(problem, report, reference)


def extremes(problem, relations):
    """Each pair's or criterion's (smallest, largest) ratio among
    relations, each checked (derived); a cycle of one-term statements is
    left out."""
    out = {}
    for r in relations:
        if r.i == r.j and len(problem.preferences[r.trail[0]].terms) == 1:
            continue
        key, k = derived(problem, r)
        low, high = out.get(key, (k, k))
        out[key] = (min(low, k), max(high, k))
    return out


def assert_same(problem):
    """classify matches the reference (assert_matches), and where it read
    every range whole derive_relations holds each pair's and criterion's
    extremes, the reference's."""
    got = outcome(classify, problem)
    want = outcome(reference_classify, problem)
    if not isinstance(want, ClassificationReport):
        assert got == want
        assert outcome(derive_relations, problem) == want
        return got
    assert_matches(problem, got, want)
    if got.rule_fired != "SD4":
        assert (extremes(problem, derive_relations(problem))
                == extremes(problem, reference_derive(problem)))
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
        assert_matches(problem, report, reference_classify(problem))
        searched += report.label is not Label.CONSISTENT
    assert searched >= 25


def random_linear(rng):
    """3..6 criteria and 2 to n + 3 statements on random criteria, each
    multi-term (2 or 3 terms) with probability 0.3 and a ratio otherwise,
    coefficients k/l with k and l in 1..9."""
    n = rng.randint(3, 6)
    prefs = []
    for _ in range(rng.randint(2, n + 3)):
        width = rng.randint(2, min(3, n - 1)) if rng.random() < 0.3 else 1
        subject, *terms = rng.sample(range(n), width + 1)
        prefs.append(LinearPreference(subject, tuple(
            (j, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for j in terms)))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                   tuple(prefs))


@pytest.mark.parametrize("block", range(4))
def test_random_linear_sets_equal_the_reference(block):
    # the label, rule and det_agrees are the exhaustive search's, where a
    # substituted derivation may take a statement in more than one term;
    # each witness derives its ratio, and where no SD4 stopped the search
    # the witnesses and derive_relations hold the reference's extremes
    rng = random.Random(f"random-linear:{block}")
    rules = set()
    substituted = 0
    for _ in range(100):
        problem = random_linear(rng)
        report = assert_same(problem)
        rules.add(report.rule_fired)
        substituted += any(len(problem.preferences[r.trail[0]].terms) > 1
                           for w in report.witnesses for r in w[1:] if r)
    assert {"", "WD1", "WD2", "SD4"} <= rules
    assert substituted > 10


@pytest.mark.parametrize("kind", ["multigraph", "multi-term", "pairwise"])
def test_each_fired_pair_lists_its_extremes(kind):
    # one witness per fired pair, in the pairs' order: two derivations of
    # it, at its smallest and its largest ratio where its start was read
    # whole; then, with a multi-term statement, one WD3 witness per
    # criterion, at its smallest self ratio unless that is 1. Each is one
    # of the derivations derive_relations lists
    if kind == "multigraph":
        fired = 0
        for seed in range(300):
            problem = ratio_multigraph(seed)
            report = classify(problem)
            assert_witnesses(problem, report, reference_classify(problem))
            fired += len(report.witnesses)
        assert fired > 300
    elif kind == "multi-term":
        for seed in range(30):
            problem = multi_term(4 + seed % 4, seed)
            report = assert_same(problem)
            relations = derive_relations(problem)
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
    # as the exhaustive search lists it
    problem = block_and_pair(7)
    report = classify(problem)
    assert report.rule_fired == "WD1" and not report.depth_exceeded
    assert [w[0] for w in report.witnesses] == ["WD1"]
    assert_matches(problem, report, reference_classify(problem))


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


def substitutions(monkeypatch):
    """A list that gets one entry per multi-term substitution from now
    on."""
    calls = []
    real = classify_module._substituted

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classify_module, "_substituted", counted)
    return calls


def assert_settled(problem, monkeypatch):
    """classify equals the reference, and a set of one-term statements
    substitutes nothing, classifying or listing."""
    report = assert_same(problem)
    calls = substitutions(monkeypatch)
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
    # listing traces the witnesses back through the layers the recursion
    # kept, also the paths a multi-term statement's terms take: no start's
    # recursion runs again
    problems = [pairwise(n, 0, False) for n in range(4, 10)]
    problems += [ranked(n, 0) for n in (5, 12)]
    problems += [ratio_multigraph(seed) for seed in range(50)]
    problems += [multi_term(4 + seed % 4, seed) for seed in range(20)]
    starts = []
    real = classify_module._ranges

    def recorded(steps, layers, held):
        starts.extend(v for _, v in layers[0])
        return real(steps, layers, held)

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
    outranks or equals, since each range it read lies within the exact
    one, and its label is conservative."""
    report = classify(problem)
    assert report.depth_exceeded and report.label is not Label.CONSISTENT
    rank = ["", "WD3", "WD2", "WD1", "SD4"].index
    assert rank(report.rule_fired) <= rank(exact.rule_fired)
    return report


@pytest.mark.parametrize("n", [5, 6])
def test_relation_cap_around_the_closed_form_count(n, monkeypatch):
    # ranked sets fire no SD4, so the recursion takes every start
    problem = ranked(n, 0)
    exact = reference_classify(problem)
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

    def no_substitution(*args):
        raise AssertionError("a set of one-term statements substituted")

    monkeypatch.setattr(classify_module, "_substituted", no_substitution)
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


# the relations a walk of every path held when its walks from C0 and C1
# ended, and all of them, for a complete 7-criteria set
_SEVEN_ENDS = (2946, 4731, 8018)


@pytest.mark.parametrize("cap", [c + d for c in _SEVEN_ENDS
                                 for d in (-1, 0, 1)])
def test_capped_complete_sets_settle_as_the_search_reports(cap, monkeypatch):
    # a walk of every path of a complete 7-criteria set passed any of
    # these caps; the recursion builds at most 1,152 states, so its report
    # is never truncated and the same at any of them, and its witnesses
    # derive their pairs
    problems = [pairwise(7, seed, False) for seed in range(10)]
    expected = [classify(problem) for problem in problems]
    monkeypatch.setattr(classify_module, "_RELATION_CAP", cap)
    for problem, want in zip(problems, expected):
        report = classify(problem)
        assert not report.depth_exceeded
        assert report == want
        for witness in report.witnesses:
            listed(problem, witness)


def test_pairwise_past_the_relation_cap():
    # a walk of every path passes the cap on a complete 7-criteria set;
    # the recursion stops at C0, where SD4 fires and whose pairs list the
    # witnesses, each within the exhaustive search's range
    problem = pairwise(7, 0, False)
    report = classify(problem)
    assert len(reference_derive(problem)) > classify_module._RELATION_CAP
    assert not report.depth_exceeded
    assert_matches(problem, report, reference_classify(problem))
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
        assert derive_relations(problem) == derive_relations(twin)
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
        relations = derive_relations(problem)
        multi += sum(r.trail[0] in positions for r in relations)
    assert multi > 0


@pytest.mark.parametrize("seed, ratios, width",
                         [(1, 8, 5), (0, 9, 4), (1, 9, 5)])
def test_dense_multi_term_substitution(seed, ratios, width):
    # many paths reach each term: the extremes of the substituted ratios
    # must be those of the exhaustive product of them. The ratios are
    # graded, since SD4 among them would end the search before the
    # substitution
    problem = dense_multi_term(seed, ratios, width, graded=True)
    assert assert_same(problem).rule_fired != "SD4"
    relations = derive_relations(problem)
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
    """A set one positive vector solves is labelled without the search,
    whatever the cap; returns whether the search would be truncated."""
    assert classify(problem) == SOLVED
    return _spans(problem.criteria.n, *_statements(problem))[1]


def test_lowered_relation_cap(monkeypatch):
    # the recursion builds 80 states from C0, where SD4 fires, and a cap
    # below them truncates it
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 300)
    problem = pairwise(6, 0, False)
    exact = assert_same(problem)
    assert exact.rule_fired == "SD4" and not exact.depth_exceeded
    monkeypatch.setattr(classify_module, "_RELATION_CAP", 40)
    assert_capped(problem, exact)
    assert assert_solved_past_the_cap(pairwise(6, 0, True))


@pytest.mark.parametrize("name", ["ex1.admp", "ex2.admp", "ex9.admp",
                                  "ex11.admp"])
def test_relation_cap_at_the_exact_count(name, monkeypatch):
    # a cap equal to the recursion's states is full but not truncated
    # unless another is attempted; around it the flag flips. ex1 is
    # consistent and never searched. ex2's multi-term statements are
    # substituted from the ranges of its 4 states, and ex11's witnesses
    # are traced back through its 4, below its 7 relations
    problem = parse_problem((CORPUS / name).read_text(encoding="utf-8"))
    exact = reference_classify(problem)
    total = recursion_states(problem)
    if name == "ex2.admp":
        assert total == 4
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
        relations = reference_derive(problem)
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

    monkeypatch.setattr(classify_module, "_spans", no_search)
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
