"""Consistency classification: labels, witnesses, rule precedence, the
determinant cross-check, the ranges over a ratio multigraph, witnesses
listed on their first read, and a pipeline that leaves no reference
cycle."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import admcdm.classification as classify_module
from admcdm.classification import (
    ClassificationReport,
    DerivedRelation,
    Label,
    classify,
    derive_relations,
)
from admcdm.errors import (
    EngineError,
    NonEquationPreference,
    NonlinearPreferencePresent,
)
from admcdm.model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    Relation,
    make_cyclic_example,
)
from admcdm.parser import format_problem, parse_problem
from admcdm.solver import discount_report, priority

from classify_reference import reference_classify, reference_derive
from conftest import CORPUS, blocks, load, pairwise, ranked, summed
from test_classify_equivalence import (
    assert_matches,
    derived,
    extremes,
    listed,
)


def problem(names, *prefs):
    return Problem(CriteriaSet(tuple(names.split())), tuple(prefs))


# the last two statements force C0 = 0, so no positive vector spares the
# search, and no two derivations disagree
CONSERVATIVE = ("criteria: C0 C1 C2 C3 C4\n"
                "pref: C0 = 2 C1\n"
                "pref: C1 = 2 C2\n"
                "pref: C0 = 4 C2\n"
                "pref: C3 = 1 C4\n"
                "pref: C3 = 1 C4 + 1 C0\n")


class TestWorkedLabels:
    def test_perfect_chain_is_consistent(self):
        rep = classify(load("ex1.admp"))
        assert rep.label is Label.CONSISTENT
        assert rep.rule_fired == ""
        assert rep.witnesses == ()
        assert rep.det_agrees
        assert not rep.depth_exceeded

    def test_multi_term_overstatement_is_weak(self):
        rep = classify(load("ex2.admp"))
        assert rep.label is Label.WEAK_INCONSISTENT
        rules = {w[0] for w in rep.witnesses}
        assert "WD1" in rules
        assert "WD3" in rules
        assert rep.rule_fired == "WD1"
        assert rep.det_agrees

    def test_overlapping_ratios_are_weak(self):
        rep = classify(load("ex9.admp"))
        assert rep.label is Label.WEAK_INCONSISTENT
        assert rep.rule_fired == "WD1"
        assert rep.det_agrees

    def test_harsh_cycle_is_strong(self):
        rep = classify(load("ex11.admp"))
        assert rep.label is Label.STRONG_INCONSISTENT
        assert rep.rule_fired == "SD4"
        assert rep.det_agrees

    def test_mutual_inflation_is_strong(self):
        rep = classify(load("ex14.admp"))
        assert rep.label is Label.STRONG_INCONSISTENT
        assert rep.rule_fired == "SD4"
        assert rep.det_agrees

    def test_deflation_only_disagreement_is_wd2(self):
        # x = y/2 directly but 4y/5 via z, x = 2z/5 directly but z/4 via y,
        # y = z/2 directly but 4z/5 via x: every derived ratio sits below 1,
        # so the statements disagree without ever flipping an ordering
        rep = classify(problem(
            "x y z",
            LinearPreference(0, ((1, Fraction(1, 2)),)),
            LinearPreference(0, ((2, Fraction(2, 5)),)),
            LinearPreference(2, ((1, 2),)),
        ))
        assert rep.label is Label.WEAK_INCONSISTENT
        assert rep.rule_fired == "WD2"
        assert rep.det_agrees


class TestDerivedRelations:
    def test_chain_composition(self):
        # ex1 without the statement that closes its chain
        pr = load("ex1.admp")
        rels = derive_relations(Problem(pr.criteria, pr.preferences[:2]))
        assert DerivedRelation(0, 2, Fraction(12), (0, 1)) in rels

    def test_ratio_statements_compose(self):
        rels = derive_relations(load("ex9.admp"))
        assert DerivedRelation(1, 2, Fraction(12), (0, 1)) in rels

    def test_describe_format(self):
        rel = DerivedRelation(0, 1, Fraction(4, 5), (1, 2))
        assert rel.describe(("C1", "C2")) == "C1 = 4/5 * C2 (via 2,3)"

    def test_direct_edges_always_present(self):
        pr = problem(
            "x y",
            LinearPreference(0, ((1, 2),)),
        )
        rels = derive_relations(pr)
        assert DerivedRelation(0, 1, Fraction(2), (0,)) in rels

    def test_self_relation_from_multi_term_substitution(self):
        rels = derive_relations(load("ex2.admp"))
        self_rels = [r for r in rels if r.i == r.j]
        assert any(r.ratio == 2 for r in self_rels)


class TestInvariance:
    def test_criterion_permutation_preserves_the_label(self):
        rng = random.Random(0xC1A5)
        base_cases = ["ex1.admp", "ex2.admp", "ex9.admp", "ex11.admp",
                      "ex14.admp"]
        for name in base_cases:
            pr = load(name)
            n = pr.criteria.n
            for _ in range(6):
                perm = list(range(n))
                rng.shuffle(perm)
                remap = {old: new for new, old in enumerate(perm)}
                names = tuple(pr.criteria.names[old] for old in perm)
                prefs = []
                for p in pr.preferences:
                    prefs.append(LinearPreference(
                        remap[p.subject],
                        tuple((remap[j], c) for j, c in p.terms),
                    ))
                twin = Problem(CriteriaSet(names), tuple(prefs))
                assert classify(twin).label is classify(pr).label, name

    def test_preference_order_preserves_the_label(self):
        rng = random.Random(0x0DD5)
        for name in ["ex1.admp", "ex2.admp", "ex9.admp", "ex11.admp"]:
            pr = load(name)
            for _ in range(6):
                prefs = list(pr.preferences)
                rng.shuffle(prefs)
                twin = Problem(pr.criteria, tuple(prefs))
                assert classify(twin).label is classify(pr).label, name

    def test_multipliers_leave_the_report_alone(self):
        """classify reads the statements as written, which bind
        multipliers only rescale: seeded random multipliers on the core
        give the same report, witnesses included."""
        rng = random.Random(0xB1D)
        problems = [load(name) for name in ("ex1.admp", "ex2.admp",
                                            "ex9.admp", "ex10.admp",
                                            "ex11.admp", "ex14.admp")]
        problems += [pairwise(n, seed, False) for n in (3, 5)
                     for seed in range(2)]
        for pr in problems:
            expected = classify(pr)
            core = pr.binding.core_mask
            for _ in range(4):
                mults = tuple(
                    Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    if i in core else 1 for i in range(len(pr.preferences)))
                twin = Problem(pr.criteria, pr.preferences,
                               ParamBinding(mults, core))
                assert classify(twin) == expected
                assert classify(twin).witnesses == expected.witnesses


class TestCyclicFamily:
    def test_unit_parameter_is_consistent(self):
        rep = classify(make_cyclic_example(1))
        assert rep.label is Label.CONSISTENT
        assert rep.det_agrees

    @pytest.mark.parametrize("t", ["2", "5", "9", "1/2", "9/5", "1/9"])
    def test_any_other_parameter_is_strong(self, t):
        rep = classify(make_cyclic_example(t))
        assert rep.label is Label.STRONG_INCONSISTENT
        assert rep.rule_fired == "SD4"
        assert rep.det_agrees


class TestDeterminantCrossCheck:
    def test_det_agrees_on_every_linear_corpus_file(self, corpus_files):
        checked = 0
        for path in corpus_files:
            pr = parse_problem(path.read_text())
            try:
                rep = classify(pr)
            except (NonEquationPreference, NonlinearPreferencePresent):
                continue  # product/ordering statements have no linear system
            assert rep.det_agrees, path.name
            checked += 1
        assert checked >= 10

    def test_exactly_inconsistent_set_is_never_consistent(self):
        """Substitution finds no disagreement among these multi-term
        statements, but the determinant is not 0."""
        pr = parse_problem(
            "criteria: C0 C1 C2\n"
            "pref: C2 = 4/6 C1\n"
            "pref: C0 = 4/2 C2 + 4/9 C1\n"
            "pref: C1 = 9/6 C2\n"
            "pref: C2 = 1/4 C1 + 7/5 C0\n"
        )
        rep = classify(pr)
        assert rep.label is Label.WEAK_INCONSISTENT
        assert rep.rule_fired == ""
        assert not rep.det_agrees
        assert not rep.depth_exceeded

    def test_priority_reuses_its_consistency_test(self, corpus_files):
        problems = [(path.name, parse_problem(path.read_text()))
                    for path in corpus_files]
        problems += [(f"pairwise n={n} seed={seed} {consistent}",
                      pairwise(n, seed, consistent))
                     for n in range(3, 10) for seed in range(2)
                     for consistent in (True, False)]
        for name, pr in problems:
            try:
                report = priority(pr)[2]
            except EngineError:
                continue
            assert report == classify(pr), name


class TestExactRatios:
    """Derived ratios are compared exactly: no band hides a disagreement
    however close to 1 or to each other the ratios lie, and no ratio is
    too large to compare."""

    @pytest.mark.parametrize("statements, rules", [
        # a cycle whose product is 1 + 10^-12: y / z is 1 as stated and
        # 1 / (1 + 10^-12) as derived, so that pair fires WD2
        (("x = 1.000000000001 y", "y = 1 z", "z = 1 x"),
         ["WD1", "WD1", "WD2"]),
        # two derivations of x / z, 2 and 2 + 10^-12
        (("x = 2 y", "y = 1 z", "x = 2.000000000001 z"),
         ["WD1", "WD1", "WD1"]),
    ], ids=["near-one-cycle", "near-equal-pair"])
    def test_ratios_a_hair_apart_fire_wd1(self, statements, rules):
        rep = classify(parse_problem(
            "criteria: x y z\n" + "".join(f"pref: {s}\n" for s in statements)))
        assert rep.label is Label.WEAK_INCONSISTENT
        assert rep.rule_fired == "WD1"
        assert rep.det_agrees
        # one witness per pair, each pair fired by the unbalanced cycle
        assert [rule for rule, _, _ in rep.witnesses] == rules

    def test_cycle_past_the_float_range(self):
        rep = classify(make_cyclic_example(Fraction(10**400)))
        assert rep.label is Label.STRONG_INCONSISTENT
        assert rep.rule_fired == "SD4"
        # SD4 fires from x, so only x's two pairs are listed
        assert len(rep.witnesses) == 2
        assert rep.det_agrees and not rep.depth_exceeded


class TestGuards:
    def test_inequality_is_refused(self):
        pr = problem(
            "x y",
            LinearPreference(0, ((1, 2),)),
            InequalityPreference(0, 1, Relation.STRICT_LESS),
        )
        with pytest.raises(NonEquationPreference):
            classify(pr)

    def test_refusals_come_before_the_exact_test(self):
        # the search's own messages, not those of assembling the system
        pr = problem(
            "x y",
            LinearPreference(0, ((1, 2),)),
            InequalityPreference(0, 1, Relation.STRICT_LESS),
        )
        with pytest.raises(
                NonEquationPreference,
                match="^classification is defined on equation preferences "
                      "only$"):
            classify(pr)
        pr = problem(
            "x y z",
            LinearPreference(1, ((2, 2),)),
            MonomialPreference(0, 2, ((1, 1), (2, 1))),
        )
        with pytest.raises(
                NonlinearPreferencePresent,
                match="^classification is defined on linear preferences "
                      "only$"):
            classify(pr)

    def test_truncated_search_stays_conservative(self, monkeypatch):
        # the full search finds CONSERVATIVE Consistent, one capped at
        # the four statements' relations does not
        pr = parse_problem(CONSERVATIVE)
        rep = classify(pr)
        assert rep.label is Label.CONSISTENT and not rep.depth_exceeded
        monkeypatch.setattr(classify_module, "_RELATION_CAP", 4)
        rep = classify(pr)
        assert rep.depth_exceeded
        assert rep.label is Label.WEAK_INCONSISTENT
        assert rep.rule_fired == "" and not rep.det_agrees


class TestBoundedTime:
    """The relation cap bounds time: a full pairwise set at n = 9 has far
    more simple paths than the cap admits, and the recursion that reads
    its ranges builds 1,024 states from each start at most; a multi-term
    statement is substituted once per target, from its terms' ranges. A
    set that one positive vector solves as written is labelled without
    the search."""

    def pairwise_9(self):
        weights = (1, 2, 4, 8, 1, 2, 4, 8, 2)
        lines = ["criteria: " + " ".join(f"C{i}" for i in range(9))]
        for i in range(9):
            for j in range(i + 1, 9):
                ratio = Fraction(weights[i], weights[j])
                lines.append(f"pref: C{i} / C{j} = {ratio}")
        return parse_problem("\n".join(lines))

    def test_derivation_stops_at_the_cap(self):
        # derive_relations runs classify's search with its stops: SD4
        # fires from C0, whose pairs it lists at both ends of their range;
        # the solved set, which classify labels without a search, builds
        # 1,024 states from each start and stops at the cap within C4
        pr = pairwise(9, 0, False)
        relations = derive_relations(pr)
        assert [(r.i, r.j) for r in relations][::2] == [
            (0, j) for j in range(1, 9)]
        report = classify(pr)
        assert not report.depth_exceeded
        assert report.label is Label.STRONG_INCONSISTENT
        solved = self.pairwise_9()
        pairs = {tuple(sorted((r.i, r.j))) for r in derive_relations(solved)}
        assert len(derive_relations(solved)) == len(pairs)
        assert {i for i, _ in pairs} == set(range(5))
        report = classify(solved)
        assert report.label is Label.CONSISTENT
        assert not report.depth_exceeded

    def test_full_solve_is_fast(self):
        start = time.perf_counter()
        _, solution, report = priority(pairwise(9, 0, False))
        assert time.perf_counter() - start < 2.0
        assert solution.alpha != 1
        assert report.rule_fired == "SD4" and not report.depth_exceeded
        start = time.perf_counter()
        _, solution, report = priority(self.pairwise_9())
        assert time.perf_counter() - start < 2.0
        assert solution.alpha == 1
        assert report.label is Label.CONSISTENT
        assert report.witnesses == ()
        assert not report.depth_exceeded

    @pytest.mark.parametrize("n", [8, 9])
    def test_complete_sets_are_read_whole(self, n):
        # the full search passes the cap from C0 on (20,566 relations at
        # n = 8), yet SD4 fires within the recursion's states from C0
        for seed in range(5):
            report = classify(pairwise(n, seed, False))
            assert report.rule_fired == "SD4" and not report.depth_exceeded
            assert report.label is Label.STRONG_INCONSISTENT

    def test_state_budget_ends_a_set_without_sd4(self):
        # a 12-criteria set whose pairs fire no SD4 would build 11 * 2**10
        # states from each start; the recursion stops at the cap, and
        # listing traces C0's 11 pairs back through the states it built
        pr = ranked(12, 0)
        start = time.perf_counter()
        report = classify(pr)
        assert time.perf_counter() - start < 1.0
        assert report.depth_exceeded
        assert report.label is Label.WEAK_INCONSISTENT
        assert report.rule_fired == "WD1"
        start = time.perf_counter()
        witnesses = report.witnesses
        assert time.perf_counter() - start < 1.0
        assert [listed(pr, w)[:2] for w in witnesses] == [
            ("WD1", (0, j)) for j in range(1, 12)]

    @pytest.mark.parametrize("k", range(14, 19))
    def test_summed_sets_are_read_whole(self, k):
        # C0 as the sum of C1..C7 beside k ratios among them: the ratios'
        # ranges give SD4 within the recursion's states, so no
        # combination of their paths is tried
        pr = summed(k, 0)
        start = time.perf_counter()
        report = classify(pr)
        witnesses = report.witnesses
        assert time.perf_counter() - start < 0.5
        assert not report.depth_exceeded
        assert report.rule_fired == "SD4"
        assert report.label is Label.STRONG_INCONSISTENT
        for witness in witnesses:
            listed(pr, witness)

    def test_planted_sum_without_sd4(self):
        # summed(18, 0)'s shape with its ratios planted on weights 1..9,
        # plus C0 = (2 * sum(w) / w1) C1: the sum derives C0 / Cj at half
        # the ratio the two statements do, both above 1, so pair (C0, Cj)
        # fires WD1 and C0 derives itself at 1/2 (WD3), read whole from
        # the per-term extremes
        rng = random.Random(0)
        w = [rng.randint(1, 9) for _ in range(8)]
        prefs = []
        for _ in range(18):
            a, b = rng.sample(range(1, 8), 2)
            prefs.append(LinearPreference(a, ((b, Fraction(w[a], w[b])),)))
        prefs.append(LinearPreference(0, tuple((j, Fraction(1))
                                               for j in range(1, 8))))
        prefs.append(LinearPreference(
            0, ((1, Fraction(2 * sum(w[1:]), w[1])),)))
        pr = problem(" ".join(f"C{i}" for i in range(8)), *prefs)
        start = time.perf_counter()
        report = classify(pr)
        witnesses = report.witnesses
        assert time.perf_counter() - start < 0.5
        assert report.rule_fired == "WD1" and not report.depth_exceeded
        assert report.label is Label.WEAK_INCONSISTENT
        got = [listed(pr, w) for w in witnesses]
        assert [(rule, pair) for rule, pair, _, _ in got] == [
            ("WD1", (0, j)) for j in range(1, 8)] + [("WD3", (0, 0))]
        assert got[-1][2] == Fraction(1, 2)

    def test_witnesses_past_a_shared_criterion_are_bounded(self):
        # two full 8-criteria sets sharing C7: SD4 fires from C0, and the
        # listing traces back only the states the recursion built from C0
        pr = blocks(8, 0)
        report = classify(pr)
        assert report.rule_fired == "SD4"
        start = time.perf_counter()
        witnesses = report.witnesses
        assert time.perf_counter() - start < 1.0
        assert [listed(pr, w)[:2] for w in witnesses] == [
            ("SD4", (0, j)) for j in range(1, 8)]

    def test_a_long_run_of_equal_derivations_lists_in_bounded_time(self):
        # a consistent 9-criteria set but for C0 = 2 C5: every pair fires
        # that a cycle through that statement joins, yet most derivations
        # of each are equal. C0's pairs, read whole, fire WD1 and SD4 fires
        # from C1. Listing traces each pair's two extremes back through the
        # recursion's states, whatever the number of equal derivations
        w = [random.Random(1).randint(1, 9) for _ in range(9)]
        off = {(0, 5): 2}
        pr = problem(" ".join(f"C{i}" for i in range(9)), *[
            LinearPreference(a, ((b, Fraction(w[a] * off.get((a, b), 1),
                                              w[b])),))
            for a in range(9) for b in range(a + 1, 9)])
        report = classify(pr)
        assert report.rule_fired == "SD4" and not report.depth_exceeded
        start = time.perf_counter()
        witnesses = report.witnesses
        assert time.perf_counter() - start < 1.0
        got = [listed(pr, w)[:2] for w in witnesses]
        assert got[:8] == [("WD1", (0, j)) for j in range(1, 9)]
        assert {i for _, (i, _) in got[8:]} == {1}
        assert ("SD4", (1, 2)) in got

    def test_multi_term_statement_over_a_dense_ratio_graph(self, tmp_path):
        # C0 as the sum of six criteria that twelve ratios link: the
        # substitution reads each term's range instead of enumerating the
        # product of their derivations
        lines = ["criteria: c0 c1 c2 c3 c4 c5 c6"]
        lines += [f"pref: c{a} = {k} c{b}" for a, k, b in (
            (5, 1, 6), (3, 7, 5), (1, 7, 2), (4, 1, 6), (2, 8, 4),
            (2, 5, 3), (1, 4, 5), (2, 2, 6), (2, 6, 5), (3, 1, 6),
            (1, 1, 6), (1, 1, 3))]
        lines.append("pref: c0 = " + " + ".join(
            f"1 c{j}" for j in range(1, 7)))
        path = tmp_path / "dense.admp"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        src = str(Path(classify_module.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-m", "admcdm", "classify", str(path)],
            env=env, capture_output=True, text=True, timeout=20)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[0] == "label: StrongInconsistent (SD4)"


class TestPositiveSolution:
    """Consistent pairwise sets past the relation cap are Consistent."""

    @pytest.mark.parametrize("n", range(7, 10))
    def test_capped_consistent_pairwise_set(self, n):
        for seed in range(2):
            pr = pairwise(n, seed, True)
            # every derivation of a pair has one ratio, so the search
            # reads one per pair
            relations = derive_relations(pr)
            assert len({(r.i, r.j) for r in relations}) == len(relations)
            for report in (classify(pr), priority(pr)[2]):
                assert report.label is Label.CONSISTENT
                assert report.rule_fired == ""
                assert report.witnesses == ()
                assert report.det_agrees
                assert not report.depth_exceeded


def multigraph(n, seed):
    """Single-term statements over n criteria: a ratio cycle through all of
    them, a chord or two, and one to three pairs stated again, the same or
    the other way round, so the ratio graph holds 2-cycles. Ratios come
    from a few values, so some derivations agree."""
    rng = random.Random(f"multigraph:{n}:{seed}")
    order = rng.sample(range(n), n)
    pairs = list(zip(order, order[1:] + order[:1]))
    pairs += [tuple(rng.sample(range(n), 2))
              for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(pairs)
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    ratios = [Fraction(k) for k in (1, 2, 3)] + [Fraction(1, 2)]
    prefs = [LinearPreference(a, ((b, rng.choice(ratios)),))
             for a, b in pairs]
    rng.shuffle(prefs)
    return problem(" ".join(f"C{i}" for i in range(n)), *prefs)


class TestMultigraphWalk:
    """The recursion folds the statements on one criterion pair into one
    step, whichever way round each is stated. A criterion pair stated
    twice is where two statements make a cycle of their own; the
    derivations and reports must still be the reference's."""

    SETS = [(n, seed) for n in range(3, 7) for seed in range(8)]

    @pytest.mark.parametrize("n, seed", SETS)
    def test_equals_the_reference(self, n, seed):
        pr = multigraph(n, seed)
        report = classify(pr)
        assert_matches(pr, report, reference_classify(pr))
        if report.rule_fired != "SD4":
            assert (extremes(pr, derive_relations(pr))
                    == extremes(pr, reference_derive(pr)))

    def test_two_cycles_both_ways_are_derived(self):
        # each statement of a pair stated twice, the same way round or
        # the other, lies within the range the search reads for the pair
        same = opposite = 0
        for n, seed in self.SETS:
            pr = multigraph(n, seed)
            ranges = extremes(pr, derive_relations(pr))
            stated = {}
            for pos, p in enumerate(pr.preferences):
                (j, _), = p.terms
                rel = DerivedRelation(p.subject, j, p.terms[0][1], (pos,))
                pair, k = derived(pr, rel)
                if pair in ranges:
                    assert ranges[pair][0] <= k <= ranges[pair][1]
                if pair in stated:
                    same += stated[pair] == (p.subject, j)
                    opposite += stated[pair] == (j, p.subject)
                else:
                    stated[pair] = (p.subject, j)
        assert same and opposite


def ratio_cycle(n, seed):
    rng = random.Random(f"ratio-cycle:{n}:{seed}")
    return problem(" ".join(f"C{i}" for i in range(n)), *(
        LinearPreference(i, (((i + 1) % n,
                              Fraction(rng.randint(1, 9),
                                       rng.randint(1, 9))),))
        for i in range(n)))


class TestNoCyclicGarbage:
    """Parsing, priority(), discount_report() and classify() leave no
    reference cycle: reference counting frees every object of a case, so
    a case's relations do not wait for the cycle collector."""

    def panel(self):
        """Ratio cycles n = 3..24, full pairwise sets n = 3..7 (n = 7
        past the relation cap), multi-term sets that reach substitution,
        a file with bind lines and the input that has no positive
        root, each as file text."""
        from test_classify_equivalence import multi_term
        from test_engine_golden import _workloads

        problems = [ratio_cycle(n, 0) for n in range(3, 25)]
        problems += [pairwise(n, seed, consistent) for n in range(3, 8)
                     for seed in range(2) for consistent in (True, False)]
        problems += [multi_term(4 + seed % 3, seed, planted)
                     for seed in range(6) for planted in (False, True)]
        texts = [format_problem(p) for p in problems]
        texts.append((Path(__file__).resolve().parent.parent / "corpus"
                      / "ex9_expert.admp").read_text(encoding="utf-8"))
        texts.append(_workloads().REGRESSION_TEXT)
        return texts

    @staticmethod
    def run(text):
        """The pipeline on one text, classify()'s report read and
        priority()'s never read; the engine error it raised, if any."""
        pr = parse_problem(text)
        classify(pr).witnesses
        try:
            pv, _, _ = priority(pr)
        except EngineError as exc:
            return type(exc).__name__
        discount_report(pr, pv)
        return None

    def test_no_unreachable_objects(self):
        texts = self.panel()
        gc.collect()
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            errors = [self.run(text) for text in texts]
            found = gc.collect()
            kinds = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert found == 0, f"unreachable objects by type: {kinds}"
        assert errors[-1] == "NoPositiveRoot"
        assert "bind:" in texts[-2]

    def test_substitution_is_reached(self, monkeypatch):
        calls = []
        real = classify_module._substituted
        monkeypatch.setattr(classify_module, "_substituted",
                            lambda *a: calls.append(a) or real(*a))
        for text in self.panel():
            self.run(text)
        assert calls


def counted_relations(monkeypatch):
    """A list that gets one entry per DerivedRelation built from now on."""
    built = []
    real = classify_module.DerivedRelation
    monkeypatch.setattr(classify_module, "DerivedRelation",
                        lambda *args: built.append(args) or real(*args))
    return built


def unread(report):
    """Whether report's witnesses are still to be listed."""
    return "witnesses" not in vars(report)


class TestWitnessesListedOnRead:
    """A report lists its witnesses on their first read. Until then it
    holds the derivations of the pairs whose rule fired; read or not, it
    compares, hashes, prints, pickles and copies as the report built with
    its witnesses, and each read returns the one tuple."""

    @pytest.mark.parametrize("make", [
        lambda: pairwise(6, 0, False),
        lambda: parse_problem("criteria: C0 C1 C2 C3 C4\n" + "".join(
            f"pref: C{i} = 2 C{(i + 1) % 5}\n" for i in range(5))),
    ], ids=["pairwise-6", "cycle-5"])
    def test_priority_builds_no_relation_until_read(self, make,
                                                    monkeypatch):
        pr = make()
        built = counted_relations(monkeypatch)
        report = priority(pr)[2]
        assert report.label is Label.STRONG_INCONSISTENT
        assert built == [] and unread(report)
        witnesses = report.witnesses
        assert built and witnesses == classify(pr).witnesses
        assert_matches(pr, report, reference_classify(pr))

    @staticmethod
    def panel():
        """The equivalence inputs: the linear corpus (ex2 holds WD3
        self-relations from a multi-term substitution), pairwise sets
        n = 3..8, multi-term, dense multi-term and float sets, and a
        ranked 12-criteria set past the cap."""
        from test_classify_equivalence import (
            dense_multi_term,
            float_sets,
            multi_term,
        )

        problems = [load(p.name) for p in sorted(CORPUS.glob("*.admp"))]
        problems += [pairwise(n, seed, c) for n in range(3, 7)
                     for seed in range(2) for c in (True, False)]
        problems += [multi_term(4 + seed % 3, seed) for seed in range(12)]
        problems += [dense_multi_term(1, 8, 5), *float_sets()]
        problems += [pairwise(7, 0, False), pairwise(8, 0, False)]
        problems.append(ranked(12, 0))
        return problems

    def assert_alike(self, pr):
        """An unread report and a read one, each operation on a fresh
        unread report; the read report, or None for a refused set."""
        try:
            read = classify(pr)
        except EngineError:
            return None
        witnesses = read.witnesses
        assert read.witnesses is witnesses
        whole = ClassificationReport(read.label, witnesses, read.rule_fired,
                                     read.det_agrees, read.depth_exceeded)
        assert read == whole and repr(read) == repr(whole)
        assert pickle.dumps(read) == pickle.dumps(whole)
        for op in (lambda r: r, hash, repr, pickle.dumps,
                   lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                   copy.deepcopy, lambda r: r.witnesses):
            fresh = classify(pr)
            assert op(fresh) == op(whole)
            assert fresh.witnesses == witnesses
            assert fresh.witnesses is fresh.witnesses
        assert pickle.loads(pickle.dumps(classify(pr))).witnesses == \
            witnesses
        return read

    def test_read_and_unread_reports_are_alike(self):
        reports = [self.assert_alike(pr) for pr in self.panel()]
        reports = [r for r in reports if r is not None]
        rules = {w[0] for r in reports for w in r.witnesses}
        assert rules == {"SD4", "WD1", "WD2", "WD3"}
        assert any(r.depth_exceeded and r.witnesses for r in reports)

    def test_truncated_search_report_is_alike(self, monkeypatch):
        # TestGuards' capped search: truncated, with no witness
        pr = parse_problem(CONSERVATIVE)
        monkeypatch.setattr(classify_module, "_RELATION_CAP", 4)
        report = self.assert_alike(pr)
        assert report.depth_exceeded and report.witnesses == ()

    def test_only_a_deferred_field_is_listed(self):
        report = classify(pairwise(5, 0, False))
        with pytest.raises(AttributeError, match="no attribute 'other'"):
            report.other
        assert unread(report)
        report.witnesses
        with pytest.raises(AttributeError):
            report._pending

    @pytest.mark.parametrize("n", range(5, 10))
    def test_settled_count_is_the_listed_length(self, n, monkeypatch):
        """A lowered _WITNESS_CAP keeps the first witnesses of the list,
        and a relation cap raised past every search leaves it the same."""
        for seed in range(3 if n < 8 else 1):
            pr = pairwise(n, seed, False)
            witnesses = classify(pr).witnesses
            assert 0 < len(witnesses) < classify_module._WITNESS_CAP
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(classify_module, "_RELATION_CAP", 10**6)
                assert classify(pr).witnesses == witnesses
            for cap in range(1, len(witnesses) + 1):
                monkeypatch.setattr(classify_module, "_WITNESS_CAP", cap)
                assert classify(pr).witnesses == witnesses[:cap]
            monkeypatch.undo()

    def test_count_is_the_brute_count(self):
        """Where no SD4 ends the search, every start is read whole, and
        the list is the reference's: one witness for each pair with two
        derivations that differ."""
        for pr in (pairwise(5, 8, False), ranked(5, 0), ranked(6, 0)):
            n = pr.criteria.n
            groups = {}
            for r in reference_derive(pr):
                if r.i != r.j:
                    k = r.ratio if r.i < r.j else 1 / r.ratio
                    groups.setdefault(frozenset((r.i, r.j)), set()).add(k)
            brute = sum(len(ks) > 1 for ks in groups.values())
            report = classify(pr)
            assert report.rule_fired == "WD1"
            assert_matches(pr, report, reference_classify(pr))
            assert len(report.witnesses) == brute
