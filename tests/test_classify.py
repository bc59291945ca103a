"""Consistency classification: labels, witnesses, rule precedence, and the
determinant cross-check."""

import random
import time
from fractions import Fraction

import pytest

from admcdm.classification import (
    _RELATION_CAP,
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
    Problem,
    Relation,
    make_cyclic_example,
)
from admcdm.parser import parse_problem
from admcdm.solver import priority

from conftest import load, pairwise


def problem(names, *prefs):
    return Problem(CriteriaSet(tuple(names.split())), tuple(prefs))


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
        rels = derive_relations(load("ex1.admp"))
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

    def test_max_depth_validation(self):
        with pytest.raises(ValueError):
            derive_relations(load("ex1.admp"), max_depth=0)

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

    def test_truncated_search_stays_conservative(self):
        rep = classify(load("ex1.admp"), max_depth=1)
        assert rep.depth_exceeded
        assert rep.label is Label.WEAK_INCONSISTENT

    @pytest.mark.parametrize("depth", [0, -1])
    def test_max_depth_below_one_is_refused(self, depth):
        with pytest.raises(ValueError):
            classify(load("ex1.admp"), max_depth=depth)


class TestBoundedTime:
    """The relation cap bounds time: a full pairwise set at n = 9 has far
    more simple paths than the cap admits. A set that one positive vector
    solves as written is labelled without the search."""

    def pairwise_9(self):
        weights = (1, 2, 4, 8, 1, 2, 4, 8, 2)
        lines = ["criteria: " + " ".join(f"C{i}" for i in range(9))]
        for i in range(9):
            for j in range(i + 1, 9):
                ratio = Fraction(weights[i], weights[j])
                lines.append(f"pref: C{i} / C{j} = {ratio}")
        return parse_problem("\n".join(lines))

    def test_derivation_stops_at_the_cap(self):
        pr = pairwise(9, 0, False)
        assert len(derive_relations(pr)) == _RELATION_CAP
        report = classify(pr)
        assert report.depth_exceeded
        assert report.label is not Label.CONSISTENT
        solved = self.pairwise_9()
        assert len(derive_relations(solved)) == _RELATION_CAP
        report = classify(solved)
        assert report.label is Label.CONSISTENT
        assert not report.depth_exceeded

    def test_full_solve_is_fast(self):
        start = time.perf_counter()
        _, solution, report = priority(pairwise(9, 0, False))
        assert time.perf_counter() - start < 2.0
        assert solution.alpha != 1
        assert report.depth_exceeded
        start = time.perf_counter()
        _, solution, report = priority(self.pairwise_9())
        assert time.perf_counter() - start < 2.0
        assert solution.alpha == 1
        assert report.label is Label.CONSISTENT
        assert report.witnesses == ()
        assert not report.depth_exceeded


class TestPositiveSolution:
    """Consistent pairwise sets past the relation cap are Consistent."""

    @pytest.mark.parametrize("n", range(7, 10))
    def test_capped_consistent_pairwise_set(self, n):
        for seed in range(2):
            pr = pairwise(n, seed, True)
            assert len(derive_relations(pr)) == _RELATION_CAP
            for report in (classify(pr), priority(pr)[2]):
                assert report.label is Label.CONSISTENT
                assert report.rule_fired == ""
                assert report.witnesses == ()
                assert report.det_agrees
                assert not report.depth_exceeded
