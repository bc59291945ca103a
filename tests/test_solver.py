"""Parametric solve pipeline: worked problems, root choice, extra
parameters, policies, and system-level invariants across the corpus."""

import importlib
import math
import random
import signal
import time
from fractions import Fraction
from itertools import combinations

import pytest

from admcdm.errors import (
    DegenerateCore,
    EngineError,
    InconsistentExtraParams,
    InvalidProblem,
    NoPositiveRoot,
    NonEquationPreference,
    NonlinearPreferencePresent,
    NonPositiveComponent,
)
from admcdm.linalg import det_numeric
from admcdm.model import (
    CriteriaSet,
    LinearPreference,
    Problem,
    make_cyclic_example,
)
from admcdm.parser import parse_problem
from admcdm.polynomial import peval, positive_roots
from admcdm.solver import (
    ConsistencyPolicy,
    _choose_root,
    _solve_extras,
    discount_report,
    parameterize,
    parametric_equation,
    priority,
    solve_alpha,
)

from conftest import assert_roots_match_sympy, dense, load, pairwise

RNG = random.Random(0xA1FA)


def problem(names, *prefs):
    return Problem(CriteriaSet(tuple(names.split())), tuple(prefs))


class TestWorkedProblems:
    def test_consistent_chain_needs_no_discount(self):
        pv, sol, _ = priority(load("ex1.admp"))
        assert sol.alpha == 1
        assert sol.consistency == 1
        assert pv == (Fraction(3, 4), Fraction(3, 16), Fraction(1, 16))

    def test_multi_term_discounted_by_root_two_over_two(self):
        pv, sol, _ = priority(load("ex2.admp"))
        assert abs(float(sol.alpha) - math.sqrt(2) / 2) <= 1e-10
        for got, want in zip(pv, (0.62923, 0.22246, 0.14831)):
            assert abs(float(got) - want) <= 5e-5

    def test_two_term_with_reversal_discounts_to_one_third(self):
        pv, sol, _ = priority(load("ex3.admp"))
        assert sol.alpha == Fraction(1, 3)
        assert pv == (Fraction(9, 22), Fraction(12, 22), Fraction(1, 22))

    def test_heavier_reversal_gets_an_irrational_root(self):
        pv, sol, _ = priority(load("ex4.admp"))
        assert abs(float(sol.alpha) - math.sqrt(23) / 23) <= 1e-10
        for got, want in zip(pv, (0.34763, 0.28994, 0.36243)):
            assert abs(float(got) - want) <= 5e-5

    def test_consistent_two_term_stays_undiscounted(self):
        pr = load("ex5.admp")
        pv, sol, _ = priority(pr)
        assert sol.alpha == 1
        assert pv == (Fraction(12, 17), Fraction(3, 17), Fraction(2, 17))
        assert all(f == 1 for _, f in discount_report(pr, pv))

    def test_small_coefficients_inflate_alpha(self):
        pv, sol, _ = priority(load("ex8.admp"))
        assert sol.alpha == 25
        assert sol.consistency == Fraction(1, 25)
        assert pv == (Fraction(4, 9), Fraction(3, 9), Fraction(2, 9))

    def test_large_coefficients_shrink_alpha(self):
        pv, sol, _ = priority(load("ex7.admp"))
        assert sol.alpha == Fraction(1, 100)
        assert pv == (Fraction(2, 9), Fraction(2, 9), Fraction(5, 9))

    def test_three_ratio_overlap_discounts_to_five_twelfths(self):
        pr = load("ex9.admp")
        pv, sol, _ = priority(pr)
        assert sol.alpha == Fraction(5, 12)
        assert pv == (Fraction(20, 57), Fraction(25, 57), Fraction(12, 57))
        assert all(f == Fraction(5, 12) for _, f in discount_report(pr, pv))

    def test_redundant_statement_gets_its_own_parameter(self):
        pv, sol, _ = priority(load("ex10.admp"))
        assert sol.alpha == Fraction(5, 12)
        assert sol.extra_params == ((3, Fraction(25, 48)),)
        assert pv == (Fraction(20, 57), Fraction(25, 57), Fraction(12, 57))

    def test_harsh_cycle_t_nine(self):
        pv, sol, _ = priority(load("ex11.admp"))
        assert sol.alpha == Fraction(1, 729)
        assert pv == (Fraction(1, 6643), Fraction(81, 6643),
                      Fraction(6561, 6643))
        assert abs(float(sol.consistency) - 0.00137) <= 1e-5
        assert abs(float(sol.inconsistency) - 0.99863) <= 1e-5

    def test_cycle_t_five(self):
        pv, sol, _ = priority(load("ex12.admp"))
        assert sol.alpha == Fraction(1, 125)
        assert pv == (Fraction(1, 651), Fraction(25, 651),
                      Fraction(625, 651))

    def test_two_criteria_mutual_inflation(self):
        pv, sol, _ = priority(load("ex14.admp"))
        assert abs(float(sol.alpha) - math.sqrt(10) / 10) <= 1e-10
        for got, want in zip(pv, (0.39, 0.61)):
            assert abs(float(got) - want) <= 5e-3

    def test_two_criteria_symmetric_inflation(self):
        pr = problem(
            "x y",
            LinearPreference(0, ((1, 2),)),
            LinearPreference(1, ((0, 2),)),
        )
        pv, sol, _ = priority(pr)
        assert sol.alpha == Fraction(1, 2)
        assert pv == (Fraction(1, 2), Fraction(1, 2))

    def test_expert_multipliers_shift_the_solution(self):
        pr = load("ex9_expert.admp")
        assert pr.binding.multipliers == (
            Fraction(1), Fraction(2), Fraction(1, 3))
        pv, sol, _ = priority(pr)
        assert sol.alpha == Fraction(5, 72)
        assert pv == (Fraction(120, 361), Fraction(25, 361),
                      Fraction(216, 361))

    def test_underdetermined_consistent_chain(self):
        pr = problem(
            "x y z",
            LinearPreference(0, ((1, 2),)),
            LinearPreference(1, ((2, 3),)),
        )
        pv, sol, _ = priority(pr)
        assert sol.alpha == 1
        assert pv == (Fraction(6, 10), Fraction(3, 10), Fraction(1, 10))


class TestDiscountFormula:
    def test_two_term_star_formula(self):
        """x = a1 y + a2 z with y = a3 x, z = a4 x always discounts by
        1 / sqrt(a1 a3 + a2 a4)."""
        for _ in range(100):
            a = [Fraction(RNG.randrange(1, 40), RNG.randrange(1, 12))
                 for _ in range(4)]
            pr = problem(
                "x y z",
                LinearPreference(0, ((1, a[0]), (2, a[1]))),
                LinearPreference(1, ((0, a[2]),)),
                LinearPreference(2, ((0, a[3]),)),
            )
            _, sol, _ = priority(pr)
            want = 1.0 / math.sqrt(float(a[0] * a[2] + a[1] * a[3]))
            assert abs(float(sol.alpha) - want) <= 1e-10 * max(1.0, want)

    def test_cyclic_family_consistency_closed_form(self):
        """For the three-statement cycle the consistency is min(t, 1/t)^3,
        so it falls strictly as t moves away from 1."""
        points = ["1/2", "4/5", "1", "2", "5", "9", "11"]
        cs = []
        for t in points:
            _, sol, _ = priority(make_cyclic_example(t))
            tf = Fraction(t)
            want = min(tf, 1 / tf) ** 3
            assert sol.consistency == want
            cs.append((abs(math.log(float(tf))), float(sol.consistency)))
        cs.sort()
        for (d1, c1), (d2, c2) in zip(cs, cs[1:]):
            if d2 > d1:
                assert c2 < c1


class TestRootChoice:
    def test_smallest_alpha_wins_ties(self):
        assert _choose_root((Fraction(1, 2), Fraction(2))) == Fraction(1, 2)

    def test_closest_to_one_wins(self):
        assert _choose_root((Fraction(1, 3), Fraction(2))) == Fraction(2)
        assert _choose_root((Fraction(3, 4), Fraction(5, 4))) == Fraction(5, 4)

    def test_double_root_is_reported_twice_and_chosen(self):
        pr = parse_problem(
            "criteria: x y z w\n"
            "pref: x = 2 y\n"
            "pref: y = 2 x\n"
            "pref: z = 2 w\n"
            "pref: w = 2 z\n"
        )
        sol = solve_alpha(parameterize(pr))
        assert sol.roots == (Fraction(1, 2), Fraction(1, 2))
        assert sol.alpha == Fraction(1, 2)


class TestFailureModes:
    def test_contradictory_pair_has_no_positive_root(self):
        pr = problem(
            "x y",
            LinearPreference(0, ((1, 2),)),
            LinearPreference(0, ((1, 3),)),
        )
        with pytest.raises(NoPositiveRoot):
            solve_alpha(parameterize(pr))

    def test_duplicate_statements_degenerate_the_core(self):
        pr = problem(
            "x y",
            LinearPreference(0, ((1, 2),)),
            LinearPreference(0, ((1, 2),)),
        )
        with pytest.raises(DegenerateCore):
            parametric_equation(parameterize(pr))

    def test_core_size_must_match_criteria_count(self):
        pr = problem(
            "x y z",
            LinearPreference(0, ((1, 2),)),
            LinearPreference(1, ((2, 3),)),
        )
        with pytest.raises(InvalidProblem):
            parametric_equation(parameterize(pr))

    def test_extras_disagree_away_from_the_root(self):
        """The auxiliary determinants impose one common constraint only at
        the solved parameter; evaluating the core anywhere else makes them
        clash, which the guard reports rather than averaging away."""
        ps = parameterize(load("ex10.admp"))
        with pytest.raises(InconsistentExtraParams):
            _solve_extras(ps, Fraction(1, 2))

    def test_extras_with_all_minors_vanishing(self):
        pr = parse_problem(
            "criteria: x y z w\n"
            "pref: x = 2 y\n"
            "pref: y = 2 x\n"
            "pref: z = 2 w\n"
            "pref: w = 2 z\n"
            "pref: x = 3 z\n"
        )
        with pytest.raises(InconsistentExtraParams):
            solve_alpha(parameterize(pr))

    def test_monomials_and_inequalities_are_refused(self):
        with pytest.raises(NonlinearPreferencePresent):
            parameterize(load("ex15.admp"))
        with pytest.raises(NonEquationPreference):
            parameterize(parse_problem(
                "criteria: x y\npref: x = 2 y\npref: x < y\n"))


def ratio_cycle(n, r):
    """x0 = r x1, x1 = r x2, ..., x(n-1) = r x0: the product of the ratios
    round the cycle is r^n, so the discount is exactly 1/r."""
    names = " ".join(f"x{i}" for i in range(n))
    return problem(names, *(LinearPreference(i, (((i + 1) % n, r),))
                            for i in range(n)))


LOOPING_INPUT = """criteria: C0 C1 C2 C3 C4 C5 C6 C7
pref: C5 = 3/8 C6 + 8/1 C2
pref: C0 = 6/9 C5
pref: C2 = 6/3 C6 + 2/5 C5
pref: C3 = 6/3 C1
pref: C3 = 5/1 C6
pref: C7 = 3/2 C3
pref: C3 = 1/1 C4 + 4/4 C7
pref: C5 = 9/7 C7
pref: C6 = 1/1 C5
pref: C3 = 6/5 C7 + 9/4 C2
pref: C5 = 4/5 C0 + 6/6 C6
"""


class TestExactCore:
    def test_five_cycle_discount_is_an_exact_fraction(self):
        _, sol, _ = priority(ratio_cycle(5, Fraction(2)))
        assert sol.alpha == Fraction(1, 2)
        assert isinstance(sol.alpha, Fraction)

    @pytest.mark.parametrize("n", range(8, 25))
    def test_long_ratio_cycles_solve_exactly(self, n):
        for r in (Fraction(2), Fraction(3, 2)):
            pv, sol, _ = priority(ratio_cycle(n, r))
            assert sol.alpha == 1 / r
            assert isinstance(sol.alpha, Fraction)
            assert pv == tuple([Fraction(1, n)] * n)

    def test_parametric_equations_have_fraction_coefficients(
            self, corpus_files):
        problems = [pr for _, pr in linear_corpus(corpus_files)]
        problems += [ratio_cycle(n, Fraction(3)) for n in (5, 9, 16)]
        for pr in problems:
            try:
                eq = parametric_equation(parameterize(pr))
            except (DegenerateCore, InvalidProblem):
                continue
            assert all(isinstance(c, Fraction) for c in eq.coeffs)

    def test_looping_regression_input_ends_quickly(self):
        """Root isolation once bisected this input forever; exactly, both
        real roots are negative."""
        def hang(signum, frame):
            raise TimeoutError("root isolation did not end")

        pr = parse_problem(LOOPING_INPUT)
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)  # fail instead of hanging if the loop comes back
        try:
            start = time.perf_counter()
            with pytest.raises(NoPositiveRoot):
                priority(pr)
            assert time.perf_counter() - start < 1.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_float_coefficients_are_read_exactly(self):
        """0.5 and 0.25 are binary fractions, so the float problem is the
        exact problem and solves to the same exact answer."""
        exact = priority(problem("x y z",
                                 LinearPreference(0, ((1, Fraction(1, 2)),)),
                                 LinearPreference(1, ((2, Fraction(1, 4)),)),
                                 LinearPreference(0, ((2, 2),))))
        floats = priority(problem("x y z",
                                  LinearPreference(0, ((1, 0.5),)),
                                  LinearPreference(1, ((2, 0.25),)),
                                  LinearPreference(0, ((2, 2.0),))))
        assert floats[0] == exact[0]
        assert floats[1].alpha == exact[1].alpha
        assert isinstance(floats[1].alpha, Fraction)

    def test_tiny_discount_is_found(self):
        """The equation 1 - 10**20 alpha^2 has the one positive root 1e-10,
        which is reported although it is that small."""
        _, sol, _ = priority(parse_problem(
            "criteria: A B\n"
            "pref: A = 10000000000 B\n"
            "pref: B = 10000000000 A\n"))
        assert abs(sol.alpha - 1e-10) <= 1e-12 * 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_twenty_four_criteria_end_quickly(self, seed):
        """A degree-22..24 equation: priority() ends in well under a
        second, and the equation's positive roots are sympy's."""
        pr = dense(24, seed)
        start = time.perf_counter()
        try:
            priority(pr)
        except EngineError:
            # NonPositiveComponent: the root closest to 1 need not have a
            # positive null vector
            pass
        assert time.perf_counter() - start < 1.0
        equation = parametric_equation(parameterize(pr))
        assert equation.degree >= 20
        assert_roots_match_sympy(equation, positive_roots(equation))

    def test_parametric_roots_are_correctly_rounded(self):
        """Every positive root of the dense (n = 4..12) and planted
        multi-term equations is sympy's: a rational one exactly, an
        irrational one as the float nearest to it."""
        rng = random.Random("correctly-rounded-roots")
        problems = [dense(n, seed) for n in range(4, 13) for seed in range(3)]
        problems += [perturbed_planted(rng, n)
                     for n in range(4, 10) for _ in range(4)]
        irrational = 0
        for pr in problems:
            equation = parametric_equation(parameterize(pr))
            found = positive_roots(equation)
            assert_roots_match_sympy(equation, found)
            irrational += sum(isinstance(r, float) for r in found)
        assert irrational >= 50


def perturbed_planted(rng, n):
    """n statements, each of two or three terms, that a positive integer
    vector satisfies until every coefficient is multiplied by a factor in
    4/5..3/2."""
    w = [rng.randint(1, 9) for _ in range(n)]
    prefs = []
    for i in range(n):
        terms = sorted(rng.sample([j for j in range(n) if j != i],
                                  rng.randint(2, 3)))
        b = [rng.randint(1, 5) for _ in terms]
        total = sum(bj * w[j] for bj, j in zip(b, terms))
        prefs.append(LinearPreference(i, tuple(
            (j, Fraction(bj * w[i], total) * rng.choice(
                (Fraction(4, 5), Fraction(6, 5), Fraction(3, 2))))
            for bj, j in zip(b, terms))))
    return problem(" ".join(f"C{i}" for i in range(n)), *prefs)


def planted_with_extras(rng):
    """n = 2..6 criteria and 1..3 statements beyond the core, every one
    scaled so that a positive integer vector satisfies it: the core at a
    rational alpha, each extra statement at its own rational parameter."""
    n = rng.randint(2, 6)
    w = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    alpha = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 2),
                        Fraction(2), Fraction(3, 4)))
    prefs = []
    for pos in range(n + rng.randint(1, 3)):
        s = rng.randrange(n)
        terms = rng.sample([j for j in range(n) if j != s],
                           rng.randint(1, min(2, n - 1)))
        par = alpha if pos < n else Fraction(rng.randint(1, 6),
                                             rng.randint(1, 6))
        coefs = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for _ in terms]
        k = w[s] / (par * sum(c * w[j] for c, j in zip(coefs, terms)))
        prefs.append(LinearPreference(
            s, tuple((j, c * k) for j, c in zip(terms, coefs))))
    return problem(" ".join(f"x{i}" for i in range(n)), *prefs)


class TestExtraParameters:
    def test_irrational_root_with_dependent_core_pairs_solves(self):
        """Two core rows, C2 = 3/4 C0 and C0 = C2, are dependent at every
        alpha; their float minors used to make the extra's parameter look
        ambiguous."""
        pr = parse_problem(
            "criteria: C0 C1 C2\n"
            "pref: C2 = 6/8 C0\n"
            "pref: C2 = 1/4 C1\n"
            "pref: C0 = 7/7 C2\n"
            "pref: C1 = 6/2 C0 + 6/3 C2\n"
        )
        pv, sol, _ = priority(pr)
        alpha = 2 / math.sqrt(3)
        assert abs(float(sol.alpha) - alpha) <= 1e-12
        ((pos, beta),) = sol.extra_params
        assert pos == 3
        assert abs(beta - 4 / (alpha * (3 * alpha + 2))) <= 1e-12
        assert abs(beta - 0.6339746) <= 1e-7
        for pos, factor in discount_report(pr, pv):
            want = beta if pos == 3 else sol.alpha
            assert abs(factor - want) <= 1e-12 * want

    def test_float_noise_is_not_a_positive_component(self):
        """Statements 1 and 3 force C2 = 0 exactly; at the irrational
        root the float null vector holds about 3e-16 there instead."""
        pr = parse_problem(
            "criteria: C0 C1 C2\n"
            "pref: C1 = 8/4 C0 + 1/2 C2\n"
            "pref: C0 = 6/1 C1\n"
            "pref: C1 = 6/9 C2 + 6/3 C0\n"
            "pref: C0 = 5/9 C1 + 4/4 C2\n"
        )
        with pytest.raises(NonPositiveComponent):
            priority(pr)

    def test_every_auxiliary_determinant_vanishes_at_beta(self):
        """Independent check in exact arithmetic: each extra row at its
        beta completes every n - 1 core rows at alpha to a singular matrix,
        unless that determinant vanishes for every beta."""
        rng = random.Random(7)
        checked = 0
        for _ in range(150):
            ps = parameterize(planted_with_extras(rng))
            try:
                sol = solve_alpha(ps)
            except EngineError:
                continue
            if not isinstance(sol.alpha, Fraction):
                continue
            core = ps.binding.core_mask
            for pos, beta in sol.extra_params:
                assert isinstance(beta, Fraction)
                for subset in combinations(core, ps.matrix.n - 1):
                    rows = [[peval(e, sol.alpha) for e in ps.matrix.entries[i]]
                            for i in subset]

                    def det_at(b):
                        extra = [peval(e, b) for e in ps.matrix.entries[pos]]
                        return det_numeric(rows + [extra])

                    if det_at(Fraction(0)) == det_at(Fraction(1)) == 0:
                        continue  # identically 0 in beta
                    assert det_at(beta) == 0
                    checked += 1
        assert checked >= 300


class TestPolicy:
    def test_threshold_must_be_a_probability(self):
        with pytest.raises(InvalidProblem):
            ConsistencyPolicy(threshold_c=2)

    def test_reject_policy_discharges_low_consistency(self):
        policy = ConsistencyPolicy(Fraction(1, 2))
        _, sol, _ = priority(load("ex11.admp"), policy)
        assert sol.discharged

    def test_no_policy_never_discharges(self):
        _, sol, _ = priority(load("ex11.admp"))
        assert not sol.discharged

    def test_high_consistency_passes_a_rejecting_policy(self):
        policy = ConsistencyPolicy(Fraction(1, 3))
        _, sol, _ = priority(load("ex9.admp"), policy)
        assert not sol.discharged  # 5/12 > 1/3


class TestParameterization:
    def test_unit_evaluation_recovers_the_plain_system(self):
        from admcdm.model import assemble

        pr = load("ex9.admp")
        ps = parameterize(pr)
        at_one = [[peval(e, Fraction(1)) for e in row]
                  for row in ps.matrix.entries]
        assert at_one == assemble(pr)

    def test_multipliers_scale_the_rows(self):
        pr = load("ex9_expert.admp")
        ps = parameterize(pr)
        rows = [[peval(e, Fraction(1)) for e in row]
                for row in ps.matrix.entries]
        # second statement carries multiplier 2: C1 = 4 * (2 alpha) C3
        assert rows[1] == [Fraction(1), Fraction(0), Fraction(-8)]
        # third carries 1/3: C2 = 5 * (alpha / 3) C3
        assert rows[2] == [Fraction(0), Fraction(1), Fraction(-5, 3)]


def linear_corpus(corpus_files):
    out = []
    for path in corpus_files:
        pr = parse_problem(path.read_text())
        try:
            parameterize(pr)
        except (NonEquationPreference, NonlinearPreferencePresent):
            continue
        out.append((path.name, pr))
    return out


class TestCorpusInvariants:
    def test_priority_vectors_are_positive_and_normalized(self, corpus_files):
        for name, pr in linear_corpus(corpus_files):
            pv, _, _ = priority(pr)
            assert all(float(x) > 0 for x in pv), name
            assert abs(float(sum(pv)) - 1.0) <= 1e-12, name

    def test_solved_parameter_annihilates_the_core_determinant(
            self, corpus_files):
        for name, pr in linear_corpus(corpus_files):
            _, sol, _ = priority(pr)
            if sol.alpha == 1 and sol.roots == (Fraction(1),):
                continue  # consistent branch: no parametric equation built
            eq = parametric_equation(parameterize(pr))
            scale = max(abs(float(c)) for c in eq.coeffs)
            assert abs(float(peval(eq, sol.alpha))) <= 1e-9 * max(1.0, scale), name

    def test_realized_discounts_match_the_solved_parameters(
            self, corpus_files):
        """Every core statement is bent by exactly its multiplier times the
        base parameter; every redundant statement by its own parameter."""
        for name, pr in linear_corpus(corpus_files):
            pv, sol, _ = priority(pr)
            extra = dict(sol.extra_params)
            mults = pr.binding.multipliers
            core = set(pr.binding.core_mask)
            for pos, factor in discount_report(pr, pv):
                if pos in extra:
                    want = extra[pos]
                elif pos in core or sol.alpha == 1:
                    want = mults[pos] * sol.alpha
                else:
                    continue
                assert abs(float(factor) - float(want)) <= 1e-9, name


NUMERIC_ENTRY_POINTS = ("det_numeric", "rank", "system_consistent",
                        "general_solution")


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the numeric systems eliminated: outermost calls of linalg's
    numeric entry points, patched wherever they are imported (a call one
    of them makes to another is the same elimination)."""
    classify_module = importlib.import_module("admcdm.classification")
    from admcdm import linalg, solver

    originals = {name: getattr(linalg, name) for name in NUMERIC_ENTRY_POINTS}
    count = {"calls": 0, "depth": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            count["calls"] += count["depth"] == 0
            count["depth"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                count["depth"] -= 1
        return wrapper

    for module in (linalg, solver, classify_module):
        for name, fn in originals.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(fn))
    return count


class TestEliminatedOnce:
    def test_consistent_pairwise_set_is_eliminated_once(self, eliminations):
        _, sol, _ = priority(pairwise(6, 0, True))
        assert sol.alpha == 1
        assert eliminations["calls"] == 1

    @pytest.mark.parametrize("make", [
        lambda: load("ex10.admp"),
        lambda: pairwise(5, 1, False),
    ], ids=["ex10", "pairwise"])
    def test_inconsistent_set_with_extras_is_eliminated_twice(
            self, eliminations, make):
        """The assembled rows, then the core at alpha, shared by the extra
        parameters and the priority vector."""
        pr = make()
        _, sol, _ = priority(pr)
        assert sol.extra_params
        assert eliminations["calls"] == 2

    def test_classify_eliminates_once(self, eliminations):
        from admcdm.classification import Label, classify

        assert classify(pairwise(6, 0, True)).label is Label.CONSISTENT
        assert eliminations["calls"] == 1
