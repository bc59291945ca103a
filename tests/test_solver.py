"""Parametric solve pipeline: worked problems, root choice, extra
parameters, policies, and system-level invariants across the corpus."""

import importlib
import math
import random
import signal
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from admcdm.classification import _exact_test
from admcdm.errors import (
    DegenerateCore,
    EngineError,
    FullRank,
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
    ParamBinding,
    Problem,
    canonicalize,
    make_cyclic_example,
    statement_rows,
)
from admcdm.parser import parse_problem
from admcdm.polynomial import peval, positive_roots
from admcdm.solver import (
    _choose_root,
    _core_vector,
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
        with pytest.raises(FullRank):
            _core_vector(ps, Fraction(1, 2))
        with pytest.raises(InconsistentExtraParams):
            _solve_extras(ps, Fraction(1, 2), None, 0)

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

    def test_a_full_rank_float_core_is_refused_never_leaked(self):
        """At an irrational alpha the core's float elimination can keep
        every pivot, where the exact core is singular: priority() then
        raises InvalidProblem, never the internal FullRank. Some
        two-cycles c1 = 10^e1/k1 c0, c0 = k2 10^e2 c1 with a tail
        c2 = p/q c1 meet it, and so does the last set, at
        alpha = sqrt(7) 10^-9."""
        outcomes = Counter()
        for e1, e2, k1, k2, p, q in product(
                range(0, 13, 2), range(0, 13, 2), (1, 3, 7), (1, 2, 7),
                (1, 9), (1, 5)):
            pr = parse_problem(
                f"criteria: c0 c1 c2\npref: c1 = {10**e1}/{k1} c0\n"
                f"pref: c0 = {k2 * 10**e2} c1\npref: c2 = {p}/{q} c1\n")
            try:
                priority(pr)
                outcomes["solved"] += 1
            except EngineError as exc:
                outcomes[type(exc).__name__] += 1
        assert sum(outcomes.values()) == 1764
        assert "FullRank" not in outcomes and outcomes["InvalidProblem"]
        pr = parse_problem("criteria: c0 c1 c2\n"
                           "pref: c1 = 1000000000/7 c0\n"
                           "pref: c2 = 9/5 c1\n"
                           "pref: c0 = 7000000000/7 c1\n")
        with pytest.raises(InvalidProblem, match="float elimination"):
            priority(pr)

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
    """The discharge policy: priority()'s threshold_c."""

    def test_threshold_must_be_a_probability(self):
        # refused before anything is solved, on a consistent set too
        for problem in (load("ex1.admp"), load("ex11.admp")):
            with pytest.raises(InvalidProblem,
                               match=r"threshold_c must lie in \[0, 1\]"):
                priority(problem, 2)
        ps = parameterize(load("ex11.admp"))
        with pytest.raises(InvalidProblem):
            solve_alpha(ps, threshold_c=-Fraction(1, 2))

    def test_reject_policy_discharges_low_consistency(self):
        _, sol, _ = priority(load("ex11.admp"), Fraction(1, 2))
        assert sol.discharged

    def test_no_policy_never_discharges(self):
        _, sol, _ = priority(load("ex11.admp"))
        assert not sol.discharged

    def test_high_consistency_passes_a_rejecting_policy(self):
        _, sol, _ = priority(load("ex9.admp"), threshold_c=Fraction(1, 3))
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


NUMERIC_ENTRY_POINTS = ("det_numeric", "rank", "general_solution",
                        "null_vector")


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the numeric systems eliminated: outermost calls of linalg's
    numeric entry points, patched wherever they are imported (a call one
    of them makes to another is the same elimination); "rows" lists each
    one's row count."""
    classify_module = importlib.import_module("admcdm.classification")
    from admcdm import linalg, solver

    originals = {name: getattr(linalg, name) for name in NUMERIC_ENTRY_POINTS}
    count = {"calls": 0, "depth": 0, "rows": []}

    def counted(fn):
        def wrapper(rows, *args, **kwargs):
            if count["depth"] == 0:
                count["calls"] += 1
                count["rows"].append(len(rows))
            count["depth"] += 1
            try:
                return fn(rows, *args, **kwargs)
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

    def test_consistent_pairwise_set_eliminates_only_its_core(
            self, eliminations):
        """The core's null line at alpha = 1 is checked against the 9
        other statements by dot products: 6 rows are eliminated, not 15."""
        pr = pairwise(6, 0, True)
        assert len(pr.preferences) == 15
        _, sol, _ = priority(pr)
        assert sol.alpha == 1 and sol.extra_params == ()
        assert eliminations["rows"] == [6]

    def test_core_line_missed_by_an_extra_is_eliminated_once(
            self, eliminations):
        """The core triangle agrees, the statements outside it do not: the
        core's null line at alpha = 1 decides the set and fixes the extra
        parameters, so the core at the chosen root 1 is not eliminated
        again."""
        pr = pairwise(5, 0, False)
        _, sol, _ = priority(pr)
        assert sol.alpha == 1 and any(b != 1 for _, b in sol.extra_params)
        assert eliminations["rows"] == [5]

    def test_core_plane_at_one_with_extras_eliminates_the_rows_as_written(
            self, eliminations):
        """f = (1 - alpha**2)**2: at alpha = 1 the core's 4 rows have a
        null plane, which no check against the extra statement can settle,
        so the 5 rows as written are eliminated after them."""
        pr = parse_problem(
            "criteria: x y z w\npref: x = 1 y\npref: y = 1 x\n"
            "pref: z = 1 w\npref: w = 1 z\npref: x = 2 z\n")
        pv, sol, _ = priority(pr)
        assert sol.alpha == 1 and sol.extra_params == ()
        assert pv == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 6),
                      Fraction(1, 6))
        assert eliminations["rows"] == [4, 5]

    def test_core_plane_at_one_missed_by_the_extras_is_not_eliminated_again(
            self, eliminations):
        """f = (1 - alpha**2)**2 again, but the extra statements y = 2 x
        and w = 3 z miss the plane: the 6 rows as written have only the
        zero solution, so the root 1 is chosen, and the core's plane at 1
        from the consistency test leaves the extra parameters unfixed
        without a third elimination."""
        pr = parse_problem(
            "criteria: x y z w\npref: x = 1 y\npref: y = 1 x\n"
            "pref: z = 1 w\npref: w = 1 z\npref: y = 2 x\n"
            "pref: w = 3 z\n")
        with pytest.raises(InconsistentExtraParams,
                           match="^the core needs exactly one null vector "
                                 "at the chosen parameter to fix the "
                                 "parameters of the remaining "
                                 "preferences$"):
            priority(pr)
        assert eliminations["rows"] == [4, 6]

    @pytest.mark.parametrize("make", [
        lambda: load("ex10.admp"),
        lambda: pairwise(5, 1, False),
    ], ids=["ex10", "pairwise"])
    def test_inconsistent_set_with_extras_is_eliminated_once(
            self, eliminations, make):
        """The core determinant is nonzero at alpha = 1, which proves the
        set inconsistent without eliminating the rows as written; the core
        at alpha is shared by the extra parameters and the vector."""
        pr = make()
        _, sol, _ = priority(pr)
        assert sol.extra_params
        assert eliminations["calls"] == 1

    @pytest.mark.parametrize("make", [
        lambda: load("ex9_expert.admp"),
    ], ids=["bind"])
    def test_undecided_inconsistent_set_is_eliminated_twice(
            self, eliminations, make):
        """A bind line leaves the consistency to the rows as written; then
        the core at alpha gives the vector."""
        pr = make()
        _, sol, _ = priority(pr)
        # inconsistent: discounted, or held only by extra parameters
        assert sol.alpha != 1 or any(b != 1 for _, b in sol.extra_params)
        assert eliminations["calls"] == 2

    def test_classify_eliminates_once(self, eliminations):
        from admcdm.classification import Label, classify

        assert classify(pairwise(6, 0, True)).label is Label.CONSISTENT
        assert eliminations["calls"] == 1


def sympy_rank_as_written(pr) -> int:
    """sympy's rank of the statements as written, x_s - sum a_j x_j, the
    bind multipliers left out."""
    import sympy

    n = pr.criteria.n
    rows = []
    for pref in pr.preferences:
        row = [0] * n
        row[pref.subject] = 1
        for j, a in pref.terms:
            row[j] -= sympy.Rational(a.numerator, a.denominator)
        rows.append(row)
    return sympy.Matrix(rows).rank()


class TestConsistencyFromTheCore:
    """priority() reports the consistent solution, alpha 1 with no extra
    parameter, exactly when sympy's rank of the statements as written is
    below n, whether the core's determinant at 1 or the elimination of
    the rows decided it."""

    def assert_consistent_iff_rank_deficient(self, pr):
        consistent = sympy_rank_as_written(pr) < pr.criteria.n
        # classify() takes the same test
        v = _exact_test(pr, statement_rows(pr))[0]
        assert (v is not None) == consistent
        try:
            _, sol, _ = priority(pr)
        except EngineError:
            assert not consistent
            return None
        assert (sol.alpha == 1 and not sol.extra_params) == consistent
        if consistent:
            assert sol.roots == (1,)
        return consistent

    def core_at_one(self, pr):
        """f(1) for the default core, None where a multiplier is not 1."""
        if any(c != 1 for c in pr.binding.multipliers):
            return None
        return peval(parametric_equation(parameterize(pr)), 1)

    def test_benchmark_sets(self):
        """The benchmark's seed-1 linear and pairwise sets, a sample: the
        core decides most of them, and bind sets fall back."""
        pytest.importorskip("sympy")
        from test_engine_golden import _workloads

        workloads = _workloads()
        linear = workloads.linear(1)
        cases = (linear[::7] + workloads.pairwise(1)[::5]
                 + [case for case in linear if "bind:" in case.text])
        seen = {"core": 0, "bind": 0, "undecided": 0, "consistent": 0}
        for case in cases:
            pr = parse_problem(case.text)
            if self.assert_consistent_iff_rank_deficient(pr):
                seen["consistent"] += 1
            try:
                f1 = self.core_at_one(pr)
            except EngineError:
                continue
            seen["bind" if f1 is None else "core" if f1 else "undecided"] += 1
        assert min(seen.values()) >= 3, seen

    def test_core_nonzero_at_one(self):
        pytest.importorskip("sympy")
        for pr in (load("ex10.admp"), pairwise(5, 1, False),
                   ratio_cycle(5, Fraction(3, 2))):
            assert self.core_at_one(pr) != 0
            assert self.assert_consistent_iff_rank_deficient(pr) is False

    def test_core_zero_at_one_yet_inconsistent(self):
        """The core triangle agrees, the statements outside it do not."""
        pytest.importorskip("sympy")
        pr = pairwise(5, 0, False)
        assert self.core_at_one(pr) == 0
        assert self.assert_consistent_iff_rank_deficient(pr) is False
        _, sol, _ = priority(pr)
        assert sol.alpha == 1 and any(b != 1 for _, b in sol.extra_params)

    def test_bind_sets(self):
        """A bind line puts the rows as written off every single alpha of
        the core, so its determinant cannot decide."""
        pytest.importorskip("sympy")
        consistent = parse_problem(
            "criteria: x y z\npref: x = 2 y\npref: y = 3 z\n"
            "pref: x = 6 z\nbind: a2 = 2 a1\n")
        for pr in (load("ex9_expert.admp"), consistent):
            assert self.core_at_one(pr) is None
        assert self.assert_consistent_iff_rank_deficient(
            load("ex9_expert.admp")) is False
        assert self.assert_consistent_iff_rank_deficient(consistent) is True

    def test_fewer_statements_than_criteria(self):
        """m < n: always consistent, with the vector or its refusal as
        before; an inconsistent set with a short core line still gets the
        core-size error, after the consistency test."""
        pytest.importorskip("sympy")
        pr = problem("x y z", LinearPreference(0, ((1, Fraction(2)),)),
                     LinearPreference(1, ((2, Fraction(3)),)))
        assert self.assert_consistent_iff_rank_deficient(pr) is True
        # rank 2 < 3, yet only x = y = 0 solves the pair
        zero = problem("x y z", LinearPreference(0, ((1, Fraction(2)),)),
                       LinearPreference(1, ((0, Fraction(3)),)))
        assert sympy_rank_as_written(zero) == 2
        with pytest.raises(NonPositiveComponent):
            priority(zero)
        short = parse_problem(
            "criteria: x y z\npref: x = 2 y\npref: y = 3 z\n"
            "pref: x = 7 z\ncore: 1 2\n")
        assert sympy_rank_as_written(short) == 3
        with pytest.raises(InvalidProblem, match="exactly 3"):
            priority(short)
        consistent_short = parse_problem(
            "criteria: x y z\npref: x = 2 y\npref: y = 3 z\n"
            "pref: x = 6 z\ncore: 1 2\n")
        assert self.assert_consistent_iff_rank_deficient(
            consistent_short) is True

    def test_core_singular_for_every_alpha(self):
        """A repeated statement makes the core's determinant vanish
        identically: a consistent set still solves, an inconsistent one
        raises DegenerateCore."""
        pytest.importorskip("sympy")
        text = ("criteria: x y z\npref: x = 2 y\npref: x = 2 y\n"
                "pref: y = 3 z\n")
        consistent = parse_problem(text + "pref: x = 6 z\n")
        inconsistent = parse_problem(text + "pref: x = 7 z\n")
        for pr in (consistent, inconsistent):
            with pytest.raises(DegenerateCore):
                parametric_equation(parameterize(pr))
        pv, sol, _ = priority(consistent)
        assert sol.alpha == 1
        assert pv == (Fraction(6, 10), Fraction(3, 10), Fraction(1, 10))
        assert self.assert_consistent_iff_rank_deficient(consistent) is True
        assert sympy_rank_as_written(inconsistent) == 3
        with pytest.raises(DegenerateCore):
            priority(inconsistent)

    @staticmethod
    def planted(rng, w, subject, factor=1):
        """x_subject = the sum of a_j * x_j over one or two other
        criteria, which w solves; factor scales the coefficients."""
        others = [j for j in range(len(w)) if j != subject]
        terms = sorted(rng.sample(others, rng.randint(1, 2)))
        c = {j: Fraction(rng.randint(1, 5)) for j in terms}
        total = sum(c[j] * w[j] for j in terms)
        return LinearPreference(subject, tuple(
            (j, factor * c[j] * w[subject] / total) for j in terms))

    def generated(self, rng, family):
        """A set of the family, planted on a positive integer vector, its
        last statement bent in about half of them."""
        n = 4 if family == "plane" else rng.randint(3, 5)
        w = [rng.randint(1, 9) for _ in range(n)]
        if family == "plane":  # x_a = k x_b and back, for two pairs
            a, b, c, d = rng.sample(range(n), 4)
            prefs = [LinearPreference(i, ((j, Fraction(w[i], w[j])),))
                     for i, j in ((a, b), (b, a), (c, d), (d, c))]
        else:
            prefs = [self.planted(rng, w, rng.randrange(n))
                     for _ in range(n - (family == "zero"))]
        if family == "zero":  # a repeated core statement: f = 0
            prefs.insert(rng.randrange(n), rng.choice(prefs))
        if family != "square":
            prefs += [self.planted(rng, w, rng.randrange(n))
                      for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            prefs[-1] = self.planted(rng, w, prefs[-1].subject,
                                     rng.choice((2, Fraction(1, 3))))
        binding = None
        if family == "square":
            core = list(range(n))
            while core == sorted(core):
                rng.shuffle(core)
            binding = ParamBinding((Fraction(1),) * n, tuple(core))
        elif family == "bind":
            binding = ParamBinding(
                tuple(rng.choice((Fraction(1, 2), 2, 3)) if i < n else 1
                      for i in range(len(prefs))), tuple(range(n)))
        names = tuple(f"C{i}" for i in range(n))
        return Problem(CriteriaSet(names), tuple(prefs), binding)

    @staticmethod
    def path(pr):
        """The path of the core-first test, read off sympy's matrices of
        the statements as written."""
        import sympy

        n, b = pr.criteria.n, pr.binding
        if any(c != 1 for c in b.multipliers):
            return "bind"
        core, row = sympy_core(pr, 1)
        if core.det() != 0:
            return "f(1) != 0"
        # f has degree at most n: n + 1 zeros make it vanish identically
        zero = all(sympy_core(pr, k)[0].det() == 0 for k in range(2, n + 3))
        extras = [sympy.Matrix([row(i, 1)])
                  for i in range(len(pr.preferences))
                  if i not in b.core_mask]
        null = core.nullspace()
        if len(null) > 1:
            return "plane" if extras else "square"
        held = all(e.dot(null[0]) == 0 for e in extras)
        if not extras:
            return "square"
        return ("f = 0, " if zero else "line, ") + (
            "held" if held else "missed")

    def test_generated_sets_reach_every_path(self):
        """Planted sets for each path of the test: a core null line that
        every other statement vanishes on or one misses, a null plane at 1
        with other statements, f = 0 held and missed (DegenerateCore), a
        square set with its core listed in another order, and bind sets.
        The verdict is sympy's rank; where a statement misses the line,
        the betas are those of the core eliminated afresh at 1. A null
        space wider than a line may leave no positive vector with its free
        variables at 1, and NonPositiveComponent refuses the set whatever
        the verdict (ROADMAP item 9)."""
        pytest.importorskip("sympy")
        rng = random.Random("core-first")
        seen = {}
        for family in ("line", "plane", "zero", "square", "bind"):
            for _ in range(14):
                pr = self.generated(rng, family)
                path = self.path(pr)
                consistent = sympy_rank_as_written(pr) < pr.criteria.n
                v = _exact_test(pr, statement_rows(pr))[0]
                assert (v is not None) == consistent
                seen.setdefault((family, path), set()).add(consistent)
                try:
                    _, sol, _ = priority(pr)
                except NonPositiveComponent:
                    continue
                except EngineError as e:
                    assert not consistent
                    if path == "f = 0, missed":
                        assert isinstance(e, DegenerateCore)
                    continue
                assert (sol.alpha == 1 and not sol.extra_params) == consistent
                if path == "line, missed":
                    assert sol.alpha == 1
                    ps = parameterize(pr)
                    assert sol.extra_params == _solve_extras(
                        ps, Fraction(1), *_core_vector(ps, Fraction(1)))
        paths = {path for _, path in seen}
        assert paths >= {"line, held", "line, missed", "f = 0, held",
                         "f = 0, missed"}, seen
        for family in ("plane", "square", "bind"):
            verdicts = set().union(*(got for (fam, path), got in seen.items()
                                     if fam == family))
            assert verdicts == {True, False}, (family, seen)
        assert seen[("plane", "plane")] == {True, False}
        assert seen[("zero", "f = 0, missed")] == {False}


PLANTED_N7_S5 = """criteria: C0 C1 C2 C3 C4 C5 C6
pref: C0 = 3/14 C6
pref: C1 = 1/2 C3
pref: C2 = 2/3 C0
pref: C3 = 1/2 C1
pref: C4 = 1/16 C5 + 1/16 C6
pref: C5 = 1/14 C6
pref: C6 = 7/6 C0
"""


def sympy_core(pr, alpha):
    """The core rows of pr at alpha, and every statement's row as a
    function of its own parameter, as sympy matrices."""
    import sympy

    n = pr.criteria.n

    def row(pos, a):
        lin = canonicalize(pr.preferences[pos])
        c = sympy.Rational(str(pr.binding.multipliers[pos]))
        out = [0] * n
        out[lin.subject] = 1
        for j, k in lin.terms:
            out[j] = -a * c * sympy.Rational(str(k))
        return out

    core = sympy.Matrix([row(i, alpha) for i in pr.binding.core_mask])
    return core, row


class TestIntegerPath:
    """The integer statement rows against known values and an independent
    sympy oracle."""

    def test_core_with_several_free_variables_keeps_its_vector(self):
        from admcdm.linalg import null_vector
        from admcdm.model import row_at, statement_rows

        pr = parse_problem(PLANTED_N7_S5)
        pv, sol, _ = priority(pr)
        assert sol.roots == (Fraction(2), Fraction(2))
        assert sol.alpha == 2 and sol.extra_params == ()
        assert pv == (Fraction(1, 10), Fraction(7, 30), Fraction(2, 15),
                      Fraction(7, 30), Fraction(1, 30), Fraction(1, 30),
                      Fraction(7, 30))
        # two free variables, both at 1: a one-column kernel would not do
        _, free = null_vector([row_at(r, 2, 1) for r in statement_rows(pr)])
        assert free == 2

    @pytest.mark.parametrize("n", range(3, 8))
    def test_pairwise_sets_match_a_sympy_null_space(self, n):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for seed in range(3):
            pr = pairwise(n, seed, False)
            pv, sol, _ = priority(pr)
            assert isinstance(sol.alpha, Fraction)
            core, row = sympy_core(pr, x)
            written = sympy.Matrix([row(i, 1) for i in range(len(
                pr.preferences))])
            if written.rank() < n:  # consistent as written
                (v,) = written.nullspace()
                assert sol.alpha == 1 and sol.extra_params == ()
                assert pv == tuple(Fraction(str(c)) for c in v / sum(v))
                continue
            roots = sorted(r for r in sympy.roots(
                sympy.Poly(core.det(), x), multiple=True)
                if r.is_real and r > 0)
            assert [Fraction(str(r)) for r in roots] == list(sol.roots)
            alpha = sympy.Rational(str(sol.alpha))
            (v,) = core.subs(x, alpha).nullspace()
            v = v / sum(v)
            assert pv == tuple(Fraction(str(c)) for c in v)
            b = sympy.Symbol("b")
            for pos, beta in sol.extra_params:
                (want,) = sympy.solve(sympy.Matrix([row(pos, b)]).dot(v), b)
                assert beta == Fraction(str(want))
            assert len(sol.extra_params) == len(pr.preferences) - n

    def test_irrational_alpha_keeps_its_float_vector_bit_for_bit(self):
        pv, sol, _ = priority(parse_problem(
            "criteria: a b c\npref: a = 2 b\npref: b = 3 c\npref: c = 5 a\n"))
        assert sol.alpha == 0.32182979486854324
        assert pv == (0.24022493352186666, 0.3732173610898744,
                      0.3865577053882589)
        # an extra statement's beta at an irrational alpha
        pv, sol, _ = priority(parse_problem(
            "criteria: a b c d\npref: a = 2 b\npref: b = 3 c\n"
            "pref: c = 5/7 d\npref: d = 1.5 a\npref: a = 4 c\n"))
        assert sol.alpha == 0.628016973395869
        assert sol.extra_params == ((4, 0.5916079783099616),)
        assert pv == (0.31637966364963993, 0.25188782871495,
                      0.1336948094215351, 0.29803769821387494)


def reference_discounts(problem, pv):
    """discount_report's factors by Fraction's operators, the reference
    for its integer path: pv[s] / sum(a * pv[j]), each term of an all-float
    vector as float(a) * x."""
    floats = all(isinstance(x, float) for x in pv)
    out = []
    for pos, pref in enumerate(problem.preferences):
        if not isinstance(pref, LinearPreference):
            continue
        if floats:
            stated = sum(float(a) * pv[j] for j, a in pref.terms)
        else:
            stated = sum(a * pv[j] for j, a in pref.terms)
        out.append((pos, pv[pref.subject] / stated))
    return tuple(out)


def assert_same_factors(got, want):
    """Equal positions, types and values; floats bit for bit."""
    def key(factors):
        return [(pos, type(f), f.hex() if isinstance(f, float) else f)
                for pos, f in factors]
    assert key(got) == key(want)


class TestDiscountReport:
    """A float vector's terms are computed as float(a) * x, which is what
    Fraction's operator gives a float operand; a vector with no float
    gives each factor as one Fraction of integers. Either way the factors
    equal, value and type, the plain expression pv[s] / sum(a * pv[j])."""

    @staticmethod
    def statements(rng, n):
        """One-term and multi-term statements, coefficients from small
        ratios to the binary value of a float."""
        def coefficient():
            return rng.choice((
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9)),
                Fraction(rng.uniform(0.01, 100.0))))

        prefs = []
        for subject in range(n):
            others = [j for j in range(n) if j != subject]
            terms = rng.sample(others, rng.randint(1, min(3, n - 1)))
            prefs.append(LinearPreference(
                subject, tuple((j, coefficient()) for j in sorted(terms))))
        return prefs

    @pytest.mark.parametrize("seed", range(20))
    def test_factors_equal_the_fraction_expression(self, seed):
        rng = random.Random(f"discount-report:{seed}")
        n = rng.randint(2, 7)
        prefs = self.statements(rng, n)
        problem = Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                          tuple(prefs))
        weights = [rng.uniform(0.1, 10.0) for _ in range(n)]
        floats = tuple(w / sum(weights) for w in weights)
        exact = tuple(Fraction(w) / sum(map(Fraction, weights))
                      for w in weights)
        for pv, kind in ((floats, float), (exact, Fraction)):
            expected = tuple(
                (pos, pv[p.subject] / sum(a * pv[j] for j, a in p.terms))
                for pos, p in enumerate(prefs))
            got = discount_report(problem, pv)
            assert [(pos, type(f), f) for pos, f in got] == [
                (pos, type(f), f) for pos, f in expected]
            assert {type(f) for _, f in got} == {kind}

    KINDS = {
        "fraction": lambda rng: Fraction(rng.randint(1, 10**6),
                                         rng.randint(1, 10**6)),
        "int": lambda rng: rng.randint(1, 50),
        "float": lambda rng: rng.uniform(0.01, 10.0),
    }

    @pytest.mark.parametrize("kinds", [
        ("fraction",), ("int",), ("float",), ("fraction", "int"),
        ("fraction", "float"), ("int", "float"),
        ("fraction", "int", "float"),
    ], ids="+".join)
    @pytest.mark.parametrize("seed", range(6))
    def test_factors_equal_the_reference(self, seed, kinds):
        """Vectors of Fractions, ints, floats and every mix of them."""
        rng = random.Random(f"discount-kinds:{seed}:{kinds}")
        n = rng.randint(2, 7)
        prefs = self.statements(rng, n)
        problem = Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                          tuple(prefs))
        pv = [self.KINDS[kinds[i % len(kinds)]](rng) for i in range(n)]
        rng.shuffle(pv)
        assert_same_factors(discount_report(problem, pv),
                            reference_discounts(problem, pv))

    def test_solved_vectors_equal_the_reference(self, corpus_files):
        """The corpus and the benchmark's seed-1 sets, as priority() solves
        them: exact and irrational vectors."""
        from test_engine_golden import _workloads

        workloads = _workloads()
        texts = [case.text for name in ("pairwise", "linear")
                 for case in getattr(workloads, name)(1)]
        texts += [path.read_text(encoding="utf-8") for path in corpus_files]
        kinds = set()
        for text in texts:
            try:
                pr = parse_problem(text)
                pv, _, _ = priority(pr)
            except EngineError:
                continue
            kinds.add(type(pv[0]))
            assert_same_factors(discount_report(pr, pv),
                                reference_discounts(pr, pv))
        assert kinds == {Fraction, float}

    def test_both_statement_shapes_are_drawn(self):
        shapes = set()
        for seed in range(20):
            rng = random.Random(f"discount-report:{seed}")
            shapes |= {len(p.terms) > 1
                       for p in self.statements(rng, rng.randint(2, 7))}
        assert shapes == {False, True}
