"""Acceptance gate: one test per advertised capability, each announcing a
visible pass/fail line so the rollup can be read straight off the log.

Every number asserted here is either produced by an independent oracle in
the test body or checked against the exact closed form that the engine is
required to reproduce.
"""

import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations

import pytest

np = pytest.importorskip("numpy")

from admcdm import (
    InequalityPreference,
    Label,
    MonomialPreference,
    NotPairwise,
    ahp_priority,
    build_ahp_matrix,
    classify,
    det_numeric,
    discount_report,
    eval_error,
    format_problem,
    make_cyclic_example,
    minimize_error,
    ordering_text,
    parameterize,
    parametric_equation,
    parse_problem,
    peval,
    priority,
    rank,
    regime_analysis,
    solve_triangular,
)

from conftest import CORPUS, load


@pytest.fixture
def criterion(request):
    """Context manager announcing one visible pass/fail line per block."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    @contextmanager
    def report(name):
        def emit(status):
            line = f"[acceptance] {status} {name}"
            if reporter is not None:
                reporter.write_line(line)
            else:
                sys.__stdout__.write(line + "\n")
                sys.__stdout__.flush()

        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        emit("PASS")

    return report


def linear_corpus():
    for path in sorted(CORPUS.glob("*.admp")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        if any(isinstance(p, (MonomialPreference, InequalityPreference))
               for p in problem.preferences):
            continue
        yield path.name, problem


def test_01_consistent_chain_is_recovered_exactly(criterion):
    with criterion("01 consistent ratio chain: exact vector, agreeing "
                   "eigenvector baseline"):
        problem = load("ex1.admp")
        pv, sol, report = priority(problem)
        assert sol.alpha == 1
        assert pv == (F(3, 4), F(3, 16), F(1, 16))
        assert report.label is Label.CONSISTENT
        ahp = ahp_priority(build_ahp_matrix(problem))
        assert ahp.lambda_max == pytest.approx(3.0, abs=1e-8)
        assert ahp.vector == pytest.approx(
            [float(v) for v in pv], abs=1e-8)


def test_02_multi_term_statement_gets_irrational_parameter(criterion):
    with criterion("02 multi-term statements: irrational parameter, "
                   "realized ratios, no pairwise baseline"):
        problem = load("ex2.admp")
        pv, sol, _ = priority(problem)
        assert float(sol.alpha) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-10)
        assert [float(v) for v in pv] == pytest.approx(
            [0.62923, 0.22246, 0.14831], abs=5e-5)
        assert float(pv[1] / pv[0]) == pytest.approx(0.35354, abs=5e-5)
        assert float(pv[2] / pv[0]) == pytest.approx(0.23570, abs=5e-5)
        with pytest.raises(NotPairwise):
            build_ahp_matrix(problem)


def test_03_rational_parameter_solved_exactly(criterion):
    with criterion("03 rational parameter and vector solved in exact "
                   "arithmetic"):
        pv, sol, _ = priority(load("ex3.admp"))
        assert sol.alpha == F(1, 3)
        assert pv == (F(9, 22), F(6, 11), F(1, 22))


def test_04_parameter_above_one_from_understated_ratios(criterion):
    with criterion("04 square-root parameter from mixed multi-term "
                   "statements"):
        pv, sol, _ = priority(load("ex4.admp"))
        assert float(sol.alpha) == pytest.approx(
            math.sqrt(23) / 23, abs=1e-10)
        assert [float(v) for v in pv] == pytest.approx(
            [0.34763, 0.28994, 0.36243], abs=5e-5)


def test_05_consistent_multi_term_system_needs_no_discount(criterion):
    with criterion("05 consistent multi-term system: parameter one, no "
                   "discounting"):
        problem = load("ex5.admp")
        pv, sol, _ = priority(problem)
        assert sol.alpha == 1
        assert pv == (F(12, 17), F(3, 17), F(2, 17))
        assert all(f == 1 for _, f in discount_report(problem, pv))


def test_06_star_systems_follow_the_closed_form(criterion):
    with criterion("06 star-shaped systems: parameter matches the "
                   "closed form on 100 random instances and two stored "
                   "ones"):
        rng = random.Random(20260822)
        for _ in range(100):
            a1, a2, a3, a4 = (
                F(rng.randint(1, 50), rng.randint(1, 50))
                for _ in range(4))
            problem = parse_problem(
                "criteria: x y z\n"
                f"pref: x = {a1} y + {a2} z\n"
                f"pref: y = {a3} x\n"
                f"pref: z = {a4} x\n")
            _, sol, _ = priority(problem)
            expected = 1.0 / math.sqrt(float(a1 * a3 + a2 * a4))
            assert abs(float(sol.alpha) - expected) <= 1e-10

        pv7, sol7, _ = priority(load("ex7.admp"))
        assert sol7.alpha == F(1, 100)
        assert pv7 == (F(2, 9), F(2, 9), F(5, 9))

        pv8, sol8, _ = priority(load("ex8.admp"))
        assert sol8.alpha == 25
        assert sol8.consistency == F(1, 25)
        assert pv8 == (F(4, 9), F(1, 3), F(2, 9))


def test_07_three_ratio_benchmark_beats_the_eigenvector_spread(criterion):
    with criterion("07 three contradictory ratios: exact discounted "
                   "vector and the pairwise baseline beside it"):
        problem = load("ex9.admp")
        pv, sol, report = priority(problem)
        assert sol.alpha == F(5, 12)
        assert pv == (F(20, 57), F(25, 57), F(4, 19))
        assert all(f == F(5, 12)
                   for _, f in discount_report(problem, pv))
        assert report.label is Label.WEAK_INCONSISTENT
        ahp = ahp_priority(build_ahp_matrix(problem))
        assert ahp.vector == pytest.approx(
            [0.2797, 0.6267, 0.0936], abs=5e-4)


def test_08_redundant_statement_gets_its_own_agreed_parameter(criterion):
    with criterion("08 extra statement: every sub-determinant fixes the "
                   "same secondary parameter"):
        problem = load("ex10.admp")
        pv, sol, _ = priority(problem)
        assert sol.alpha == F(5, 12)
        assert sol.extra_params == ((3, F(25, 48)),)

        # independent oracle: solve det = 0 for the extra row's parameter
        # against every pair of core rows, using exact arithmetic
        ps = parameterize(problem)
        core_rows = [
            [peval(e, sol.alpha) for e in ps.matrix.entries[i]]
            for i in range(3)]
        betas = []
        for i, j in combinations(range(3), 2):
            def det_at(beta):
                extra = [peval(e, beta) for e in ps.matrix.entries[3]]
                return det_numeric([core_rows[i], core_rows[j], extra])
            d0, d1 = det_at(F(0)), det_at(F(1))
            betas.append(-d0 / (d1 - d0))
        assert max(betas) - min(betas) <= F(1, 10**10)
        assert all(abs(b - F(25, 48)) <= F(1, 10**10) for b in betas)

        pv9, _, _ = priority(load("ex9.admp"))
        assert pv == pv9


def test_09_strong_contradiction_concentrates_the_vector(criterion):
    with criterion("09 strongly contradictory cycles: tiny consistency "
                   "and an extreme exact vector"):
        pv, sol, report = priority(load("ex11.admp"))
        assert sol.alpha == F(1, 729)
        assert float(sol.consistency) == pytest.approx(0.00137, abs=1e-5)
        assert float(sol.inconsistency) == pytest.approx(
            0.99863, abs=1e-5)
        assert pv == (F(1, 6643), F(81, 6643), F(6561, 6643))
        assert report.label is Label.STRONG_INCONSISTENT

        pv12, sol12, _ = priority(load("ex12.admp"))
        assert sol12.alpha == F(1, 125)
        assert pv12 == (F(1, 651), F(25, 651), F(625, 651))


def test_10_cyclic_family_consistency_is_monotone_in_strength(criterion):
    with criterion("10 one-parameter cyclic family: closed-form "
                   "consistency, monotone in distance from one"):
        def c_of(t):
            _, sol, _ = priority(make_cyclic_example(t))
            return sol.consistency

        assert c_of(11) == F(1, 1331)
        assert float(c_of(11)) == pytest.approx(0.00075, abs=1e-5)
        assert c_of(2) == F(1, 8)
        assert c_of(1) == 1

        _, sol, _ = priority(make_cyclic_example(F(4, 5)))
        assert sol.alpha == F(125, 64)
        assert sol.consistency == F(64, 125)

        ts = [F(1, 2), F(4, 5), 1, 2, 5, 9, 11]
        by_distance = sorted(ts, key=lambda t: abs(math.log(t)))
        cs = [c_of(t) for t in by_distance]
        assert all(a >= b for a, b in zip(cs, cs[1:]))


def test_11_two_criteria_contradictions(criterion):
    with criterion("11 two-criteria contradictions: irrational and "
                   "balanced rational cases"):
        pv, sol, _ = priority(load("ex14.admp"))
        assert float(sol.alpha) == pytest.approx(
            math.sqrt(10) / 10, abs=1e-10)
        assert [float(v) for v in pv] == pytest.approx(
            [0.39, 0.61], abs=5e-3)

        balanced = parse_problem(
            "criteria: x y\npref: x = 2 y\npref: y = 2 x\n")
        pv2, sol2, report = priority(balanced)
        assert sol2.alpha == F(1, 2)
        assert pv2 == (F(1, 2), F(1, 2))
        assert report.label is Label.STRONG_INCONSISTENT


def test_12_product_statements_yield_regime_table(criterion):
    with criterion("12 product statements: one-variable solution family, "
                   "exact crossings, full regime table"):
        problem = load("ex15.admp")
        sol = solve_triangular(problem)
        assert sol.free_var == 2
        assert sol.components == ((F(10), 2), (F(5), 1), (F(1), 1))

        rep = regime_analysis(sol)
        assert rep.breakpoints == (F(1, 10), F(1, 2))
        names = problem.criteria.names
        table = [
            (r.lower, r.upper, ordering_text(r.ordering, names))
            for r in rep.regimes]
        assert table == [
            (0, F(1, 10), "y>z>x"),
            (F(1, 10), F(1, 10), "y>z=x"),
            (F(1, 10), F(1, 2), "y>x>z"),
            (F(1, 2), F(1, 2), "y=x>z"),
            (F(1, 2), None, "x>y>z"),
        ]

        bounded = load("ex16.admp")
        ineqs = [p for p in bounded.preferences
                 if isinstance(p, InequalityPreference)]
        rep16 = regime_analysis(solve_triangular(bounded), ineqs)
        assert rep16.domain == (0, F(1, 10))
        assert [ordering_text(r.ordering, names)
                for r in rep16.regimes] == ["y>z>x"]


def test_13_accuracy_functional_certifies_the_solutions(criterion):
    with criterion("13 accuracy functional: zero at consistent "
                   "solutions, bounded at the discounted vector"):
        ex1 = load("ex1.admp")
        res = minimize_error(ex1, grid_points=16)
        assert float(res.value) <= 1e-6
        assert [float(v) for v in res.argmin] == pytest.approx(
            [0.75, 0.1875, 0.0625], abs=1e-3)

        pv1, _, _ = priority(ex1)
        assert abs(float(eval_error(ex1, pv1))) <= 1e-12
        ex5 = load("ex5.admp")
        pv5, _, _ = priority(ex5)
        assert abs(float(eval_error(ex5, pv5))) <= 1e-12

        ex2 = load("ex2.admp")
        res2 = minimize_error(ex2, grid_points=100)
        assert float(res2.value) <= 0.6295


def test_14_structural_invariants_hold_across_the_corpus(criterion):
    with criterion("14 invariants: positive unit-sum vectors, vanishing "
                   "determinants, per-statement discount law, "
                   "classifier/determinant agreement, format round-trip, "
                   "exact rank against a numeric oracle"):
        for name, problem in linear_corpus():
            pv, sol, report = priority(problem)
            assert all(v > 0 for v in pv), name
            assert abs(float(sum(pv)) - 1.0) <= 1e-12, name
            assert report.det_agrees, name

            multipliers = (problem.binding.multipliers
                           if problem.binding is not None
                           else (F(1),) * len(problem.preferences))
            extras = dict(sol.extra_params)
            factors = dict(discount_report(problem, pv))
            for pos in range(len(problem.preferences)):
                expected = extras.get(pos, multipliers[pos] * sol.alpha)
                assert abs(float(factors[pos] - expected)) <= 1e-9, name

            if sol.alpha != 1:
                eq = parametric_equation(parameterize(problem))
                scale = max(abs(float(c)) for c in eq.coeffs) or 1.0
                assert abs(float(peval(eq, sol.alpha))) <= 1e-9 * scale, (
                    name)

            text = format_problem(problem)
            assert parse_problem(text) == problem, name

        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(2, 6)
            r = rng.randint(1, n - 1)
            b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
            c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            m = [[sum(b[i][k] * c[k][j] for k in range(r))
                  for j in range(n)] for i in range(n)]
            expected = int(np.linalg.matrix_rank(np.array(m, float)))
            assert rank(m) == expected
