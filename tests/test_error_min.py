"""Error functional on the simplex: exact evaluation, the exact linear
program for linear statements (checked against scipy's HiGHS), the exact
zero of triangular product sets (checked against sympy) and the
inequality-filtered grid scan for the other product sets (checked against
dense-grid oracles)."""

import random
import signal
import time
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, nextafter

import pytest

from admcdm.error_min import (
    GRID_BUDGET,
    eval_error,
    minimize_error,
    simplex_grid,
)
from admcdm.errors import (
    EmptyDomain,
    EngineError,
    InvalidGrid,
    InvalidProblem,
    OffSimplex,
)
from admcdm.model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    Problem,
    Relation,
    canonicalize,
)
from admcdm.parser import parse_problem
from admcdm.solver import priority

from conftest import CORPUS, dense, load, pairwise


# four criteria, two product statements over a two-term linear link
MIXED_FOUR = ("criteria: a b c d\n"
              "pref: a = 3/2 b * b * c\n"
              "pref: b = 2/3 c + 1/5 d\n"
              "pref: d = 7 a * c\n")


def product_problems():
    """The corpus product files and MIXED_FOUR."""
    return [load("ex15.admp")] + grid_problems()


def grid_problems():
    """The product inputs that take the grid path: ex16's family root
    lies outside x < z, and MIXED_FOUR is not triangular."""
    return [load("ex16.admp"), parse_problem(MIXED_FOUR)]


def admissible_grid(problem, grid_points):
    """The grid points that meet every inequality of the problem, read
    off the Fraction point itself."""
    less = [(p.lhs, p.rhs) if p.relation is Relation.STRICT_LESS
            else (p.rhs, p.lhs)
            for p in problem.preferences
            if isinstance(p, InequalityPreference)]
    return [x for x in simplex_grid(problem.criteria.n, grid_points)
            if all(x[a] < x[b] for a, b in less)]


def dense_minimum(problem, grid_points):
    """Brute-force oracle: smallest functional value on a fresh grid,
    over the points that meet every inequality."""
    return min(eval_error(problem, x)
               for x in admissible_grid(problem, grid_points))


class TestEvaluation:
    def test_uniform_point_on_the_ratio_chain(self):
        # residuals at (1/3, 1/3, 1/3) are -1, -2/3 and 11/3, so the
        # absolute-residual total is exactly 16/3
        u = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        assert eval_error(load("ex1.admp"), u) == Fraction(16, 3)

    def test_consistent_problems_vanish_at_their_solution(self):
        for name in ("ex1.admp", "ex5.admp"):
            pr = load(name)
            pv, sol, _ = priority(pr)
            assert sol.alpha == 1
            assert eval_error(pr, pv) == 0

    def test_inconsistent_problem_is_positive_at_its_solution(self):
        pr = load("ex2.admp")
        pv, _, _ = priority(pr)
        v = eval_error(pr, pv)
        assert abs(float(v) - 0.6292253857) <= 1e-9

    def test_denominators_are_cleared_not_divided(self):
        # C2 = 1/2 C1 clears to the residual 2 x2 - x1
        pr = parse_problem("criteria: C1 C2\npref: C2 = 1/2 C1\n")
        assert eval_error(pr, (Fraction(2, 3), Fraction(1, 3))) == 0
        assert eval_error(
            pr, (Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)

    def test_product_statement_residual(self):
        # x = 2 y z at (1/2, 1/4, 1/4): |x - 2 y z| = |1/2 - 1/8| = 3/8
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y * z\npref: y = 1 z\n")
        x = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert eval_error(pr, x) == Fraction(3, 8)

    def test_off_simplex_points_are_refused(self):
        pr = load("ex1.admp")
        with pytest.raises(OffSimplex):
            eval_error(pr, (Fraction(1, 2), Fraction(1, 2)))  # wrong length
        with pytest.raises(OffSimplex):
            eval_error(pr, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        with pytest.raises(OffSimplex):
            eval_error(pr, (Fraction(3, 2), Fraction(-1, 4), Fraction(-1, 4)))
        with pytest.raises(OffSimplex):
            eval_error(pr, (0.5, 0.3, 0.1))  # sums to 0.9


class TestGrid:
    def test_composition_count_and_order(self):
        pts = list(simplex_grid(3, 4))
        assert len(pts) == comb(3, 2)
        assert pts[0] == (Fraction(1, 4), Fraction(1, 4), Fraction(2, 4))
        assert pts[-1] == (Fraction(2, 4), Fraction(1, 4), Fraction(1, 4))
        for p in pts:
            assert sum(p) == 1
            assert all(x > 0 for x in p)

    def test_general_count(self):
        assert sum(1 for _ in simplex_grid(4, 9)) == comb(8, 3)

    def test_too_coarse_grid_is_refused(self):
        with pytest.raises(ValueError):
            list(simplex_grid(3, 2))

    def test_grid_errors_are_typed_and_raised_before_the_first_point(self):
        with pytest.raises(InvalidGrid) as info:
            simplex_grid(3, 2)
        assert isinstance(info.value, EngineError)
        assert isinstance(info.value, ValueError)
        with pytest.raises(InvalidGrid, match="budget"):
            simplex_grid(5, 100)  # C(99, 4) = 3764376 points

    def test_budget_admits_the_default_grid_up_to_four_criteria(self):
        assert comb(99, 3) <= GRID_BUDGET < comb(99, 4)
        simplex_grid(4, 100)  # validated, not iterated


class TestMinimize:
    def test_exact_zero_short_circuits(self):
        res = minimize_error(load("ex1.admp"), grid_points=16)
        assert res.value == 0
        assert res.argmin == (
            Fraction(3, 4), Fraction(3, 16), Fraction(1, 16))

    def test_two_criteria_equality(self):
        pr = parse_problem("criteria: x y\npref: x = 1 y\n")
        res = minimize_error(pr, grid_points=10)
        assert res.value == 0
        assert res.argmin == (Fraction(1, 2), Fraction(1, 2))

    def test_overstated_multi_term_minimum(self):
        # the last two statements pin the direction (6, 3, 2)/11; the first
        # then contributes |x| = 6/11, and no trade lowers the total
        res = minimize_error(load("ex2.admp"))
        assert res.value <= 0.546
        for got, want in zip(res.argmin,
                             (Fraction(6, 11), Fraction(3, 11),
                              Fraction(2, 11))):
            assert abs(float(got) - float(want)) <= 1e-3

    def test_tracks_a_dense_grid_oracle(self):
        # ~7e3 points for n=3, ~4e3 for n=4; the default grid of 100 may
        # dip below the oracle but never sits meaningfully above it. ex16
        # is left to the next test: its infimum lies on the excluded
        # boundary x = z, which no grid reaches
        for pr in (load("ex15.admp"), parse_problem(MIXED_FOUR)):
            res = minimize_error(pr)
            oracle = dense_minimum(pr, 120 if pr.criteria.n == 3 else 30)
            assert float(res.value) <= float(oracle) + 1e-3, pr

    def test_an_infimum_on_an_excluded_boundary_depends_on_the_grid(self):
        """On the boundary x = z, which x < z excludes, ex16's functional
        is least at (1, 5, 1)/7 with value 3/49. The admissible grid
        points nearest the boundary sit 1/G away from it, so the reported
        value falls toward 3/49 at O(1/G) as the grid grows."""
        pr = load("ex16.admp")
        values = [minimize_error(pr, grid_points=g).value
                  for g in (100, 120, 200)]
        assert values == [Fraction(261, 2500), Fraction(71, 800),
                          Fraction(1547, 20000)]
        boundary = (Fraction(1, 7), Fraction(5, 7), Fraction(1, 7))
        assert eval_error(load("ex15.admp"), boundary) == Fraction(3, 49)
        assert all(v > Fraction(3, 49) for v in values)

    def test_evaluation_budget_is_reported(self):
        pr = parse_problem(MIXED_FOUR)
        res = minimize_error(pr, grid_points=20)
        assert res.evaluations == comb(19, 3)
        # x < z leaves the points (a, 20 - a - c, c) with a < c < 20 - a
        res = minimize_error(load("ex16.admp"), grid_points=20)
        assert res.evaluations == sum(19 - 2 * a for a in range(1, 10))

    def test_argmin_lies_on_the_open_simplex(self):
        for pr in product_problems():
            res = minimize_error(pr)
            assert abs(float(sum(res.argmin)) - 1.0) <= 1e-9
            assert all(float(x) > 0 for x in res.argmin)

    def test_nested_grids_never_get_worse_on_product_statements(self):
        for pr in grid_problems():
            values = [minimize_error(pr, grid_points=g).value
                      for g in (12, 24, 48)]
            assert values[0] >= values[1] >= values[2]

    def test_integer_scan_matches_a_fraction_scan(self):
        """The grid scan compares exact integers and skips the points that
        break an inequality; a brute-force scan of eval_error over the
        admissible points of simplex_grid picks the same first minimum."""
        # x = 2 y z alone vanishes at (3, 3, 6)/12 and (3, 6, 3)/12: a tie
        # (two free criteria, so it is not triangular)
        tied = parse_problem("criteria: x y z\npref: x = 2 y * z\n")
        points = list(simplex_grid(3, 12))
        assert [eval_error(tied, x) for x in points].count(0) == 2
        # y > z keeps only the second of the tied zeros
        ordered = parse_problem(
            "criteria: x y z\npref: x = 2 y * z\npref: y > z\n")
        for pr in [tied, ordered] + grid_problems():
            for g in (7, 12, 30):
                res = minimize_error(pr, grid_points=g)
                points = admissible_grid(pr, g)
                values = [eval_error(pr, x) for x in points]
                best = min(values)
                assert res.value == best
                assert res.argmin == points[values.index(best)]
                assert res.evaluations == len(points)

    def test_product_statements_over_the_grid_budget_are_refused(self):
        with pytest.raises(InvalidGrid):
            minimize_error(load("ex16.admp"), grid_points=1000)

    def test_a_grid_with_no_admissible_point_is_refused(self):
        # x < y < z needs three distinct parts: no point of G = 5 has them
        # with x = 2 y * z on top (the G = 6 point (1, 2, 3) does)
        pr = parse_problem("criteria: x y z\npref: x = 2 y * z\n"
                           "pref: x < y\npref: y < z\n")
        with pytest.raises(InvalidGrid, match="x < y, y < z"):
            minimize_error(pr, grid_points=5)
        assert minimize_error(pr, grid_points=6).evaluations == 1


def random_chain(rng, n):
    """A triangular chain over C0..C{n-1}: each C_k (k < n - 1) is a
    positive rational times a product of later criteria, each raised to
    the power 1, 2 or 3; C{n-1} is free."""
    prefs = []
    for k in range(n - 1):
        later = rng.sample(range(k + 1, n), rng.randint(1, min(2, n - 1 - k)))
        prefs.append(MonomialPreference(
            k, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            tuple((j, rng.randint(1, 3)) for j in later)))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                   tuple(prefs))


class TestFamilyZero:
    def test_ex15_zero_is_the_correctly_rounded_sympy_root(self):
        sympy = pytest.importorskip("sympy")
        res = minimize_error(load("ex15.admp"))
        assert res.value == 0 and isinstance(res.value, Fraction)
        assert res.evaluations == 0
        z = res.argmin[2]

        def rational(x):
            f = Fraction(x)
            return sympy.Rational(f.numerator, f.denominator)

        # the family [10z^2, 5z, z] at the exact root: each weight lies
        # within half an ulp of its float on either side
        root = (sympy.sqrt(19) - 3) / 10
        exact = (10 * root**2, 5 * root, root)
        for w, x in zip(res.argmin, exact):
            assert (rational(nextafter(w, 0)) + rational(w)) / 2 < x
            assert x < (rational(w) + rational(nextafter(w, 1))) / 2
        assert res.argmin[0] == 0.18466063387559586

    def test_seeded_family_zeros_are_correctly_rounded(self):
        """x = (a/c) y z and y = (b/d) z, a..d in 1..9: the zero of
        (ab/cd) z^2 + (b/d + 1) z - 1 and each weight at 50 digits,
        rounded by float(), on 300 seeded sets."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(0)
        irrational = 0
        for _ in range(300):
            a, b, c, d = (rng.randint(1, 9) for _ in range(4))
            res = minimize_error(parse_problem(
                f"criteria: x y z\npref: x = {a}/{c} y * z\n"
                f"pref: y = {b}/{d} z\n"))
            assert res.value == 0
            if isinstance(res.argmin[2], Fraction):
                continue
            irrational += 1
            with mpmath.workdps(50):
                p, q = mpmath.mpf(a * b) / (c * d), mpmath.mpf(b) / d + 1
                z = 2 / (q + mpmath.sqrt(q * q + 4 * p))
                exact = (float(p * z * z), float(mpmath.mpf(b) / d * z),
                         float(z))
            assert res.argmin == exact, (a, b, c, d)
        assert irrational == 283

    def test_a_rational_root_gives_an_exact_point(self):
        # x = 8 z^2, y = z: 8 z^2 + 2 z = 1 at z = 1/4
        pr = parse_problem(
            "criteria: x y z\npref: x = 8 y * z\npref: y = 1 z\n")
        res = minimize_error(pr, grid_points=2)  # the grid is not used
        assert res.argmin == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert res.value == 0 and eval_error(pr, res.argmin) == 0

    def test_the_zero_reads_only_the_domain(self, monkeypatch):
        # the admitted range of z is all the zero needs: no crossing of
        # two components is isolated and no regime is ordered. x < y
        # admits z < 1/2, and the zero lies there
        import admcdm.nonlinear as nonlinear

        pr = parse_problem((CORPUS / "ex15.admp").read_text()
                           + "pref: x < y\n")
        expected = minimize_error(pr)
        assert expected.value == 0 and expected.evaluations == 0

        def no_regimes(*args):
            raise AssertionError("the regimes were analysed")

        monkeypatch.setattr(nonlinear, "regime_analysis", no_regimes)
        monkeypatch.setattr(nonlinear, "_groups", no_regimes)
        assert minimize_error(pr) == expected

    def test_inequalities_with_no_admissible_value_raise(self):
        # y = 5z and y < z fail for every z
        pr = parse_problem((CORPUS / "ex15.admp").read_text()
                           + "pref: y < z\n")
        with pytest.raises(EmptyDomain):
            minimize_error(pr)

    def test_a_weight_below_the_float_range_is_refused(self):
        # x = 10^-401 z^2, y = z: the root z is irrational and near 1/2,
        # and x near 10^-401 / 4 rounds to 0.0, which is no positive weight
        pr = parse_problem("criteria: x y z\n"
                           f"pref: x = 1/1{'0' * 401} y * y\n"
                           "pref: y = 1 z\n")
        with pytest.raises(InvalidProblem,
                           match="a root lies outside the float range"):
            minimize_error(pr)
        # a rational root keeps its exact point, however small a weight:
        # x = c z^2 and y = (1 - c/2) z meet the simplex at z = 1/2
        c = Fraction(1, 10**401)
        pr = parse_problem("criteria: x y z\n"
                           f"pref: x = {c} z * z\n"
                           f"pref: y = {1 - c / 2} z\n")
        res = minimize_error(pr)
        assert res.argmin == (c / 4, (2 - c) / 4, Fraction(1, 2))

    def test_a_zero_just_outside_a_rational_end_falls_back_to_the_grid(
            self):
        """x = (80 + 10^-20) z^2, y = 10 z^2 and z < y admit z > 1/10; the
        zero of (90 + 10^-20) z^2 + z = 1 lies just below 1/10, although
        its float is 0.1. The grid's point meets z < y."""
        pr = parse_problem("criteria: x y z\n"
                           "pref: x = 80.00000000000000000001 z * z\n"
                           "pref: y = 10 z * z\npref: z < y\n")
        res = minimize_error(pr)
        assert res.argmin == (Fraction(1, 5), Fraction(3, 4), Fraction(1, 20))
        assert (res.value, res.evaluations) == (Fraction(291, 400), 2401)

    def test_zeros_within_an_ulp_of_a_rational_end(self):
        """x = c z^2 and y = k z^2 cross z at 1/k, where the zero of
        (c + k) z^2 + z = 1 lies when c = k^2 - 2k; c moved by 10^-30 to
        10^-2 puts it on either side, from within an ulp to far off.
        Whichever point is reported meets every stated inequality exactly:
        the family point only when its components do."""
        rng = random.Random("rational-ends")
        zeros = 0
        for _ in range(40):
            k = rng.randint(3, 60)
            c = k * k - 2 * k + rng.choice((-1, 1)) * Fraction(
                rng.randint(1, 9), 10 ** rng.randint(2, 30))
            relation = rng.choice(("z < y", "y > z", "y < z", "z > y"))
            pr = parse_problem(f"criteria: x y z\npref: x = {c} z * z\n"
                               f"pref: y = {k} z * z\npref: {relation}\n")
            res = minimize_error(pr, grid_points=12)
            x = [Fraction(v) for v in res.argmin]
            for a, b in [(p.lhs, p.rhs) for p in pr.preferences
                         if isinstance(p, InequalityPreference)]:
                less = "<" in relation
                assert (x[a] < x[b]) if less else (x[a] > x[b]), (c, k)
            zeros += res.value == 0
        assert 0 < zeros < 40

    def test_random_chains_reach_exactly_zero(self):
        rng = random.Random(20260)
        for _ in range(60):
            pr = random_chain(rng, rng.randint(2, 5))
            res = minimize_error(pr)
            assert res.value == 0 and res.evaluations == 0, pr
            assert all(x > 0 for x in res.argmin)
            assert abs(float(sum(res.argmin)) - 1.0) <= 1e-9
            x = [Fraction(v) for v in res.argmin]
            for pref in pr.preferences:
                product = pref.coefficient
                for j, power in pref.exponents:
                    product *= x[j] ** power
                assert abs(x[pref.subject] - product) <= 1e-12, pr

    def test_a_root_outside_the_inequalities_falls_back_to_the_grid(self):
        """An inequality that the family zero breaks, between components
        of different degree, moves the root out of the admitted range;
        the grid scan then equals the brute-force oracle."""
        from admcdm.nonlinear import solve_triangular

        rng = random.Random(20261)
        checked = 0
        for _ in range(60):
            pr = random_chain(rng, rng.randint(2, 4))
            zero = minimize_error(pr).argmin
            degree = [d for _, d in solve_triangular(pr).components]
            broken = [(a, b) for a, b in combinations(range(len(zero)), 2)
                      if degree[a] != degree[b] and zero[a] != zero[b]]
            if not broken:
                continue
            a, b = broken[0]
            if zero[a] < zero[b]:
                a, b = b, a
            limited = Problem(pr.criteria, pr.preferences + (
                InequalityPreference(a, b, Relation.STRICT_LESS),))
            res = minimize_error(limited, grid_points=12)
            assert res.evaluations == len(admissible_grid(limited, 12))
            assert res.value == dense_minimum(limited, 12) > 0, limited
            checked += 1
        assert checked >= 30


def cleared_rows(problem):
    """Each equation statement's residual row, multiplied through by the
    common denominator of its coefficients; inequalities skipped."""
    n = problem.criteria.n
    rows = []
    for pref in problem.preferences:
        if isinstance(pref, InequalityPreference):
            continue
        flat = canonicalize(pref)
        scale = lcm(*(a.denominator for _, a in flat.terms))
        row = [Fraction(0)] * n
        row[flat.subject] += scale
        for j, a in flat.terms:
            row[j] -= scale * a
        rows.append(row)
    return rows


def linprog_minimum(problem):
    """Independent oracle: scipy's HiGHS on the L1 program of
    cleared_rows()."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    n = problem.criteria.n
    rows = [[float(c) for c in row] for row in cleared_rows(problem)]
    m = len(rows)
    a_eq = np.vstack([
        np.hstack([np.array(rows, dtype=float), -np.eye(m), np.eye(m)]),
        np.hstack([np.ones(n), np.zeros(2 * m)]),
    ])
    b_eq = np.zeros(m + 1)
    b_eq[-1] = 1.0
    cost = np.hstack([np.zeros(n), np.ones(2 * m)])
    res = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                           method="highs")
    assert res.status == 0, res.message
    return res.fun


def vertex_minimum(problem):
    """Independent exact oracle for a small linear set: the L1 functional
    is linear on each cell the hyperplanes residual_i = 0 cut from the
    simplex, so its least value is at a point of sum(x) = 1 where n - 1 of
    those hyperplanes and the faces x_j = 0 meet."""
    sympy = pytest.importorskip("sympy")
    n = problem.criteria.n
    rows = cleared_rows(problem)
    faces = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    best = None
    for chosen in combinations(rows + faces, n - 1):
        a = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                           for c in row] for row in (*chosen, [1] * n)])
        if a.det() == 0:
            continue
        x = [Fraction(int(v.p), int(v.q))
             for v in a.LUsolve(sympy.Matrix([0] * (n - 1) + [1]))]
        if all(v >= 0 for v in x):
            value = sum(abs(sum(c * v for c, v in zip(row, x)))
                        for row in rows)
            best = value if best is None else min(best, value)
    return best


def assert_exact_minimum(problem):
    res = minimize_error(problem)
    want = linprog_minimum(problem)
    assert abs(float(res.value) - want) <= 1e-9 * max(1.0, abs(want))
    assert all(isinstance(v, Fraction) and v > 0 for v in res.argmin)
    assert sum(res.argmin) == 1
    assert eval_error(problem, res.argmin) == res.value
    return res


LINEAR_CORPUS = [
    p.name for p in sorted(CORPUS.glob("*.admp"))
    if not any(isinstance(q, MonomialPreference)
               for q in load(p.name).preferences)
]


class TestLinearProgram:
    @pytest.mark.parametrize("name", LINEAR_CORPUS)
    def test_corpus_minimum_matches_linprog(self, name):
        assert_exact_minimum(load(name))

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("consistent", [True, False])
    def test_pairwise_minimum_matches_linprog(self, n, consistent):
        for seed in range(3):
            res = assert_exact_minimum(pairwise(n, seed, consistent))
            if consistent:
                assert res.value == 0

    @pytest.mark.parametrize("n", range(4, 17))
    def test_dense_minimum_matches_linprog(self, n):
        for seed in range(2):
            assert_exact_minimum(dense(n, seed))

    def test_consistent_files_reach_exactly_zero(self):
        for name in ("ex1.admp", "ex5.admp"):
            pr = load(name)
            res = minimize_error(pr)
            assert res.value == 0
            assert res.argmin == priority(pr)[0]

    def test_boundary_optimum_is_pulled_inside(self):
        """ex7's optimal vertex is (1/251, 0, 250/251) with minimum
        5099/251; the reported point is strictly positive and exceeds the
        minimum by at most 1e-12 times it."""
        res = assert_exact_minimum(load("ex7.admp"))
        floor = Fraction(5099, 251)
        assert floor < res.value <= floor + Fraction(1, 10**12) * floor
        assert 0 < res.argmin[1] < Fraction(1, 10**12)
        for got, want in zip(res.argmin, (Fraction(1, 251), 0,
                                          Fraction(250, 251))):
            assert abs(got - want) <= Fraction(1, 10**12)

    def test_grid_arguments_are_ignored(self):
        pr = load("ex4.admp")
        assert minimize_error(pr) == minimize_error(pr, grid_points=2)

    def test_float_coefficients_are_read_exactly(self):
        """0.1 and 0.3 are binary fractions with 2^55-sized denominators;
        the program reads them exactly, so its minimum is the exact one of
        the arrangement's vertices and its value is the exact functional at
        the argmin. Clearing those denominators weighs the two float
        statements about 2^54 times the third, past what HiGHS accepts."""
        pr = Problem(CriteriaSet(("x", "y", "z")), (
            LinearPreference(0, ((1, 0.1), (2, 3))),
            LinearPreference(1, ((2, 0.3),)),
            LinearPreference(2, ((0, Fraction(7, 2)),))))
        assert pr.preferences[1].terms == ((2, Fraction(0.3)),)
        res = minimize_error(pr)
        assert res.value == vertex_minimum(pr)
        assert isinstance(res.value, Fraction)
        assert all(isinstance(v, Fraction) and v > 0 for v in res.argmin)
        assert sum(res.argmin) == 1
        assert eval_error(pr, res.argmin) == res.value

    def test_random_linear_sets_match_linprog(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coefficient = st.fractions(min_value=Fraction(1, 9), max_value=9,
                                   max_denominator=9)

        @hypothesis.settings(max_examples=60, derandomize=True,
                             database=None, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(2, 6))
            prefs = []
            for _ in range(data.draw(st.integers(1, 2 * n))):
                subject = data.draw(st.integers(0, n - 1))
                others = [j for j in range(n) if j != subject]
                terms = data.draw(st.lists(st.sampled_from(others),
                                           min_size=1, max_size=3,
                                           unique=True))
                prefs.append(LinearPreference(subject, tuple(
                    (j, data.draw(coefficient)) for j in terms)))
            names = tuple(f"C{i}" for i in range(n))
            assert_exact_minimum(Problem(CriteriaSet(names), tuple(prefs)))

        check()

    def test_full_pairwise_set_of_nine_ends_within_a_second(self):
        def hang(signum, frame):
            raise TimeoutError("the simplex method did not end")

        pr = pairwise(9, 0, False)
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)  # fail instead of hanging if cycling comes back
        try:
            start = time.perf_counter()
            res = minimize_error(pr)
            assert time.perf_counter() - start < 1.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.value > 0
