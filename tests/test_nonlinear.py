"""Triangular monomial families and ordering-regime analysis."""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from admcdm.errors import (
    EmptyDomain,
    MultipleFreeVars,
    NotTriangular,
    OverDetermined,
)
from admcdm.model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    Problem,
    Relation,
)
from admcdm.nonlinear import (
    MonomialSolution,
    _equations,
    ordering_text,
    regime_analysis,
    solve_triangular,
)
from admcdm.parser import parse_problem

import regimes_reference as reference
from conftest import load


def inequalities_of(problem):
    return tuple(p for p in problem.preferences
                 if isinstance(p, InequalityPreference))


def reference_solve_triangular(problem):
    """The substitution loop solve_triangular ran with four flags: each
    candidate free variable in passes until one consumes no statement or
    closes a criterion twice; the first candidate that resolves every
    criterion wins, and else the gravest outcome is raised."""
    equations = _equations(problem)
    n = problem.criteria.n
    saw_over = False
    saw_multi = False

    for free in reversed(range(n)):
        known = {free: (Fraction(1), 1)}
        pending = list(range(len(equations)))
        closed = False
        progressed = True
        while progressed and not closed:
            progressed = False
            still = []
            for idx in pending:
                subject, coef, factors = equations[idx]
                if all(j in known for j, _ in factors):
                    total_coef = coef
                    total_power = 0
                    for j, power in factors:
                        base_coef, base_power = known[j]
                        total_coef = total_coef * base_coef**power
                        total_power += base_power * power
                    if subject not in known:
                        known[subject] = (total_coef, total_power)
                    else:
                        have_coef, have_power = known[subject]
                        if have_power != total_power or have_coef != total_coef:
                            closed = True
                            break
                    progressed = True
                elif (
                    subject in known
                    and len(factors) == 1
                    and factors[0][1] == 1
                    and factors[0][0] not in known
                ):
                    have_coef, have_power = known[subject]
                    known[factors[0][0]] = (have_coef / coef, have_power)
                    progressed = True
                else:
                    still.append(idx)
            else:
                pending = still
        if closed:
            saw_over = True
            continue
        if pending:
            continue
        if len(known) < n:
            saw_multi = True
            continue
        return MonomialSolution(free, tuple(known[k] for k in range(n)))

    if saw_over:
        raise OverDetermined(
            "substitution closes the free variable to a constant: the "
            "statements pin two different monomials to one criterion"
        )
    if saw_multi:
        raise MultipleFreeVars(
            "the statements leave more than one criterion free"
        )
    raise NotTriangular("no substitution order resolves these statements")


def ratio_and_product_set(rng):
    """2..6 criteria and 1 to n + 1 statements, each a ratio Ci = k Cj or
    a product Ci = k Cj^a Ck^b of one or two factors, exponents 1..2."""
    n = rng.randint(2, 6)
    prefs = []
    for _ in range(rng.randint(1, n + 1)):
        subject = rng.randrange(n)
        others = [j for j in range(n) if j != subject]
        k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            prefs.append(LinearPreference(subject,
                                          ((rng.choice(others), k),)))
        else:
            factors = rng.sample(others, min(len(others), rng.randint(1, 2)))
            prefs.append(MonomialPreference(
                subject, k, tuple((j, rng.randint(1, 2)) for j in factors)))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))),
                   tuple(prefs))


def outcome(fn, problem):
    try:
        return fn(problem)
    except (NotTriangular, MultipleFreeVars, OverDetermined,
            EmptyDomain) as exc:
        return type(exc).__name__, str(exc)


def random_family(rng):
    """A 2..6 criterion family, coefficients p/q with p, q <= 30 or a
    dyadic float, exponents 0..4, and up to two inequalities."""
    n = rng.randint(2, 6)
    free = rng.randrange(n)
    components = []
    for k in range(n):
        if k == free:
            components.append((Fraction(1), 1))
            continue
        if rng.random() < 0.2:
            coef = rng.randint(1, 64) / 2 ** rng.randint(0, 6)
        else:
            coef = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        components.append((coef, rng.randint(0, 4)))
    inequalities = tuple(
        InequalityPreference(*rng.sample(range(n), 2), rng.choice(
            list(Relation)))
        for _ in range(rng.randint(0, 2)))
    return MonomialSolution(free, tuple(components)), inequalities


class TestSolveTriangular:
    def test_equals_the_flag_loop_on_random_sets(self):
        rng = random.Random(7)
        kinds = Counter()
        for _ in range(2000):
            problem = ratio_and_product_set(rng)
            got = outcome(solve_triangular, problem)
            assert got == outcome(reference_solve_triangular, problem)
            kinds[got[0] if isinstance(got, tuple) else "family"] += 1
        assert set(kinds) == {"family", "OverDetermined", "NotTriangular",
                              "MultipleFreeVars"}
        assert min(kinds.values()) >= 100


    def test_product_with_chain(self):
        sol = solve_triangular(load("ex15.admp"))
        assert sol.free_var == 2
        assert sol.components == (
            (Fraction(10), 2), (Fraction(5), 1), (Fraction(1), 1))

    def test_single_link(self):
        pr = parse_problem("criteria: y z\npref: y = 5 z\n")
        sol = solve_triangular(pr)
        assert sol.free_var == 1
        assert sol.components == ((Fraction(5), 1), (Fraction(1), 1))

    def test_component_evaluation(self):
        sol = solve_triangular(load("ex15.admp"))
        assert sol.value_at(0, Fraction(1, 2)) == Fraction(5, 2)
        assert sol.value_at(1, Fraction(1, 2)) == Fraction(5, 2)
        assert sol.value_at(2, Fraction(1, 2)) == Fraction(1, 2)

    def test_backward_inversion_resolves_known_subjects(self):
        # x = 2 y with x already pinned to the free variable forces y
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y\npref: x = 6 z\n")
        sol = solve_triangular(pr)
        assert sol.free_var == 2
        assert sol.components == (
            (Fraction(6), 1), (Fraction(3), 1), (Fraction(1), 1))

    def test_matching_redundant_statement_is_accepted(self):
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y\npref: y = 3 z\n"
            "pref: x = 6 z\n")
        sol = solve_triangular(pr)
        assert sol.components == (
            (Fraction(6), 1), (Fraction(3), 1), (Fraction(1), 1))

    def test_clashing_redundant_statement_is_overdetermined(self):
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y\npref: y = 3 z\n"
            "pref: x = 5 z\n")
        with pytest.raises(OverDetermined):
            solve_triangular(pr)

    def test_closed_cycle_is_overdetermined(self):
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y * z\npref: y = 5 z\n"
            "pref: z = 3 x\n")
        with pytest.raises(OverDetermined):
            solve_triangular(pr)

    def test_unlinked_criterion_leaves_two_free(self):
        pr = parse_problem("criteria: x y z\npref: x = 2 y\n")
        with pytest.raises(MultipleFreeVars):
            solve_triangular(pr)

    def test_multi_term_statement_is_not_triangular(self):
        with pytest.raises(NotTriangular):
            solve_triangular(load("ex2.admp"))

    def test_mutually_blocked_products_are_not_triangular(self):
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y * z\npref: y = 3 x * z\n")
        with pytest.raises(NotTriangular):
            solve_triangular(pr)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            MonomialSolution(0, ((Fraction(2), 1), (Fraction(1), 1)))
        with pytest.raises(ValueError):
            MonomialSolution(2, ((Fraction(1), 1),))
        with pytest.raises(ValueError, match="coefficients must be positive"):
            MonomialSolution(1, ((Fraction(0), 2), (Fraction(1), 1)))
        for power in (-1, 1.0):
            with pytest.raises(ValueError, match="exponents must be integers"):
                MonomialSolution(1, ((Fraction(2), power), (Fraction(1), 1)))


class TestRegimes:
    def test_product_chain_regime_table(self):
        pr = load("ex15.admp")
        sol = solve_triangular(pr)
        rep = regime_analysis(sol)
        names = pr.criteria.names
        assert rep.domain == (0, None)
        assert rep.breakpoints == (Fraction(1, 10), Fraction(1, 2))
        texts = [
            (r.lower, r.upper, ordering_text(r.ordering, names))
            for r in rep.regimes
        ]
        assert texts == [
            (Fraction(0), Fraction(1, 10), "y>z>x"),
            (Fraction(1, 10), Fraction(1, 10), "y>z=x"),
            (Fraction(1, 10), Fraction(1, 2), "y>x>z"),
            (Fraction(1, 2), Fraction(1, 2), "y=x>z"),
            (Fraction(1, 2), None, "x>y>z"),
        ]
        assert [r.is_point for r in rep.regimes] == [
            False, True, False, True, False]

    def test_upper_bound_from_inequality(self):
        pr = load("ex16.admp")
        sol = solve_triangular(pr)
        rep = regime_analysis(sol, inequalities_of(pr))
        assert rep.domain == (0, Fraction(1, 10))
        assert len(rep.regimes) == 1
        assert ordering_text(rep.regimes[0].ordering,
                             pr.criteria.names) == "y>z>x"

    def test_lower_bound_from_inequality(self):
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y * z\npref: y = 5 z\n"
            "pref: x > y\n")
        sol = solve_triangular(pr)
        rep = regime_analysis(sol, inequalities_of(pr))
        assert rep.domain == (Fraction(1, 2), None)
        assert len(rep.regimes) == 1
        assert ordering_text(rep.regimes[0].ordering,
                             ("x", "y", "z")) == "x>y>z"

    def test_contradictory_bounds_empty_the_domain(self):
        pr = parse_problem(
            "criteria: x y z\npref: x = 2 y * z\npref: y = 5 z\n"
            "pref: x < z\npref: x > y\n")
        sol = solve_triangular(pr)
        with pytest.raises(EmptyDomain):
            regime_analysis(sol, inequalities_of(pr))

    def test_proportional_components_hold_everywhere_or_nowhere(self):
        pr = parse_problem("criteria: y z\npref: y = 5 z\n")
        sol = solve_triangular(pr)
        ok = regime_analysis(
            sol, (InequalityPreference(1, 0, Relation.STRICT_LESS),))
        assert ok.domain == (0, None)
        with pytest.raises(EmptyDomain):
            regime_analysis(
                sol, (InequalityPreference(0, 1, Relation.STRICT_LESS),))

    def test_perfect_power_crossing_is_exact(self):
        pr = parse_problem("criteria: x z\npref: x = 9 z * z * z\n")
        sol = solve_triangular(pr)
        rep = regime_analysis(sol)
        assert rep.breakpoints == (Fraction(1, 3),)
        assert isinstance(rep.breakpoints[0], Fraction)
        lo, point, hi = rep.regimes
        assert ordering_text(lo.ordering, ("x", "z")) == "z>x"
        assert point.is_point and point.lower == Fraction(1, 3)
        # tied criteria keep the order they held just left of the crossing
        assert ordering_text(point.ordering, ("x", "z")) == "z=x"
        assert ordering_text(hi.ordering, ("x", "z")) == "x>z"

    def test_irrational_crossing_ties_the_pair(self):
        pr = parse_problem("criteria: x y z\npref: x = 2 z * z * z\n"
                           "pref: y = 3 z\n")
        rep = regime_analysis(solve_triangular(pr))
        assert rep.breakpoints == pytest.approx([0.5**0.5, 1.5**0.5])
        names = ("x", "y", "z")
        assert [ordering_text(r.ordering, names) for r in rep.regimes] == [
            "y>z>x", "y>z=x", "y>x>z", "y=x>z", "x>y>z"]

    @pytest.mark.parametrize("coefficient", [
        "2.0000000000001",  # crossings 10^-14 apart
        f"2.{'0' * 29}1",   # 10^-31 apart: both round to one float
    ])
    def test_nearly_equal_crossings_stay_apart(self, coefficient):
        # z meets x at (1/2)^(1/2) and y at (1/coefficient)^(1/2): two
        # irrational crossings, each with its own tie, and the piece
        # between them is ordered from their exact order
        pr = parse_problem("criteria: x y z\npref: x = 2 z * z * z\n"
                           f"pref: y = {coefficient} z * z * z\n")
        rep = regime_analysis(solve_triangular(pr))
        assert len(rep.breakpoints) == 2
        assert rep.breakpoints[0] <= rep.breakpoints[1]
        names = ("x", "y", "z")
        assert [ordering_text(r.ordering, names) for r in rep.regimes] == [
            "z>y>x", "z=y>x", "y>z>x", "y>z=x", "y>x>z"]

    def test_one_crossing_reached_at_two_degrees_is_merged(self):
        # z = (1/2)^(1/2) solves both 2 z^2 = 1 and 4 z^4 = 1
        pr = parse_problem("criteria: x y z\npref: x = 2 z * z * z\n"
                           "pref: y = 4 z * z * z * z * z\n")
        rep = regime_analysis(solve_triangular(pr))
        assert rep.breakpoints == (0.5**0.5,)
        names = ("x", "y", "z")
        assert [ordering_text(r.ordering, names) for r in rep.regimes] == [
            "z>x>y", "z=x=y", "y>x>z"]

    def test_crossings_of_higher_degree_are_correctly_rounded(self):
        """Each irrational crossing, and the bound an inequality puts at
        one, is the float nearest to the root, here z = (1/7)^(1/2) and
        z = (1/10)^(1/3)."""
        mpmath = pytest.importorskip("mpmath")
        pr = parse_problem("criteria: x y z\npref: x = 7 z * z * z\n"
                           "pref: y = 10 z * z * z * z\npref: y < z\n")
        rep = regime_analysis(solve_triangular(pr), inequalities_of(pr))
        with mpmath.workdps(50):
            seventh = float(mpmath.root(mpmath.mpf(1) / 7, 2))
            tenth = float(mpmath.root(mpmath.mpf(1) / 10, 3))
        assert rep.breakpoints == (seventh, tenth, Fraction(7, 10))
        assert rep.domain == (0, tenth)

    def test_interval_orderings_hold_throughout_each_piece(self):
        sol = solve_triangular(load("ex15.admp"))
        rep = regime_analysis(sol)
        for regime in rep.regimes:
            if regime.is_point:
                continue
            lo = float(regime.lower)
            hi = float(regime.upper) if regime.upper is not None else None
            if hi is None:
                samples = [max(lo, 0.25) * k for k in (2.0, 5.0, 11.0)]
            else:
                samples = [lo + (hi - lo) * f for f in (0.13, 0.5, 0.87)]
            for z in samples:
                values = [sol.value_at(k, z) for k in range(sol.n)]
                order = sorted(range(sol.n),
                               key=lambda k: -float(values[k]))
                flat = [k for group in regime.ordering for k in group]
                assert order == flat, regime

    def test_breakpoints_agree_with_a_sign_scan(self):
        """Component differences change sign only at the reported
        crossings."""
        import math

        sol = solve_triangular(load("ex15.admp"))
        rep = regime_analysis(sol)
        bps = [float(b) for b in rep.breakpoints]
        grid = [math.exp(u / 40.0) for u in range(-200, 201)]
        for a in range(sol.n):
            for b in range(a + 1, sol.n):
                flips = []
                prev = None
                for z in grid:
                    diff = float(sol.value_at(a, z)) - float(
                        sol.value_at(b, z))
                    s = (diff > 0) - (diff < 0)
                    if prev is not None and s != prev and 0 not in (s, prev):
                        flips.append(z)
                    prev = s
                for z in flips:
                    assert any(
                        abs(z - bp) <= bp * 0.06 for bp in bps
                    ), (a, b, z)

    def test_orderings_equal_the_value_reference(self):
        """Orderings read off the exact crossing order equal those read
        from exact component values at a rational point of each piece,
        merged at each crossing (regimes_reference), and so do the
        errors."""
        rng = random.Random(5)
        seen = Counter()
        for _ in range(400):
            sol, inequalities = random_family(rng)
            want = outcome(lambda s: reference.regime_analysis(
                s, inequalities), sol)
            got = outcome(lambda s: regime_analysis(s, inequalities), sol)
            assert repr(got) == repr(want), (sol, inequalities)
            if isinstance(got, tuple):
                seen[got[0]] += 1
            else:
                seen["point"] += sum(r.is_point for r in got.regimes)
                seen["three tied"] += any(
                    len(g) > 2 for r in got.regimes if r.is_point
                    for g in r.ordering)
        assert seen["EmptyDomain"] and seen["point"] and seen["three tied"]


class TestHugeValues:
    """Coefficients far outside the float range: crossings are found and
    ordered exactly, never through float()."""

    def test_perfect_power_of_a_huge_integer_is_exact(self):
        huge = 10**400
        pr = parse_problem(f"criteria: x z\npref: x = {huge} z * z * z\n")
        rep = regime_analysis(solve_triangular(pr))
        assert rep.breakpoints == (Fraction(1, 10**200),)

    def test_irrational_crossing_of_a_huge_ratio(self):
        pr = parse_problem(
            f"criteria: x z\npref: x = {2 * 10**600} z * z * z\n")
        (point,) = regime_analysis(solve_triangular(pr)).breakpoints
        want = 1 / (2**0.5 * 1e300)
        assert isinstance(point, float)
        assert abs(point - want) <= 1e-13 * want

    def test_crossing_past_the_float_range_is_refused(self):
        from admcdm.errors import InvalidProblem

        pr = parse_problem(
            f"criteria: x z\npref: x = 0.{'0' * 800}2 z * z * z\n")
        with pytest.raises(InvalidProblem, match="float range"):
            regime_analysis(solve_triangular(pr))

    def test_orderings_compare_huge_components_exactly(self):
        huge = 10**400
        pr = parse_problem("criteria: x y z\n"
                           f"pref: x = {huge} y * y\npref: y = 1 z\n")
        rep = regime_analysis(solve_triangular(pr))
        assert rep.breakpoints == (Fraction(1, huge),)
        names = ("x", "y", "z")
        assert [ordering_text(r.ordering, names) for r in rep.regimes] == [
            "y=z>x", "y=z=x", "x>y=z"]


def _thousands_of_factors(tmp_path):
    """x = 2 y^2000 and y = 3 z as a 2,000-factor product statement: the
    family (2 * 3^2000 z^2000, 3 z, z), whose crossings and family zero
    are roots of degree 1,999 and 2,000."""
    path = tmp_path / "factors.admp"
    path.write_text("criteria: x y z\npref: x = 2 " + " * ".join(["y"] * 2000)
                    + "\npref: y = 3 z\n", encoding="utf-8")
    return path


def _cli(*args, timeout=20):
    """admcdm's CLI on args in a child process of this interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import admcdm

    env = dict(os.environ)
    src = str(Path(admcdm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "admcdm", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestHighDegrees:
    """Roots of degree in the thousands: binomial crossings in closed form,
    the family zero without isolation, and crossings ordered by their
    floats where these differ."""

    @pytest.mark.parametrize("command", ["regimes", "error-min"])
    def test_a_product_of_2000_factors_ends(self, tmp_path, command):
        path = str(_thousands_of_factors(tmp_path))
        run = _cli(command, path)
        assert (run.returncode, run.stderr) == (0, "")
        if command == "error-min":
            assert "z = 0.25" in run.stdout
            return
        # x's coefficient 2 * 3^2000 has no float: only its exact form
        assert f"[{2 * 3**2000}z^2000, 3z, z]" in run.stdout
        run = _cli(command, "--json", path)
        assert (run.returncode, run.stderr) == (0, "")
        x = json.loads(run.stdout)["regimes"]["components"][0]
        assert (x["coefficient"], x["exact"]) == (None, str(2 * 3**2000))

    def test_a_rational_zero_with_a_huge_lead_ends(self, tmp_path):
        """x = 2 * 3^1999 z^2000: the family zero of 2 * 3^1999 z^2000 +
        z = 1 is 1/3, under a leading coefficient of 3,170 bits; the
        rational-root test reads it off a root modulo a prime."""
        path = tmp_path / "rational.admp"
        path.write_text(f"criteria: x z\npref: x = {2 * 3 ** 1999} "
                        + " * ".join(["z"] * 2000) + "\n", encoding="utf-8")
        run = _cli("error-min", str(path), timeout=5)
        assert (run.returncode, run.stderr) == (0, "")
        assert "x = 2/3 = " in run.stdout and "z = 1/3 = " in run.stdout

    def test_the_2000_factor_roots_agree_with_sympy(self, tmp_path):
        sympy = pytest.importorskip("sympy")
        from admcdm.error_min import minimize_error

        problem = parse_problem(
            _thousands_of_factors(tmp_path).read_text(encoding="utf-8"))
        rep = regime_analysis(solve_triangular(problem))
        want = [float(sympy.root(sympy.Rational(1, 2 * 3 ** k), 1999)
                      .evalf(60)) for k in (2000, 1999)]
        assert list(rep.breakpoints) == want
        # the family zero: 2 * 3^2000 z^2000 + 4 z = 1 changes sign between
        # the midpoints around the reported float
        result = minimize_error(problem)
        x, y, z = result.argmin
        assert (result.value, y, z) == (0, 0.75, 0.25)
        zs = sympy.Symbol("z")
        f = 2 * 3 ** 2000 * zs ** 2000 + 4 * zs - 1
        below, above = (sympy.Rational(math.nextafter(z, t)) for t in (0, 1))
        assert f.subs(zs, (below + sympy.Rational(z)) / 2) < 0
        assert f.subs(zs, (above + sympy.Rational(z)) / 2) > 0
        assert x == float(2 * sympy.Rational(z) ** 2000 * 3 ** 2000)

    def test_crossings_with_one_float_are_ordered_exactly(self):
        from admcdm.nonlinear import _compare

        root2 = 2 ** 0.5
        near = Fraction(2) + Fraction(1, 10 ** 30)  # the same float root
        assert _compare((root2, Fraction(2), 2), (root2, near, 2)) == -1
        assert _compare((root2, near, 2), (root2, Fraction(2), 2)) == 1
        assert _compare((root2, Fraction(2), 2),
                        (root2, Fraction(4), 4)) == 0
        # floats that differ decide; past the float range, exactly
        assert _compare((1.5, Fraction(9, 4), 2), (root2, Fraction(2), 2)) == 1
        huge = Fraction(10 ** 400)
        assert _compare((huge, huge, 1), (root2, Fraction(2), 2)) == 1
        assert _compare((root2, Fraction(2), 2), (huge, huge, 1)) == -1
