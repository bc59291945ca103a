"""Polynomial ring arithmetic and positive-root extraction.

Root-finding is checked against oracles that never share code with the
implementation: polynomials are BUILT from known rational roots and
expanded exactly, so the expected answer exists before the solver runs;
simple-root counts are cross-checked by sign scans on dense grids, and
seeded products of linear and quadratic factors against sympy's
real_roots.
"""

import math
import random
from fractions import Fraction
from sys import float_info

import pytest

from admcdm import polynomial
from admcdm.errors import ZeroPolynomial
from admcdm.polynomial import Poly, peval, poly, positive_roots
from admcdm.scalars import integer_row

from conftest import assert_roots_match_sympy

RNG = random.Random(0x5EED)


def _random_poly(max_degree: int = 5) -> Poly:
    degree = RNG.randint(0, max_degree)
    coeffs = [Fraction(RNG.randint(-9, 9), RNG.randint(1, 9)) for _ in range(degree)]
    coeffs.append(Fraction(RNG.randint(1, 9), RNG.randint(1, 9)))
    return poly(tuple(coeffs))


def pmul(a: Poly, b: Poly) -> Poly:
    """The product, expanded here so that no oracle shares the solver's
    code."""
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return poly(out)


def _from_roots(roots, lead=Fraction(1)) -> Poly:
    p = poly((lead,))
    for r in roots:
        p = pmul(p, poly((-r, Fraction(1))))
    return p


def test_trailing_zeros_trimmed():
    assert poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert poly((0, 0)).coeffs == ()
    with pytest.raises(ValueError, match="trailing zero"):
        Poly((1, 0))
    assert (str(poly(())), str(poly((3,))), str(poly((1, 0, -2)))) == (
        "0", "3", "1 + -2*a^2")


def test_degree_forty_roots_found_exactly():
    """No degree cap: the 40 roots of (x - 1)...(x - 40) are found, and
    exactly, although float evaluation of its expanded form loses the sign
    across most of each isolating interval."""
    p = _from_roots(range(1, 41))
    assert p.degree == 40
    assert positive_roots(p) == list(range(1, 41))


def test_eval_matches_naive_power_sum():
    for _ in range(100):
        p = _random_poly()
        x = Fraction(RNG.randint(-20, 20), RNG.randint(1, 10))
        naive = sum(
            (c * x**k for k, c in enumerate(p.coeffs)), start=Fraction(0)
        )
        assert peval(p, x) == naive


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        positive_roots(poly(()))


def test_known_rational_roots_recovered_exactly():
    for _ in range(80):
        count = RNG.randint(1, 3)
        roots = set()
        while len(roots) < count:
            roots.add(Fraction(RNG.randint(1, 40), RNG.randint(1, 12)))
        expected = sorted(roots)
        negatives = [-Fraction(RNG.randint(1, 9)) for _ in range(RNG.randint(0, 2))]
        p = _from_roots(expected + negatives, lead=Fraction(RNG.randint(1, 5)))
        found = positive_roots(p)
        assert list(found) == expected


def test_multiple_root_reported_with_multiplicity():
    r = Fraction(3, 2)
    p = _from_roots([r, r, Fraction(-1)])
    found = positive_roots(p)
    assert list(found) == [r, r]


def test_linear_factor_root_is_exact_at_any_size():
    # a huge integer and a tiny unit fraction
    big = 2 * 10**200
    assert positive_roots(poly((-big, 1))) == [Fraction(big)]
    tiny = Fraction(1, 10**12 + 1)
    assert positive_roots(poly((-tiny, 1))) == [tiny]
    # a repeated linear factor goes through the square-free split
    assert positive_roots(pmul(poly((-tiny, 1)), poly((-tiny, 1)))) == [
        tiny, tiny]
    assert positive_roots(poly((big, 1))) == []
    # the same roots next to the factor a^2 + 1, found by isolation
    assert positive_roots(pmul(poly((-big, 1)), poly((1, 0, 1)))) == [big]
    assert positive_roots(pmul(poly((-1, 10**12 + 1)),
                               poly((1, 0, 1)))) == [tiny]


def test_irrational_double_root_reported_twice():
    # (alpha^2 - 2)^2
    found = positive_roots(poly((4, 0, -4, 0, 1)))
    assert len(found) == 2
    assert found[0] == found[1]
    assert abs(found[0] - math.sqrt(2)) < 1e-12


def test_multiplicities_of_mixed_roots():
    # (alpha - 1/2)^2 (alpha - 2)^3 (alpha^2 - 3)
    p = pmul(_from_roots([Fraction(1, 2)] * 2 + [Fraction(2)] * 3),
             poly((-3, 0, 1)))
    found = positive_roots(p)
    assert found[:2] == [Fraction(1, 2)] * 2
    assert abs(found[2] - math.sqrt(3)) < 1e-12
    assert found[3:] == [Fraction(2)] * 3


def test_irrational_roots_close_to_truth():
    # x^2 - 2 -> sqrt(2); x^3 - 5 -> 5^(1/3)
    assert abs(float(positive_roots(poly((-2, 0, 1)))[0]) - math.sqrt(2)) < 1e-10
    assert abs(float(positive_roots(poly((-5, 0, 0, 1)))[0]) - 5 ** (1 / 3)) < 1e-10


def test_alpha_factor_stripped_zero_never_a_root():
    # alpha * (alpha - 3) has positive root 3 only
    p = poly((0, -3, 1))
    assert list(positive_roots(p)) == [Fraction(3)]


def test_sign_scan_agrees_on_simple_root_counts():
    grid = 1_000_000
    for _ in range(25):
        count = RNG.randint(0, 3)
        roots = set()
        while len(roots) < count:
            roots.add(Fraction(RNG.randint(1, 30), RNG.randint(1, 6)))
        filler = 4 - count
        p = _from_roots(
            sorted(roots) + [-Fraction(RNG.randint(1, 5))] * filler
        )
        coeffs = [float(c) for c in p.coeffs]
        bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])

        def value(x: float) -> float:
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        step = bound / grid
        sign_changes = 0
        previous = value(step * 0.5)
        for k in range(1, grid, 997):  # strided dense scan keeps runtime sane
            current = value(step * (k + 0.5))
            if previous != 0 and current != 0 and (previous < 0) != (current < 0):
                sign_changes += 1
            previous = current
        found = positive_roots(p)
        assert len(set(found)) == count
        assert sign_changes <= count


def test_residual_small_at_every_reported_root():
    for _ in range(50):
        p = _from_roots(
            [Fraction(RNG.randint(1, 20), RNG.randint(1, 8)) for _ in range(2)]
            + [-Fraction(RNG.randint(1, 6))]
        )
        scale = max(abs(float(c)) for c in p.coeffs)
        for r in positive_roots(p):
            assert abs(float(peval(p, float(r)))) <= 1e-9 * (1.0 + scale) * 10


def test_tiny_root_reported():
    # 1 - 10**20 alpha^2: its one positive root, 1e-10, is at the old
    # reporting threshold
    (found,) = positive_roots(poly((1, 0, -10**20)))
    assert abs(found - 1e-10) <= 1e-12 * 1e-10


class TestOpenIntervals:
    """Descartes intervals are open: the rational roots, dyadic ones among
    them, are found and divided out before isolation, so no root lies on
    a bisection point or captures a neighbour."""

    def test_dyadic_roots_met_at_bisection_points(self):
        # 4 and 2 would lie on bisection points of (0, 8) and (0, 4)
        assert positive_roots(_from_roots([2, 4, -3])) == [2, 4]

    def test_irrational_root_next_to_dyadic_ones(self):
        p = pmul(poly((-2, 0, 1)), _from_roots([1, 2]))
        found = positive_roots(p)
        assert found[0] == 1 and found[2] == 2
        assert isinstance(found[1], float)
        assert abs(found[1] - math.sqrt(2)) < 1e-12 * math.sqrt(2)

    def test_clustered_pair_gives_two_distinct_roots(self):
        # Mignotte-style x^8 - 2 (10 x - 1)^2: two roots within 1.5e-5 of
        # 1/10, and one near 2.38
        p = poly((-2, 40, -200, 0, 0, 0, 0, 0, 1))
        found = positive_roots(p)
        assert len(found) == 3
        assert found[0] < Fraction(1, 10) < found[1]
        assert found[1] - found[0] < 1.5e-5
        for r in found:
            assert abs(float(peval(p, Fraction(r)))) < 1e-9


def _factor_product(rng: random.Random, degree: int) -> Poly:
    """An integer polynomial of the given degree: a product of linear
    factors (dyadic roots among them), quadratics with random integer
    coefficients, and repeats of factors already drawn."""
    factors = []
    left = degree
    while left:
        kind = rng.random()
        repeatable = [g for g in factors if g.degree <= left]
        if repeatable and kind < 0.15:
            f = rng.choice(repeatable)
        elif kind < 0.3:
            f = poly((-rng.randrange(1, 40, 2), 2 ** rng.randint(0, 5)))
        elif kind < 0.6 or left == 1:
            f = poly((rng.randint(-20, 20) or 1, rng.randint(1, 9)))
        else:
            f = poly((rng.randint(-30, 30), rng.randint(-20, 20), 1))
        factors.append(f)
        left -= f.degree
    p = poly((1,))
    for f in factors:
        p = pmul(p, f)
    return p


def test_roots_match_sympy_on_seeded_products():
    pytest.importorskip("sympy")
    rng = random.Random("positive-roots-vs-sympy")
    for degree in range(1, 25):
        for _ in range(2):
            p = _factor_product(rng, degree)
            assert p.degree == degree
            assert_roots_match_sympy(p, positive_roots(p))


def test_a_root_isolated_under_a_huge_bound_is_refined():
    """10^-400 a^2 + 2a - 1: the root bound is near 2^1330, far past the
    largest float, yet the root near 1/2 rounds correctly."""
    (root,) = positive_roots(poly((-1, 2, Fraction(1, 10**400))))
    assert root == 0.5


def test_a_root_past_the_float_range_is_refused():
    """a^2 - 2 * 10^800 has the irrational root 2^(1/2) * 10^400, which has
    no float; the rational root 10^400 of a^2 - 10^800 is exact."""
    from admcdm.errors import InvalidProblem

    with pytest.raises(InvalidProblem, match="float range"):
        positive_roots(poly((-2 * 10**800, 0, 1)))
    assert positive_roots(poly((-10**800, 0, 1))) == [Fraction(10**400)]
    # the largest float itself is a root that has its float
    big = int(1.7976931348623157e308)
    assert positive_roots(pmul(poly((-big, 1)), poly((1, 0, 1)))) == [big]


def test_a_root_below_the_float_range_is_refused():
    """10^800 a^2 - 2 has the irrational root 2^(1/2) * 10^-400, which
    rounds to 0.0; 0 is never a positive root, so it is refused as a root
    past the largest float is. The rational root 10^-400 of 10^800 a^2 - 1
    is exact, and a subnormal irrational root keeps its float."""
    from admcdm.errors import InvalidProblem

    with pytest.raises(InvalidProblem, match="float range"):
        positive_roots(poly((-2, 0, 10**800)))
    assert positive_roots(poly((-1, 0, 10**800))) == [Fraction(1, 10**400)]
    (root,) = positive_roots(poly((-2, 0, 10**640)))
    assert 0 < root and abs(root - math.sqrt(2) * 1e-320) <= 5e-324


class TestSquareFreeCertificate:
    """The gcd modulo the prime 2^61 - 1 proves most polynomials square-free
    before Yun's split; whatever it cannot prove goes through Yun's integer
    gcd, with the same result."""

    def yun_calls(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(a)
            return gcd_(a, b)

        gcd_ = polynomial._gcd
        monkeypatch.setattr(polynomial, "_gcd", counted)
        return calls

    def test_square_free_polynomial_is_proved_without_yun(self, monkeypatch):
        calls = self.yun_calls(monkeypatch)
        a = [-2, 0, 0, 1]  # x^3 - 2
        assert polynomial._square_free_factors(a) == [(1, a)]
        assert calls == []

    @pytest.mark.parametrize("a", [
        [-polynomial._P, 0, 1],  # x^2 modulo p, square-free over Q
        [-1, 0, polynomial._P],  # p divides the leading coefficient
    ], ids=["x2-p", "px2-1"])
    def test_what_the_certificate_cannot_prove_reaches_yun(self, monkeypatch,
                                                           a):
        calls = self.yun_calls(monkeypatch)
        assert not polynomial._square_free_mod_p(a)
        assert polynomial._square_free_factors(a) == [(1, a)]
        assert calls

    def test_repeated_roots_are_split(self):
        # (x - 1)^2 (x - 2) and (x^2 - 2)^2 (x - 3)
        assert polynomial._square_free_factors([-2, 5, -4, 1]) == [
            (1, [-2, 1]), (2, [-1, 1])]
        assert polynomial._square_free_factors([-12, 4, 12, -4, -3, 1]) == [
            (1, [-3, 1]), (2, [-2, 0, 1])]


def _bisected(a, lo, hi, q):
    """The reference for _refine, without the float guess: bisection at
    dyadic points until the interval is no wider than 1 / lead(a), one
    exact test of the one point y / lead(a) in it, then bisection until
    both ends round to the same float."""
    from admcdm.errors import InvalidProblem

    lead, rational = abs(a[-1]), True
    h = polynomial._homogeneous
    s = h(a, hi, q) or -h(polynomial._derivative(a), hi, q)
    while rational or lo / q != hi / q:
        if rational and (hi - lo) * lead <= q:
            y = lo * lead // q + 1
            if y * q < hi * lead and h(a, y, lead) == 0:
                return Fraction(y, lead)
            rational, top = False, q * int(float_info.max)
            if hi > top:
                if lo >= top or (h(a, top, q) > 0) != (s > 0):
                    raise InvalidProblem("a root lies outside the float range")
                hi = top
            continue
        if hi - lo == 1:
            lo, hi, q = 2 * lo, 2 * hi, 2 * q
        mid = (lo + hi) >> 1
        v = h(a, mid, q)
        if v == 0:
            return Fraction(mid, q)
        if (v > 0) == (s > 0):
            hi = mid
        else:
            lo = mid
    if hi / q == 0:
        raise InvalidProblem("a root lies outside the float range")
    return lo / q


def _outcome(refine, a, interval, *guess):
    """refine's root, or the type of the engine error it raised."""
    from admcdm.errors import EngineError

    try:
        root = refine(a, *interval, *guess)
    except EngineError as exc:
        return type(exc)
    return type(root), root


def _sympy_rational_roots(a) -> list:
    """The positive rational roots of the integer polynomial a, ascending,
    as sympy finds them."""
    sympy = pytest.importorskip("sympy")
    roots = sympy.Poly(a[::-1], sympy.Symbol("x")).real_roots()
    return sorted({Fraction(int(r.p), int(r.q)) for r in roots
                   if isinstance(r, sympy.Rational) and r > 0})


def _assert_refined_as_bisected(p) -> list:
    """Every square-free factor a of p with a positive rational root has
    sympy's as _rational_roots gives them, and with those divided out, each
    isolating interval of the rest gives _refine's outcome, from _guess,
    equal to the reference's, in value and type. Returns the float guess
    at each interval, None where there is none."""
    cs = integer_row(p.coeffs)[0]
    while cs[0] == 0:
        cs.pop(0)
    guesses = []
    for _, a in polynomial._square_free_factors(polynomial._primitive(cs)):
        if len(a) < 3:
            continue
        rational = polynomial._rational_roots(a)
        g = a
        for r in rational:
            g = polynomial._divmod(g, [-r.numerator, r.denominator])[0]
        # a rational root missed would reach _bisected, which finds it
        assert not rational or rational == _sympy_rational_roots(a), a
        for interval in polynomial._isolate(g):
            x = polynomial._guess(g, *interval)
            assert (_outcome(polynomial._refine, g, interval, x)
                    == _outcome(_bisected, g, interval)), (g, interval)
            guesses.append(x)
    return guesses


class TestCheckedFloat:
    """_refine takes a float guess that exact signs confirm; its outcome
    is the bisection reference's in every case. Rational roots never reach
    it: _rational_roots finds them first."""

    def test_benchmark_and_dense_equations(self):
        from admcdm import solver
        from admcdm.errors import EngineError
        from admcdm.parser import parse_problem

        from conftest import dense
        from test_engine_golden import _workloads

        workloads = _workloads()
        problems = [parse_problem(case.text) for name in ("linear", "pairwise")
                    for case in getattr(workloads, name)(1)]
        problems += [dense(n, seed) for n in range(4, 33, 4)
                     for seed in range(2)]
        guesses = []
        for problem in problems:
            try:
                cs = solver._equation(solver.parameterize(problem))
            except EngineError:
                continue
            guesses += _assert_refined_as_bisected(poly(cs))
        # 317 irrational roots; the 268 rational ones are _rational_roots'
        assert len(guesses) >= 300
        assert sum(g is not None for g in guesses) >= 0.9 * len(guesses)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_roots_next_to_a_power_of_two(self, d):
        """x^d - r for x just above and just below 2^k: the float brackets
        of 2^k are uneven, a quarter ulp below and a half above."""
        guesses = []
        for k in (-150, -40, -1, 0, 1, 17, 60, 150):
            for delta in (-1, 1):
                for bits in (20, 60, 120):
                    s = 1 << bits
                    num, den = (s << (k * d), s) if k >= 0 else (
                        s, s << (-k * d))
                    guesses += _assert_refined_as_bisected(
                        poly([-(num + delta)] + [0] * (d - 1) + [den]))
        assert len(guesses) == 48
        assert sum(g is not None for g in guesses) >= 40

    def test_a_rational_root_at_a_bracket_midpoint(self):
        """(2^53 x - (2^53 + 1))(x - 3): the root 1 + 2^-53 has no float;
        it is the midpoint between the float 1.0 and its upper neighbour,
        and _rational_roots returns it exactly, so nothing is refined."""
        s = 1 << 53
        ints = [3 * (s + 1), -(4 * s + 1), s]
        assert polynomial.integer_positive_roots(ints) == [
            Fraction(s + 1, s), 3]
        assert polynomial._rational_roots(ints) == [Fraction(s + 1, s), 3]
        assert _assert_refined_as_bisected(poly(ints)) == []

    @pytest.mark.parametrize("lead", [(1 << 60) + 1, 3 ** 40, 10 ** 30])
    def test_rational_roots_with_a_lead_past_the_float_precision(self, lead):
        """(lead x - y)(x^2 - 2): the float bracket of the rational root
        y / lead is wider than 1 / lead, so no float check could decide it;
        _rational_roots finds it exactly, and only 2^(1/2) is refined."""
        for num, den in ((3, 5), (11, 10), (9, 5)):
            y = num * lead // den
            while math.gcd(y, lead) != 1:
                y += 1
            p = pmul(poly((-y, lead)), poly((-2, 0, 1)))
            guesses = _assert_refined_as_bisected(p)
            assert len(guesses) == 1 and None not in guesses
            assert Fraction(y, lead) in positive_roots(p)

    def test_roots_near_the_largest_float(self):
        """x^2 - c x - 1 has a root just above c: Newton's method overflows
        there and makes no guess; a root past the largest float raises
        InvalidProblem."""
        from admcdm.errors import InvalidProblem

        big = int(float_info.max)
        ulp = int(math.ulp(float_info.max))
        for c in (big // 3, big - 3 * ulp, big - ulp, big, big + ulp // 4):
            assert _assert_refined_as_bisected(poly((-1, -c, 1))) == [None]
        with pytest.raises(InvalidProblem, match="float range"):
            positive_roots(poly((-1, -big, 1)))

    def test_any_guess_gives_the_reference_outcome(self):
        """The exact check alone decides: with guesses that are wrong by
        one or two floats, outside the interval, 0.0's neighbour or the
        largest float, _refine's outcome is still the reference's."""
        big = int(float_info.max)
        ulp = int(math.ulp(float_info.max))
        cases = [([-2, 0, 1], (1, 2, 1)), ([-3, 0, 2], (0, 2, 1)),
                 ([-1, -1, 1], (1, 2, 1)),
                 ([-1, -(big - ulp), 1], (big - 2 * ulp, big, 1)),
                 ([-1, -(big - 2 * ulp), 1], (big - 3 * ulp, big, 1)),
                 ([-1, -big, 1], (big - ulp, 2 * big, 1)),
                 ([-(1 << 80) - 1, 0, 1 << 2230], (0, 1, 1 << 1070)),
                 ([-(1 << 80) + 1, 0, 1 << 2230], (0, 1, 1 << 1070))]
        for a, interval in cases:
            want = _outcome(_bisected, a, interval)
            root = want[1] if isinstance(want, tuple) else None
            near = [None, 5e-324, float_info.max,
                    math.nextafter(float_info.max, 0), 1.0, 1.5, 0.5]
            if isinstance(root, float):
                down, up = math.nextafter(root, 0), math.nextafter(root, 2)
                near += [root, down, up, math.nextafter(down, 0),
                         math.nextafter(up, 2)]
            for x in near:
                assert _outcome(polynomial._refine, a, interval, x) == want, (
                    a, interval, x)
        # Newton's first step from 1, where x^3 - 3 x - 1 has a' = 0
        assert polynomial._guess([-1, -3, 0, 1], 0, 2, 1) is None

    def test_an_end_without_a_float_skips_the_guess(self):
        """Float coefficients, yet the root bound 2^1024 of x^2 - c x - 1,
        c near half the largest float, has no float: the guess is skipped,
        not an OverflowError raised (error-min on the tiny-square input of
        test_cli.TestHugeValues reaches an interval of such a bound)."""
        c = int(float_info.max) // 2
        a = [-1, -c, 1]
        ((_, hi, q),) = polynomial._isolate(a)
        with pytest.raises(OverflowError):
            hi / q
        assert _assert_refined_as_bisected(poly(a)) == [None]
        (root,) = positive_roots(poly(a))
        assert root == float(c)

    def test_roots_that_round_to_zero_are_refused(self):
        """Roots near half the least subnormal, 2^-1075: just above it,
        they round to it; just below, to 0.0, and InvalidProblem is
        raised."""
        from admcdm.errors import InvalidProblem

        s = 1 << 80
        for delta in (-1, 1):
            p = poly((-(s + delta), 0, s << 2150))
            assert _assert_refined_as_bisected(p) == [None]
        assert positive_roots(poly((-(s + 1), 0, s << 2150))) == [5e-324]
        with pytest.raises(InvalidProblem, match="float range"):
            positive_roots(poly((-(s - 1), 0, s << 2150)))

    def test_coefficients_past_the_float_range(self):
        """(10^400 + k) x^2 - 2 * 10^400, its reverse and a cubic: no
        guess is made where a coefficient has no float."""
        big = 10 ** 400
        for k in (1, 7, 10 ** 399 + 3):
            for a in ([-2 * big, 0, big + k], [-(big + k), 0, 2 * big],
                      [-1, 3, -big, big + k]):
                guesses = _assert_refined_as_bisected(poly(a))
                assert guesses and set(guesses) == {None}

    def test_seeded_products(self):
        rng = random.Random("checked-float")
        guesses = []
        for degree in range(2, 21):
            for _ in range(4):
                guesses += _assert_refined_as_bisected(
                    _factor_product(rng, degree))
        assert len(guesses) >= 100


def _reference_roots(ints) -> list:
    """The root of a polynomial with one sign change, and so one positive
    root (Descartes), as the bisection reference _bisected finds it below
    the root bound 2^e, with no shape test, no guess and no isolation; an
    engine error is returned as its type."""
    from admcdm.errors import EngineError

    assert polynomial._sign_changes(ints) == 1
    e = polynomial._root_bound_exponent(ints)
    try:
        return [_bisected(ints, 0, 1 << max(e, 0), 1 << max(-e, 0))]
    except EngineError as exc:
        return type(exc)


def _found(ints):
    from admcdm.errors import EngineError

    try:
        return polynomial.integer_positive_roots(ints)
    except EngineError as exc:
        return type(exc)


def _typed(roots):
    return roots if isinstance(roots, type) else [(type(r), r) for r in roots]


def _seeded_binomials(rng):
    """den * x^d - num: perfect powers, random ratios, ratios past the float
    range both ways, and the subnormal cases of TestCheckedFloat."""
    s = 1 << 80
    out = [[-(s + 1), 0, s << 2150], [-(s - 1), 0, s << 2150],
           [-(s + 1), 0, 0, s << 3225], [-1, 0, 1 << 2149]]
    for _ in range(150):
        d = rng.choice([1, 2, 3, 4, 5, 7, 12, 24])
        kind = rng.random()
        if kind < 0.3:  # perfect powers, sometimes times 2 or 3
            num = rng.randint(1, 60) ** d * rng.choice([1, 1, 2, 3])
            den = rng.randint(1, 60) ** d
        elif kind < 0.6:
            num = rng.randint(1, 10 ** rng.randint(1, 30))
            den = rng.randint(1, 10 ** rng.randint(1, 30))
        else:  # the root is past the float range, or near it
            num = rng.randint(1, 9) * 10 ** rng.randint(300, 700)
            den = rng.randint(1, 9) ** rng.choice([1, d])
            if rng.random() < 0.5:
                num, den = den, num
        out.append([-num] + [0] * (d - 1) + [den])
    return out


class TestShapes:
    """Binomials and polynomials with one sign change skip Yun's split and
    isolation; their roots are the general path's, in value and type."""

    def test_binomials_match_the_general_path(self):
        rng = random.Random("binomials")
        types = set()
        for ints in _seeded_binomials(rng):
            want = _reference_roots(ints)
            assert _typed(_found(ints)) == _typed(want), ints
            types |= {want} if isinstance(want, type) else set(map(type, want))
        from admcdm.errors import InvalidProblem

        assert types == {Fraction, float, InvalidProblem}

    def test_any_binomial_guess_gives_the_reference_outcome(self,
                                                            monkeypatch):
        """The exact bracket alone decides: a guess off by floats, far
        off, missing or at the ends of the float range changes nothing."""
        rng = random.Random("binomial-guesses")
        cases = [[-2, 0, 1], [-3, 0, 0, 1 << 60], [-(10 ** 40 + 1), 0, 7],
                 [-5, 0, 0, 0, 0, 0, 0, 11], [-((1 << 80) + 1), 0, 1 << 2230]]
        for ints in cases:
            want = _typed(_reference_roots(ints))
            guess = polynomial._binomial_guess(-ints[0], ints[-1],
                                               len(ints) - 1)
            near = [None, 0.0, 5e-324, float_info.max, 1.0, 1e300]
            x = guess or 1.0
            for _ in range(3):
                x = math.nextafter(x, math.inf)
            near += [x, -x, math.nextafter(guess or 1.0, 0),
                     (guess or 1.0) * (1 + rng.random() / 100)]
            for y in near:
                monkeypatch.setattr(polynomial, "_binomial_guess",
                                    lambda *_: y)
                assert _typed(_found(ints)) == want, (ints, y)

    def test_binomial_guesses_are_within_two_ulps(self):
        """The float guess is within the neighbours that Ziv's check walks
        to, so a normal-range root takes no bisection step."""
        rng = random.Random("guess-quality")
        for _ in range(300):
            d = rng.randint(2, 40)
            num, den = rng.randint(2, 10 ** 18), rng.randint(2, 10 ** 18)
            (root,) = polynomial.integer_positive_roots(
                [-num] + [0] * (d - 1) + [den])
            if isinstance(root, float):
                guess = polynomial._binomial_guess(num, den, d)
                assert abs(guess - root) <= 2 * math.ulp(root)

    def test_integer_roots(self):
        rng = random.Random("iroot")
        for _ in range(300):
            d = rng.randint(1, 60)
            n = rng.randint(1, 1 << rng.randint(1, 3000))
            r = polynomial._iroot(n, d)
            assert r ** d <= n < (r + 1) ** d, (n, d)
            assert polynomial._iroot(r ** d, d) == r
        assert polynomial._iroot(10 ** 800, 2) == 10 ** 400
        assert polynomial._iroot((10 ** 40 + 1) ** 7 - 1, 7) == 10 ** 40

    def test_one_sign_change_skips_the_split_and_isolation(self,
                                                           monkeypatch):
        def refused(*_):
            raise AssertionError("general path taken")

        monkeypatch.setattr(polynomial, "_square_free_factors", refused)
        monkeypatch.setattr(polynomial, "_isolate", refused)
        assert polynomial.integer_positive_roots(
            [-1, 4] + [0] * 1998 + [2 * 3 ** 2000]) == [0.25]
        assert polynomial.integer_positive_roots([-2] + [0] * 2999 + [1, 1]
                                                 ) == [1]
        assert polynomial.integer_positive_roots([0, 0, -9, 0, 1]) == [3]
        assert polynomial.integer_positive_roots([5, 0, 2, 1]) == []

    def test_sparse_one_sign_change_is_correctly_rounded(self):
        """sum c_k z^d_k = c_0, degrees up to 3,000: the one positive root
        against mpmath at 50 digits, or exact where it is 1, 2 or 1/2."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random("one-sign-change")
        for trial in range(24):
            top = rng.choice([3, 40, 500, 3000])
            degrees = sorted(rng.sample(range(1, top), min(top - 1, 3)))
            degrees.append(top)
            coeffs = {k: rng.randint(1, 10 ** rng.randint(1, 40))
                      for k in degrees}
            planted = (None, Fraction(1), Fraction(2), Fraction(1, 2))[
                trial % 4]
            if planted is None:
                const = rng.randint(1, 10 ** rng.randint(1, 40))
            else:  # scale so that the planted root is a root
                scale = planted.denominator ** top
                coeffs = {k: c * scale for k, c in coeffs.items()}
                const = sum(c * planted ** k for k, c in coeffs.items())
                assert const.denominator == 1
                const = int(const)
            ints = [-const] + [0] * top
            for k, c in coeffs.items():
                ints[k] = c
            (root,) = polynomial.integer_positive_roots(ints)
            if planted is not None:
                assert root == planted and isinstance(root, Fraction)
                continue
            with mpmath.workdps(50):
                def f(z):
                    return sum(c * z ** k for k, c in coeffs.items()) - const

                lo, hi = mpmath.mpf(0), mpmath.mpf(2) ** 20
                while f(hi) < 0:
                    hi *= 2
                for _ in range(400):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
                want = float(lo)
            assert isinstance(root, float) and root == want, (trial, root)

    def test_a_root_far_below_its_root_bound(self, monkeypatch):
        """2^-2968 z^2001 + 2^10 z^2000 + z = 1, cleared: a coefficient
        has no float, so there is no guess, and the root bound is 2^2969
        while the root is near 0.994. The bisection splits at geometric
        means down to the root's binade: a few dozen exact signs, not
        thousands at numbers of millions of bits."""
        mpmath = pytest.importorskip("mpmath")
        ints = [-(1 << 2999), 1 << 2999] + [0] * 1998 + [1 << 3009, 1 << 31]
        signs = []
        homogeneous = polynomial._homogeneous
        monkeypatch.setattr(polynomial, "_homogeneous",
                            lambda *args: signs.append(1) or homogeneous(*args))
        (root,) = polynomial.integer_positive_roots(ints)
        assert len(signs) < 200
        with mpmath.workdps(50):
            f = mpmath.mpf(2) ** -2968, mpmath.mpf(2) ** 10
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            for _ in range(200):
                mid = (lo + hi) / 2
                if f[0] * mid ** 2001 + f[1] * mid ** 2000 + mid < 1:
                    lo = mid
                else:
                    hi = mid
            assert root == float(lo)

    def test_the_prime_check_never_rules_out_a_rational_root(self,
                                                              monkeypatch):
        """(l x - y) g(x), with l of up to 3,000 bits and g's roots from the
        divisors of g(0) and lead(g): _rational_roots finds y / l and every
        positive rational root of g, and nothing else. A squared factor
        leaves a repeated root modulo every prime, so Yun's split finds
        it."""
        def expanded(f, g):
            return [c for c in pmul(poly(f), poly(g)).coeffs]

        def positive_rational_roots(g):
            divisors = [[k for k in range(1, abs(c) + 1) if c % k == 0]
                        for c in (g[0], g[-1])]
            return {Fraction(u, v) for u in divisors[0] for v in divisors[1]
                    if polynomial._homogeneous(g, u, v) == 0}

        splits = []
        split = polynomial._square_free_factors
        monkeypatch.setattr(polynomial, "_square_free_factors",
                            lambda a: splits.append(a) or split(a))
        rng = random.Random("primes")
        for trial in range(200):
            g = [rng.choice((-1, 1)) * rng.randint(1, 50)]
            g += [rng.randint(-50, 50) for _ in range(rng.randint(0, 7))]
            g.append(rng.randint(1, 50))
            lead = rng.getrandbits(rng.choice([8, 300, 3000])) | 1
            y = rng.randint(1, 10 ** rng.randint(1, 40))
            while math.gcd(y, lead) != 1:
                y += 1
            a = expanded([-y, lead], g)
            if trial % 10 == 0:
                a = expanded([-y, lead], a)
            want = sorted({Fraction(y, lead)} | positive_rational_roots(g))
            assert polynomial._rational_roots(a) == want, (g, y, lead)
        assert len(splits) >= 20
        # x^2 - 2 has no root modulo 3; 2 * 3^2000 x^2000 + 4 x - 1 has
        # the simple root 1 modulo 5, whose lift reads off no root; and
        # 2 * 3^1999 z^2000 + z - 1 has the root 1/3
        assert polynomial._rational_roots([-2, 0, 1]) == []
        assert polynomial._rational_roots([-1, 4] + [0] * 1998
                                          + [2 * 3 ** 2000]) == []
        assert polynomial._rational_roots([-1, 1] + [0] * 1998
                                          + [2 * 3 ** 1999]) == [
            Fraction(1, 3)]
