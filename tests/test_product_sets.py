"""Triangular product sets from a hypothesis strategy, against oracles
that share no code with the engine: the family is checked statement by
statement, each crossing z = r^(1/d) against sympy's integer roots and
mpmath at 50 digits, and the family zero against its planted value or an
mpmath bisection at 50 digits.

Family degrees reach a few thousand and coefficients run from one digit
to thousands of bits; a planted rational zero sits beside irrational
crossings, and the planted zero of c z^2000 + z = 1 at 1/3, whose lead
has 3,170 bits, is an explicit example."""

import time
from datetime import timedelta
from fractions import Fraction

import pytest

from admcdm.error_min import minimize_error
from admcdm.errors import InvalidProblem
from admcdm.model import CriteriaSet, MonomialPreference, Problem
from admcdm.nonlinear import regime_analysis, solve_triangular

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

# the engine's work on one case, in seconds; the oracles come on top
BUDGET = 2.0
DEGREES = (1, 2, 3, 5, 40, 400, 1000, 2000)
PLANTED = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(3, 4))


@st.composite
def product_sets(draw):
    """(statements, planted): x_k = coefficient * the product of x_j**p
    over later criteria j, the last criterion z free, as (k, coefficient,
    ((j, p), ...)); planted is the rational zero of the family's simplex
    polynomial, or None. A planted zero fixes each component's value
    there to a drawn share of 1 - z and each coefficient from it; without
    one, each coefficient is a random fraction of 2 to 3,000 bits, and a
    power keeps a component's coefficient near 6,000 bits at most."""
    n = draw(st.integers(2, 4))
    planted = draw(st.sampled_from((None,) + PLANTED))
    degree = [0] * (n - 1) + [1]
    value = [None] * (n - 1) + [Fraction(1)]  # component coefficients
    shares = [draw(st.integers(1, 9)) for _ in range(n - 1)]
    statements = []
    for k in reversed(range(n - 1)):
        later = draw(st.lists(st.integers(k + 1, n - 1), min_size=1,
                              max_size=2, unique=True))
        factors = []
        for j in later:
            room = 3000 // (degree[k] + degree[j])
            bits = max(value[j].numerator.bit_length(),
                       value[j].denominator.bit_length())
            p = draw(st.sampled_from([d for d in DEGREES if d <= room
                                      and d * bits <= 6000] or [1]))
            factors.append((j, p))
            degree[k] += degree[j] * p
        if planted is None:
            bits = [draw(st.sampled_from((2, 4, 30, 300, 3000)))
                    for _ in range(2)]
            c = Fraction(draw(st.integers(1, 2 ** bits[0])),
                         draw(st.integers(1, 2 ** bits[1])))
        else:
            share = (1 - planted) * shares[k] / sum(shares)
            target = share / planted ** degree[k]
            product = 1
            for j, p in factors:
                product *= value[j] ** p
            c = target / product
        value[k] = c
        for j, p in factors:
            value[k] *= value[j] ** p
        statements.append((k, c, tuple(factors)))
    return statements, planted


def problem_of(statements) -> Problem:
    n = max(j for _, _, factors in statements for j, _ in factors) + 1
    return Problem(CriteriaSet(tuple(f"c{k}" for k in range(n))), tuple(
        MonomialPreference(k, c, factors) for k, c, factors in statements))


def outcome(stage, arg):
    """stage(arg), or the InvalidProblem it raised for a value without a
    float."""
    try:
        return stage(arg)
    except InvalidProblem as exc:
        return exc


def check(statements, planted):
    problem = problem_of(statements)
    start = time.perf_counter()
    family = solve_triangular(problem)
    report = outcome(regime_analysis, family)
    result = outcome(minimize_error, problem)
    assert time.perf_counter() - start < BUDGET

    # the family meets every statement exactly
    components = family.components
    assert components[-1] == (1, 1)
    for k, c, factors in statements:
        coefficient, degree = c, 0
        for j, p in factors:
            coefficient *= components[j][0] ** p
            degree += components[j][1] * p
        assert components[k] == (coefficient, degree)

    # each crossing exact when rational, correctly rounded otherwise
    want = set()
    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            (ca, da), (cb, db) = components[a], components[b]
            if da == db:
                continue
            if da < db:
                (ca, da), (cb, db) = (cb, db), (ca, da)
            r, d = Fraction(cb) / ca, da - db
            num, num_exact = sympy.integer_nthroot(r.numerator, d)
            den, den_exact = sympy.integer_nthroot(r.denominator, d)
            if num_exact and den_exact:
                want.add((Fraction, Fraction(int(num), int(den))))
                continue
            with mpmath.workdps(50):
                root = mpmath.root(mpmath.mpf(r.numerator)
                                   / r.denominator, d)
                want.add((float, float(root)))
    if isinstance(report, InvalidProblem):
        assert any(x in (0.0, float("inf")) for _, x in want)
    else:
        assert {(type(x), x) for x in report.breakpoints} == want

    # the zero: exactly the planted one, else correctly rounded weights
    if planted is not None:
        assert result.value == 0 and result.evaluations == 0
        assert result.argmin == tuple(c * planted ** d
                                      for c, d in components)
        return
    with mpmath.workdps(50):
        def excess(z):
            return sum(mpmath.mpf(c.numerator) / c.denominator * z ** d
                       for c, d in components) - 1

        lo = hi = mpmath.mpf(1)
        while excess(lo) > 0:  # the zero may lie far below 1
            lo, hi = lo / 2, lo
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
        weights = [mpmath.mpf(c.numerator) / c.denominator * lo ** d
                   for c, d in components]
        rounded = tuple(float(w) for w in weights)
    if isinstance(result, InvalidProblem):  # a weight below the floats
        assert 0.0 in rounded
        return
    assert result.value == 0
    if all(isinstance(x, Fraction) for x in result.argmin):
        # a rational zero nobody planted: exact, and a zero
        assert sum(result.argmin) == 1
        return
    assert result.argmin == rounded


# 2 * 3^1999 z^2000 + z = 1, whose zero 1/3 sits under a 3,170-bit lead
THOUSANDS_OF_BITS = ([(0, Fraction(2 * 3 ** 1999), ((1, 2000),))],
                     Fraction(1, 3))


@hypothesis.settings(max_examples=40, derandomize=True, database=None,
                     deadline=timedelta(seconds=5))
@hypothesis.example(THOUSANDS_OF_BITS)
@hypothesis.given(product_sets())
def test_triangular_product_sets(case):
    check(*case)
