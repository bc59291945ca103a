"""Pairwise comparison baseline: matrix construction, the exact eigenpair,
and agreement with the discounting pipeline on consistent input."""

import math
import random
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

import admcdm
from admcdm.ahp import AhpMatrix, ahp_priority, build_ahp_matrix
from admcdm.errors import ConflictingPair, MissingPair, NotPairwise
from admcdm.parser import parse_problem
from admcdm.solver import priority

from conftest import load

RNG = random.Random(0xABCD)

SAATY = [Fraction(k) for k in range(1, 10)] + [
    Fraction(1, k) for k in range(2, 10)]


def random_reciprocal(n, rng):
    cells = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(SAATY)
            cells[i][j] = v
            cells[j][i] = 1 / v
    return AhpMatrix(tuple(tuple(row) for row in cells))


def consistent_matrix(weights):
    n = len(weights)
    return AhpMatrix(tuple(
        tuple(weights[i] / weights[j] for j in range(n)) for i in range(n)))


def numpy_principal(m):
    a = np.array([[float(e) for e in row] for row in m.entries])
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    v = np.abs(vecs[:, k].real)
    return lam, v / v.sum()


class TestMatrixConstruction:
    def test_complete_ratio_chain(self):
        m = build_ahp_matrix(load("ex1.admp"))
        assert m.entries == (
            (Fraction(1), Fraction(4), Fraction(12)),
            (Fraction(1, 4), Fraction(1), Fraction(3)),
            (Fraction(1, 12), Fraction(1, 3), Fraction(1)),
        )

    def test_multi_term_statement_has_no_cell(self):
        with pytest.raises(NotPairwise):
            build_ahp_matrix(load("ex2.admp"))

    def test_product_statement_has_no_cell(self):
        with pytest.raises(NotPairwise):
            build_ahp_matrix(load("ex15.admp"))

    def test_inequality_has_no_cell(self):
        pr = parse_problem("criteria: x y\npref: x = 2 y\npref: x > y\n")
        with pytest.raises(NotPairwise):
            build_ahp_matrix(pr)

    def test_conflicting_restatement(self):
        pr = parse_problem("criteria: x y\npref: x = 2 y\npref: y = 1 x\n")
        with pytest.raises(ConflictingPair):
            build_ahp_matrix(pr)

    def test_compatible_restatement_is_accepted(self):
        pr = parse_problem("criteria: x y\npref: x = 2 y\npref: y = 1/2 x\n")
        m = build_ahp_matrix(pr)
        assert m.entries[0][1] == 2

    def test_uncompared_pair(self):
        pr = parse_problem("criteria: x y z\npref: x = 2 y\n")
        with pytest.raises(MissingPair):
            build_ahp_matrix(pr)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            AhpMatrix(((Fraction(2), Fraction(2)),
                       (Fraction(1, 2), Fraction(1))))  # bad diagonal
        with pytest.raises(ValueError):
            AhpMatrix(((Fraction(1), Fraction(2)),
                       (Fraction(2), Fraction(1))))  # not reciprocal
        with pytest.raises(ValueError):
            AhpMatrix(((Fraction(1),),))  # too small
        with pytest.raises(ValueError, match="square"):
            AhpMatrix(((1, 2), (Fraction(1, 2),)))
        with pytest.raises(ValueError, match="positive"):
            AhpMatrix(((1, -2), (Fraction(-1, 2), 1)))

    def test_reciprocity_is_exact_in_the_binary_values(self):
        # the float 1/3 times 3 is not 1, however close
        with pytest.raises(ValueError, match="reciprocal"):
            AhpMatrix(((1.0, 1 / 3), (3.0, 1.0)))
        m = AhpMatrix(((1.0, 0.5), (2.0, 1.0)))
        assert ahp_priority(m).vector == (1 / 3, 2 / 3)


class TestEigenpair:
    def test_matches_numpy_on_random_matrices(self):
        for _ in range(30):
            n = RNG.randrange(2, 6)
            m = random_reciprocal(n, RNG)
            res = ahp_priority(m)
            lam, vec = numpy_principal(m)
            assert abs(res.lambda_max - lam) <= 1e-12 * lam
            assert max(abs(a - b) for a, b in zip(res.vector, vec)) <= 1e-12

    def test_dominant_eigenvalue_never_below_n(self):
        for _ in range(30):
            n = RNG.randrange(2, 6)
            res = ahp_priority(random_reciprocal(n, RNG))
            assert res.lambda_max >= n

    def test_eigen_residual_is_small(self):
        for _ in range(20):
            n = RNG.randrange(2, 6)
            m = random_reciprocal(n, RNG)
            res = ahp_priority(m)
            a = [[float(e) for e in row] for row in m.entries]
            norm = max(sum(abs(x) for x in row) for row in a)
            for i in range(n):
                av = sum(a[i][j] * res.vector[j] for j in range(n))
                assert abs(av - res.lambda_max * res.vector[i]) <= 1e-12 * norm


class TestConsistentCase:
    def test_lambda_sits_at_n_and_ci_vanishes(self):
        for _ in range(20):
            n = RNG.randrange(2, 6)
            w = [Fraction(RNG.randrange(1, 20), RNG.randrange(1, 8))
                 for _ in range(n)]
            res = ahp_priority(consistent_matrix(w))
            assert res.lambda_max == n
            assert res.ci == 0
            total = sum(w)
            assert res.vector == tuple(x / total for x in w)

    def test_agrees_with_discounting_on_consistent_problems(self):
        for _ in range(15):
            n = RNG.randrange(3, 5)
            names = [f"C{i + 1}" for i in range(n)]
            w = [Fraction(RNG.randrange(1, 12), RNG.randrange(1, 6))
                 for _ in range(n)]
            lines = ["criteria: " + " ".join(names)]
            for i in range(n):
                for j in range(i + 1, n):
                    r = w[i] / w[j]
                    lines.append(
                        f"pref: {names[i]} = {r.numerator}/{r.denominator} "
                        f"{names[j]}")
            pr = parse_problem("\n".join(lines) + "\n")
            pv, sol, _ = priority(pr)
            assert sol.alpha == 1
            res = ahp_priority(build_ahp_matrix(pr))
            assert max(abs(float(a) - b)
                       for a, b in zip(pv, res.vector)) <= 1e-6


class TestSquaringPath:
    """The vector of Saaty's matrix-squaring recipe on the three-ratio
    benchmark, which the exact eigenpair reproduces."""

    def test_worked_vector(self):
        res = ahp_priority(build_ahp_matrix(load("ex9.admp")))
        for got, want in zip(res.vector, (0.2797, 0.6267, 0.0936)):
            assert abs(got - want) <= 5e-4


class TestExactEigenpair:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_consistent_matrix_is_exact(self, n):
        rng = random.Random(n)
        w = [Fraction(rng.randrange(1, 20), rng.randrange(1, 8))
             for _ in range(n)]
        res = ahp_priority(consistent_matrix(w))
        assert isinstance(res.lambda_max, Fraction) and res.lambda_max == n
        assert res.ci == 0
        assert res.vector == tuple(x / sum(w) for x in w)
        assert res.iterations == 1

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_numpy_at_every_size(self, n):
        rng = random.Random(1000 + n)
        for _ in range(3):
            m = random_reciprocal(n, rng)
            res = ahp_priority(m)
            lam, vec = numpy_principal(m)
            assert abs(res.lambda_max - lam) <= 1e-12 * lam
            assert max(abs(a - b) for a, b in zip(res.vector, vec)) <= 1e-12
            assert res.ci == pytest.approx((lam - n) / (n - 1), abs=1e-12)
            assert res.iterations == 1

    def test_rational_perron_root_is_a_fraction(self):
        """ex11 and ex12 close their cycles with a rational lambda_max."""
        for name, lam in (("ex11", Fraction(91, 9)), ("ex12", Fraction(31, 5))):
            res = ahp_priority(build_ahp_matrix(load(f"{name}.admp")))
            assert res.lambda_max == lam and isinstance(res.lambda_max, Fraction)
            assert res.vector == (Fraction(1, 3),) * 3

    def test_float_entries(self):
        # dyadic floats, whose reciprocals are floats too; the cycle's
        # product 4 * 0.5 / 0.125 = 16 has no rational cube root, so
        # lambda_max = 1 + 16^(1/3) + 16^(-1/3) is irrational
        m = AhpMatrix(((1.0, 4.0, 0.125), (0.25, 1.0, 0.5), (8.0, 2.0, 1.0)))
        res = ahp_priority(m)
        lam, vec = numpy_principal(m)
        assert isinstance(res.lambda_max, float)
        assert abs(res.lambda_max - lam) <= 1e-12 * lam
        assert max(abs(a - b) for a, b in zip(res.vector, vec)) <= 1e-12

    def test_entries_far_apart(self):
        # x = 10^200 z next to ratios 3 and 2: a float elimination counts
        # no pivot below 1e-9 of the largest entry. For three criteria the
        # Perron vector is the vector of row geometric means
        huge = "1" + "0" * 200
        m = build_ahp_matrix(parse_problem(
            "criteria: x y z\npref: x = 3 y\npref: y = 2 z\n"
            f"pref: x = {huge} z\n"))
        res = ahp_priority(m)
        assert all(isinstance(v, float) and v > 0 for v in res.vector)
        logs = [sum(math.log(e) for e in row) / 3 for row in m.entries]
        for v, log in zip(res.vector, logs):
            assert math.isclose(v / res.vector[0], math.exp(log - logs[0]),
                                rel_tol=1e-12)
        assert math.isclose(res.vector[1] / res.vector[0], 1.30495588039e-67,
                            rel_tol=1e-10)

    @pytest.mark.parametrize("name", ["principal_eigen", "InvalidTolerance",
                                      "NoConvergence"])
    def test_iteration_names_are_gone(self, name):
        with pytest.raises(AttributeError):
            getattr(admcdm, name)
