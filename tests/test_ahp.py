"""Pairwise comparison baseline: matrix construction, eigenpair extraction,
and agreement with the discounting pipeline on consistent input."""

import random
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from admcdm.ahp import (
    AhpMatrix,
    ahp_priority,
    build_ahp_matrix,
    principal_eigen,
)
from admcdm.errors import (
    ConflictingPair,
    EngineError,
    InvalidTolerance,
    MissingPair,
    NoConvergence,
    NotPairwise,
)
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


class TestEigenpair:
    def test_matches_numpy_on_random_matrices(self):
        for _ in range(30):
            n = RNG.randrange(2, 6)
            m = random_reciprocal(n, RNG)
            res = principal_eigen(m)
            lam, vec = numpy_principal(m)
            assert abs(res.lambda_max - lam) <= 1e-6 * max(1.0, lam)
            assert max(abs(a - b) for a, b in zip(res.vector, vec)) <= 1e-6

    def test_dominant_eigenvalue_never_below_n(self):
        for _ in range(30):
            n = RNG.randrange(2, 6)
            res = principal_eigen(random_reciprocal(n, RNG))
            assert res.lambda_max >= n - 1e-9

    def test_eigen_residual_is_small(self):
        for _ in range(20):
            n = RNG.randrange(2, 6)
            m = random_reciprocal(n, RNG)
            res = ahp_priority(m)
            a = [[float(e) for e in row] for row in m.entries]
            norm = max(sum(abs(x) for x in row) for row in a)
            for i in range(n):
                av = sum(a[i][j] * res.vector[j] for j in range(n))
                assert abs(av - res.lambda_max * res.vector[i]) <= 1e-8 * norm

    def test_no_convergence_when_starved_of_iterations(self):
        m = build_ahp_matrix(load("ex9.admp"))
        with pytest.raises(NoConvergence):
            principal_eigen(m, max_iter=1)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")],
                             ids=["negative", "zero", "nan", "inf"])
    @pytest.mark.parametrize("solve", [principal_eigen, ahp_priority],
                             ids=["principal_eigen", "ahp_priority"])
    def test_bad_tolerance_is_refused_up_front(self, solve, tol):
        """Not a power-iteration budget spent and then NoConvergence."""
        m = build_ahp_matrix(load("ex9.admp"))
        with pytest.raises(InvalidTolerance, match="tol") as exc:
            solve(m, tol=tol)
        assert isinstance(exc.value, EngineError)

    def test_looser_tolerance_converges_faster(self):
        m = build_ahp_matrix(load("ex9.admp"))
        quick = principal_eigen(m, tol=1e-3)
        slow = principal_eigen(m, tol=1e-12)
        assert quick.iterations < slow.iterations


class TestConsistentCase:
    def test_lambda_sits_at_n_and_ci_vanishes(self):
        for _ in range(20):
            n = RNG.randrange(2, 6)
            w = [Fraction(RNG.randrange(1, 20), RNG.randrange(1, 8))
                 for _ in range(n)]
            res = ahp_priority(consistent_matrix(w))
            assert abs(res.lambda_max - n) <= 1e-8 * n
            assert res.ci <= 1e-8
            total = sum(w)
            want = [float(x / total) for x in w]
            assert max(abs(a - b)
                       for a, b in zip(res.vector, want)) <= 1e-8

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
    def test_inconsistent_matrix_takes_the_squaring_route(self):
        m = build_ahp_matrix(load("ex9.admp"))
        res = ahp_priority(m)
        lam, vec = numpy_principal(m)
        assert lam > m.n + 1e-3  # genuinely inconsistent input
        assert abs(res.lambda_max - lam) <= 1e-6 * lam
        assert max(abs(a - b) for a, b in zip(res.vector, vec)) <= 1e-6
        assert res.iterations <= 64

    def test_worked_vector(self):
        res = ahp_priority(build_ahp_matrix(load("ex9.admp")))
        for got, want in zip(res.vector, (0.2797, 0.6267, 0.0936)):
            assert abs(got - want) <= 5e-4

    def test_squaring_and_power_iteration_agree_at_random(self):
        for _ in range(25):
            n = RNG.randrange(2, 6)
            m = random_reciprocal(n, RNG)
            a = ahp_priority(m)
            b = principal_eigen(m)
            assert abs(a.lambda_max - b.lambda_max) <= 1e-6 * max(
                1.0, b.lambda_max)
            assert max(abs(x - y)
                       for x, y in zip(a.vector, b.vector)) <= 1e-8
