"""Determinants, rank, and homogeneous solution families, cross-checked
against numpy and sympy oracles."""

import random
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from admcdm.errors import FullRank, NonPositiveComponent, NotSquare
from admcdm.linalg import (
    GeneralSolution,
    PolyMatrix,
    det_numeric,
    det_poly,
    general_solution,
    particular_positive,
    rank,
    system_consistent,
)
from admcdm.polynomial import peval, poly
from admcdm.scalars import normalize

RNG = random.Random(0xA11A)


def at(mat, x):
    """The numeric matrix of mat at x."""
    return [[peval(e, x) for e in row] for row in mat.entries]


def rand_poly_matrix(n, rng):
    """Square matrix of degree-<=1 entries with small integer coefficients."""
    return PolyMatrix(tuple(
        tuple(poly((Fraction(rng.randrange(-4, 5)),
                    Fraction(rng.randrange(-4, 5))))
              for _ in range(n))
        for _ in range(n)
    ))


class TestDeterminant:
    def test_two_by_two(self):
        d = det_numeric([[Fraction(1), Fraction(2)],
                         [Fraction(3), Fraction(4)]])
        assert d == Fraction(-2)
        assert isinstance(d, Fraction)

    def test_three_by_three_known_zero(self):
        rows = [
            [Fraction(1), Fraction(-4), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(-3)],
            [Fraction(-1, 12), Fraction(0), Fraction(1)],
        ]
        assert det_numeric(rows) == 0

    def test_matches_numpy_on_random_integer_matrices(self):
        for _ in range(60):
            n = RNG.randrange(2, 7)
            rows = [[Fraction(RNG.randrange(-9, 10)) for _ in range(n)]
                    for _ in range(n)]
            exact = det_numeric(rows)
            oracle = np.linalg.det(np.array(rows, dtype=float))
            assert abs(float(exact) - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_poly_determinant_evaluates_like_numpy(self):
        for _ in range(30):
            n = RNG.randrange(2, 6)
            mat = rand_poly_matrix(n, RNG)
            d = det_poly(mat)
            x = Fraction(RNG.randrange(-6, 7), RNG.randrange(1, 5))
            direct = peval(d, x)
            numeric = np.linalg.det(
                np.array(at(mat, x), dtype=float))
            assert abs(float(direct) - numeric) <= 1e-6 * max(
                1.0, abs(numeric))

    def test_poly_determinant_is_exact_and_matches_sympy(self):
        """Fraction coefficients in, Fraction coefficients out, and equal
        to sympy's exact determinant at random rational points. Point
        checks stay fast where a symbolic determinant would not."""
        pytest.importorskip("sympy")
        from sympy import QQ
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(0xDE7)
        for n in range(5, 17):
            mat = PolyMatrix(tuple(
                tuple(poly((Fraction(rng.randrange(-9, 10),
                                     rng.randrange(1, 8)),
                            Fraction(rng.randrange(-9, 10),
                                     rng.randrange(1, 8))))
                      for _ in range(n))
                for _ in range(n)))
            d = det_poly(mat)
            assert d.degree <= n
            assert all(isinstance(c, Fraction) for c in d.coeffs)
            for _ in range(3):
                x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                oracle = DomainMatrix(
                    [[QQ(v.numerator, v.denominator) for v in row]
                     for row in at(mat, x)], (n, n), QQ).det()
                got = peval(d, x)
                assert (got.numerator, got.denominator) == (
                    int(oracle.numerator), int(oracle.denominator))

    def test_dense_ten_by_ten_has_a_degree_ten_determinant(self):
        """A dense degree-1 10x10 matrix has a degree-10 determinant,
        exact at a rational point."""
        rng = random.Random(10)
        mat = PolyMatrix(tuple(
            tuple(poly((Fraction(rng.randrange(1, 9)),
                        Fraction(rng.randrange(1, 9))))
                  for _ in range(10))
            for _ in range(10)))
        d = det_poly(mat)
        assert d.degree == 10
        x = Fraction(3, 7)
        assert peval(d, x) == det_numeric(at(mat, x))

    def test_float_entries_are_read_exactly(self):
        assert det_numeric([[1e-20, 1.0], [1.0, 1.0]]) == Fraction(1e-20) - 1

    def test_rectangular_matrix_rejected(self):
        with pytest.raises(NotSquare):
            det_poly(PolyMatrix(((poly((1,)), poly((2,)), poly((3,))),
                                 (poly((4,)), poly((5,)), poly((6,))))))

    def test_singular_bareiss_with_zero_column(self):
        rows = [[Fraction(0)] * 5 for _ in range(5)]
        for i in range(5):
            rows[i][4] = Fraction(i + 1)
        assert det_numeric(rows) == 0


class TestRank:
    def test_matches_numpy_on_random_rank_deficient_products(self):
        """A = B C with an r-column inner factor has rank <= r; numpy's SVD
        rank is the oracle for the exact value."""
        for _ in range(100):
            m = RNG.randrange(2, 6)
            n = RNG.randrange(2, 6)
            r = RNG.randrange(1, min(m, n) + 1)
            b = [[Fraction(RNG.randrange(-3, 4)) for _ in range(r)]
                 for _ in range(m)]
            c = [[Fraction(RNG.randrange(-3, 4)) for _ in range(n)]
                 for _ in range(r)]
            a = [[sum(b[i][k] * c[k][j] for k in range(r))
                  for j in range(n)] for i in range(m)]
            want = np.linalg.matrix_rank(np.array(a, dtype=float))
            assert rank(a) == want
            assert rank(a) <= r

    def test_full_rank_identity(self):
        eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert rank(eye) == 4

    def test_zero_matrix(self):
        assert rank([[Fraction(0)] * 3 for _ in range(2)]) == 0

    def test_tiny_exact_pivot_counts(self):
        """An exact 1/10^10 is a pivot like any other nonzero entry."""
        rows = [[Fraction(1), Fraction(-1), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(-1)],
                [Fraction(0), Fraction(0), Fraction(1, 10**10)],
                [Fraction(0), Fraction(2), Fraction(-2)]]
        assert rank(rows) == 3
        assert not system_consistent(rows, 3)
        with pytest.raises(FullRank):
            general_solution(rows)

    def test_float_entries_are_read_exactly(self):
        """A float is the Fraction of its binary value: a last-bit
        difference is rank, not rounding noise."""
        rows = [[1.0, 1.0], [1.0, 1.0 + 2**-52]]
        assert rank(rows) == 2
        assert not system_consistent(rows, 2)

    def test_integer_rows_stay_exact(self):
        gs = general_solution([[1, -2, 0], [0, 1, -5]])
        v = gs.vector([Fraction(1)])
        assert v == [10, 5, 1]
        assert all(isinstance(x, Fraction) for x in v)
        assert rank([[1, 2], [3, 6]]) == 1
        assert det_numeric([[1, 2], [3, 4]]) == Fraction(-2)


class TestGeneralSolution:
    def test_known_dependent_system(self):
        rows = [
            [Fraction(1), Fraction(-4), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(-3)],
            [Fraction(-1, 12), Fraction(0), Fraction(1)],
        ]
        gs = general_solution(rows)
        assert gs.secondary_vars == (2,)
        assert gs.vector([Fraction(1)]) == [
            Fraction(12), Fraction(3), Fraction(1)]

    def test_full_rank_system_is_refused(self):
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        with pytest.raises(FullRank):
            general_solution(eye)

    def test_basis_vectors_satisfy_the_system(self):
        for _ in range(40):
            m = RNG.randrange(2, 5)
            n = RNG.randrange(2, 6)
            r = RNG.randrange(1, min(m, n))
            b = [[Fraction(RNG.randrange(-3, 4)) for _ in range(r)]
                 for _ in range(m)]
            c = [[Fraction(RNG.randrange(-3, 4)) for _ in range(n)]
                 for _ in range(r)]
            a = [[sum(b[i][k] * c[k][j] for k in range(r))
                  for j in range(n)] for i in range(m)]
            if rank(a) == n:
                continue  # only the trivial solution; nothing to check
            gs = general_solution(a)
            top = max(abs(float(e)) for row in a for e in row)
            k = len(gs.secondary_vars)
            for j in range(k):
                v = gs.vector([Fraction(int(i == j)) for i in range(k)])
                for row in a:
                    resid = sum(e * x for e, x in zip(row, v))
                    assert abs(float(resid)) <= 1e-9 * max(1.0, top)

    def test_exact_input_gives_exact_solution(self):
        rows = [[Fraction(1), Fraction(-2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(-5)]]
        gs = general_solution(rows)
        v = gs.vector([Fraction(1)])
        assert v == [Fraction(10), Fraction(5), Fraction(1)]
        assert all(isinstance(x, Fraction) for x in v)


class TestPositiveVectors:
    def test_particular_positive(self):
        rows = [[Fraction(1), Fraction(-2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(-5)]]
        v = particular_positive(general_solution(rows))
        assert v == [Fraction(10), Fraction(5), Fraction(1)]

    def test_negative_component_is_refused(self):
        rows = [[Fraction(1), Fraction(1)]]  # x = -y
        with pytest.raises(NonPositiveComponent):
            particular_positive(general_solution(rows))

    def test_float_noise_counts_as_zero(self):
        gs = GeneralSolution(n=3, secondary_vars=(2,),
                             expressions=((0, (0.5,)), (1, (3e-17,))))
        with pytest.raises(NonPositiveComponent):
            particular_positive(gs)
        gs = GeneralSolution(n=3, secondary_vars=(2,),
                             expressions=((0, (0.5,)), (1, (3e-6,))))
        assert particular_positive(gs) == [0.5, 3e-6, 1]

    def test_normalize_sums_to_one_exactly(self):
        pv = normalize([Fraction(12), Fraction(3), Fraction(1)])
        assert pv == (Fraction(12, 16), Fraction(3, 16), Fraction(1, 16))
        assert sum(pv) == 1

    def test_normalize_refuses_nonpositive(self):
        with pytest.raises(NonPositiveComponent):
            normalize([Fraction(1), Fraction(0)])
        with pytest.raises(NonPositiveComponent):
            normalize([Fraction(1), Fraction(-1)])


def _oracle_entry(rng):
    kind = rng.random()
    if kind < 0.4:
        return rng.randint(-5, 5)
    if kind < 0.9:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Fraction(rng.choice((-1, 1)), 10**10)


def oracle_matrix(rng, m, n):
    """Seeded exact m x n matrix of int and Fraction entries: a product of
    random m x r and r x n factors (any rank r up to min(m, n)) or plain
    random entries, then perhaps a zero row and a middle column with no
    pivot (zero, or a multiple of the column before it)."""
    if rng.random() < 0.7:
        r = rng.randrange(0, min(m, n) + 1)
        left = [[_oracle_entry(rng) for _ in range(r)] for _ in range(m)]
        right = [[_oracle_entry(rng) for _ in range(n)] for _ in range(r)]
        rows = [[sum(left[i][k] * right[k][j] for k in range(r))
                 for j in range(n)] for i in range(m)]
    else:
        rows = [[_oracle_entry(rng) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        rows[rng.randrange(m)] = [0] * n
    if n > 2 and rng.random() < 0.4:
        j = rng.randrange(1, n - 1)
        k = rng.choice((0, 2, Fraction(-1, 3)))
        for row in rows:
            row[j] = k * row[j - 1]
    return rows


ORACLE_SHAPES = ((1, 3), (2, 5), (3, 6), (3, 3), (4, 4), (6, 6), (5, 3),
                 (8, 4), (36, 9))


class TestSympyOracle:
    """The one exact elimination against sympy's rank, det and rref."""

    @pytest.fixture(autouse=True)
    def sympy(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def cases():
        rng = random.Random(0xBA2E155)
        for m, n in ORACLE_SHAPES:
            for _ in range(3 if m * n > 100 else 12):
                yield oracle_matrix(rng, m, n)

    def test_rank_det_and_rref_match(self, sympy):
        def to_sympy(rows):
            return sympy.Matrix([[sympy.Rational(Fraction(e).numerator,
                                                 Fraction(e).denominator)
                                  for e in row] for row in rows])

        def to_fraction(x):
            return Fraction(int(x.p), int(x.q))

        seen = {"deficient": 0, "full": 0}
        for rows in self.cases():
            m, n = len(rows), len(rows[0])
            want = to_sympy(rows)
            assert rank(rows) == want.rank()
            if m == n:
                assert det_numeric(rows) == to_fraction(want.det())
            reduced, pivots = want.rref()
            if len(pivots) == n:
                seen["full"] += 1
                with pytest.raises(FullRank):
                    general_solution(rows)
                continue
            seen["deficient"] += 1
            gs = general_solution(rows)
            secondary = tuple(c for c in range(n) if c not in pivots)
            assert gs.secondary_vars == secondary
            assert gs.expressions == tuple(
                (p, tuple(-to_fraction(reduced[i, s]) for s in secondary))
                for i, p in enumerate(pivots))
            assert all(isinstance(c, Fraction)
                       for _, coefs in gs.expressions for c in coefs)
        assert seen["deficient"] >= 30 and seen["full"] >= 10
