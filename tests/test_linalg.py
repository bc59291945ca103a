"""Determinants, rank, and homogeneous solution families, cross-checked
against numpy and sympy oracles."""

import random
from fractions import Fraction
from math import isqrt, prod

import pytest

np = pytest.importorskip("numpy")

from admcdm import classification, linalg, solver
from admcdm.ahp import ahp_priority, build_ahp_matrix
from admcdm.errors import (EngineError, FullRank, NonPositiveComponent,
                           NotSquare)
from admcdm.linalg import (
    GeneralSolution,
    PolyMatrix,
    _bareiss,
    _det,
    det_coefficients,
    det_numeric,
    det_poly,
    general_solution,
    null_vector,
    particular_positive,
    rank,
)
from admcdm.parser import parse_problem
from admcdm.polynomial import peval, poly
from admcdm.scalars import normalize

from conftest import dense, pairwise
from test_ahp import random_reciprocal
from test_engine_golden import cases as _engine_cases

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
        with pytest.raises(NotSquare):
            det_numeric([[1, 2, 3], [4, 5, 6]])

    def test_malformed_matrices_rejected(self):
        one = poly((1,))
        with pytest.raises(ValueError, match="two columns"):
            PolyMatrix(((one,),))
        with pytest.raises(ValueError, match="two columns"):
            PolyMatrix(())
        with pytest.raises(ValueError, match="ragged"):
            PolyMatrix(((one, one), (one,)))
        with pytest.raises(TypeError, match="Poly values"):
            PolyMatrix(((one, 1),))
        solution = GeneralSolution(2, (1,), ((0, (Fraction(2),)),))
        assert solution.vector([Fraction(3)]) == [Fraction(6), Fraction(3)]
        with pytest.raises(ValueError, match="one value per secondary"):
            solution.vector([])

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
        with pytest.raises(FullRank):
            general_solution(rows)

    def test_float_entries_are_read_exactly(self):
        """A float is the Fraction of its binary value: a last-bit
        difference is rank, not rounding noise."""
        rows = [[1.0, 1.0], [1.0, 1.0 + 2**-52]]
        assert rank(rows) == 2

    def test_integer_rows_stay_exact(self):
        gs = general_solution([[1, -2, 0], [0, 1, -5]])
        v = gs.vector([Fraction(1)])
        assert v == [10, 5, 1]
        assert all(isinstance(x, Fraction) for x in v)
        assert rank([[1, 2], [3, 6]]) == 1
        assert det_numeric([[1, 2], [3, 4]]) == Fraction(-2)


def _eager_bareiss(mat, reduced=False):
    """The textbook loop: every step rewrites every row below its pivot
    (with reduced, every other row), so each row is current at every step."""
    m, n = len(mat), len(mat[0]) if mat else 0
    pivots, sign, prev = [], 1, 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        swap = next((i for i in range(r, m) if mat[i][col]), None)
        if swap is None:
            continue
        if swap != r:
            mat[r], mat[swap] = mat[swap], mat[r]
            sign = -sign
        lo = 0 if reduced else col
        pivot, top = mat[r][col], mat[r][lo:]
        for i in range(0 if reduced else r + 1, m):
            if i != r:
                f = mat[i][col]
                mat[i][lo:] = [(pivot * a - f * b) // prev
                               for a, b in zip(mat[i][lo:], top)]
        prev = pivot
        pivots.append(col)
    return pivots, sign


def int_matrix(rng, m, n):
    """Seeded integer m x n matrix with a nonzero density from 0.1 to 1 and
    entries up to 10^30; three times in four it is rank-deficient by
    construction: a product through a thinner inner dimension, a row
    repeated as a multiple of another, or a zero column."""
    density = rng.choice((0.1, 0.25, 0.5, 0.75, 1.0))
    bound = rng.choice((1, 9, 10**6, 10**30))

    def draw(b):
        return rng.randint(-b, b) if rng.random() < density else 0

    kind = rng.randrange(4)
    if kind == 0 and min(m, n) > 1:
        r, b = rng.randrange(1, min(m, n)), isqrt(bound)
        left = [[draw(b) for _ in range(r)] for _ in range(m)]
        right = [[draw(b) for _ in range(n)] for _ in range(r)]
        return [[sum(left[i][k] * right[k][j] for k in range(r))
                 for j in range(n)] for i in range(m)]
    rows = [[draw(bound) for _ in range(n)] for _ in range(m)]
    if kind == 1 and m > 1:
        i, j = rng.sample(range(m), 2)
        k = rng.choice((1, -1, 3))
        rows[j] = [k * e for e in rows[i]]
    elif kind == 2:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return rows


class TestBareiss:
    def test_matches_the_eager_loop(self):
        """The lazily scaled elimination leaves exactly what the eager loop
        leaves: the same pivots, sign and matrix, entry for entry. Without
        reduced, a pivot row must stay as its own step left it; scaling the
        earlier pivot rows up to the last pivot at the end would change
        neither the determinant (the last pivot) nor the rank, only the
        entries compared here."""
        rng = random.Random(0xE4E1)
        seen = {"square": 0, "wide": 0, "tall": 0, "deficient": 0}
        for size in [9] * 1000 + [24] * 20:
            m, n = rng.randint(1, size), rng.randint(1, size)
            rows = int_matrix(rng, m, n)
            for reduced in (False, True):
                want, got = [r[:] for r in rows], [r[:] for r in rows]
                pivots, sign = _eager_bareiss(want, reduced)
                assert _bareiss(got, reduced) == (pivots, sign)
                assert got == want
            seen["square" if m == n else "wide" if m < n else "tall"] += 1
            seen["deficient"] += len(pivots) < min(m, n)
        assert min(seen.values()) >= 30


def _interpolated(rows_at, deg):
    """The reference for det_coefficients: det(rows_at(x)) from its values
    at x = 0..deg by Newton interpolation, trailing zeros trimmed. At
    points one apart the divided differences are integers, so every
    division is exact."""
    diffs = [_det(rows_at(x)) for x in range(deg + 1)]
    for k in range(1, len(diffs)):
        for i in range(len(diffs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) // k
    acc = []
    for k in range(len(diffs) - 1, -1, -1):  # acc = acc * (x - k) + diffs[k]
        acc = [lo - k * a for lo, a in zip([diffs[k]] + acc, acc + [0])]
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def _poly_matrix(rng, n, degree, zero_row=False):
    """n x n matrix of entries of degree up to degree, with signed
    Fraction coefficients; row 0 is zero with zero_row."""
    def entry(i):
        if zero_row and i == 0:
            return poly(())
        return poly(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rng.randint(1, degree + 1)))

    return PolyMatrix(tuple(tuple(entry(i) for _ in range(n))
                            for i in range(n)))


class TestDetCoefficients:
    """The one determinant at 2**k gives the interpolation reference's
    coefficients, under the bound each caller computes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every det_coefficients call of the core determinant, ahp and
        det_poly, as the pair (rows_at, coefficients)."""
        seen = []

        def recorded(rows_at, bound):
            got = det_coefficients(rows_at, bound)
            seen.append((rows_at, got))
            return got

        monkeypatch.setattr(linalg, "det_coefficients", recorded)
        monkeypatch.setattr(classification, "det_coefficients", recorded)
        return seen

    def test_cores_match_the_reference(self, calls):
        """Ratio cycles, planted multi-term sets and full pairwise sets
        (the benchmark's seed-1 inputs), and dense cores up to n = 32."""
        problems = [parse_problem(text) for _, text in _engine_cases()]
        problems += [dense(n, seed) for n in (4, 8, 16, 24, 32)
                     for seed in range(2)]
        checked = 0
        for problem in problems:
            calls.clear()
            try:
                solver._equation(solver.parameterize(problem))
            except EngineError:
                pass
            for rows_at, got in calls:
                assert got == _interpolated(rows_at, problem.criteria.n)
                checked += 1
        assert checked >= 600

    def test_ahp_pencils_match_the_reference(self, calls):
        """Full pairwise sets, n = 3..9, and matrices of random Saaty
        ratios up to n = 32, whose equal-sized entries leave Hadamard's
        bound a few bits above the largest coefficient."""
        rng = random.Random(0xA4B)
        matrices = [build_ahp_matrix(pairwise(n, seed, False))
                    for n in range(3, 10) for seed in range(3)]
        matrices += [random_reciprocal(n, rng) for n in (16, 24, 32)]
        for m in matrices:
            ahp_priority(m)
            (rows_at, got), = calls
            calls.clear()
            assert got == _interpolated(rows_at, m.n)
            assert any(c < 0 for c in got)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_det_poly_entries_of_higher_degree(self, calls, degree):
        rng = random.Random(degree)
        for n in range(2, 13):
            for zero_row in (False, True):
                d = det_poly(_poly_matrix(rng, n, degree, zero_row))
                (rows_at, got), = calls
                calls.clear()
                assert got == _interpolated(rows_at, degree * n)
                assert d.is_zero() == zero_row == (got == [])

    def test_det_poly_sign_pencils(self, calls):
        """Entries +-1 +- x: every entry has the same sum of |coefficients|,
        so no row's largest entry bounds the row."""
        rng = random.Random(0x5164)
        for n in range(4, 13):
            det_poly(PolyMatrix(tuple(
                tuple(poly((rng.choice((-1, 1)), rng.choice((-1, 1))))
                      for _ in range(n)) for _ in range(n))))
            (rows_at, got), = calls
            calls.clear()
            assert got == _interpolated(rows_at, n)

    def test_identically_zero_determinant(self):
        def rows_at(x):
            return [[1, x, 2], [2, 2 * x, 4], [x, 3, -x]]

        assert det_coefficients(rows_at, 10**6) == [] == _interpolated(
            rows_at, 3)

    def test_tight_bounds(self):
        """A bound equal to the largest |coefficient| is enough, and on a
        diagonal pencil Hadamard's bound is the sum of every |coefficient|,
        which det_poly passes."""
        assert det_coefficients(lambda x: [[-3]], 3) == [-3]
        assert det_coefficients(lambda x: [[3]], 3) == [3]
        rng = random.Random(0xD1A6)
        for n in range(1, 9):
            sign = rng.choice((-1, 1))  # one sign: no coefficient cancels
            terms = [(rng.randint(1, 9), sign * rng.randint(1, 9))
                     for _ in range(n)]

            def rows_at(x):
                return [[a + b * x if i == j else 0
                         for j, (a, b) in enumerate(terms)]
                        for i in range(n)]

            want = _interpolated(rows_at, n)
            assert sum(map(abs, want)) == prod(a + abs(b) for a, b in terms)
            assert det_coefficients(rows_at, max(map(abs, want))) == want
            if n >= 2:
                d = det_poly(PolyMatrix(tuple(
                    tuple(poly((a, b) if i == j else ()) for j in range(n))
                    for i, (a, b) in enumerate(terms))))
                assert list(d.coeffs) == want


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

    def test_float_rows_give_a_float_vector(self):
        """Every component of a float null vector is a float, the free
        ones 1.0, so no later operation on it meets a Fraction."""
        rows = [[1.0, -2.5, 0.0, 0.0], [0.0, 0.0, 1.0, -0.5]]
        v, free = null_vector(rows)
        assert free == 2 and v == [2.5, 1.0, 0.5, 1.0]
        assert all(type(x) is float for x in v)

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


def _positive_entry(rng):
    return rng.choice((rng.randint(1, 9),
                       Fraction(rng.randint(1, 9), rng.randint(1, 9))))


def _statement_rows(rng, m, n):
    if m == n and rng.random() < 0.5:
        # a ratio-cycle core x_a = k x_b around n criteria, balanced (so
        # singular) half the time
        ks = [_positive_entry(rng) for _ in range(n)]
        if rng.random() < 0.5:
            ks[-1] = 1 / prod(Fraction(k) for k in ks[:-1])
        order = rng.sample(range(n), n)
        rows = [[0] * n for _ in range(n)]
        for i, k in enumerate(ks):
            rows[i][order[i]], rows[i][order[(i + 1) % n]] = 1, -k
        rng.shuffle(rows)
    else:
        rows = []
        for _ in range(m):
            subject, *terms = rng.sample(range(n), rng.randint(2, min(4, n)))
            row = [0] * n
            row[subject] = _positive_entry(rng)
            for j in terms:
                row[j] = -_positive_entry(rng)
            rows.append(row)
    if m > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        k = _positive_entry(rng)
        rows[j] = [k * e for e in rows[i]]
    return rows


def oracle_matrix(rng, m, n, statements=False):
    """Seeded exact m x n matrix of int and Fraction entries: a product of
    random m x r and r x n factors (any rank r up to min(m, n)) or plain
    random entries, then perhaps a zero row and a middle column with no
    pivot (zero, or a multiple of the column before it).

    With statements, each row is shaped like a parsed statement instead:
    one positive entry (the subject), one to three negative ones (its
    terms) and 0 elsewhere; a square matrix is a ratio-cycle core half the
    time; and perhaps one row repeats another, scaled."""
    if statements:
        return _statement_rows(rng, m, n)
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
                 (8, 4), (36, 9), (10, 5), (5, 10), (24, 24))


def to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(Fraction(e).numerator,
                                         Fraction(e).denominator)
                          for e in row] for row in rows])


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


class TestSympyOracle:
    """The one exact elimination against sympy's rank, det, rref and null
    space, on near-dense matrices and on statement-shaped sparse ones."""

    @pytest.fixture(autouse=True)
    def sympy(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def cases():
        rng = random.Random(0xBA2E155)
        sparse = random.Random(0x57A7E)
        for m, n in ORACLE_SHAPES:
            for _ in range(3 if m * n > 100 else 12):
                # sympy's dense rational elimination at 24 x 24 takes minutes
                if m * n <= 400:
                    yield oracle_matrix(rng, m, n)
                yield oracle_matrix(sparse, m, n, statements=True)

    def test_rank_det_and_rref_match(self, sympy):
        seen = {"deficient": 0, "full": 0}
        for rows in self.cases():
            m, n = len(rows), len(rows[0])
            want = to_sympy(sympy, rows)
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

    def test_integer_rows_are_not_cleared(self, monkeypatch):
        """Rows of ints, as row_at gives them, go to the elimination as
        they are and are left unchanged: the vector is the one their
        Fraction form gives."""
        def uncleared(values):
            raise AssertionError("an integer row was cleared")

        for rows in self.cases():
            ints = [linalg.integer_row(r)[0] for r in rows]
            kept = [list(r) for r in ints]
            fractions = [[Fraction(a) for a in r] for r in ints]
            try:
                want = null_vector(fractions)
            except FullRank:
                want = None
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "integer_row", uncleared)
                try:
                    got = null_vector(ints)
                except FullRank:
                    got = None
            assert got == want and ints == kept

    def test_null_vector_is_integer_and_spans_the_null_space(self, sympy):
        """The vector solves every row in integers, and a one-dimensional
        null space is its span."""
        seen = {"one": 0, "more": 0, "full": 0}
        for rows in self.cases():
            n = len(rows[0])
            want = to_sympy(sympy, rows).nullspace()
            if not want:
                seen["full"] += 1
                with pytest.raises(FullRank):
                    null_vector(rows)
                continue
            v, free = null_vector(rows)
            assert free == len(want)
            assert all(type(x) is int for x in v) and any(v)
            assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0
                       for row in rows)
            if free > 1:
                seen["more"] += 1
                continue
            seen["one"] += 1
            basis = [to_fraction(x) for x in want[0]]
            j = next(j for j, x in enumerate(basis) if x)
            assert [basis[i] * v[j] for i in range(n)] == \
                [Fraction(x) * basis[j] for x in v]
        assert min(seen.values()) >= 20
