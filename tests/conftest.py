"""Shared test fixtures: corpus access, problem loading, and the seeded
pairwise and dense sets several test files use."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from admcdm import Problem, parse_problem
from admcdm.model import CriteriaSet, LinearPreference

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

SAATY = [Fraction(k) for k in range(1, 10)] + [Fraction(1, k)
                                               for k in range(2, 10)]


def load(name: str) -> Problem:
    return parse_problem((CORPUS / name).read_text(encoding="utf-8"))


def pairwise(n, seed, consistent):
    """Full pairwise set on the Saaty scale: weights from {1,2,4,8} when
    consistent, else ratios of spread weights rounded to the scale."""
    rng = random.Random(f"pairwise:{n}:{seed}:{consistent}")
    if consistent:
        w = [Fraction(rng.choice((1, 2, 4, 8))) for _ in range(n)]
    else:
        w = [9 ** rng.random() for _ in range(n)]

    def ratio(i, j):
        if consistent:
            return w[i] / w[j]
        return min(SAATY, key=lambda s: abs(float(s) - w[i] / w[j]))

    prefs = tuple(LinearPreference(i, ((j, ratio(i, j)),))
                  for i in range(n) for j in range(i + 1, n))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))), prefs)


def ranked(n, seed):
    """Full set of one-term statements Ci = k Cj, i < j, that fires no SD4:
    k is 10**(j - i) times 10/11, 1 or 11/10, so every derivation of
    Ci / Cj, a path of at most n - 1 statements, lies above 1 for n <= 25."""
    rng = random.Random(f"ranked:{n}:{seed}")
    noise = (Fraction(10, 11), Fraction(1), Fraction(11, 10))
    prefs = tuple(
        LinearPreference(i, ((j, 10 ** (j - i) * rng.choice(noise)),))
        for i in range(n) for j in range(i + 1, n))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))), prefs)


def blocks(m, seed):
    """Two full sets of one-term statements, k/l with k and l in 1..9, on
    C0..C(m-1) and C(m-1)..C(2m-2): a path between two criteria of one
    block cannot pass through the other, which only C(m-1) joins to it."""
    rng = random.Random(f"blocks:{m}:{seed}")
    prefs = tuple(
        LinearPreference(a, ((b, Fraction(rng.randint(1, 9),
                                          rng.randint(1, 9))),))
        for block in (range(m), range(m - 1, 2 * m - 1))
        for a in block for b in block if a < b)
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(2 * m - 1))),
                   prefs)


def summed(k, seed):
    """C0 = C1 + ... + C7 beside k one-term statements Ca = (p/q) Cb on
    random pairs of C1..C7, p and q in 1..9: each term of the sum has many
    derivations, whose combinations the substitution tries."""
    rng = random.Random(seed)
    prefs = []
    for _ in range(k):
        a, b = rng.sample(range(1, 8), 2)
        prefs.append(LinearPreference(
            a, ((b, Fraction(rng.randint(1, 9), rng.randint(1, 9))),)))
    prefs.append(LinearPreference(0, tuple((j, Fraction(1))
                                           for j in range(1, 8))))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(8))),
                   tuple(prefs))


def dense(n, seed):
    """Dense linear system: row i states Ci = three other criteria, each
    with a coefficient k/l, k and l in 1..9."""
    rng = random.Random(f"dense:{n}:{seed}")

    def row(i):
        terms = sorted(rng.sample([j for j in range(n) if j != i], 3))
        return LinearPreference(i, tuple(
            (j, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for j in terms))

    prefs = tuple(row(i) for i in range(n))
    return Problem(CriteriaSet(tuple(f"C{i}" for i in range(n))), prefs)


def _sympy_positive_roots(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed([Fraction(c) for c in p.coeffs])], x)
    return [r for r in sympy.real_roots(sp) if r > 0]


def assert_roots_match_sympy(p, found):
    """found has sympy's positive roots, with multiplicity: rational ones
    exactly, irrational ones as the float nearest to the root."""
    sympy = pytest.importorskip("sympy")
    expected = _sympy_positive_roots(p)
    assert len(found) == len(expected), (p, found, expected)
    for got, want in zip(found, expected):
        if isinstance(want, sympy.Rational):
            assert got == Fraction(int(want.p), int(want.q)), (p, got, want)
        else:
            assert got == float(want.evalf(40)), (p, got, want)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def corpus_files() -> list[Path]:
    files = sorted(CORPUS.glob("*.admp"))
    assert files, "corpus directory must not be empty"
    return files
