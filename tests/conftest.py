"""Shared test fixtures: corpus access, problem loading, and the seeded
pairwise sets several test files use."""

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


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def corpus_files() -> list[Path]:
    files = sorted(CORPUS.glob("*.admp"))
    assert files, "corpus directory must not be empty"
    return files
