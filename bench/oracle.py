"""Independent oracle for benchmark outcomes.

Nothing here imports admcdm. Expected answers come from closed forms
(ratio cycles), from the planted vector and scale of a planted system,
from exact Fraction rank for consistency, and from sympy for the positive
roots of the core determinant and the root closest to 1. The corpus
answers are the paper's values, copied by hand from the acceptance tests.

A typed error counts as a correct outcome only when the oracle confirms
it; everything else that is not a verified answer is a failure of one
kind: ``wrong``, ``FullRank``, ``DegreeCapExceeded``, ``timeout``,
``memory``, ``error`` (another typed error) or ``crash`` (an exception
that is not an EngineError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import sympy
from sympy.polys.matrices import DomainMatrix

from workloads import assembled, is_consistent

REL_TOL = 1e-9
FAIL_KINDS = ("FullRank", "DegreeCapExceeded", "timeout", "memory",
              "wrong", "error", "crash")
_A = sympy.Symbol("a")
_RING = sympy.QQ[_A]


class OracleError(Exception):
    """The oracle's own cross-check failed; its figures cannot be used."""


@dataclass(frozen=True)
class Expected:
    """What a correct run of one case returns.

    ``alpha`` is a Fraction when the answer is rational, a float otherwise,
    and None when the correct outcome is a typed error named in
    ``errors``. ``consistent`` is the exact-rank verdict on the statements
    as written.
    """

    alpha: object
    consistent: bool
    errors: frozenset = frozenset()


@dataclass(frozen=True)
class Outcome:
    ok: bool
    fail: str = None        # one of FAIL_KINDS when not ok
    exact: bool = None      # None when the expected alpha is irrational
    label_ok: bool = None   # None when no label is expected


# ------------------------------------------------------------ expectation

def det_poly(case):
    """Core determinant of the parameterized system, as a sympy Poly."""
    n = case.n
    rows = []
    for st in case.statements[:n]:
        row = [_RING.zero] * n
        row[st.subject] = _RING.one
        for j, c in st.terms:
            coef = sympy.Rational(c.numerator, c.denominator) * st.multiplier
            row[j] = row[j] - _RING.convert(coef * _A)
        rows.append(row)
    det = DomainMatrix(rows, (n, n), _RING).det()
    return sympy.Poly(_RING.to_sympy(det), _A)


def _closeness(root) -> float:
    v = float(root.evalf(30))
    return min(v, 1 / v)


def chosen_root(poly):
    """Positive root closest to 1 in log scale, the smaller on ties.

    Returns a Fraction for a rational root, a float otherwise, and None
    when there is no positive root.
    """
    roots = [r for r in poly.real_roots() if r.is_positive]
    if not roots:
        return None
    best = max(roots, key=lambda r: (_closeness(r), -float(r.evalf(30))))
    if best.is_Rational:
        return F(int(best.p), int(best.q))
    return float(best.evalf(30))


def _null_space(rows):
    """Exact null space basis of a Fraction matrix."""
    m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                       for e in row] for row in rows])
    return m.nullspace()


def _parameterized(case, alpha):
    rows = []
    for st in case.statements[:case.n]:
        row = [F(0)] * case.n
        row[st.subject] = F(1)
        for j, c in st.terms:
            row[j] -= c * st.multiplier * alpha
        rows.append(row)
    return rows


def _core_null_dim_and_sign(case, alpha):
    """(dimension, one-signed?) of the core null space at alpha."""
    rows = _parameterized(case, alpha)
    if isinstance(alpha, F):
        basis = _null_space(rows)
        one_signed = (len(basis) == 1
                      and len({sympy.sign(v) for v in basis[0]}) == 1)
        return len(basis), one_signed
    _, sv, vt = np.linalg.svd(np.array(rows, dtype=float))
    dim = int(np.sum(sv <= 1e-9 * sv[0]))
    v = vt[-1]
    return dim, dim == 1 and bool(np.all(v > 1e-12) or np.all(v < -1e-12))


def expect(case) -> Expected:
    """Expected outcome of a generated case."""
    n, statements = case.n, case.statements
    consistent = is_consistent(n, statements)
    if consistent:
        return _with_vector_errors(case, F(1), consistent)
    if case.cycle is not None:
        product, r = case.cycle
        if r is not None:
            return Expected(alpha=1 / r, consistent=False)
        log = math.log(product.numerator) - math.log(product.denominator)
        return Expected(alpha=math.exp(-log / n), consistent=False)
    poly = det_poly(case)
    if poly.is_zero:
        return Expected(None, False, frozenset({"DegenerateCore"}))
    alpha = chosen_root(poly)
    if alpha is None:
        return Expected(None, False, frozenset({"NoPositiveRoot"}))
    if case.planted is not None:
        w, planted_alpha = case.planted
        if any(sum(r * x for r, x in zip(row, w)) != 0
               for row in _parameterized(case, planted_alpha)):
            raise OracleError(f"{case.id}: planted vector misses its alpha")
    return _with_vector_errors(case, alpha, consistent)


def _with_vector_errors(case, alpha, consistent):
    """Confirm the vector-stage errors that the answer itself implies."""
    if consistent:
        basis = _null_space(assembled(case.n, case.statements))
        dim = len(basis)
        one_signed = dim == 1 and len({sympy.sign(v) for v in basis[0]}) == 1
    else:
        dim, one_signed = _core_null_dim_and_sign(case, alpha)
    errors = set()
    if dim == 1 and not one_signed:
        errors.add("NonPositiveComponent")
    if dim > 1 and len(case.statements) > case.n and not consistent:
        errors.add("InconsistentExtraParams")
    return Expected(alpha=alpha, consistent=consistent,
                    errors=frozenset(errors))


# ---------------------------------------------------------------- scoring

def _close(a, b) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _exact_match(got, want) -> bool:
    return isinstance(got, F) and isinstance(want, F) and got == want


def _vector_ok(case, alpha, extras, vector, consistent) -> bool:
    """Positive, sums to 1, and every statement holds at its parameter.

    A consistent set is solved as written, so every parameter is 1.
    """
    if len(vector) != case.n or not all(v > 0 for v in vector):
        return False
    if not _close(sum(vector), 1):
        return False
    extra = dict(extras)
    for pos, st in enumerate(case.statements):
        factor = 1 if consistent else extra.get(pos, st.multiplier * alpha)
        rhs = factor * sum(c * vector[j] for j, c in st.terms)
        if not _close(vector[st.subject], rhs):
            return False
    return True


def failure_kind(error_name, engine_error) -> str:
    if error_name in ("timeout", "memory"):
        return error_name
    if not engine_error:
        return "crash"
    if error_name in ("FullRank", "DegreeCapExceeded"):
        return error_name
    return "error"


def score(case, want: Expected, result) -> Outcome:
    """Score one in-process result against the oracle's expectation."""
    rational = isinstance(want.alpha, F)
    if result["error"] is not None:
        name, engine_error = result["error"]
        if engine_error and name in want.errors:
            return Outcome(ok=True, exact=False if rational else None,
                           label_ok=False)
        return Outcome(ok=False, fail=failure_kind(name, engine_error),
                       exact=False if rational else None, label_ok=False)
    label_ok = (result["label"] == "Consistent") == want.consistent
    alpha = result["alpha"]
    exact = _exact_match(alpha, want.alpha) if rational else None
    good = (want.alpha is not None
            and _close(alpha, want.alpha)
            and _vector_ok(case, alpha, result["extras"], result["vector"],
                           want.consistent))
    return Outcome(ok=good, fail=None if good else "wrong", exact=exact,
                   label_ok=label_ok)


# ----------------------------------------------------------- corpus_cli

# The paper's answers for the corpus, as pinned in tests/test_acceptance.py
# and tests/test_solver.py: alpha (exact or closed-form float), the exact
# vector where it is pinned, and whether the statements are consistent.
CORPUS = {
    "ex1.admp": (F(1), (F(3, 4), F(3, 16), F(1, 16)), True),
    "ex2.admp": (math.sqrt(2) / 2, None, False),
    "ex3.admp": (F(1, 3), (F(9, 22), F(6, 11), F(1, 22)), False),
    "ex4.admp": (math.sqrt(23) / 23, None, False),
    "ex5.admp": (F(1), (F(12, 17), F(3, 17), F(2, 17)), True),
    "ex6.admp": (1 / math.sqrt(1 * 3 + 2 * 4), None, False),
    "ex7.admp": (F(1, 100), (F(2, 9), F(2, 9), F(5, 9)), False),
    "ex8.admp": (F(25), (F(4, 9), F(1, 3), F(2, 9)), False),
    "ex9.admp": (F(5, 12), (F(20, 57), F(25, 57), F(4, 19)), False),
    "ex9_expert.admp": (F(5, 72), None, False),
    "ex10.admp": (F(5, 12), (F(20, 57), F(25, 57), F(4, 19)), False),
    "ex11.admp": (F(1, 729), (F(1, 6643), F(81, 6643), F(6561, 6643)),
                  False),
    "ex12.admp": (F(1, 125), (F(1, 651), F(25, 651), F(625, 651)), False),
    "ex13.admp": (F(1, 8), None, False),
    "ex14.admp": (math.sqrt(10) / 10, None, False),
}
NONLINEAR = {"ex15.admp", "ex16.admp"}
# purely pairwise files with every pair covered once: the only ones the
# eigenvector baseline accepts (ex14 states the same pair twice)
PAIRWISE_FILES = {"ex1.admp", "ex9.admp", "ex9_expert.admp", "ex11.admp",
                  "ex12.admp", "ex13.admp"}
# regimes needs a triangular system of single-term or product statements
# with one free variable: ex15 (family [10z^2, 5z, z], crossings 1/10 and
# 1/2), ex16 (x < z cuts the domain to (0, 1/10)) and the consistent chain
# ex1 (family [12z, 3z, z], which never crosses); the inconsistent
# single-term files close their cycles and the rest are multi-term
REGIMES = {"ex15.admp": ([0.1, 0.5], [0, None]),
           "ex16.admp": (None, [0, 0.1]),
           "ex1.admp": ([], [0, None])}


def cli_expected_exit(command, name) -> int:
    if command == "error-min":
        return 0
    if command == "regimes":
        return 0 if name in REGIMES else 3
    if name in NONLINEAR:
        return 3
    if command == "ahp":
        return 0 if name in PAIRWISE_FILES else 3
    return 0


def cli_label_expected(command, name) -> bool:
    return command in ("solve", "classify", "compare") and name in CORPUS


def cli_rational(command, name) -> bool:
    return (command in ("solve", "compare") and name in CORPUS
            and isinstance(CORPUS[name][0], F))


def score_cli(case, code, doc) -> Outcome:
    """Score one CLI call from its exit code and JSON document."""
    name = case.path.rsplit("/", 1)[-1]
    command = case.command
    has_label = cli_label_expected(command, name)
    rational = cli_rational(command, name)
    miss = Outcome(ok=False, fail="wrong", exact=False if rational else None,
                   label_ok=False if has_label else None)
    if code == "timeout" or code == "memory":
        return Outcome(ok=False, fail=code,
                       exact=miss.exact, label_ok=miss.label_ok)
    if code != cli_expected_exit(command, name):
        kind = "crash" if code not in (0, 3) else "wrong"
        return Outcome(ok=False, fail=kind, exact=miss.exact,
                       label_ok=miss.label_ok)
    if code != 0:
        return Outcome(ok=True)
    if doc is None:
        return miss
    label_ok = None
    if has_label:
        label = doc["classification"]["label"]
        label_ok = (label == "Consistent") == CORPUS[name][2]
    good, exact = _cli_values_ok(command, name, doc)
    return Outcome(ok=good, fail=None if good else "wrong",
                   exact=exact if rational else None, label_ok=label_ok)


def _unit_positive(values) -> bool:
    return all(v > 0 for v in values) and abs(sum(values) - 1) <= 1e-9


def _cli_values_ok(command, name, doc):
    exact = False
    if command in ("solve", "compare"):
        alpha, vector, _ = CORPUS[name]
        block = doc["alpha"]
        if not _close(block["value"], alpha):
            return False, exact
        exact = block["exact"] is not None and F(block["exact"]) == alpha
        decimals = doc["priority"]["decimal"]
        if not _unit_positive(decimals):
            return False, exact
        if vector is not None and not all(
                abs(d - float(v)) <= 1e-9 for d, v in zip(decimals, vector)):
            return False, exact
        return True, exact
    if command == "classify":
        return True, exact
    if command == "ahp":
        block = doc["ahp"]
        n = len(doc["problem"]["criteria"])
        return (_unit_positive(block["vector"])
                and block["lambda_max"] >= n - 1e-9), exact
    if command == "error-min":
        block = doc["error_min"]
        if not _unit_positive(block["argmin"]) or block["value"] < 0:
            return False, exact
        if name in ("ex1.admp", "ex5.admp"):
            return block["value"] <= 1e-6, exact
        if name == "ex2.admp":
            return block["value"] <= 0.6295, exact
        return True, exact
    breakpoints, (lower, upper) = REGIMES[name]
    block = doc["regimes"]
    got_lower, got_upper = block["domain"]
    if got_lower != lower or (got_upper is None) != (upper is None):
        return False, exact
    if upper is not None and not _close(got_upper, upper):
        return False, exact
    if breakpoints is None:
        return True, exact
    got = block["breakpoints"]
    return (len(got) == len(breakpoints)
            and all(_close(a, b) for a, b in zip(got, breakpoints))), exact
