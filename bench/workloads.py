"""Seeded inputs for the three benchmark workloads.

Every generated case carries two faces of the same problem: the ``.admp``
text that admcdm receives, and the structured statements the oracle scores
it with, so the oracle never has to parse the text with admcdm. A case list
depends only on the seed; its digest shows that two runs used the same
inputs.

The mix of each workload is fixed (a given number of cases per size and
kind); the seed only picks the weights, ratios and coefficients. Large
cases are few so that the cases admcdm cannot solve today stay well under a
tenth of a pass and the 90th percentile remains a measurement.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

SAATY = tuple(F(k) for k in range(1, 10))


@dataclass(frozen=True)
class Statement:
    """subject = multiplier * alpha * sum(coef * x_j), once parameterized."""

    subject: int
    terms: tuple          # ((j, Fraction coefficient), ...)
    multiplier: F = F(1)


@dataclass(frozen=True)
class Case:
    """One generated problem and what is known about it in closed form.

    ``cycle`` holds (product of the ratios, r or None) for a ratio cycle,
    whose answer is alpha = product ** (-1/n), rational 1/r when the
    product is r ** n. ``planted`` holds (w, alpha) when a positive vector w
    satisfies every statement at that alpha. The first n statements form
    the core that fixes alpha.
    """

    id: str
    n: int
    text: str
    statements: tuple
    cycle: tuple = None
    planted: tuple = None


@dataclass(frozen=True)
class CliCase:
    """One ``python -m admcdm <command> --json <file>`` call on the corpus."""

    id: str
    command: str
    path: str


def _names(n):
    return [f"C{i}" for i in range(n)]


def _render(n, statements, binds=(), ratio=False):
    names = _names(n)
    lines = ["criteria: " + " ".join(names)]
    for st in statements:
        if ratio:
            (j, k), = st.terms
            lines.append(f"pref: {names[st.subject]} / {names[j]} = {k}")
        else:
            rhs = " + ".join(f"{c} {names[j]}" for j, c in st.terms)
            lines.append(f"pref: {names[st.subject]} = {rhs}")
    lines.extend(binds)
    return "\n".join(lines) + "\n"


def _snap_saaty(ratio: float) -> F:
    """Nearest value on the 1-9 scale or its reciprocals, in log distance."""
    best = None
    for k in SAATY:
        for v in (k, 1 / k):
            d = abs(math.log(ratio) - math.log(v))
            if best is None or d < best[0]:
                best = (d, v)
    return best[1]


def exact_rank(rows) -> int:
    """Rank by Fraction Gaussian elimination (no tolerance)."""
    work = [[F(e) for e in row] for row in rows]
    rank, cols = 0, len(work[0]) if work else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0),
                   None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def assembled(n, statements):
    """Rows of the statements as written (alpha = 1, no multipliers)."""
    rows = []
    for st in statements:
        row = [F(0)] * n
        row[st.subject] = F(1)
        for j, c in st.terms:
            row[j] -= c
        rows.append(row)
    return rows


def is_consistent(n, statements) -> bool:
    return exact_rank(assembled(n, statements)) < n


# --------------------------------------------------------------- pairwise

PAIRWISE_MIX = {3: 18, 4: 18, 5: 40, 6: 30, 7: 2, 8: 1, 9: 1}


def _pairwise_consistent_count(n, count):
    return count // 4 if n <= 6 else (count + 1) // 2


def pairwise_case(rng, n, consistent, idx):
    """Full pairwise set C_i / C_j = k for i < j on the Saaty scale.

    A consistent set draws its weights from {1,2,4,8} or {1,3,9}, so every
    ratio lies on the scale exactly; otherwise weights spread over a factor
    of 9 and ratios are rounded to the scale, redrawn until the set is
    inconsistent.
    """
    while True:
        if consistent:
            base = rng.choice(((1, 2, 4, 8), (1, 3, 9)))
            w = [F(rng.choice(base)) for _ in range(n)]
        else:
            w = [9 ** rng.random() for _ in range(n)]
        statements = []
        for i in range(n):
            for j in range(i + 1, n):
                k = w[i] / w[j] if consistent else _snap_saaty(w[i] / w[j])
                statements.append(Statement(i, ((j, F(k)),)))
        statements = tuple(statements)
        if is_consistent(n, statements) == consistent:
            break
    kind = "c" if consistent else "i"
    return Case(id=f"pairwise-n{n}-{kind}{idx}", n=n,
                text=_render(n, statements, ratio=True),
                statements=statements)


def pairwise(seed):
    rng = random.Random(f"pairwise:{seed}")
    cases = []
    for n, count in PAIRWISE_MIX.items():
        n_cons = _pairwise_consistent_count(n, count)
        for idx in range(count):
            cases.append(pairwise_case(rng, n, idx < n_cons, idx))
    rng.shuffle(cases)
    return cases


# ----------------------------------------------------------------- linear

# (sizes, count per size) for the ratio cycles
CYCLE_MIX = ((range(3, 7), 100), (range(7, 25), 1))
# planted multi-term systems: count per kind for n = 4..7, then one system
# per size for n = 8..16 with the kind rotating. Scaled and perturbed
# systems come from a panel fixed by PANEL_SEED: some of them send root
# isolation into a loop, and a fixed panel keeps the number of such
# inputs, each charged the time cap, the same in every run.
PLANTED_SMALL = {"consistent": 8, "scaled": 6, "perturbed": 6}
PANEL_SEED = 0
PLANTED_KINDS = ("consistent", "scaled", "perturbed")
CYCLE_ROOTS = (F(2), F(3), F(1, 2), F(3, 2), F(2, 3), F(4, 3))
CYCLE_FACTORS = (F(1, 2), F(2, 3), F(1), F(3, 2), F(2))
SCALES = (F(2), F(3), F(1, 2), F(3, 2), F(2, 3))
BIND_MULTIPLIERS = (F(1), F(2), F(1, 2), F(3))
PERTURB = (F(4, 5), F(5, 6), F(6, 5), F(3, 2), F(1))

# The 8-criteria input that drives root isolation into unbounded bisection;
# kept verbatim (coefficients as written) and mirrored below for the oracle.
REGRESSION_TEXT = """\
criteria: C0 C1 C2 C3 C4 C5 C6 C7
pref: C5 = 3/8 C6 + 8/1 C2
pref: C0 = 6/9 C5
pref: C2 = 6/3 C6 + 2/5 C5
pref: C3 = 6/3 C1
pref: C3 = 5/1 C6
pref: C7 = 3/2 C3
pref: C3 = 1/1 C4 + 4/4 C7
pref: C5 = 9/7 C7
pref: C6 = 1/1 C5
pref: C3 = 6/5 C7 + 9/4 C2
pref: C5 = 4/5 C0 + 6/6 C6
"""
REGRESSION = (
    (5, ((6, F(3, 8)), (2, F(8)))),
    (0, ((5, F(6, 9)),)),
    (2, ((6, F(6, 3)), (5, F(2, 5)))),
    (3, ((1, F(6, 3)),)),
    (3, ((6, F(5)),)),
    (7, ((3, F(3, 2)),)),
    (3, ((4, F(1)), (7, F(4, 4)))),
    (5, ((7, F(9, 7)),)),
    (6, ((5, F(1)),)),
    (3, ((7, F(6, 5)), (2, F(9, 4)))),
    (5, ((0, F(4, 5)), (6, F(6, 6)))),
)


def cycle_case(rng, n, rational, idx):
    """C_i = k_i C_{i+1} around a cycle; alpha = (prod k) ** (-1/n).

    The ratios start from a consistent cycle k_i = v_i / v_{i+1} over
    weights v in 1..9. A rational case overstates every ratio by the same
    r, so prod k = r ** n and alpha = 1/r; otherwise each ratio gets its
    own factor, redrawn until prod k has no rational n-th root.
    """
    v = [F(rng.randint(1, 9)) for _ in range(n)]
    while True:
        if rational:
            r = rng.choice(CYCLE_ROOTS)
            factors = [r] * n
        else:
            r = None
            factors = [rng.choice(CYCLE_FACTORS) for _ in range(n)]
        ks = [v[i] / v[(i + 1) % n] * factors[i] for i in range(n)]
        if rational or _nth_root(math.prod(ks), n) is None:
            break
    statements = tuple(Statement(i, (((i + 1) % n, ks[i]),))
                       for i in range(n))
    kind = "r" if rational else "x"
    return Case(id=f"cycle-n{n}-{kind}{idx}", n=n,
                text=_render(n, statements), statements=statements,
                cycle=(math.prod(ks), r))


def _nth_root(q: F, n: int):
    """The rational r with r ** n == q, or None."""
    def iroot(v):
        r = round(v ** (1.0 / n)) if v < 2 ** 1000 else None
        if r is None:
            return None
        for c in (r - 1, r, r + 1):
            if c >= 0 and c ** n == v:
                return c
        return None
    a, b = iroot(q.numerator), iroot(q.denominator)
    return None if a is None or b is None else F(a, b)


def planted_case(rng, n, kind, idx, bind=False):
    """m = n statements that a positive integer vector w satisfies.

    consistent: satisfied as written (alpha = 1). scaled: every right-hand
    side multiplied by s, so w satisfies them at alpha = 1/s; with ``bind``
    statement i also carries a multiplier c_i and its coefficients are
    divided by c_i, which keeps alpha = 1/s. perturbed: each coefficient
    multiplied by a random factor, answer unknown in closed form.
    """
    w = tuple(F(rng.randint(1, 9)) for _ in range(n))
    s = rng.choice(SCALES)
    mults = [F(1)] + [rng.choice(BIND_MULTIPLIERS) if bind else F(1)
                      for _ in range(n - 1)]
    statements = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        terms = sorted(rng.sample(others, rng.randint(1, min(3, n - 1))))
        b = [F(rng.randint(1, 5)) for _ in terms]
        total = sum(bj * w[j] for bj, j in zip(b, terms))
        coefs = [bj * w[i] / total for bj in b]
        if kind == "scaled":
            coefs = [c * s / mults[i] for c in coefs]
        elif kind == "perturbed":
            coefs = [c * rng.choice(PERTURB) for c in coefs]
        statements.append(Statement(i, tuple(zip(terms, coefs)), mults[i]))
    statements = tuple(statements)
    binds = [f"bind: a{i + 1} = {c} a1" for i, c in enumerate(mults)
             if i and c != 1]
    planted = {"consistent": (w, F(1)), "scaled": (w, 1 / s)}.get(kind)
    tag = kind[0] + ("b" if bind else "")
    return Case(id=f"planted-n{n}-{tag}{idx}", n=n,
                text=_render(n, statements, binds), statements=statements,
                planted=planted)


def regression_case():
    statements = tuple(Statement(s, t) for s, t in REGRESSION)
    return Case(id="regression-n8", n=8, text=REGRESSION_TEXT,
                statements=statements)


def linear(seed):
    rng = random.Random(f"linear:{seed}")
    panel = random.Random(f"linear-panel:{PANEL_SEED}")
    cases = []
    for sizes, count in CYCLE_MIX:
        for n in sizes:
            for idx in range(count):
                rational = (idx + n) % 2 == 0
                cases.append(cycle_case(rng, n, rational, idx))
    for n in range(4, 8):
        for kind, count in PLANTED_SMALL.items():
            for idx in range(count):
                bind = kind == "scaled" and idx < 2
                source = rng if kind == "consistent" else panel
                cases.append(planted_case(source, n, kind, idx, bind))
    for n in range(8, 17):
        kind = PLANTED_KINDS[n % 3]
        source = rng if kind == "consistent" else panel
        cases.append(planted_case(source, n, kind, 0))
    cases.append(regression_case())
    rng.shuffle(cases)
    return cases


# ------------------------------------------------------------- corpus_cli

CLI_COMMANDS = ("solve", "classify", "ahp", "compare", "error-min",
                "regimes")


def corpus_cli(seed, corpus: Path):
    """Every corpus file under every analysis command, in a seeded order."""
    files = sorted(p.name for p in corpus.glob("*.admp"))
    cases = [CliCase(id=f"{cmd}:{name}", command=cmd,
                     path=str(corpus / name))
             for name in files for cmd in CLI_COMMANDS]
    random.Random(f"corpus_cli:{seed}").shuffle(cases)
    return cases


def digest(cases) -> str:
    """sha256 over the inputs admcdm receives, in run order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.id.encode())
        if isinstance(case, CliCase):
            h.update(case.command.encode())
            h.update(Path(case.path).read_bytes())
        else:
            h.update(case.text.encode())
    return h.hexdigest()


def generate(workload, seed, corpus: Path):
    if workload == "pairwise":
        return pairwise(seed)
    if workload == "linear":
        return linear(seed)
    if workload == "corpus_cli":
        return corpus_cli(seed, corpus)
    raise ValueError(f"unknown workload {workload!r}")
