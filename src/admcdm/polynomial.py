"""Univariate polynomials in the discount parameter and their positive roots.

Coefficients are stored densely, constant term first. Root extraction reads
them exactly (a float as the Fraction of its binary value), splits the
polynomial into square-free factors f_k of multiplicity k (Yun's algorithm),
isolates the positive real roots of each factor with an exact Sturm
sequence and reports each of them k times. It refines each isolated
interval by float bisection with a Newton polish, and snaps the refined
value to a nearby small-denominator rational whenever that rational is an
exact zero. The snap step is what lets rational roots such as 5/12 or 1/729
flow through the rest of the pipeline exactly.

The root alpha = 0 is never reported: factors of alpha are stripped before
isolation, and anything at or below the tolerance is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapExceeded, ZeroPolynomial
from .scalars import Scalar

DEGREE_CAP = 16
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Poly:
    """coeffs[k] multiplies alpha**k; the empty tuple is the zero polynomial."""

    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use poly()")
        if len(self.coeffs) - 1 > DEGREE_CAP:
            raise DegreeCapExceeded(
                f"degree {len(self.coeffs) - 1} exceeds cap {DEGREE_CAP}")

    @property
    def degree(self) -> int:
        # zero polynomial reports -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*a")
            else:
                parts.append(f"{c}*a^{k}")
        return " + ".join(parts)


def poly(coeffs) -> Poly:
    """Build a Poly from any coefficient iterable, trimming trailing zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(tuple(cs))


ZERO = poly(())


def padd(a: Poly, b: Poly) -> Poly:
    la, lb = a.coeffs, b.coeffs
    if len(la) < len(lb):
        la, lb = lb, la
    out = list(la)
    for i, c in enumerate(lb):
        out[i] = out[i] + c
    return poly(out)


def pneg(a: Poly) -> Poly:
    return Poly(tuple(-c for c in a.coeffs))


def pmul(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ca * cb
    return poly(out)


def pscale(a: Poly, s) -> Poly:
    if s == 0:
        return ZERO
    return poly(tuple(c * s for c in a.coeffs))


def peval(p: Poly, x) -> Scalar:
    """Horner evaluation; exact when both coefficients and x are exact."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def pdiff(p: Poly) -> Poly:
    return poly(tuple(k * c for k, c in enumerate(p.coeffs) if k > 0))


def pdivmod(a: Poly, b: Poly):
    """Euclidean division, exact for exact coefficients."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [0] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    lead = Fraction(b.coeffs[-1])
    db = len(b.coeffs) - 1
    for k in range(len(rem) - 1, db - 1, -1):
        q = rem[k] / lead
        quo[k - db] = q
        if q != 0:
            for j, c in enumerate(b.coeffs):
                rem[k - db + j] = rem[k - db + j] - q * c
    return poly(quo), poly(rem[:db])


def _pgcd(a: Poly, b: Poly) -> Poly:
    # monic gcd
    while not b.is_zero():
        a, b = b, pdivmod(a, b)[1]
    if a.is_zero():
        return a
    return pscale(a, 1 / Fraction(a.coeffs[-1]))


def _square_free_factors(p: Poly) -> list:
    """Yun's square-free factorization: pairs (k, f_k) with p a constant
    times the product of the f_k**k, each f_k square-free and the f_k
    pairwise coprime."""
    dp = pdiff(p)
    g = _pgcd(p, dp)
    if g.degree < 1:
        # kept as it is, not made monic, so its roots refine to the same
        # floats as before, and the common case costs one gcd
        return [(1, p)]
    b, c = pdivmod(p, g)[0], pdivmod(dp, g)[0]
    out = []
    k = 1
    while b.degree >= 1:
        d = padd(c, pneg(pdiff(b)))
        a = _pgcd(b, d)
        if a.degree >= 1:
            out.append((k, a))
        b, c = pdivmod(b, a)[0], pdivmod(d, a)[0]
        k += 1
    return out


def _sturm_chain(p: Poly) -> list:
    chain = [p, pdiff(p)]
    while chain[-1].degree > 0:
        chain.append(pneg(pdivmod(chain[-2], chain[-1])[1]))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(chain: list, x) -> int:
    signs = []
    for q in chain:
        v = peval(q, x)
        if v > 0:
            signs.append(1)
        elif v < 0:
            signs.append(-1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def _cauchy_bound(p: Poly) -> float:
    lead = abs(float(p.coeffs[-1]))
    rest = max((abs(float(c)) for c in p.coeffs[:-1]), default=0.0)
    return 1.0 + rest / lead


def _isolate_positive(p: Poly, hi) -> list:
    """Intervals (a, b] each holding exactly one distinct root of square-free p."""
    chain = _sturm_chain(p)

    def count(a, b):
        return _variations(chain, a) - _variations(chain, b)

    out = []
    stack = [(0, hi, count(0, hi))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        ka = count(a, mid)
        stack.append((a, mid, ka))
        stack.append((mid, b, k - ka))
    out.sort(key=lambda ab: float(ab[0]))
    return out


def _refine(p: Poly, a, b, tol: float):
    """The one root of square-free p in (a, b]: b when p(b) = 0, else a
    float from bisection and a Newton polish on float copies of p and p'.

    p is negative on one side of the simple root and positive on the other,
    so the sign of p(b) alone steers the bisection (p(a) may be 0).
    """
    end = peval(p, b)
    if end == 0:
        return b
    fp = poly(float(c) for c in p.coeffs)
    fd = poly(float(c) for c in pdiff(p).coeffs)
    lo, hi = float(a), float(b)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = peval(fp, mid)
        if fm == 0.0:
            lo = hi = mid
        elif (fm > 0) == (end > 0):
            hi = mid
        else:
            lo = mid
    r = 0.5 * (lo + hi)
    for _ in range(4):
        dv = peval(fd, r)
        if dv == 0.0:
            break
        nxt = r - peval(fp, r) / dv
        if not (float(a) - tol <= nxt <= float(b) + tol):
            break
        r = nxt
    return r


def _snap_rational(p: Poly, r: float, a, b):
    """Identify r as an exact rational root of p, if it is one.

    The candidate must stay inside the isolating interval (a, b]: a nearby
    rational that happens to be a DIFFERENT root of p must not capture this
    interval's root.
    """
    for limit in (1, 12, 100, 10_000, 1_000_000, 10**9):
        cand = Fraction(r).limit_denominator(limit)
        if a < cand <= b and peval(p, cand) == 0:
            return cand
    return r


def positive_roots(p: Poly, tol: float = DEFAULT_TOL) -> list:
    """All real roots > tol, ascending, each repeated per its multiplicity.

    Raises ZeroPolynomial for the identically-zero input: that case means the
    parametric system is dependent for every alpha and the caller must treat
    it as such, not pick a root.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    cs = [Fraction(c) for c in p.coeffs]
    while cs[0] == 0:  # factor out alpha^k; 0 is never a reported root
        cs.pop(0)
    q = poly(cs)
    if q.degree < 1:
        return []
    roots = []
    for k, f in _square_free_factors(q):
        hi = Fraction(1 + _cauchy_bound(f)).limit_denominator(4096)
        for a, b in _isolate_positive(f, hi):
            r = _refine(f, a, b, tol)
            if isinstance(r, float):
                r = _snap_rational(f, r, a, b)
            if r > tol:
                roots.extend([r] * k)
    roots.sort(key=float)
    return roots
