"""Univariate polynomials in the discount parameter and their positive roots.

Coefficients are stored densely, constant term first. There is no degree
cap: the parametric determinant of n criteria has degree at most n.

Root extraction reads the coefficients exactly (a float as the Fraction of
its binary value), strips the factor alpha**k and clears the rest to a
primitive integer polynomial; integer coefficients enter directly
through integer_positive_roots. By Descartes' rule of signs, without a
sign change there is no positive root, and with one there is exactly one,
a simple root below the root bound 2**e, found with no split and no
isolation. Any other polynomial is split into its square-free factors f_k
of multiplicity k (Yun's algorithm, each gcd a primitive pseudo-remainder
sequence over the integers, skipped when gcd(p, p') is constant modulo the
prime 2**61 - 1), and each root of f_k is reported k times.

Whether a root is rational is decided once, before any refinement. A
binomial den * x**d - num, num and den coprime, has a rational root
exactly when both are perfect d-th powers (integer d-th roots). Any other
polynomial's rational roots come from roots modulo a prime, lifted by
Hensel's lemma and read off lead * root; they are exact, and divided
out before Descartes' rule of signs and bisection with integer Taylor
shifts (Vincent-Collins-Akritas) isolate the rest. Each other root is
irrational and reported as its nearest float: a guess (exp and log for
a binomial, Newton's method in floats otherwise) is confirmed when the
exact signs of the integer polynomial, over its nonzero terms alone, at
the midpoints between it and its float neighbours bracket the root;
without one, the interval is split, each sign read exactly, until both
ends round to the same float (Rouillier & Zimmermann, Efficient
isolation of polynomial's real roots, 2004).

The root alpha = 0 is never reported; every positive root is. An
irrational root too small or too large for a float raises InvalidProblem.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import exp, gcd, isqrt, ldexp, log, nextafter
from operator import ne, truediv
from sys import float_info

from .errors import InvalidProblem, ZeroPolynomial
from .scalars import Record, Scalar, integer_row


class Poly(Record):
    """coeffs[k] multiplies alpha**k; the empty tuple is the zero polynomial."""

    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use poly()")

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


def peval(p: Poly, x) -> Scalar:
    """Horner evaluation; exact when both coefficients and x are exact."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _primitive(ints: list) -> list:
    """The primitive integer polynomial, leading coefficient positive, with
    the roots of the integer coefficients ints, the last nonzero."""
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [c // g for c in ints]


def _gcd(a: list, b: list) -> list:
    """gcd of the integer polynomials a != 0 and b, primitive with a
    positive leading coefficient: the primitive pseudo-remainder sequence."""
    while b:
        b = _primitive(b)
        lead = b[-1] ** max(len(a) - len(b) + 1, 0)
        a, b = b, _divmod([lead * c for c in a], b)[1]
    return _primitive(a)


def _divmod(a: list, b: list):
    """(q, r) with a = q * b + r for integer polynomials whose quotient q
    is integral: b primitive dividing a over Q (Gauss), or a multiplied by
    lead(b) ** (deg a - deg b + 1) (pseudo-division)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + len(b) - 1] // b[-1]
        for j, x in enumerate(b):
            a[k + j] -= c * x
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


# a Mersenne prime, for the square-free certificate
_P = (1 << 61) - 1


def _square_free_mod_p(a: list) -> bool:
    """True when gcd(a, a') is constant modulo _P, by Euclid's algorithm
    over that field, which proves the integer polynomial a square-free:
    were a = g**2 * h over the integers (Gauss), _P would not divide
    lead(g), since it does not divide lead(a), so g modulo _P would keep
    its degree and divide both a and a' there. False when _P divides
    lead(a), or when the gcd modulo _P is not constant."""
    if a[-1] % _P == 0:
        return False
    u, v = [c % _P for c in a], [k * c % _P for k, c in enumerate(a)][1:]
    while len(v) > 1:
        inv = pow(v[-1], -1, _P)
        v = [c * inv % _P for c in v]  # monic
        m = len(v) - 1
        for k in range(len(u) - 1 - m, -1, -1):  # u = u mod v
            f = u[k + m]
            if f:
                u[k:k + m] = [(x - f * y) % _P for x, y in zip(u[k:k + m], v)]
        del u[m:]
        while u and u[-1] == 0:
            u.pop()
        u, v = v, u
    return len(v) == 1


def _square_free_factors(a: list) -> list:
    """Yun's square-free factorization of the primitive integer polynomial
    a, in ints alone: pairs (k, f_k) with a a constant times the product of
    the f_k**k, each f_k primitive and square-free, pairwise coprime. A
    polynomial that _square_free_mod_p proves square-free skips it."""
    if _square_free_mod_p(a):
        return [(1, a)]
    da = _derivative(a)
    g = _gcd(a, da)
    if len(g) < 2:  # a is square-free
        return [(1, a)]
    b, c, k, out = _divmod(a, g)[0], _divmod(da, g)[0], 1, []
    while len(b) >= 2:
        d = c + [0] * (len(b) - 1 - len(c))  # d = c - b'
        for i, x in enumerate(_derivative(b)):
            d[i] -= x
        while d and d[-1] == 0:
            d.pop()
        f = _gcd(b, d)
        if len(f) >= 2:
            out.append((k, f))
        b, c, k = _divmod(b, f)[0], _divmod(d, f)[0], k + 1
    return out


def _homogeneous(a: list, p: int, q: int) -> int:
    """q**d * a(p/q) for q > 0: the integer sum of a_i * p**i * q**(d-i),
    zero exactly where a(p/q) is and of the same sign. Horner's rule over
    the nonzero a_i alone: a run of zeros costs one power of p and of q."""
    acc, qpow, zeros = a[-1], 1, 0
    for c in reversed(a[:-1]):
        if not c:
            zeros += 1
            continue
        if zeros:
            acc, qpow, zeros = acc * p ** zeros, qpow * q ** zeros, 0
        qpow *= q
        acc = acc * p + c * qpow
    return acc * p ** zeros


def _taylor_shift(a: list) -> list:
    """Coefficients of a(x + 1)."""
    a = list(a)
    n = len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _sign_changes(a) -> int:
    signs = [c > 0 for c in a if c]
    return sum(map(ne, signs, signs[1:]))


def _descartes_unit(b: list) -> int:
    """Descartes' bound on the roots of b in (0, 1), for b(0), b(1) != 0:
    the sign changes of (x + 1)**deg * b(1/(x + 1))."""
    return _sign_changes(_taylor_shift(b[::-1]))


def _root_bound_exponent(a: list) -> int:
    """e with every complex root of a below 2**e in modulus (1 for a
    constant, which has none).

    Fujiwara's bound 2 * max |a_i / a_d|**(1/(d-i)), with each ratio rounded
    up to a power of two from the bit lengths of the coefficients.
    """
    d = len(a) - 1
    lead = a[-1].bit_length()
    return 1 + max((-((lead - 1 - c.bit_length()) // (d - i))
                    for i, c in enumerate(a[:-1]) if c), default=0)


def _isolate(a: list) -> list:
    """Open intervals (lo / q, hi / q) around the positive roots of the
    square-free integer polynomial a, one root each, as the integers
    (lo, hi, q) with q a power of two; a(0) != 0, and a has no positive
    rational root (integer_positive_roots divides those out first).

    Every positive root lies in (0, 2**e). A node is the part
    2**e * (c, c + 1) / 2**k of that range, carried by an integer
    polynomial b whose roots in (0, 1) are a's roots in the node, mapped
    linearly. Descartes' rule of signs bounds their number, with the right
    parity: 0 drops the node, 1 isolates one root, more splits the node
    into the halves 2**deg * b(x/2) and its shift by 1. No root is
    rational, so none lies at a midpoint, and no node polynomial vanishes
    at an end of its interval.

    The bisection ends because a is square-free, so its roots, complex
    ones included, are distinct. The count is 0 when no root lies in the
    disc on the interval as diameter, and 1 when one simple root lies in
    two discs of comparable size through its ends (the one- and two-circle
    theorems: Obreschkoff; Krandick and Mehlhorn). An interval shorter
    than a fixed fraction of the least distance between two roots
    satisfies one of them, so no path is longer than about
    log2(2**e / that distance) halvings, plus a constant.
    """
    e = _root_bound_exponent(a)
    d = len(a) - 1
    if e >= 0:
        top = [c << (e * i) for i, c in enumerate(a)]
    else:
        top = [c << (-e * (d - i)) for i, c in enumerate(a)]
    intervals = []
    stack = [(0, 0, top)]
    while stack:
        c, k, b = stack.pop()
        count = _descartes_unit(b)
        if count == 0:
            continue
        if count == 1:
            shift = e - k
            intervals.append((c << shift, (c + 1) << shift, 1) if shift > 0
                             else (c, c + 1, 1 << -shift))
            continue
        m = len(b) - 1
        left = [x << (m - i) for i, x in enumerate(b)]
        stack.append((2 * c, k + 1, left))
        stack.append((2 * c + 1, k + 1, _taylor_shift(left)))
    return intervals


_NEWTON_STEPS = 32


def _guess(a: list, lo: int, hi: int, q: int):
    """A float near the root of a in (lo / q, hi / q): Newton's method in
    floats from the middle of that interval. None when it leaves the
    interval, or when a coefficient or an end has no float."""
    try:
        fa = [float(c) for c in reversed(a)]
        left, right = lo / q, hi / q
    except OverflowError:
        return None
    x, last = (left + right) / 2, None
    for _ in range(_NEWTON_STEPS):
        f = df = 0.0
        for c in fa:
            df = df * x + f
            f = f * x + c
        if not df:
            return None
        x, last, before = x - f / df, x, last
        # settled, or swapping two neighbouring floats; nan leaves too
        if x == last or x == before or not left < x < right:
            break
    return x if left < x < right else None


def _iroot(n: int, d: int) -> int:
    """The integer part of n ** (1 / d), n >= 1: Newton's iteration on ints
    falls monotonically to it from any start above it (Cohen 1993, 1.7.1),
    here a float estimate of its top 41 bits, plus 2."""
    if d == 1 or n == 1:
        return n
    shift = max(n.bit_length() // d - 40, 0)
    x = int(exp(log(n >> shift * d) / d)) + 2 << shift
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _binomial_guess(num: int, den: int, d: int):
    """A float near (num / den) ** (1 / d), within an ulp or two of it in
    the normal range, None past the largest float: num / den is
    m * 2**(k * d + j) with m in (1/2, 2) and 0 <= j < d, so the root is
    2**k * exp((log m + j log 2) / d), whose exponent stays small."""
    s = num.bit_length() - den.bit_length()
    m = num / (den << s) if s >= 0 else (num << -s) / den
    k, j = divmod(s, d)
    try:
        return ldexp(exp((log(m) + j * log(2)) / d), k)
    except OverflowError:
        return None


def _value_mod(a: list, x: int, m: int) -> int:
    """a(x) modulo m: Horner's rule over the nonzero coefficients, a run
    of zeros costing one modular power."""
    acc, k = 0, 0
    for c in reversed(a):
        if c:
            acc, k = (acc * (x if k == 1 else pow(x, k, m)) + c) % m, 0
        k += 1
    return acc * pow(x, k - 1, m) % m


def _rational_roots(a: list) -> list:
    """The positive rational roots y / l of the integer polynomial a,
    deg a >= 1, a(0) != 0, lead(a) > 0, ascending. y divides a(0) and l
    lead(a), so each is a nonzero root modulo every prime p dividing
    neither: a prime without a root proves there is none. At the first
    prime whose roots are all simple, each lifts uniquely (Hensel) to r
    modulo m = p**(2**k) > 2 |a(0)| lead(a), by Newton steps that square
    the modulus; were r the root y / l, lead(a) * r would be the integer
    lead(a) * y / l, of absolute value below m / 2, modulo m, which reads
    it off (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
    Only a non-square-free a shows a repeated root modulo prime after
    prime; after eight such primes, Yun's algorithm splits it."""
    bound, lead, da, repeated = abs(a[0]), a[-1], _derivative(a), 0
    for p in count(2):
        if (bound * lead % p == 0
                or not all(p % k for k in range(2, isqrt(p) + 1))):
            continue
        folded = [0] * min(len(a), p)  # x**i = x**((i - 1) % (p - 1) + 1)
        for i, c in enumerate(a):
            folded[i and (i - 1) % (p - 1) + 1] += c
        values = [0] * p  # a at 0, 1, ..., p - 1
        for c in reversed(folded):
            values = [(v * x + c) % p for x, v in enumerate(values)]
        roots = [x for x, v in enumerate(values) if not v]
        if not roots:
            return []
        if all(_value_mod(da, x, p) for x in roots):
            break
        repeated += 1
        if repeated == 8 and (factors := _square_free_factors(a)) != [(1, a)]:
            return sorted(r for _, f in factors for r in _rational_roots(f))
    out = []
    for r in roots:
        m = p
        while m <= 2 * bound * lead:
            m *= m
            r -= _value_mod(a, r, m) * pow(_value_mod(da, r, m), -1, m)
        v = lead * r % m  # lead * y / l, were r the root y / l
        y = Fraction(v, lead)
        if 0 < 2 * v < m and a[0] % y.numerator == 0 and not _homogeneous(
                a, y.numerator, y.denominator):
            out.append(y)
    return sorted(out)


def _refine(a: list, lo: int, hi: int, q: int, x):
    """The float nearest to the one root of the integer polynomial a in
    (lo / q, hi / q), q a power of two, a simple irrational root. The
    float guess x, if any, is checked exactly (Ziv 1991, Fast evaluation
    of elementary mathematical functions with correctly rounded last bit):
    when the signs of a at the dyadic midpoints between x and its float
    neighbours bracket the root, every point between rounds to x; when
    they put it past one midpoint, that neighbour is checked the same way.
    Otherwise _round bisects to the float. A root past the largest float,
    or rounding to 0.0, raises InvalidProblem."""
    s = _homogeneous(a, hi, q)
    for _ in range(2):  # x, then the neighbour the signs point to
        if not x:  # no guess, or 0.0, which is no positive root
            break
        near = [v.as_integer_ratio() for v in
                (nextafter(x, 0), x, nextafter(x, float_info.max))]
        den = 2 * max(d for _, d in near)
        if den > q:
            lo, hi, q = lo * (den // q), hi * (den // q), den
        xs = [p * (q // d) for p, d in near]  # x and neighbours, over q
        bracket = (xs[0] + xs[1]) >> 1, (xs[1] + xs[2]) >> 1
        for mid in bracket:
            if lo < mid < hi:
                if (_homogeneous(a, mid, q) > 0) == (s > 0):
                    hi = mid
                else:
                    lo = mid
        if bracket[0] <= lo and hi <= bracket[1]:
            return x  # the root lies in x's bracket
        x = (nextafter(x, float_info.max) if lo >= bracket[1]
             else nextafter(x, 0) if hi <= bracket[0] else None)
    top = q * int(float_info.max)
    if hi > top:  # bring hi / q into the float range
        if lo >= top or (_homogeneous(a, top, q) > 0) != (s > 0):
            raise InvalidProblem("a root lies outside the float range")
        hi = top
    if not lo:  # the positive roots exceed 2**-e, e bounding a reversed
        e = max(_root_bound_exponent(a[::-1]), 0)
        lo, hi, q = 1, hi << e, q << e
    x = _round(a, lo, hi, q, s, truediv)
    if x == 0:  # the root rounds to 0.0, which is no positive root
        raise InvalidProblem("a root lies outside the float range")
    return x


def _round(a: list, lo: int, hi: int, q: int, s: int, key):
    """key(n, q), a monotone rounding of n / q, at the one root of the
    integer polynomial a in (lo / q, hi / q), a root that is not dyadic, a
    having the sign s between it and hi: the interval is split, at its
    geometric mean while it spans more than two binades, else halved at
    a dyadic point, each sign read exactly, until key agrees at both
    ends."""
    low, high = key(lo, q), key(hi, q)
    while low != high:
        if hi - lo == 1:
            lo, hi, q = 2 * lo, 2 * hi, 2 * q
        mid = isqrt(lo * hi) if 0 < 4 * lo < hi else (lo + hi) >> 1
        if (_homogeneous(a, mid, q) > 0) == (s > 0):
            hi, high = mid, key(mid, q)
        else:
            lo, low = mid, key(mid, q)
    return low


def positive_roots(p: Poly) -> list:
    """All real roots > 0, ascending, each repeated per its multiplicity.

    A rational root is an exact Fraction, however large or small; an
    irrational one is the float nearest to it, and InvalidProblem is raised
    when that float would be 0.0 or past float_info.max.

    Raises ZeroPolynomial for the identically-zero input: that case means the
    parametric system is dependent for every alpha and the caller must treat
    it as such, not pick a root.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    return integer_positive_roots(integer_row(p.coeffs)[0])


def integer_positive_roots(ints: list) -> list:
    """positive_roots of the polynomial with the integer coefficients ints,
    constant first, the last nonzero. One sign change means one simple
    positive root (Descartes), found in (0, 2**e) with no split."""
    k = 0
    while ints[k] == 0:  # factor out alpha^k; 0 is never a reported root
        k += 1
    a = _primitive(ints[k:])
    changes = _sign_changes(a)
    if not changes:
        return []
    if changes == 1:
        e = _root_bound_exponent(a)
        lo, hi, q = 0, 1 << max(e, 0), 1 << max(-e, 0)
        if any(a[1:-1]):
            return _rational_roots(a) or [_refine(a, lo, hi, q,
                                                  _guess(a, lo, hi, q))]
        # a binomial: its root |a_0 / a_d| ** (1 / d) is rational exactly
        # when a_0 and a_d over their gcd are perfect d-th powers
        d, g = len(a) - 1, gcd(a[0], a[-1])
        c0, cd = abs(a[0]) // g, a[-1] // g
        u, w = _iroot(c0, d), _iroot(cd, d)
        if u ** d == c0 and w ** d == cd:
            return [Fraction(u, w)]
        return [_refine(a, lo, hi, q, _binomial_guess(c0, cd, d))]
    roots = []
    for m, f in _square_free_factors(a):
        rational = _rational_roots(f)
        for r in rational:  # divided out: the rest has no rational root
            f = _divmod(f, [-r.numerator, r.denominator])[0]
        roots += (rational + [_refine(f, *iv, _guess(f, *iv))
                              for iv in _isolate(f)]) * m
    roots.sort()
    return roots
