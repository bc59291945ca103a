"""Parsing and formatting of the line-based problem file format.

One statement per line; `#` starts a comment; whitespace between tokens is
free. The first statement must declare the criteria:

    criteria: C1 C2 C3

followed by any number of preference statements:

    pref: C1 = 4 C2               # linear, one or more "+"-joined terms
    pref: C1 = 2 C2 + 3 C3
    pref: C2 / C1 = 3             # ratio form; parses to C2 = 3 C1
    pref: x = 2 y * z             # monomial (single product term only)
    pref: x < z                   # strict inequality, < or >

and optional parameter statements (1-based preference numbers):

    bind: a2 = 2 a1               # discount statement 2 twice as hard as 1
    core: 1 2 3                   # which statements form the square core

Coefficients are integers, decimals, or p/q fractions, and are stored as
exact rationals (the decimal literal 0.8 means exactly 4/5). Ratio
statements are canonicalized at parse time, so `C2 / C1 = 3` and
`C2 = 3 C1` yield identical preferences. Bind statements are resolved to
absolute multipliers against the shared base parameter; each chain's
unbound root gets multiplier 1.

Formatting inverts parsing: parse(format(p)) is structurally identical to p
for any problem that came out of the parser (exact coefficients, resolved
binds), and for a problem built in code with float coefficients too: the
model holds each float as the Fraction of its binary value, which is
written out as p/q. A ratio preference built in code is formatted in ratio
form, which parses back to its canonical linear equivalent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidProblem, ParseError
from .model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    RatioPreference,
    Relation,
    canonicalize,
    default_core,
    is_equation,
)
from .scalars import fmt

_TOKEN = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<number>\d+\.\d+|\d+)"
    r"|(?P<punct>[=+*/<>:])"
)

_PARAM = re.compile(r"a([1-9]\d*)\Z")


class _Tok(NamedTuple):
    kind: str
    text: str
    col: int


def _tokenize(body: str, lineno: int) -> list:
    toks = []
    pos = 0
    while pos < len(body):
        if body[pos] in " \t\r":
            pos += 1
            continue
        m = _TOKEN.match(body, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {body[pos]!r}", lineno, pos + 1)
        toks.append(_Tok(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return toks


class _Cursor:
    def __init__(self, toks, lineno, width):
        self.toks = toks
        self.i = 0
        self.lineno = lineno
        self.width = max(width, 1)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def fail(self, message, col=None):
        if col is None:
            t = self.peek()
            col = t.col if t else self.width
        raise ParseError(message, self.lineno, col)

    def take(self, kind, text=None, what=None):
        t = self.peek()
        ok = t is not None and t.kind == kind and (text is None or t.text == text)
        if not ok:
            wanted = what or (repr(text) if text else kind)
            self.fail(f"expected {wanted}")
        self.i += 1
        return t

    def expect_end(self):
        t = self.peek()
        if t is not None:
            self.fail(f"unexpected {t.text!r}", t.col)


def _coefficient(cur: _Cursor) -> Fraction:
    t = cur.take("number", what="a coefficient")
    nxt = cur.peek()
    if nxt is not None and nxt.kind == "punct" and nxt.text == "/":
        if "." in t.text:
            cur.fail("fraction parts must be integers", t.col)
        cur.take("punct", "/")
        q = cur.take("number", what="a denominator")
        if "." in q.text:
            cur.fail("fraction parts must be integers", q.col)
        if int(q.text) == 0:
            cur.fail("fraction denominator is zero", q.col)
        value = Fraction(int(t.text), int(q.text))
    else:
        value = Fraction(t.text)
    if not value > 0:
        cur.fail("coefficient must be positive", t.col)
    return value


def _criterion(cur: _Cursor, criteria: dict, tok: _Tok) -> int:
    if tok.text not in criteria:
        cur.fail(f"unknown criterion {tok.text!r}", tok.col)
    return criteria[tok.text]


def _parse_pref(cur: _Cursor, criteria: dict):
    first = cur.take("name", what="a criterion name")
    subject = _criterion(cur, criteria, first)
    t = cur.peek()
    if t is None:
        cur.fail("incomplete preference")
    if t.kind == "punct" and t.text == "/":
        cur.take("punct", "/")
        den_t = cur.take("name", what="a criterion name")
        den = _criterion(cur, criteria, den_t)
        cur.take("punct", "=")
        value = _coefficient(cur)
        cur.expect_end()
        if den == subject:
            cur.fail("ratio relates a criterion to itself", den_t.col)
        return canonicalize(RatioPreference(subject, den, value))
    if t.kind == "punct" and t.text in "<>":
        cur.take("punct")
        rhs_t = cur.take("name", what="a criterion name")
        rhs = _criterion(cur, criteria, rhs_t)
        cur.expect_end()
        if rhs == subject:
            cur.fail("inequality relates a criterion to itself", rhs_t.col)
        rel = Relation.STRICT_LESS if t.text == "<" else Relation.STRICT_GREATER
        return InequalityPreference(subject, rhs, rel)
    if t.kind == "punct" and t.text == "=":
        cur.take("punct", "=")
        return _parse_sum(cur, subject, criteria)
    cur.fail("expected '=', '/', '<', or '>'", t.col)


def _parse_sum(cur: _Cursor, subject: int, criteria: dict):
    terms = []  # (coefficient, [(index, token), ...], start column)
    while True:
        start = cur.peek().col if cur.peek() else cur.width
        coef = _coefficient(cur)
        name_t = cur.take("name", what="a criterion name")
        factors = [(_criterion(cur, criteria, name_t), name_t)]
        while (cur.peek() is not None and cur.peek().kind == "punct"
               and cur.peek().text == "*"):
            cur.take("punct", "*")
            f_t = cur.take("name", what="a criterion name")
            factors.append((_criterion(cur, criteria, f_t), f_t))
        terms.append((coef, factors, start))
        t = cur.peek()
        if t is None:
            break
        if t.kind == "punct" and t.text == "+":
            cur.take("punct", "+")
            continue
        cur.fail(f"unexpected {t.text!r}", t.col)
    product_terms = [t for t in terms if len(t[1]) > 1]
    if product_terms:
        if len(terms) > 1:
            cur.fail("a product term cannot be combined with other terms",
                     product_terms[0][2])
        coef, factors, _ = terms[0]
        exponents = {}
        for idx, tok in factors:
            if idx == subject:
                cur.fail("subject cannot appear among its own factors", tok.col)
            exponents[idx] = exponents.get(idx, 0) + 1
        return MonomialPreference(subject, coef, tuple(exponents.items()))
    acc = {}
    for coef, factors, _ in terms:
        idx, tok = factors[0]
        if idx == subject:
            cur.fail("subject cannot appear on the right-hand side", tok.col)
        acc[idx] = acc.get(idx, Fraction(0)) + coef
    return LinearPreference(subject, tuple(acc.items()))


def _param(cur: _Cursor) -> tuple:
    t = cur.take("name", what="a parameter name like a2")
    m = _PARAM.fullmatch(t.text)
    if m is None:
        cur.fail("expected a parameter name like a2", t.col)
    return int(m.group(1)), t


def parse_problem(text: str) -> Problem:
    criteria = None
    crit_names = None
    prefs = []
    binds = {}        # 0-based pref -> (0-based target, multiplier, lineno, col)
    core_decl = None  # (list of (value, token), lineno)
    lines = text.splitlines()
    last = 1
    for lineno, raw in enumerate(lines, 1):
        body = raw.split("#", 1)[0]
        toks = _tokenize(body, lineno)
        if not toks:
            continue
        last = lineno
        cur = _Cursor(toks, lineno, len(body))
        head = cur.take("name", what="a statement keyword")
        cur.take("punct", ":")
        if head.text == "criteria":
            if criteria is not None:
                cur.fail("duplicate criteria declaration", head.col)
            names = []
            seen = set()
            while cur.peek() is not None:
                t = cur.take("name", what="a criterion name")
                if t.text in seen:
                    cur.fail(f"duplicate criterion {t.text!r}", t.col)
                seen.add(t.text)
                names.append(t.text)
            if len(names) < 2:
                cur.fail("at least two criteria are required", head.col)
            crit_names = tuple(names)
            criteria = {nm: i for i, nm in enumerate(names)}
            continue
        if criteria is None:
            cur.fail("criteria must be declared first", head.col)
        if head.text == "pref":
            try:
                prefs.append(_parse_pref(cur, criteria))
            except InvalidProblem as exc:
                cur.fail(str(exc), head.col)
        elif head.text == "bind":
            i, lhs_t = _param(cur)
            cur.take("punct", "=")
            value = _coefficient(cur)
            j, _ = _param(cur)
            cur.expect_end()
            if i - 1 in binds:
                cur.fail(f"parameter a{i} is already bound", lhs_t.col)
            binds[i - 1] = (j - 1, value, lineno, lhs_t.col)
        elif head.text == "core":
            if core_decl is not None:
                cur.fail("duplicate core declaration", head.col)
            entries = []
            seen_core = set()
            while cur.peek() is not None:
                t = cur.take("number", what="a preference number")
                if "." in t.text:
                    cur.fail("preference numbers must be integers", t.col)
                v = int(t.text)
                if v < 1:
                    cur.fail("preference numbers start at 1", t.col)
                if v in seen_core:
                    cur.fail(f"preference {v} listed twice", t.col)
                seen_core.add(v)
                entries.append((v, t))
            if not entries:
                cur.fail("expected at least one preference number")
            core_decl = (entries, lineno)
        else:
            cur.fail(f"unknown statement {head.text!r}", head.col)
    if criteria is None:
        raise ParseError("missing criteria declaration", max(len(lines), 1), 1)
    if not any(is_equation(p) for p in prefs):
        raise ParseError("file declares no equation preference", last, 1)
    m = len(prefs)
    n = len(crit_names)
    if core_decl is not None:
        entries, lineno = core_decl
        core = []
        for v, t in entries:
            if v > m:
                raise ParseError(f"preference {v} does not exist", lineno, t.col)
            if not is_equation(prefs[v - 1]):
                raise ParseError(
                    f"preference {v} is an inequality and cannot join the core",
                    lineno, t.col)
            core.append(v - 1)
        core = tuple(core)
    else:
        core = default_core(prefs, n)
    core_set = set(core)
    for i, (j, _value, lineno, col) in binds.items():
        for p in (i, j):
            if not 0 <= p < m:
                raise ParseError(f"preference a{p + 1} does not exist",
                                 lineno, col)
            if p not in core_set:
                raise ParseError(
                    f"bound preference a{p + 1} is outside the core",
                    lineno, col)
    multipliers = {}

    def resolve(p, trail):
        if p in multipliers:
            return multipliers[p]
        if p not in binds:
            multipliers[p] = Fraction(1)
            return multipliers[p]
        j, value, lineno, col = binds[p]
        if p in trail:
            raise ParseError("circular parameter binding", lineno, col)
        multipliers[p] = value * resolve(j, trail | {p})
        return multipliers[p]

    for p in range(m):
        resolve(p, frozenset())
    try:
        binding = ParamBinding(
            multipliers=tuple(multipliers[p] for p in range(m)),
            core_mask=core,
        )
        return Problem(CriteriaSet(crit_names), tuple(prefs), binding)
    except InvalidProblem as exc:
        raise ParseError(str(exc), last, 1) from None


def format_preference(pref, names) -> str:
    if isinstance(pref, RatioPreference):
        return f"{names[pref.num]} / {names[pref.den]} = {fmt(pref.value)}"
    if isinstance(pref, LinearPreference):
        rhs = " + ".join(f"{fmt(c)} {names[i]}" for i, c in pref.terms)
        return f"{names[pref.subject]} = {rhs}"
    if isinstance(pref, MonomialPreference):
        factors = []
        for i, e in pref.exponents:
            factors.extend([names[i]] * e)
        rhs = f"{fmt(pref.coefficient)} " + " * ".join(factors)
        return f"{names[pref.subject]} = {rhs}"
    if isinstance(pref, InequalityPreference):
        return f"{names[pref.lhs]} {pref.relation.value} {names[pref.rhs]}"
    raise InvalidProblem(f"unknown preference type {type(pref).__name__}")


def format_problem(problem: Problem) -> str:
    names = problem.criteria.names
    out = ["criteria: " + " ".join(names)]
    for pref in problem.preferences:
        out.append("pref: " + format_preference(pref, names))
    mults = problem.binding.multipliers
    core = problem.binding.core_mask
    base = next((i for i in core if mults[i] == 1), core[0])
    for i in core:
        if i != base and mults[i] != mults[base]:
            out.append(f"bind: a{i + 1} = {fmt(mults[i] / mults[base])} a{base + 1}")
        elif i != base and mults[i] != 1:
            out.append(f"bind: a{i + 1} = 1 a{base + 1}")
    if core != default_core(problem.preferences, problem.criteria.n):
        out.append("core: " + " ".join(str(i + 1) for i in core))
    return "\n".join(out) + "\n"
