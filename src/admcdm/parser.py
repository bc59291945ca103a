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
exact rationals (the decimal literal 0.8 means exactly 4/5). A ratio
statement is built as its linear form directly, so `C2 / C1 = 3` and
`C2 = 3 C1` yield identical preferences. Bind statements are resolved to
absolute multipliers against the shared base parameter; each chain's
unbound root gets multiplier 1.

Each line is read in one pass: one regular-expression scan splits it into
tokens, and the statement is read from the token list by index.

Formatting inverts parsing: parse(format(p)) is structurally identical to p
for any problem that came out of the parser (exact coefficients, resolved
binds), and for a problem built in code with float coefficients too: the
model holds each float as the Fraction of its binary value, which is
written out as p/q. A problem whose core carries no multiplier 1 has no
file form, since each bind chain's root is read as 1, and is refused.
"""

from __future__ import annotations

import re
from fractions import Fraction
from string import ascii_letters

from .errors import InvalidProblem, ParseError
from .model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    Relation,
    default_core,
    is_equation,
)
from .scalars import fmt

# One scan splits a line into names, numbers, punctuation marks and, by
# the last alternative, unexpected characters. A token's kind is that of
# its first character (re's \d is str.isdecimal), and each line's list
# ends in _END, a blank, which no token is.
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+\.\d+|\d+|[=+*/<>:]|[^ \t\r]")
_END = " "
_LETTERS = frozenset(ascii_letters)
_MARKS = frozenset("=+*/<>:")

_PARAM = re.compile(r"a([1-9]\d*)\Z")


def _is_name(tok: str) -> bool:
    return tok[0] in _LETTERS


def _is_number(tok: str) -> bool:
    return tok[0].isdecimal()


class _Error(Exception):
    """A message about token k of the line being read (_END stands for
    the line's end)."""

    def __init__(self, message: str, k: int):
        super().__init__(message)
        self.k = k


def _columns(body: str, lineno: int) -> list:
    """The 1-based column of each token; ParseError at the first
    unexpected character."""
    cols = []
    for m in _TOKEN.finditer(body):
        tok = m.group()
        if not (_is_name(tok) or _is_number(tok) or tok in _MARKS):
            raise ParseError(
                f"unexpected character {tok!r}", lineno, m.start() + 1)
        cols.append(m.start() + 1)
    return cols


def _take(toks: list, k: int, kind, what: str) -> str:
    """Token k, which must be of the given kind."""
    tok = toks[k]
    if not kind(tok):
        raise _Error(f"expected {what}", k)
    return tok


def _punct(toks: list, k: int, mark: str):
    if toks[k] != mark:
        raise _Error(f"expected {mark!r}", k)


def _end(toks: list, k: int):
    if toks[k] is not _END:
        raise _Error(f"unexpected {toks[k]!r}", k)


def _number(digits: str, k: int):
    """The number in digits, read from token k: a Fraction for a decimal,
    else an int; _Error there past Python's limit on digits read."""
    try:
        return Fraction(digits) if "." in digits else int(digits)
    except ValueError:
        raise _Error("number has too many digits", k) from None


def _coefficient(toks: list, k: int) -> tuple:
    """The positive number at token k, with its /q part if one follows:
    (value, index of the next token)."""
    p = _take(toks, k, _is_number, "a coefficient")
    if toks[k + 1] == "/":
        if "." in p:
            raise _Error("fraction parts must be integers", k)
        q = _take(toks, k + 2, _is_number, "a denominator")
        if "." in q:
            raise _Error("fraction parts must be integers", k + 2)
        num, den = _number(p, k), _number(q, k + 2)
        if den == 0:
            raise _Error("fraction denominator is zero", k + 2)
        value, k_next = Fraction(num, den), k + 3
    else:
        value, k_next = Fraction(_number(p, k)), k + 1
    if not value:
        raise _Error("coefficient must be positive", k)
    return value, k_next


def _criterion(toks: list, k: int, criteria: dict) -> int:
    index = criteria.get(toks[k])  # only names are keys
    if index is None:
        name = _take(toks, k, _is_name, "a criterion name")
        raise _Error(f"unknown criterion {name!r}", k)
    return index


def _parse_pref(toks: list, criteria: dict):
    """The preference in `pref: ...`, from token 2 on."""
    subject = _criterion(toks, 2, criteria)
    op = toks[3]
    if op is _END:
        raise _Error("incomplete preference", 3)
    if op == "/":
        den = _criterion(toks, 4, criteria)
        _punct(toks, 5, "=")
        value, k = _coefficient(toks, 6)
        _end(toks, k)
        if den == subject:
            raise _Error("ratio relates a criterion to itself", 4)
        return LinearPreference(subject, ((den, value),))
    if op == "<" or op == ">":
        rhs = _criterion(toks, 4, criteria)
        _end(toks, 5)
        if rhs == subject:
            raise _Error("inequality relates a criterion to itself", 4)
        rel = Relation.STRICT_LESS if op == "<" else Relation.STRICT_GREATER
        return InequalityPreference(subject, rhs, rel)
    if op == "=":
        return _parse_sum(toks, 4, subject, criteria)
    raise _Error("expected '=', '/', '<', or '>'", 3)


def _parse_sum(toks: list, k: int, subject: int, criteria: dict):
    terms = []  # (coefficient, [(index, token), ...], first token)
    while True:
        start = k
        coef, k = _coefficient(toks, k)
        factors = [(_criterion(toks, k, criteria), k)]
        k += 1
        while toks[k] == "*":
            factors.append((_criterion(toks, k + 1, criteria), k + 1))
            k += 2
        terms.append((coef, factors, start))
        if toks[k] is _END:
            break
        if toks[k] != "+":
            raise _Error(f"unexpected {toks[k]!r}", k)
        k += 1
    product_terms = [t for t in terms if len(t[1]) > 1]
    if product_terms:
        if len(terms) > 1:
            raise _Error("a product term cannot be combined with other terms",
                         product_terms[0][2])
        coef, factors, _ = terms[0]
        exponents = {}
        for idx, tok in factors:
            if idx == subject:
                raise _Error("subject cannot appear among its own factors", tok)
            exponents[idx] = exponents.get(idx, 0) + 1
        return MonomialPreference(subject, coef, tuple(exponents.items()))
    acc = {}
    for coef, ((idx, tok),), _ in terms:
        if idx == subject:
            raise _Error("subject cannot appear on the right-hand side", tok)
        # a coefficient is kept as read unless its criterion repeats
        acc[idx] = acc[idx] + coef if idx in acc else coef
    return LinearPreference(subject, tuple(acc.items()))


def _param(toks: list, k: int) -> int:
    name = _take(toks, k, _is_name, "a parameter name like a2")
    m = _PARAM.fullmatch(name)
    if m is None:
        raise _Error("expected a parameter name like a2", k)
    return _number(m.group(1), k)


def parse_problem(text: str) -> Problem:
    criteria = None
    crit_names = None
    prefs = []
    # 0-based pref -> (0-based target, multiplier, lineno, body, its token)
    binds = {}
    core_decl = None  # ({value: token}, lineno, body)
    lines = text.splitlines()
    last = 1
    for lineno, raw in enumerate(lines, 1):
        body = raw.split("#", 1)[0]
        toks = _TOKEN.findall(body)
        if not toks:
            continue
        toks.append(_END)
        last = lineno
        try:
            head = _take(toks, 0, _is_name, "a statement keyword")
            _punct(toks, 1, ":")
            if head == "pref" and criteria is not None:
                try:
                    prefs.append(_parse_pref(toks, criteria))
                except InvalidProblem as exc:
                    raise _Error(str(exc), 0) from None
            elif head == "criteria":
                if criteria is not None:
                    raise _Error("duplicate criteria declaration", 0)
                criteria = {}
                for k in range(2, len(toks) - 1):
                    name = _take(toks, k, _is_name, "a criterion name")
                    if name in criteria:
                        raise _Error(f"duplicate criterion {name!r}", k)
                    criteria[name] = k - 2
                if len(criteria) < 2:
                    raise _Error("at least two criteria are required", 0)
                crit_names = tuple(criteria)
            elif criteria is None:
                raise _Error("criteria must be declared first", 0)
            elif head == "bind":
                i = _param(toks, 2)
                _punct(toks, 3, "=")
                value, k = _coefficient(toks, 4)
                j = _param(toks, k)
                _end(toks, k + 1)
                if i - 1 in binds:
                    raise _Error(f"parameter a{i} is already bound", 2)
                binds[i - 1] = (j - 1, value, lineno, body, k)
            elif head == "core":
                if core_decl is not None:
                    raise _Error("duplicate core declaration", 0)
                entries = {}  # preference number -> token
                for k in range(2, len(toks) - 1):
                    t = _take(toks, k, _is_number, "a preference number")
                    if "." in t:
                        raise _Error("preference numbers must be integers", k)
                    v = _number(t, k)
                    if v < 1:
                        raise _Error("preference numbers start at 1", k)
                    if v in entries:
                        raise _Error(f"preference {v} listed twice", k)
                    entries[v] = k
                if not entries:
                    raise _Error("expected at least one preference number", 2)
                core_decl = (entries, lineno, body)
            else:
                raise _Error(f"unknown statement {head!r}", 0)
        except _Error as exc:
            # a line read to its end has had every token checked for its
            # kind, so an unexpected character is met here, and comes first
            cols = _columns(body, lineno)
            col = cols[exc.k] if exc.k < len(cols) else max(len(body), 1)
            raise ParseError(str(exc), lineno, col) from None
    if criteria is None:
        raise ParseError("missing criteria declaration", max(len(lines), 1), 1)
    if not any(is_equation(p) for p in prefs):
        raise ParseError("file declares no equation preference", last, 1)
    m = len(prefs)
    n = len(crit_names)
    if core_decl is not None:
        entries, lineno, body = core_decl
        core = []
        for v, k in entries.items():
            if v > m:
                raise ParseError(f"preference {v} does not exist", lineno,
                                 _columns(body, lineno)[k])
            if not is_equation(prefs[v - 1]):
                raise ParseError(
                    f"preference {v} is an inequality and cannot join the core",
                    lineno, _columns(body, lineno)[k])
            core.append(v - 1)
        core = tuple(core)
    else:
        core = default_core(prefs, n)
    core_set = set(core)
    for i, (j, _value, lineno, body, k) in binds.items():
        for p, tok in ((i, 2), (j, k)):
            if not 0 <= p < m:
                message = f"preference a{p + 1} does not exist"
            elif p not in core_set:
                message = f"bound preference a{p + 1} is outside the core"
            else:
                continue
            raise ParseError(message, lineno, _columns(body, lineno)[tok])
    multipliers = {}  # bound preference -> its resolved multiplier

    def resolve(p, trail):
        if p not in binds:
            return 1
        if p not in multipliers:
            j, value, lineno, body, _ = binds[p]
            if p in trail:
                raise ParseError("circular parameter binding", lineno,
                                 _columns(body, lineno)[2])
            multipliers[p] = value * resolve(j, trail | {p})
        return multipliers[p]

    try:
        for p in sorted(binds):
            resolve(p, frozenset())
    finally:
        del resolve  # it refers to itself: reference counting frees it
    one = Fraction(1)
    try:
        binding = ParamBinding(
            tuple(multipliers.get(p, one) for p in range(m)), core)
        return Problem(CriteriaSet(crit_names), tuple(prefs), binding)
    except InvalidProblem as exc:
        raise ParseError(str(exc), last, 1) from None


def format_preference(pref, names) -> str:
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
    base = next((i for i in core if mults[i] == 1), None)
    if base is None:
        raise InvalidProblem(
            "a core with no multiplier 1 has no file form: each bind "
            "chain's root is read as 1")
    for i in core:
        if mults[i] != 1:
            out.append(f"bind: a{i + 1} = {fmt(mults[i])} a{base + 1}")
    if core != default_core(problem.preferences, problem.criteria.n):
        out.append("core: " + " ".join(str(i + 1) for i in core))
    return "\n".join(out) + "\n"
