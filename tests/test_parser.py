"""Grammar coverage, error positions, and round-trip identity for the
line-based problem format."""

import hashlib
import random
import re
import string
from fractions import Fraction

import pytest

from admcdm.errors import InvalidProblem, ParseError
from admcdm.model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    Relation,
)
from admcdm.parser import format_preference, format_problem, parse_problem

from conftest import CORPUS, load
from test_engine_golden import cases as engine_cases


def parse(*lines):
    return parse_problem("\n".join(lines) + "\n")


def err(*lines):
    with pytest.raises(ParseError) as info:
        parse(*lines)
    return info.value


class TestGrammar:
    def test_single_term_linear(self):
        pr = parse("criteria: C1 C2 C3", "pref: C1 = 4 C2")
        assert pr.preferences == (LinearPreference(0, ((1, 4),)),)

    def test_multi_term_linear(self):
        pr = parse("criteria: C1 C2 C3", "pref: C1 = 2 C2 + 3 C3")
        assert pr.preferences == (LinearPreference(0, ((1, 2), (2, 3))),)

    def test_repeated_term_accumulates(self):
        pr = parse("criteria: C1 C2 C3", "pref: C1 = 2 C2 + 3 C2")
        assert pr.preferences == (LinearPreference(0, ((1, 5),)),)

    def test_ratio_parses_to_its_linear_form(self):
        a = parse("criteria: C1 C2 C3", "pref: C2 / C1 = 3")
        b = parse("criteria: C1 C2 C3", "pref: C2 = 3 C1")
        assert a.preferences == b.preferences

    def test_monomial_product(self):
        pr = parse("criteria: x y z", "pref: x = 2 y * z")
        assert pr.preferences == (
            MonomialPreference(0, 2, ((1, 1), (2, 1))),)

    def test_monomial_repeated_factor_becomes_power(self):
        pr = parse("criteria: x y z", "pref: x = 10 y * y", "pref: y = 5 z")
        assert pr.preferences[0] == MonomialPreference(0, 10, ((1, 2),))

    def test_inequalities(self):
        pr = parse("criteria: x y z", "pref: x = 2 y", "pref: x < z",
                   "pref: y > z")
        assert pr.preferences[1] == InequalityPreference(
            0, 2, Relation.STRICT_LESS)
        assert pr.preferences[2] == InequalityPreference(
            1, 2, Relation.STRICT_GREATER)

    def test_decimal_coefficients_are_exact(self):
        pr = parse("criteria: x y z", "pref: x = 0.02 y + 0.05 z")
        assert pr.preferences[0].terms == (
            (1, Fraction(1, 50)), (2, Fraction(1, 20)))

    def test_fraction_coefficients(self):
        pr = parse("criteria: C1 C2", "pref: C2 = 1/12 C1")
        assert pr.preferences[0].terms == ((0, Fraction(1, 12)),)

    def test_comments_blank_lines_and_spacing(self):
        pr = parse(
            "# heading comment",
            "",
            "criteria:   C1    C2   # two criteria",
            "   pref:C1=4C2",
            "",
        )
        assert pr.preferences == (LinearPreference(0, ((1, 4),)),)

    def test_criteria_names_allow_underscores_and_digits(self):
        pr = parse("criteria: w_1 w_2", "pref: w_1 = 2 w_2")
        assert pr.criteria.names == ("w_1", "w_2")


class TestBindsAndCore:
    def test_bind_chain_resolves_to_absolute_multipliers(self):
        pr = parse(
            "criteria: C1 C2 C3",
            "pref: C2 = 3 C1",
            "pref: C1 = 4 C3",
            "pref: C2 = 5 C3",
            "bind: a2 = 2 a1",
            "bind: a3 = 1/2 a2",
        )
        assert pr.binding.multipliers == (
            Fraction(1), Fraction(2), Fraction(1))
        assert pr.binding.core_mask == (0, 1, 2)

    def test_core_declaration_overrides_default(self):
        pr = parse(
            "criteria: C1 C2 C3",
            "pref: C2 = 3 C1",
            "pref: C1 = 4 C3",
            "pref: C2 = 5 C3",
            "pref: C2 = 1.5 C1 + 1.5 C3",
            "core: 1 2 4",
        )
        assert pr.binding.core_mask == (0, 1, 3)

    def test_default_core_skips_inequalities(self):
        pr = parse(
            "criteria: x y z",
            "pref: x < z",
            "pref: x = 2 y",
            "pref: y = 5 z",
        )
        assert pr.binding.core_mask == (1, 2)

    def test_circular_binding_rejected(self):
        e = err(
            "criteria: C1 C2",
            "pref: C1 = 2 C2",
            "pref: C2 = 3 C1",
            "bind: a1 = 2 a2",
            "bind: a2 = 3 a1",
        )
        assert "circular" in e.message

    def test_bind_outside_core_rejected(self):
        e = err(
            "criteria: C1 C2",
            "pref: C1 = 2 C2",
            "pref: C2 = 3 C1",
            "pref: C1 = 5 C2",
            "bind: a3 = 2 a1",   # core defaults to preferences 1 and 2
        )
        assert "outside the core" in e.message

    @pytest.mark.parametrize("multiplier, column", [("2", 14), ("1/2", 16)])
    @pytest.mark.parametrize("bind, message", [
        ("a1 = {} a3", "bound preference a3 is outside the core"),
        ("a2 = {} a5", "preference a5 does not exist"),
    ], ids=["outside", "missing"])
    def test_bind_target_error_points_at_the_target(
            self, bind, message, multiplier, column):
        e = err(
            "criteria: C1 C2",
            "pref: C1 = 2 C2",
            "pref: C2 = 3 C1",
            "pref: C1 = 5 C2",
            "bind: " + bind.format(multiplier),
        )
        assert (e.message, e.line, e.column) == (message, 5, column)

    def test_bind_rebinding_rejected(self):
        e = err(
            "criteria: C1 C2",
            "pref: C1 = 2 C2",
            "pref: C2 = 3 C1",
            "bind: a2 = 2 a1",
            "bind: a2 = 3 a1",
        )
        assert "already bound" in e.message

    def test_core_with_inequality_rejected(self):
        e = err(
            "criteria: x y",
            "pref: x = 2 y",
            "pref: x < y",
            "core: 1 2",
        )
        assert "inequality" in e.message

    @pytest.mark.parametrize("core, message, column", [
        ("core: 1 2\ncore: 1 2", "duplicate core declaration", 1),
        ("core: 1.5", "preference numbers must be integers", 7),
        ("core: 0", "preference numbers start at 1", 7),
        ("core: 1 1", "preference 1 listed twice", 9),
        ("core:", "expected at least one preference number", 5),
    ], ids=["duplicate", "decimal", "zero", "twice", "empty"])
    def test_core_line_refusals(self, core, message, column):
        e = err("criteria: x y", "pref: x = 2 y", "pref: y = 1/2 x", core)
        line = 4 + core.count("\n")
        assert (e.message, e.line, e.column) == (message, line, column)

    def test_core_number_out_of_range(self):
        e = err("criteria: x y", "pref: x = 2 y", "core: 1 5")
        assert "does not exist" in e.message


class TestErrors:
    def test_position_of_unknown_criterion(self):
        e = err("criteria: C1 C2", "pref: C1 = 4 C9")
        assert (e.line, e.column) == (2, 14)
        assert "C9" in e.message

    def test_missing_criteria_declaration(self):
        e = err("pref: C1 = 4 C2")
        assert "criteria must be declared first" in e.message

    def test_empty_file(self):
        e = err("")
        assert "missing criteria declaration" in e.message

    def test_no_equation_preference(self):
        e = err("criteria: x y", "pref: x < y")
        assert "no equation" in e.message

    def test_duplicate_criteria_declaration(self):
        e = err("criteria: x y", "criteria: a b")
        assert "duplicate criteria" in e.message

    def test_single_criterion_rejected(self):
        e = err("criteria: x", "pref: x = 1 x")
        assert "at least two" in e.message

    def test_duplicate_criterion_name(self):
        e = err("criteria: x y x")
        assert "duplicate criterion" in e.message

    def test_unexpected_character(self):
        e = err("criteria: x y", "pref: x = 2 y - 1 z")
        assert "'-'" in e.message

    def test_subject_on_right_hand_side(self):
        e = err("criteria: x y", "pref: x = 2 x")
        assert "subject" in e.message

    def test_self_ratio(self):
        e = err("criteria: x y", "pref: x / x = 2")
        assert "itself" in e.message

    def test_self_inequality(self):
        e = err("criteria: x y", "pref: x = 2 y", "pref: y < y")
        assert "itself" in e.message

    def test_zero_coefficient(self):
        e = err("criteria: x y", "pref: x = 0 y")
        assert "positive" in e.message

    def test_zero_denominator(self):
        e = err("criteria: x y", "pref: x = 1/0 y")
        assert "denominator is zero" in e.message

    def test_decimal_fraction_part(self):
        e = err("criteria: x y", "pref: x = 1.5/2 y")
        assert "integers" in e.message

    def test_product_mixed_with_sum(self):
        e = err("criteria: x y z", "pref: x = 2 y * z + 1 z")
        assert "product term" in e.message

    def test_unknown_keyword(self):
        e = err("criteria: x y", "prof: x = 2 y")
        assert "unknown statement" in e.message

    def test_incomplete_preference(self):
        e = err("criteria: x y", "pref: x =")
        assert "coefficient" in e.message

    @pytest.mark.parametrize("line, message, column", [
        ("pref: x / y = 2 3", "unexpected '3'", 17),
        ("pref: x < y z", "unexpected 'z'", 13),
        ("pref: x = 2 x * y", "subject cannot appear among its own factors",
         13),
    ], ids=["after-a-ratio", "after-an-inequality", "subject-as-a-factor"])
    def test_refusal_positions(self, line, message, column):
        e = err("criteria: x y z", line)
        assert (e.message, e.line, e.column) == (message, 2, column)

    def test_unknown_preference_type_cannot_be_formatted(self):
        with pytest.raises(InvalidProblem, match="unknown preference type"):
            format_preference(object(), ("x", "y"))

    def test_message_carries_position_prefix(self):
        e = err("criteria: x y", "pref: x = 4 q")
        assert str(e).startswith("line 2, column ")


class TestRoundTrip:
    def test_corpus_round_trips_exactly(self):
        """Every case of the engine golden file: the corpus and the
        benchmark's pairwise and linear inputs at seed 1, which hold the
        ratio form, multi-term statements and bind lines."""
        texts = engine_cases()
        assert any(name.startswith("corpus:") for name, _ in texts)
        assert any("bind:" in text for _, text in texts)
        for name, text in texts:
            first = parse_problem(text)
            second = parse_problem(format_problem(first))
            assert second == first, name

    def test_formatting_a_programmatic_problem(self):
        pr = parse(
            "criteria: C1 C2 C3",
            "pref: C2 = 3 C1",
            "pref: C1 = 4 C3",
            "pref: C2 = 5 C3",
            "bind: a2 = 2 a1",
            "bind: a3 = 1/3 a1",
        )
        text = format_problem(pr)
        assert "bind: a2 = 2 a1" in text
        assert "bind: a3 = 1/3 a1" in text
        assert parse_problem(text) == pr

    def test_float_coefficients_round_trip_exactly(self):
        # each float is its binary value, which fmt writes out as p/q
        xyz = ("x", "y", "z")
        pr = Problem(CriteriaSet(xyz), (
            LinearPreference(0, ((1, 0.1), (2, 0.7))),
            LinearPreference(1, ((2, 2.5),)),
            MonomialPreference(2, 0.3, ((0, 1), (1, 2)))),
            ParamBinding((1, 0.1, 1), (0, 1, 2)))
        text = format_problem(pr)
        assert "bind: a2 = 3602879701896397/36028797018963968 a1" in text
        assert parse_problem(text) == pr

    def test_binding_without_a_unit_multiplier_is_refused(self):
        # the file pins each bind chain's root at 1, so (2, 4, 2) would
        # read back as (1, 2, 1), a different problem with another alpha
        pr = Problem(CriteriaSet(("x", "y", "z")), (
            LinearPreference(0, ((1, 2),)),
            LinearPreference(1, ((2, 3),)),
            LinearPreference(2, ((0, Fraction(1, 5)),))),
            ParamBinding((2, 4, 2), (0, 1, 2)))
        with pytest.raises(InvalidProblem, match="no multiplier 1"):
            format_problem(pr)
        halved = Problem(pr.criteria, pr.preferences,
                         ParamBinding((1, 2, 1), (0, 1, 2)))
        text = format_problem(halved)
        assert "bind: a2 = 2 a1" in text and "a3" not in text
        assert parse_problem(text) == halved

    def test_non_default_core_is_emitted(self):
        pr = parse(
            "criteria: C1 C2 C3",
            "pref: C2 = 3 C1",
            "pref: C1 = 4 C3",
            "pref: C2 = 5 C3",
            "pref: C2 = 1.5 C1 + 1.5 C3",
            "core: 1 2 4",
        )
        text = format_problem(pr)
        assert "core: 1 2 4" in text
        assert parse_problem(text) == pr

    def test_preference_formatting_shapes(self):
        names = ("x", "y", "z")
        assert format_preference(
            LinearPreference(0, ((1, Fraction(1, 2)), (2, 3))), names
        ) == "x = 1/2 y + 3 z"
        assert format_preference(
            MonomialPreference(0, 10, ((1, 2),)), names) == "x = 10 y * y"
        assert format_preference(
            InequalityPreference(0, 2, Relation.STRICT_LESS), names) == "x < z"


class TestTotality:
    """Feeding arbitrary junk to the parser either yields a Problem or a
    ParseError with a usable position; it never escapes with anything else."""

    def test_fuzzed_lines_never_crash(self):
        rng = random.Random(0xF00D)
        vocab = ["criteria", "pref", "bind", "core", "x", "y", "a1", "a2",
                 ":", "=", "+", "*", "/", "<", ">", "2", "0.5", "1/2", "#"]
        for _ in range(400):
            k = rng.randrange(1, 8)
            lines = []
            for _ in range(k):
                toks = [rng.choice(vocab) for _ in range(rng.randrange(0, 9))]
                lines.append(" ".join(toks))
            text = "\n".join(lines)
            try:
                result = parse_problem(text)
            except ParseError as exc:
                assert exc.line >= 1 and exc.column >= 1
            else:
                assert isinstance(result, Problem)

    LONG = "1" * 5000  # past Python's 4,300-digit limit on int("...")

    @pytest.mark.parametrize("line, column", [
        (f"pref: x = {LONG} y", 11),
        (f"pref: x = 2/{LONG} y", 13),
        (f"pref: x = 1.{LONG} y", 11),
        (f"pref: y / x = {LONG}", 15),
        (f"bind: a1 = {LONG} a2", 12),
        (f"bind: a{LONG} = 2 a1", 7),
        (f"core: 1 {LONG}", 9),
    ], ids=["coefficient", "denominator", "decimal", "ratio", "bind",
            "parameter", "core"])
    def test_overlong_number_is_a_parse_error(self, line, column):
        text = f"criteria: x y\npref: x = 2 y\n{line}\n"
        with pytest.raises(ParseError, match="too many digits") as info:
            parse_problem(text)
        assert (info.value.line, info.value.column) == (3, column)

    def test_random_printable_junk(self):
        rng = random.Random(0xBEEF)
        alphabet = string.printable
        for _ in range(300):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(0, 120)))
            try:
                result = parse_problem(text)
            except ParseError:
                pass
            else:
                assert isinstance(result, Problem)


# One outcome per mutated corpus file, recorded before the parser was
# rewritten to read each line in one pass. A change to any parse result,
# error message, line or column changes the digest.
MUTATION_DIGEST = "13f14bf1c5eb8913"
MUTATIONS_PER_FILE = 200
_PIECE = re.compile(r"\s+|[A-Za-z][A-Za-z0-9_]*|\d+(?:\.\d+)?|.")
_FUZZ_VOCAB = ["criteria", "pref", "bind", "core", ":", "=", "+", "*", "/",
               "<", ">", "#", "0", "1", "2", "0.5", "1/0", "2.5/3", "a1",
               "a2", "a9", "\u00e9", "_", "\t", "\n"]


def mutation_outcomes():
    """Each corpus file with one token deleted, replaced or inserted, and
    the repr of what it parses to or (message, line, column) of its
    ParseError."""
    rng = random.Random(0xADC)
    for path in sorted(CORPUS.glob("*.admp")):
        text = path.read_text(encoding="utf-8")
        pieces = _PIECE.findall(text)
        spots = [k for k, piece in enumerate(pieces) if not piece.isspace()]
        vocab = _FUZZ_VOCAB + sorted({p for p in pieces if p[0].isalpha()})
        for _ in range(MUTATIONS_PER_FILE):
            mutated = list(pieces)
            k = rng.choice(spots)
            op = rng.randrange(3)
            if op == 0:
                del mutated[k]
            elif op == 1:
                mutated[k] = rng.choice(vocab)
            else:
                sep = rng.choice(("", " "))
                mutated.insert(k, sep + rng.choice(vocab) + sep)
            try:
                yield repr(parse_problem("".join(mutated)))
            except ParseError as exc:
                yield repr((exc.message, exc.line, exc.column))


class TestMutationFuzz:
    def test_every_outcome_is_pinned(self):
        outcomes = list(mutation_outcomes())
        parsed = sum(not o.startswith("(") for o in outcomes)
        # the mutants reach deep into the grammar: many still parse
        assert parsed > len(outcomes) // 4
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest[:16] == MUTATION_DIGEST
