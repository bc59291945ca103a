"""Domain-model construction, validation, and system assembly."""

import math
import random
from fractions import Fraction

import pytest

from admcdm import model
from admcdm.ahp import ahp_priority, build_ahp_matrix
from admcdm.classification import classify
from admcdm.error_min import minimize_error
from admcdm.errors import (
    ConflictingPair,
    EngineError,
    InvalidProblem,
    NonEquationPreference,
    NonlinearPreferencePresent,
    NonPositiveParameter,
    OverDetermined,
)
from admcdm.model import (
    CriteriaSet,
    InequalityPreference,
    LinearPreference,
    MonomialPreference,
    ParamBinding,
    Problem,
    Relation,
    assemble,
    canonicalize,
    default_binding,
    equation_positions,
    is_equation,
    make_cyclic_example,
    statement_rows,
)
from admcdm.nonlinear import solve_triangular
from admcdm.parser import parse_problem
from admcdm.solver import discount_report, priority

INF = float("inf")


def random_coefficient(rng):
    """A positive coefficient as a Fraction, a decimal string or a
    float."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randint(1, 30), rng.randint(1, 30))
    if kind == 1:
        return f"{rng.randint(0, 9)}.{rng.randint(1, 999):03d}"
    return rng.uniform(0.01, 10)


def crit(*names):
    return CriteriaSet(tuple(names))


class TestCriteriaSet:
    def test_needs_two_names(self):
        with pytest.raises(InvalidProblem):
            crit("only")

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidProblem):
            crit("x", "y", "x")

    def test_rejects_empty_name(self):
        with pytest.raises(InvalidProblem):
            crit("x", "")

    def test_index_lookup(self):
        cs = crit("C1", "C2", "C3")
        assert cs.n == 3
        assert cs.index("C2") == 1
        with pytest.raises(InvalidProblem):
            cs.index("C9")


class TestPreferences:
    def test_linear_terms_sorted_so_order_is_irrelevant(self):
        a = LinearPreference(0, ((2, 3), (1, 2)))
        b = LinearPreference(0, ((1, 2), (2, 3)))
        assert a == b
        assert a.terms == ((1, Fraction(2)), (2, Fraction(3)))

    def test_linear_subject_in_terms_rejected(self):
        with pytest.raises(InvalidProblem):
            LinearPreference(0, ((0, 2),))

    def test_linear_duplicate_term_rejected(self):
        with pytest.raises(InvalidProblem):
            LinearPreference(0, ((1, 2), (1, 3)))

    def test_linear_nonpositive_coefficient_rejected(self):
        with pytest.raises(InvalidProblem):
            LinearPreference(0, ((1, -2),))

    def test_linear_needs_a_term(self):
        with pytest.raises(InvalidProblem):
            LinearPreference(0, ())

    def test_monomial_validation(self):
        m = MonomialPreference(0, 2, ((2, 1), (1, 1)))
        assert m.exponents == ((1, 1), (2, 1))
        with pytest.raises(InvalidProblem):
            MonomialPreference(0, 0, ((1, 1),))
        with pytest.raises(InvalidProblem):
            MonomialPreference(0, 2, ((0, 1),))
        with pytest.raises(InvalidProblem):
            MonomialPreference(0, 2, ((1, 0),))
        with pytest.raises(InvalidProblem):
            MonomialPreference(0, 2, ((1, 1), (1, 2)))

    def test_inequality_validation(self):
        q = InequalityPreference(0, 2, Relation.STRICT_LESS)
        assert not is_equation(q)
        with pytest.raises(InvalidProblem):
            InequalityPreference(1, 1, Relation.STRICT_LESS)
        with pytest.raises(InvalidProblem):
            InequalityPreference(0, 1, "<")


class TestBinding:
    def test_multipliers_must_be_positive(self):
        with pytest.raises(InvalidProblem):
            ParamBinding((1, 0), (0,))

    def test_core_must_be_nonempty_and_distinct(self):
        with pytest.raises(InvalidProblem):
            ParamBinding((1,), ())
        with pytest.raises(InvalidProblem):
            ParamBinding((1, 1), (0, 0))

    def test_default_binding_takes_first_n_equations(self):
        prefs = (
            LinearPreference(0, ((1, 2),)),
            InequalityPreference(0, 1, Relation.STRICT_LESS),
            LinearPreference(1, ((2, 3),)),
            LinearPreference(2, ((0, 5),)),
            LinearPreference(0, ((2, 7),)),
        )
        b = default_binding(prefs, 3)
        assert b.core_mask == (0, 2, 3)
        assert b.multipliers == tuple(Fraction(1) for _ in prefs)
        assert equation_positions(prefs) == (0, 2, 3, 4)


class TestProblem:
    def test_binding_defaults(self):
        pr = Problem(crit("x", "y"), (LinearPreference(0, ((1, 2),)),))
        assert pr.binding.core_mask == (0,)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidProblem):
            Problem(crit("x", "y"), (LinearPreference(0, ((5, 2),)),))

    def test_needs_an_equation(self):
        with pytest.raises(InvalidProblem):
            Problem(
                crit("x", "y"),
                (InequalityPreference(0, 1, Relation.STRICT_LESS),),
            )

    def test_binding_length_must_match(self):
        with pytest.raises(InvalidProblem):
            Problem(
                crit("x", "y"),
                (LinearPreference(0, ((1, 2),)),),
                ParamBinding((1, 1), (0,)),
            )

    def test_core_may_not_hold_an_inequality(self):
        prefs = (
            LinearPreference(0, ((1, 2),)),
            InequalityPreference(0, 1, Relation.STRICT_LESS),
        )
        with pytest.raises(InvalidProblem):
            Problem(crit("x", "y"), prefs, ParamBinding((1, 1), (0, 1)))

    def test_non_unit_multiplier_only_inside_core(self):
        prefs = (
            LinearPreference(0, ((1, 2),)),
            LinearPreference(1, ((0, 3),)),
            LinearPreference(0, ((1, 5),)),
        )
        Problem(crit("x", "y"), prefs, ParamBinding((1, 2, 1), (0, 1)))
        with pytest.raises(InvalidProblem):
            Problem(crit("x", "y"), prefs, ParamBinding((1, 1, 2), (0, 1)))


NON_FINITE_SHAPES = {
    # a ratio statement y / x = v is the one-term statement y = v x
    "ratio-value":
        lambda v: Problem(crit("x", "y"), (LinearPreference(1, ((0, v),)),)),
    "term-coefficient":
        lambda v: Problem(crit("x", "y"), (LinearPreference(0, ((1, v),)),)),
    "monomial-coefficient":
        lambda v: Problem(crit("x", "y", "z"),
                          (MonomialPreference(0, v, ((1, 1), (2, 1))),)),
    "binding-multiplier":
        lambda v: Problem(crit("x", "y"), (LinearPreference(0, ((1, 2),)),),
                          ParamBinding((v,), (0,))),
}


class TestNonFiniteValues:
    """An infinite or nan value is refused as InvalidProblem when the model
    is built, so priority() never meets it (it has no Fraction to read,
    and only EngineError may escape)."""

    @pytest.mark.parametrize("shape", NON_FINITE_SHAPES)
    def test_infinity_is_refused(self, shape):
        with pytest.raises(InvalidProblem, match="positive and finite"):
            priority(NON_FINITE_SHAPES[shape](INF))

    @pytest.mark.parametrize("shape", NON_FINITE_SHAPES)
    def test_nan_is_refused(self, shape):
        with pytest.raises(InvalidProblem, match="positive and finite"):
            priority(NON_FINITE_SHAPES[shape](float("nan")))


# each value type with one positive value in it, and its refusal message
POSITIVE_VALUE_SHAPES = {
    "LinearPreference": (lambda v: LinearPreference(0, ((2, 1), (1, v))),
                         "term coefficients must be positive and finite"),
    "MonomialPreference": (lambda v: MonomialPreference(0, v, ((1, 1),)),
                           "monomial coefficient must be positive and finite"),
    "ParamBinding": (lambda v: ParamBinding((1, v), (0, 1)),
                     "binding multipliers must be positive and finite"),
}
NOT_POSITIVE_FINITE = {
    "zero": Fraction(0),
    "negative": Fraction(-3, 7),
    "negative-zero-float": -0.0,
    "negative-float": -2.5,
    "inf": INF,
    "minus-inf": -INF,
    "nan": float("nan"),
}


class TestPositiveFinite:
    """Every coefficient, ratio value and multiplier is checked once, as a
    Fraction with a positive numerator, on construction."""

    @pytest.mark.parametrize("value", NOT_POSITIVE_FINITE)
    @pytest.mark.parametrize("shape", POSITIVE_VALUE_SHAPES)
    def test_refused(self, shape, value):
        build, message = POSITIVE_VALUE_SHAPES[shape]
        with pytest.raises(InvalidProblem) as info:
            build(NOT_POSITIVE_FINITE[value])
        assert str(info.value) == message

    @pytest.mark.parametrize("shape", POSITIVE_VALUE_SHAPES)
    def test_tiny_positive_float_is_kept_exactly(self, shape):
        record = POSITIVE_VALUE_SHAPES[shape][0](5e-324)
        assert repr(Fraction(5e-324)) in repr(record)


def float_built(read):
    """Problems a caller states with float coefficients, each coefficient
    passed through read first."""
    xyz = crit("x", "y", "z")
    # 0.1 * 10 * 1 is 1 in decimals but not in binary
    yield Problem(xyz, (LinearPreference(0, ((1, read(0.1)),)),
                        LinearPreference(1, ((2, read(10.0)),)),
                        LinearPreference(0, ((2, read(1.0)),))))
    # a pair stated twice, once as the float nearest to 1/3
    yield Problem(crit("x", "y"), (
        LinearPreference(0, ((1, read(3.0)),)),
        LinearPreference(1, ((0, read(0.3333333333333333)),))))
    yield Problem(xyz, (LinearPreference(0, ((1, read(0.1)), (2, read(0.7)))),
                        LinearPreference(1, ((2, read(2.5)),)),
                        LinearPreference(2, ((0, read(1.3)),))),
                  ParamBinding((1, read(0.5), 1), (0, 1, 2)))
    yield Problem(xyz, (MonomialPreference(0, read(0.1), ((1, 1), (2, 1))),
                        LinearPreference(1, ((2, read(2.5)),)),
                        InequalityPreference(0, 2, Relation.STRICT_LESS)))


def _outcome(call, problem):
    try:
        return repr(call(problem))
    except EngineError as exc:
        return type(exc).__name__


FLOAT_CALLS = {
    "priority": priority,
    "classify": classify,
    "discount_report": lambda p: discount_report(p, priority(p)[0]),
    "ahp": lambda p: ahp_priority(build_ahp_matrix(p)),
    "minimize_error": minimize_error,
    "solve_triangular": solve_triangular,
}


class TestFloatCoefficients:
    """A float coefficient is read once, in the model, as the exact value
    of its binary form: every module then sees the same Problem as for
    the Fraction of that float."""

    def test_a_float_problem_is_its_fraction_twin(self):
        for problem, twin in zip(float_built(lambda c: c),
                                 float_built(Fraction)):
            assert problem == twin
            for name, call in FLOAT_CALLS.items():
                assert _outcome(call, problem) == _outcome(call, twin), name

    def test_every_module_reads_the_binary_value(self):
        one_tenth, pair, _, _ = float_built(lambda c: c)
        pv, solution, _ = priority(one_tenth)
        assert solution.alpha == Fraction(2**54, 2**54 + 1)
        assert all(isinstance(f, Fraction)
                   for _, f in discount_report(one_tenth, pv))
        assert isinstance(minimize_error(one_tenth).value, Fraction)
        with pytest.raises(OverDetermined):
            solve_triangular(one_tenth)
        with pytest.raises(ConflictingPair):
            build_ahp_matrix(pair)


class TestRefusals:
    def test_a_monomial_needs_a_factor(self):
        with pytest.raises(InvalidProblem, match="at least one factor"):
            MonomialPreference(0, 2, ())

    def test_a_bound_problem_needs_an_equation(self):
        less = InequalityPreference(0, 1, Relation.STRICT_LESS)
        with pytest.raises(InvalidProblem, match="at least one equation"):
            Problem(CriteriaSet(("x", "y")), (less,),
                    ParamBinding((Fraction(1),), (0,)))

    def test_an_unknown_preference_type(self):
        with pytest.raises(InvalidProblem, match="unknown preference type"):
            Problem(CriteriaSet(("x", "y")),
                    (LinearPreference(0, ((1, 2),)), object()))


class TestCanonicalize:
    def test_linear_passes_through(self):
        p = LinearPreference(0, ((1, 2), (2, 3)))
        assert canonicalize(p) is p

    def test_monomial_cannot_be_linearized(self):
        with pytest.raises(TypeError):
            canonicalize(MonomialPreference(0, 2, ((1, 1),)))


class TestCleared:
    """A statement's integer form, built with it."""

    def test_ratio(self):
        assert LinearPreference(1, ((0, Fraction(3, 2)),)).form == (
            1, 2, ((3, ((0, 1),)),))

    def test_mixed_denominators_share_one_scale(self):
        pref = LinearPreference(0, ((1, Fraction(1, 2)), (2, Fraction(1, 3))))
        assert pref.form == (0, 6, ((3, ((1, 1),)), (2, ((2, 1),))))

    def test_product_is_one_term_with_its_exponents(self):
        pref = MonomialPreference(0, Fraction(2, 3), ((1, 2), (2, 1)))
        assert pref.form == (0, 3, ((2, ((1, 2), (2, 1))),))

    def test_float_coefficient_is_its_binary_value(self):
        num, den = (0.1).as_integer_ratio()
        assert LinearPreference(0, ((1, 0.1),)).form == (
            0, den, ((num, ((1, 1),)),))
        assert den == 2**55

    @pytest.mark.parametrize("seed", range(5))
    def test_form_states_the_statement_as_written(self, seed):
        """scale is the lcm of the coefficients' denominators, and scale *
        x_s - sum w * prod x_j ** p is scale times x_s - sum a * prod
        x_j ** p at rational points, a each coefficient read as a
        Fraction from its Fraction, decimal string or float."""
        rng = random.Random(f"form:{seed}")
        for _ in range(60):
            n = rng.randint(2, 6)
            subject = rng.randrange(n)
            others = rng.sample([j for j in range(n) if j != subject],
                                rng.randint(1, n - 1))
            product = rng.random() < 0.3
            count = 1 if product else len(others)
            given = [random_coefficient(rng) for _ in range(count)]
            if product:
                factors = [tuple((j, rng.randint(1, 3)) for j in others)]
                pref = MonomialPreference(subject, given[0], factors[0])
            else:
                factors = [((j, 1),) for j in others]
                pref = LinearPreference(subject, tuple(zip(others, given)))
            stated = [Fraction(c) for c in given]
            s, scale, terms = pref.form
            assert s == subject
            assert scale == math.lcm(*(a.denominator for a in stated))
            assert all(type(w) is int for w, _ in terms)
            for _ in range(3):
                x = [Fraction(rng.randint(1, 50), rng.randint(1, 50))
                     for _ in range(n)]
                cleared = scale * x[s] - sum(
                    w * math.prod(x[j] ** p for j, p in fs) for w, fs in terms)
                written = x[subject] - sum(
                    a * math.prod(x[j] ** p for j, p in fs)
                    for a, fs in zip(stated, factors))
                assert cleared == scale * written

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_under_multipliers_are_the_terms(self, seed):
        """statement_rows' (s, L, B) has B_j / L = c * a_j under a
        multiplier c != 1, and assemble is e_s - sum a_j e_j in Fractions,
        both read from terms."""
        rng = random.Random(f"rows:{seed}")
        for _ in range(20):
            n = rng.randint(2, 6)
            prefs = []
            for _ in range(rng.randint(1, n + 2)):
                s = rng.randrange(n)
                js = rng.sample([j for j in range(n) if j != s],
                                rng.randint(1, n - 1))
                prefs.append(LinearPreference(s, tuple(
                    (j, random_coefficient(rng)) for j in js)))
            core = default_binding(prefs, n).core_mask
            mults = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     if i in core else 1 for i in range(len(prefs))]
            pr = Problem(crit(*(f"C{i}" for i in range(n))), prefs,
                         ParamBinding(mults, core))
            for (s, scale, row), pref, c in zip(
                    statement_rows(pr), prefs, pr.binding.multipliers):
                coefficients = dict(pref.terms)
                assert s == pref.subject
                assert all(type(b) is int for b in row)
                assert [Fraction(b, scale) for b in row] == [
                    c * coefficients.get(j, 0) for j in range(n)]
            assert assemble(pr) == [
                [Fraction(1) if j == p.subject else -dict(p.terms).get(j, 0)
                 for j in range(n)] for p in prefs]

    def test_each_form_is_built_once(self, corpus_files, monkeypatch):
        """Parsing builds each statement's form once, and no reader
        builds one again."""
        built = []
        real = model._form
        monkeypatch.setattr(model, "_form",
                            lambda pref: built.append(pref) or real(pref))
        for path in corpus_files:
            del built[:]
            problem = parse_problem(path.read_text(encoding="utf-8"))
            stages = [classify, minimize_error]
            try:
                pv = priority(problem)[0]
            except EngineError:
                pass
            else:
                stages.append(lambda p: discount_report(p, pv))
            for stage in stages:
                try:
                    stage(problem)
                except EngineError:
                    pass
            assert sorted(map(id, built)) == sorted(
                id(p) for p in problem.preferences if is_equation(p)), path


class TestAssemble:
    def test_known_three_by_three(self):
        pr = Problem(
            crit("C1", "C2", "C3"),
            (
                LinearPreference(0, ((1, 4),)),
                LinearPreference(1, ((2, 3),)),
                LinearPreference(2, ((0, Fraction(1, 12)),)),
            ),
        )
        assert assemble(pr) == [
            [Fraction(1), Fraction(-4), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(-3)],
            [Fraction(-1, 12), Fraction(0), Fraction(1)],
        ]

    def test_ratio_rows_match_their_linear_form(self):
        lin = Problem(crit("C1", "C2"), (LinearPreference(1, ((0, 3),)),))
        rat = parse_problem("criteria: C1 C2\npref: C2 / C1 = 3\n")
        assert assemble(lin) == assemble(rat)

    def test_inequality_has_no_row(self):
        pr = Problem(
            crit("x", "y"),
            (
                LinearPreference(0, ((1, 2),)),
                InequalityPreference(0, 1, Relation.STRICT_LESS),
            ),
        )
        with pytest.raises(NonEquationPreference):
            assemble(pr)

    def test_monomial_has_no_linear_row(self):
        pr = Problem(
            crit("x", "y", "z"),
            (
                MonomialPreference(0, 2, ((1, 1), (2, 1))),
                LinearPreference(1, ((2, 5),)),
            ),
        )
        with pytest.raises(NonlinearPreferencePresent):
            assemble(pr)


class TestCyclicFamily:
    def test_shape_at_t_nine(self):
        pr = make_cyclic_example(9)
        assert pr.criteria.names == ("x", "y", "z")
        assert pr.preferences == (
            LinearPreference(0, ((1, 9),)),
            LinearPreference(0, ((2, Fraction(1, 9)),)),
            LinearPreference(1, ((2, 9),)),
        )

    def test_parameter_is_exact(self):
        pr = make_cyclic_example("9/5")
        assert pr.preferences[0].terms == ((1, Fraction(9, 5)),)
        assert pr.preferences[1].terms == ((2, Fraction(5, 9)),)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(NonPositiveParameter):
            make_cyclic_example(0)
        with pytest.raises(NonPositiveParameter):
            make_cyclic_example(-2)
