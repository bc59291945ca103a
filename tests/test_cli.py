"""Command-line behavior: exit codes, text reports, canonical JSON, batch
mode, fallbacks, and the generator subcommand."""

import json
from fractions import Fraction

import pytest

from admcdm.cli import main
from admcdm.model import LinearPreference, Problem
from admcdm.parser import format_problem, parse_problem

from conftest import CORPUS, pairwise, ranked

EX = {name: str(CORPUS / f"{name}.admp")
      for name in ("ex1", "ex2", "ex9", "ex9_expert", "ex10", "ex11",
                   "ex15", "ex16")}

DOC_KEYS = {"problem", "classification", "alpha", "priority", "discounts",
            "ahp", "error_min", "regimes", "warnings"}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert out == canonical + "\n", "JSON must round-trip byte for byte"
    assert set(doc) == DOC_KEYS
    return doc


class TestSolve:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "solve", EX["ex1"])
        assert code == 0
        assert "label: Consistent" in out
        assert "alpha = 1" in out
        assert "C1 = 3/4 = 0.75" in out
        assert "C3 = 1/16 = 0.0625" in out

    def test_json_report(self, capsys):
        doc = run_json(capsys, "solve", "--json", EX["ex9"])
        assert doc["alpha"]["exact"] == "5/12"
        assert doc["alpha"]["value"] == pytest.approx(5 / 12)
        assert doc["priority"]["exact"] == ["20/57", "25/57", "4/19"]
        assert doc["classification"]["label"] == "WeakInconsistent"
        assert all(d["exact"] == "5/12" for d in doc["discounts"])
        assert doc["ahp"] is None
        assert doc["regimes"] is None
        assert doc["warnings"] == []

    def test_extra_statement_parameter_in_json(self, capsys):
        doc = run_json(capsys, "solve", "--json", EX["ex10"])
        assert doc["alpha"]["extras"] == [
            {"statement": 4, "value": pytest.approx(25 / 48),
             "exact": "25/48"}]

    def test_directory_batch(self, capsys):
        code, out, _ = run(capsys, "solve", str(CORPUS))
        # nonlinear members of the corpus abort the whole batch
        assert code == 3
        code, out, _ = run(capsys, "solve", EX["ex1"], EX["ex9"])
        assert code == 0
        assert f"== {EX['ex1']} ==" in out
        assert f"== {EX['ex9']} ==" in out

    def test_json_refuses_multiple_files(self, capsys):
        code, _, err = run(capsys, "solve", "--json", EX["ex1"], EX["ex9"])
        assert code == 3
        assert "exactly one file" in err

    def test_a_directory_without_problem_files(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path))
        assert (code, err) == (3, "InvalidProblem: no problem files given\n")

    def test_a_ratio_past_the_float_range_exits_3(self, capsys, tmp_path):
        """x = 2y, y = 3z, z = x and x = 10^400 z: at the irrational root
        the extra statement's float row overflows."""
        path = tmp_path / "ratio.admp"
        path.write_text("criteria: x y z\npref: x = 2 y\npref: y = 3 z\n"
                        f"pref: z = 1 x\npref: x = 1{'0' * 400} z\n")
        code, _, err = run(capsys, "solve", str(path))
        assert (code, err) == (3, "InvalidProblem: a coefficient ratio lies "
                               "outside the float range\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "no_such_file.admp")
        assert code == 2
        assert "cannot read input" in err

    def test_parse_error_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.admp"
        bad.write_text("criteria: x y\npref: x = q y\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "parse error: line 2" in err

    def test_nonlinear_problem_is_an_engine_error_here(self, capsys):
        code, _, err = run(capsys, "solve", EX["ex15"])
        assert code == 3
        assert "NonlinearPreferencePresent" in err

    def test_threshold_marks_discharge(self, capsys):
        doc = run_json(capsys, "solve", "--json", "--threshold-c", "0.5",
                       EX["ex11"])
        assert doc["alpha"]["discharged"] is True
        doc = run_json(capsys, "solve", "--json", "--threshold-c", "0.001",
                       EX["ex11"])
        assert doc["alpha"]["discharged"] is False

    @pytest.mark.parametrize("threshold, discharged", [
        ("0.33333333333333333334", True),
        ("0.33333333333333333333", False),
    ])
    def test_threshold_is_compared_exactly(self, capsys, threshold,
                                           discharged):
        # ex3 solves at alpha = 1/3; both thresholds round to its float
        doc = run_json(capsys, "solve", "--json", "--threshold-c", threshold,
                       str(CORPUS / "ex3.admp"))
        assert doc["alpha"]["exact"] == "1/3"
        assert doc["alpha"]["discharged"] is discharged

    def test_uniform_fallback_replaces_strong_inconsistency(self, capsys):
        doc = run_json(capsys, "solve", "--json", "--fallback", "uniform",
                       EX["ex11"])
        assert doc["priority"]["exact"] == ["1/3", "1/3", "1/3"]
        assert any("0.998628257888" in w for w in doc["warnings"])
        # without the fallback the heavy-ratio vector is kept
        doc = run_json(capsys, "solve", "--json", EX["ex11"])
        assert doc["priority"]["exact"] == [
            "1/6643", "81/6643", "6561/6643"]

    def test_fairness_strips_expert_multipliers(self, capsys):
        doc = run_json(capsys, "solve", "--json", "--principle", "fairness",
                       EX["ex9_expert"])
        assert doc["alpha"]["exact"] == "5/12"
        assert doc["problem"]["multipliers"] == ["1", "1", "1"]
        assert any("fairness" in w for w in doc["warnings"])

    def test_expert_requires_bind_lines(self, capsys):
        code, _, err = run(capsys, "solve", "--principle", "expert",
                           EX["ex9"])
        assert code == 3
        assert "bind" in err

    def test_expert_file_honored_by_default(self, capsys):
        doc = run_json(capsys, "solve", "--json", EX["ex9_expert"])
        assert doc["alpha"]["exact"] == "5/72"
        assert doc["problem"]["multipliers"] == ["1", "2", "1/3"]


class TestClassify:
    def test_strong_label_with_rule(self, capsys):
        code, out, _ = run(capsys, "classify", EX["ex11"])
        assert code == 0
        assert "label: StrongInconsistent (SD4)" in out

    def test_witness_lines_name_the_statements(self, capsys):
        code, out, _ = run(capsys, "classify", EX["ex9"])
        assert code == 0
        assert "label: WeakInconsistent (WD1)" in out
        assert "(via" in out

    def test_json_block(self, capsys):
        doc = run_json(capsys, "classify", "--json", EX["ex1"])
        assert doc["classification"]["label"] == "Consistent"
        assert doc["alpha"] is None
        assert doc["priority"] is None

    def test_multipliers_leave_the_classification_alone(self, capsys):
        # ex9_expert is ex9 with bind: lines, which only rescale statements
        blocks = [run_json(capsys, "classify", "--json", EX[name])
                  ["classification"] for name in ("ex9", "ex9_expert")]
        assert blocks[0] == blocks[1]

    @pytest.mark.parametrize("principle", ["fairness", "expert"])
    def test_principle_is_a_usage_error(self, capsys, principle):
        with pytest.raises(SystemExit) as exit_:
            main(["classify", "--principle", principle, EX["ex9_expert"]])
        _, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert "unrecognized arguments: --principle" in err

    def test_capped_search_names_the_relation_cap(self, capsys, tmp_path):
        # a full 12-criteria set that fires no SD4 builds 11 * 2**10
        # states from each start, past the cap: its WD1 label is
        # conservative. With C1 = C0 + C2 beside it, the substitution from
        # the ranges built derives C0 / C1 below 1, where the ratios put it
        # above: SD4 keeps its label, which no later derivation could change
        ranked_12 = ranked(12, 0)
        with_sum = Problem(ranked_12.criteria, ranked_12.preferences + (
            LinearPreference(1, ((0, Fraction(1)), (2, Fraction(1)))),))
        for problem, label in ((ranked_12, "WeakInconsistent (WD1)"),
                               (with_sum, "StrongInconsistent (SD4)")):
            path = tmp_path / "capped.admp"
            path.write_text(format_problem(problem))
            code, out, _ = run(capsys, "classify", str(path))
            assert code == 0
            assert out.startswith(f"label: {label}\n")
            suffix = "; label is conservative" if "Weak" in label else ""
            assert (f"note: derivation stopped at the relation cap{suffix}\n"
                    in out)
            code, out, _ = run(capsys, "classify", "--json", str(path))
            assert code == 0 and '"depth_exceeded":true' in out

    @pytest.mark.parametrize("seed", range(3))
    def test_capped_sets_print_what_the_full_search_gives(self, seed, capsys,
                                                          tmp_path,
                                                          monkeypatch):
        # the full search of a 9-criteria set passes the relation cap from
        # C0 on; every command prints what it prints with the cap raised
        # past the whole search, and no note
        from admcdm import classification

        path = tmp_path / "pairwise9.admp"
        path.write_text(format_problem(pairwise(9, seed, False)))
        argvs = [(command, *flags, str(path))
                 for command in ("classify", "solve", "compare")
                 for flags in ((), ("--json",))]
        capped = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(classification, "_RELATION_CAP", 10**6)
        assert [run(capsys, *argv) for argv in argvs] == capped
        code, out, _ = capped[0]
        assert code == 0
        assert out.startswith("label: StrongInconsistent (SD4)")
        assert "note:" not in out

    def test_capped_weak_label_is_conservative(self, capsys, tmp_path,
                                               monkeypatch):
        from admcdm import classification

        monkeypatch.setattr(classification, "_RELATION_CAP", 2)
        path = tmp_path / "weak.admp"
        path.write_text("criteria: x y z\npref: x = 2 y\npref: y = 2 z\n"
                        "pref: x = 3 z\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert out.startswith("label: WeakInconsistent")
        assert ("note: derivation stopped at the relation cap; label is "
                "conservative") in out


class TestAhp:
    def test_consistent_matrix(self, capsys):
        doc = run_json(capsys, "ahp", "--json", EX["ex1"])
        assert doc["ahp"]["lambda_max"] == pytest.approx(3.0, abs=1e-8)
        assert doc["ahp"]["vector"] == pytest.approx(
            [0.75, 0.1875, 0.0625], abs=1e-8)
        assert doc["ahp"]["error"] is None

    def test_multi_term_statements_are_rejected(self, capsys):
        code, _, err = run(capsys, "ahp", EX["ex2"])
        assert code == 3
        assert "NotPairwise" in err

    @pytest.mark.parametrize("command", ["ahp", "compare"])
    def test_tolerance_flag_is_a_usage_error(self, capsys, command):
        """The eigenpair is exact: there is no stop rule to tune."""
        with pytest.raises(SystemExit) as exit_:
            main([command, "--tol", "1e-6", EX["ex9"]])
        _, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert "unrecognized arguments: --tol" in err


class TestCompare:
    def test_side_by_side(self, capsys):
        code, out, _ = run(capsys, "compare", EX["ex9"])
        assert code == 0
        assert "discounted priority vs pairwise eigenvector:" in out
        assert "lambda_max" in out

    def test_baseline_failure_is_inline_not_fatal(self, capsys):
        code, out, _ = run(capsys, "compare", EX["ex2"])
        assert code == 0
        assert "pairwise baseline unavailable: NotPairwise" in out
        doc = run_json(capsys, "compare", "--json", EX["ex2"])
        assert doc["ahp"]["error"].startswith("NotPairwise")
        assert doc["ahp"]["lambda_max"] is None
        assert doc["priority"]["decimal"] == pytest.approx(
            [0.62923, 0.22246, 0.14831], abs=5e-5)


class TestErrorMin:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "error-min", "--grid", "16", EX["ex1"])
        assert code == 0
        assert "minimum value = 0" in out
        assert "C1 = 3/4 = 0.75" in out
        assert out.splitlines()[-1].startswith("evaluations = ")
        assert "refined" not in out

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "error-min", "--grid", "8",
                           "--csv", "-", EX["ex1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "C1,C2,C3,e"
        assert "grid written to" not in out

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "error-min", "--grid", "8",
                           "--csv", str(target), EX["ex1"])
        assert code == 0
        assert f"grid written to {target}" in out
        body = target.read_text().splitlines()
        assert body[0] == "C1,C2,C3,e"
        assert len(body) == 1 + 21  # header + C(7, 2) grid points

    def test_json_block(self, capsys):
        doc = run_json(capsys, "error-min", "--json", "--grid", "16",
                       EX["ex1"])
        assert doc["error_min"]["value"] == 0
        assert doc["error_min"]["argmin_exact"] == ["3/4", "3/16", "1/16"]
        assert set(doc["error_min"]) == {"argmin", "argmin_exact", "value",
                                         "value_exact", "evaluations"}

    def test_grid_flags_leave_a_linear_result_unchanged(self, capsys):
        plain = run_json(capsys, "error-min", "--json", EX["ex2"])
        for flags in (("--grid", "2"), ("--grid", "7")):
            assert run_json(capsys, "error-min", "--json", *flags,
                            EX["ex2"]) == plain
        assert plain["error_min"]["argmin_exact"] == ["6/11", "3/11", "2/11"]

    def test_the_default_grid_is_the_library_default(self, capsys):
        from admcdm.error_min import DEFAULT_GRID

        plain = run_json(capsys, "error-min", "--json", EX["ex16"])
        assert plain == run_json(capsys, "error-min", "--json", "--grid",
                                 str(DEFAULT_GRID), EX["ex16"])
        assert plain["error_min"]["argmin_exact"] == ["13/100", "73/100",
                                                      "7/50"]

    def test_a_triangular_product_set_reaches_exactly_zero(self, capsys):
        code, out, _ = run(capsys, "error-min", "--grid", "2", EX["ex15"])
        assert code == 0
        assert out.startswith("minimum value = 0\n")
        assert out.endswith("evaluations = 0\n")

    def test_refine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["error-min", "--refine", "5", EX["ex15"]])
        assert info.value.code == 2
        assert "--refine" in capsys.readouterr().err

    def test_a_huge_coefficient_is_solved_exactly(self, capsys, tmp_path):
        # x = 10^400 z^2 and y = z meet the simplex near z = 1e-200
        path = tmp_path / "huge.admp"
        path.write_text("criteria: x y z\n"
                        f"pref: x = 1{'0' * 400} y * y\n"
                        "pref: y = 1 z\n")
        doc = run_json(capsys, "error-min", "--json", str(path))
        block = doc["error_min"]
        assert block["value"] == 0 and block["value_exact"] == "0"
        assert all(v > 0 for v in block["argmin"])
        assert abs(sum(block["argmin"]) - 1.0) <= 1e-9

    def test_too_coarse_grid_on_product_statements_exits_3(self, capsys):
        code, out, err = run(capsys, "error-min", "--grid", "2", EX["ex16"])
        assert code == 3
        assert out == ""
        assert err.startswith("InvalidGrid: ")

    def test_csv_over_the_point_budget_exits_3(self, capsys):
        code, out, err = run(capsys, "error-min", "--grid", "1000",
                             "--csv", "-", EX["ex1"])
        assert code == 3
        assert out == ""
        assert "budget" in err


class TestRegimes:
    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "regimes", EX["ex15"])
        assert code == 0
        assert "solution family: [10z^2, 5z, z] for z > 0" in out
        assert "crossings: 1/10 = 0.1, 1/2 = 0.5" in out
        for piece in ("y>z>x", "y>z=x", "y>x>z", "y=x>z", "x>y>z"):
            assert piece in out

    def test_inequality_restricts_domain(self, capsys):
        doc = run_json(capsys, "regimes", "--json", EX["ex16"])
        assert doc["regimes"]["domain"] == [0, 0.1]
        assert [r["ordering"] for r in doc["regimes"]["regimes"]] == [
            "y>z>x"]
        assert doc["regimes"]["breakpoints"] == [0.1, 0.5]

    def test_point_evaluation(self, capsys):
        doc = run_json(capsys, "regimes", "--json", "--at", "z=1/4",
                       EX["ex15"])
        at = doc["regimes"]["at"]
        assert at["z"] == 0.25
        # [10/16, 5/4, 1/4] normalized: (5/17, 10/17, 2/17)
        assert at["vector"] == pytest.approx(
            [5 / 17, 10 / 17, 2 / 17], abs=1e-9)
        assert at["z_exact"] == "1/4"
        assert at["vector_exact"] == ["5/17", "10/17", "2/17"]

    def test_each_crossing_keeps_its_own_exact_form(self, capsys, tmp_path):
        # [18z^4, 3z^2, z]: y and z cross at 1/3, x meets z at
        # 18^(-1/3) and y at 6^(-1/2), both irrational
        path = tmp_path / "mixed.admp"
        path.write_text("criteria: x y z\npref: x = 2 y * y\n"
                        "pref: y = 3 z * z\n")
        code, out, _ = run(capsys, "regimes", str(path))
        assert code == 0
        assert ("crossings: 1/3 = 0.333333333333, 0.381571414184, "
                "0.408248290464\n") in out
        block = run_json(capsys, "regimes", "--json", str(path))["regimes"]
        assert block["breakpoints_exact"] == ["1/3", None, None]
        assert block["domain"] == [0.0, None]
        assert block["domain_exact"] == ["0", None]
        assert [(r["lower_exact"], r["upper_exact"])
                for r in block["regimes"][:3]] == [
            ("0", "1/3"), ("1/3", "1/3"), ("1/3", None)]

    def test_point_outside_domain_warns(self, capsys):
        doc = run_json(capsys, "regimes", "--json", "--at", "z=1/2",
                       EX["ex16"])
        assert any("outside the admissible domain" in w
                   for w in doc["warnings"])

    def test_at_validates_the_variable_name(self, capsys):
        code, _, err = run(capsys, "regimes", "--at", "y=2", EX["ex15"])
        assert code == 3
        assert "free variable is z" in err

    def test_at_requires_positive_value(self, capsys):
        code, _, err = run(capsys, "regimes", "--at", "z=0", EX["ex15"])
        assert code == 3

    def test_linear_problem_without_free_direction(self, capsys):
        code, _, err = run(capsys, "regimes", EX["ex9"])
        assert code == 3
        assert "OverDetermined" in err


HUGE = "1" + "0" * 400
TINY = "0." + "0" * 400 + "1"


class TestHugeValues:
    """Exact values far outside the float range end in a result or a typed
    refusal, never in an internal error."""

    # the cases whose exit code is known; every other one exits 0 or 3
    EXIT = {("huge-square", "regimes"): (0,), ("tiny-square", "regimes"): (0,),
            # x near 10^-401 / 4 at the irrational zero has no float
            ("tiny-square", "error-min"): (3,)}

    @pytest.mark.parametrize("command", ["regimes", "error-min"])
    @pytest.mark.parametrize("statements", [
        (f"x = {HUGE} y * y", "y = 1 z"),
        ("x = 2 y * y * y", f"y = {HUGE} z"),
        (f"x = {TINY} y * y", "y = 1 z"),
        # irrational crossings next to a huge or tiny exact coefficient
        (f"x = 2{HUGE[1:]} y * y * y", "y = 1 z"),
        (f"x = {TINY[:-1]}2 y * y * y", "y = 1 z"),
    ], ids=["huge-square", "huge-cube", "tiny-square", "huge-irrational",
            "tiny-irrational"])
    def test_exits_0_or_3(self, capsys, tmp_path, request, command,
                          statements):
        path = tmp_path / "huge.admp"
        path.write_text("criteria: x y z\n"
                        + "".join(f"pref: {s}\n" for s in statements))
        case = request.node.callspec.id.removesuffix(f"-{command}")
        expected = self.EXIT.get((case, command), (0, 3))
        for flags in ([], ["--json"]):
            code, _, err = run(capsys, command, *flags, str(path))
            assert code in expected, err
            assert "internal error" not in err
        if expected == (3,):
            assert err == ("InvalidProblem: a root lies outside the float "
                           "range\n")

    @pytest.mark.parametrize("statements, value", [
        ((f"x = {HUGE} y * y", "y = 1 z"), f"1/{HUGE}"),
        ((f"x = {TINY} y * y", "y = 1 z"), f"{HUGE}0"),
        ((f"x = 1/{HUGE} y * y", "y = 1 z"), HUGE),
    ], ids=["huge-square", "tiny-square", "huge-crossing"])
    def test_regimes_print_a_crossing_without_a_float(self, capsys, tmp_path,
                                                      statements, value):
        # x = c z^2 and y = z cross at z = 1/c, which has no float
        path = tmp_path / "huge.admp"
        path.write_text("criteria: x y z\n"
                        + "".join(f"pref: {s}\n" for s in statements))
        code, out, err = run(capsys, "regimes", str(path))
        assert (code, err) == (0, "")
        assert f"crossings: {value}\n" in out
        assert f"  z = {value}: y=z=x\n" in out
        block = run_json(capsys, "regimes", "--json", str(path))["regimes"]
        assert block["breakpoints"] == [None]
        assert block["breakpoints_exact"] == [value]
        point = block["regimes"][1]
        assert (point["lower"], point["lower_exact"]) == (None, value)
        assert block["regimes"][2]["upper"] is None  # unbounded
        assert block["regimes"][2]["upper_exact"] is None
        coefficient = block["components"][0]
        assert coefficient["coefficient"] is None
        assert Fraction(coefficient["exact"]) == 1 / Fraction(value)

    @pytest.mark.parametrize("command", ["ahp", "compare"])
    def test_a_ratio_past_the_float_range_is_reported(self, capsys, tmp_path,
                                                      command):
        # lambda_max = 2 and w = (10^400, 1) / (10^400 + 1): the matrix
        # cells 10^400 and 10^-400 and the weight of y have no float
        path = tmp_path / "huge.admp"
        path.write_text(f"criteria: x y\npref: x = {HUGE} y\n")
        weight = f"1/1{HUGE[2:]}1"
        code, out, err = run(capsys, command, str(path))
        assert (code, err) == (0, "")
        assert f"{weight}\n" in out
        ahp = run_json(capsys, command, "--json", str(path))["ahp"]
        assert ahp["matrix"] == [[1.0, None], [None, 1.0]]
        assert ahp["matrix_exact"] == [["1", HUGE], [f"1/{HUGE}", "1"]]
        assert (ahp["lambda_max"], ahp["lambda_max_exact"]) == (2.0, "2")
        assert ahp["vector"] == [1.0, None]
        assert ahp["vector_exact"] == [f"{HUGE}/1{HUGE[2:]}1", weight]

    def test_the_grid_csv_prints_a_value_without_a_float(self, capsys,
                                                         tmp_path):
        path = tmp_path / "huge.admp"
        path.write_text(f"criteria: x y z\npref: x = {HUGE} y * y\n"
                        "pref: y = 1 z\n")
        code, out, err = run(capsys, "error-min", "--grid", "4", "--csv", "-",
                             str(path))
        assert (code, err) == (0, "")
        rows = out.split("minimum value")[0].splitlines()
        assert rows[0] == "x,y,z,e"
        # at (1/4, 1/4, 1/2), e = |1/4 - 10^400/16| + |1/4 - 1/2|, exact
        assert rows[1] == f"0.25,0.25,0.5,{Fraction(HUGE) / 16}"

    @pytest.mark.parametrize("command", ["solve", "classify", "compare"])
    @pytest.mark.parametrize("text", [
        f"criteria: x y\npref: x = {HUGE} y\npref: y = 3 x\n",
        "criteria: x y z\n" + "".join(
            f"pref: {a} = 1{'0' * 200} {b}\n" for a, b in ("xy", "yz", "zx")),
    ], ids=["huge-pair", "huge-cycle"])
    def test_linear_sets_exit_0_or_3(self, capsys, tmp_path, command, text):
        # each ratio or a product of them is past the largest float
        path = tmp_path / "huge.admp"
        path.write_text(text)
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, command, *flags, str(path))
            assert code in (0, 3), err
            assert "internal error" not in err
        if command == "classify":
            assert '"label":"StrongInconsistent","rule":"SD4"' in out

    def test_a_rational_root_with_a_large_denominator_is_exact(self, capsys,
                                                               tmp_path):
        path = tmp_path / "cycle.admp"
        path.write_text("criteria: x y z\n" + "".join(
            f"pref: {a} = 10000000001 {b}\n" for a, b in ("xy", "yz", "zx")))
        doc = run_json(capsys, "solve", "--json", str(path))
        assert doc["alpha"]["exact"] == "1/10000000001"
        assert doc["priority"]["exact"] == ["1/3", "1/3", "1/3"]

    def test_error_min_names_a_root_below_the_float_range(self, capsys,
                                                          tmp_path):
        # the exact minimum sits at z near 10^-400, which has no float
        path = tmp_path / "tiny-root.admp"
        path.write_text("criteria: x y z\n"
                        "pref: x = 2 y * y * y\n"
                        f"pref: y = {HUGE} z\n")
        code, _, err = run(capsys, "error-min", str(path))
        assert code == 3
        assert "InvalidProblem: a root lies outside the float range" in err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_a_full_rank_float_core_exits_3(self, capsys, tmp_path, command):
        # alpha = sqrt(7) 10^-9, where the float elimination of the core
        # keeps every pivot
        path = tmp_path / "full-rank.admp"
        path.write_text("criteria: c0 c1 c2\npref: c1 = 1000000000/7 c0\n"
                        "pref: c2 = 9/5 c1\npref: c0 = 7000000000/7 c1\n")
        code, _, err = run(capsys, command, str(path))
        assert code == 3
        assert err.startswith("InvalidProblem: the float elimination")

    def test_ahp_on_ratios_far_apart(self, capsys, tmp_path):
        path = tmp_path / "huge-ratio.admp"
        path.write_text("criteria: x y z\npref: x = 3 y\npref: y = 2 z\n"
                        f"pref: x = 1{'0' * 200} z\n")
        doc = run_json(capsys, "ahp", "--json", str(path))
        x, y, z = doc["ahp"]["vector"]
        assert 0 < z < y < x
        assert y / x == pytest.approx(1.30495588039e-67, rel=1e-10)


class TestGenCyclic:
    def test_generated_problem_matches_the_corpus(self, capsys):
        code, out, _ = run(capsys, "gen-cyclic", "--t", "9")
        assert code == 0
        generated = parse_problem(out)
        stored = parse_problem((CORPUS / "ex11.admp").read_text())
        assert generated == stored

    def test_rational_strength(self, capsys):
        code, out, _ = run(capsys, "gen-cyclic", "--t", "9/5")
        assert code == 0
        assert "pref: x = 9/5 y" in out
        assert "pref: x = 5/9 z" in out

    def test_decimal_strength_is_exact(self, capsys):
        code, out, _ = run(capsys, "gen-cyclic", "--t", "0.8")
        assert code == 0
        assert "pref: x = 4/5 y" in out


class TestBadNumbers:
    """A malformed number in an option is a usage error naming the option,
    refused before any input is read."""

    @pytest.mark.parametrize("argv, option", [
        (("solve", "--threshold-c", "abc", EX["ex1"]), "--threshold-c"),
        (("gen-cyclic", "--t", "abc"), "--t"),
        (("gen-cyclic", "--t", "1/0"), "--t"),
        (("regimes", "--at", "z=abc", EX["ex15"]), "--at"),
        (("regimes", "--at", "z", EX["ex15"]), "--at"),
    ], ids=["threshold-abc", "t-abc", "t-zero-denominator", "at-abc",
            "at-no-value"])
    def test_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        _, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert f"argument {option}:" in err
        assert "internal error" not in err


class TestSurface:
    @pytest.mark.parametrize("argv", [
        [], ["solve"], ["classify"], ["ahp"], ["compare"], ["error-min"],
        ["regimes"], ["gen-cyclic"],
    ], ids=lambda argv: " ".join(argv) or "admcdm")
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--help"])
        out, _ = capsys.readouterr()
        assert exit_.value.code == 0
        assert out.startswith("usage: admcdm")


class TestCorpusCoverage:
    def test_every_corpus_file_has_a_working_command(self, capsys,
                                                     corpus_files):
        for path in corpus_files:
            code_solve, out, _ = run(capsys, "solve", str(path))
            if code_solve != 0:
                code_reg, out, _ = run(capsys, "regimes", str(path))
                assert code_reg == 0, path.name
            assert out.strip(), path.name

    def test_json_documents_are_canonical_everywhere(self, capsys,
                                                     corpus_files):
        for path in corpus_files:
            code, out, err = run(capsys, "solve", "--json", str(path))
            if code != 0:
                code, out, err = run(capsys, "regimes", "--json", str(path))
            assert code == 0, (path.name, err)
            doc = json.loads(out)
            assert set(doc) == DOC_KEYS, path.name
            canonical = json.dumps(doc, sort_keys=True,
                                   separators=(",", ":"))
            assert out == canonical + "\n", path.name
