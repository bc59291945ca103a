"""Command-line behavior: exit codes, text reports, canonical JSON, batch
mode, fallbacks, and the generator subcommand."""

import json

import pytest

from admcdm.cli import main
from admcdm.parser import parse_problem

from conftest import CORPUS

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

    def test_tolerance_flag_is_accepted(self, capsys):
        code, out, _ = run(capsys, "ahp", "--tol", "1e-6", EX["ex9"])
        assert code == 0
        assert "lambda_max = 3.08" in out


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
        code, out, _ = run(capsys, "error-min", "--grid", "16",
                           "--refine", "0", EX["ex1"])
        assert code == 0
        assert "minimum value = 0" in out
        assert "C1 = 3/4 = 0.75" in out
        assert "refined = no" in out

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "error-min", "--grid", "8",
                           "--refine", "0", "--csv", "-", EX["ex1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "C1,C2,C3,e"
        assert "grid written to" not in out

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "error-min", "--grid", "8",
                           "--refine", "0", "--csv", str(target), EX["ex1"])
        assert code == 0
        assert f"grid written to {target}" in out
        body = target.read_text().splitlines()
        assert body[0] == "C1,C2,C3,e"
        assert len(body) == 1 + 21  # header + C(7, 2) grid points

    def test_json_block(self, capsys):
        doc = run_json(capsys, "error-min", "--json", "--grid", "16",
                       "--refine", "0", EX["ex1"])
        assert doc["error_min"]["value"] == 0
        assert doc["error_min"]["argmin_exact"] == ["3/4", "3/16", "1/16"]
        assert doc["error_min"]["refined"] is False

    def test_grid_flags_leave_a_linear_result_unchanged(self, capsys):
        plain = run_json(capsys, "error-min", "--json", EX["ex2"])
        for flags in (("--grid", "2", "--refine", "0"),
                      ("--grid", "7", "--refine", "3")):
            assert run_json(capsys, "error-min", "--json", *flags,
                            EX["ex2"]) == plain
        assert plain["error_min"]["argmin_exact"] == ["6/11", "3/11", "2/11"]

    def test_too_coarse_grid_on_product_statements_exits_3(self, capsys):
        code, out, err = run(capsys, "error-min", "--grid", "2", EX["ex15"])
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
    refused before any input is read or any iteration runs."""

    @pytest.mark.parametrize("argv, option", [
        (("solve", "--threshold-c", "abc", EX["ex1"]), "--threshold-c"),
        (("gen-cyclic", "--t", "abc"), "--t"),
        (("gen-cyclic", "--t", "1/0"), "--t"),
        (("regimes", "--at", "z=abc", EX["ex15"]), "--at"),
        (("ahp", "--tol", "0", EX["ex9"]), "--tol"),
        (("compare", "--tol=-0.5", EX["ex9"]), "--tol"),
        (("ahp", "--tol", "nan", EX["ex9"]), "--tol"),
    ], ids=["threshold-abc", "t-abc", "t-zero-denominator", "at-abc",
            "tol-zero", "tol-negative", "tol-nan"])
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

    @pytest.mark.parametrize("command", ["ahp", "compare"])
    def test_default_tolerance_is_the_baseline_default(self, capsys,
                                                       monkeypatch, command):
        import admcdm.cli
        from admcdm.ahp import DEFAULT_TOL, ahp_priority

        seen = []

        def spy(matrix, tol):
            seen.append(tol)
            return ahp_priority(matrix, tol)

        monkeypatch.setattr(admcdm.cli, "ahp_priority", spy)
        code, _, err = run(capsys, command, EX["ex9"])
        assert code == 0, err
        assert seen == [DEFAULT_TOL]


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
