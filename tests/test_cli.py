"""Command-line behavior: outputs, round trips, exit codes, determinism."""

import json
from fractions import Fraction as F

import pytest

from isospec.cli import main
from isospec.operators import classical_preset, second_order_element
from isospec.polynomials import Basis
from isospec.representations import ShiftOperator, realize_lattice
from isospec.spectral import OperatorMatrix, char_poly
from isospec.verify import SUITES, CheckResult, SuiteResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiscretize:
    def test_hermite_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "discretize", "--op", "hermite",
                               "--delta", "1", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["points"] == [-1, 0, 1, 2]
        parsed = ShiftOperator.from_json_obj(blob)
        expected = realize_lattice(second_order_element(classical_preset("hermite")), 1)
        assert parsed == expected

    def test_six_coefficient_form_at_half_step(self, capsys):
        code, out, _ = run_cli(capsys, "discretize", "--op", "e2",
                               "--params", "0,0,-1,-2,0,0", "--delta", "1/2")
        assert code == 0
        parsed = ShiftOperator.from_json_obj(json.loads(out))
        expected = realize_lattice(
            second_order_element(classical_preset("hermite")), F(1, 2))
        assert parsed == expected

    def test_three_point_preset(self, capsys):
        code, out, _ = run_cli(capsys, "discretize", "--op", "three-point",
                               "--preset", "charlier", "--mu", "2")
        assert code == 0
        blob = json.loads(out)
        assert blob["points"] == [-1, 0, 1]
        assert blob["delta"] == "1"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "op.json"
        code, out, _ = run_cli(capsys, "discretize", "--op", "hermite",
                               "--delta", "1", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["delta"] == "1"


class TestStencil:
    def test_points_and_width(self, capsys):
        code, out, _ = run_cli(capsys, "stencil", "--op", "e2",
                               "--params", "1,1,1,1,1,1", "--delta", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["points"] == [-2, -1, 0, 1, 2]
        assert blob["n_points"] == 5 and blob["width"] == 4


class TestSpectrum:
    def test_hermite_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--op", "hermite", "--degree", "4")
        assert code == 0
        blob = json.loads(out)
        entries = blob["matrix"]["entries"]
        assert [entries[i][i] for i in range(5)] == ["0", "-2", "-4", "-6", "-8"]
        assert blob["warning"] is None
        assert blob["notes"]  # the sign-convention flag

    def test_zero_operator_char_poly(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--op", "e2",
                               "--params", "0,0,0,0,0,0", "--degree", "3")
        assert code == 0
        blob = json.loads(out)
        assert blob["char_poly"] == ["0", "0", "0", "0", "1"]

    def test_hahn_eigenvalues_follow_the_diagonal_formula(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--op", "three-point",
                               "--preset", "hahn", "--alpha", "0", "--beta", "0",
                               "--size", "5", "--degree", "4")
        assert code == 0
        blob = json.loads(out)
        eigenvalues = [p["eigenvalue"] for p in blob["eigenpairs"]]
        # A1*k^2/step + A3*k + A5 with A1=-1, step=-1, A3=1, A5=0
        assert eigenvalues == [str(k * k + k) for k in range(5)]

    def test_degenerate_spectrum_warns_but_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--op", "three-point",
                               "--params", "0,0,0,1,0", "--delta", "1",
                               "--degree", "3")
        assert code == 0
        blob = json.loads(out)
        assert blob["eigenpairs"] is None
        assert "degenerate" in blob["warning"]

    @pytest.mark.parametrize("argv", [
        ["--op", "qes2", "--spin", "8", "--params", "1,-2,3/2,1/3,-1,2,5/4,-3,1/2,2",
         "--delta", "3/7", "--basis", "monomial"],
        ["--op", "qes3", "--spin", "8", "--aplus", "2", "--params", "1,2,3,4,5",
         "--delta", "1/2"],
        ["--op", "qes3", "--spin", "8", "--aplus", "2", "--params", "1,2,3,4,5",
         "--delta", "1/2", "--basis", "quasi"],
        ["--op", "hermite", "--degree", "6", "--delta", "1/2", "--basis", "monomial"],
    ])
    def test_lattice_char_poly_is_that_of_the_printed_matrix(self, capsys, argv):
        # the char poly may be taken on the operator's own ladder; a change of
        # basis is a similarity, so it must be that of the matrix printed
        code, out, _ = run_cli(capsys, "spectrum", *argv, "--degree", "8")
        assert code == 0
        blob = json.loads(out)
        entries = tuple(tuple(F(c) for c in row) for row in blob["matrix"]["entries"])
        matrix = OperatorMatrix(Basis.from_json_obj(blob["matrix"]["basis"]), entries)
        assert [F(c) for c in blob["char_poly"]] == list(char_poly(matrix).coeffs)

    def test_lattice_view_of_an_element(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--op", "hermite",
                               "--degree", "4", "--delta", "1/2")
        assert code == 0
        blob = json.loads(out)
        assert blob["representation"] == "lattice"
        assert blob["matrix"]["basis"] == {"quasi": "1/2"}
        entries = blob["matrix"]["entries"]
        assert [entries[i][i] for i in range(5)] == ["0", "-2", "-4", "-6", "-8"]


class TestFamily:
    def test_hermite_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--name", "discrete-hermite",
                               "--delta", "1", "--kmax", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,eigenvalue,verified,m0,m1,m2,m3,q0,q1,q2,q3"
        row = lines[3].split(",")
        assert row[0] == "2" and row[2] == "true"
        assert row[3:7] == ["-2", "-4", "4", "0"]  # 4x^2 - 4x - 2

    def test_single_constant_row(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--name", "discrete-hermite",
                               "--delta", "1", "--kmax", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[:4] == ["0", "0", "true", "1"]

    def test_legendre_all_rows_verified(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--name", "discrete-legendre",
                               "--delta", "1/3", "--kmax", "5", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert all(entry["verified"] for entry in blob["entries"])
        assert len(blob["entries"]) == 6


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "heisenberg")
        assert code == 0
        blob = json.loads(out)
        assert blob["ok"] and blob["failed"] == 0

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "stencils", "--seed", "7")
        _, second, _ = run_cli(capsys, "verify", "--suite", "stencils", "--seed", "7")
        assert first == second

    def test_seed_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOSPEC_SEED", "11")
        _, out, _ = run_cli(capsys, "verify", "--suite", "heisenberg")
        assert json.loads(out)["seed"] == 11
        _, out, _ = run_cli(capsys, "verify", "--suite", "heisenberg", "--seed", "3")
        assert json.loads(out)["seed"] == 3

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "bogus" in err


class TestExitCodes:
    def test_missing_delta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--op", "hermite")
        assert code == 2
        assert "--delta" in err

    def test_conflicting_preset_delta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--op", "three-point",
                               "--preset", "charlier", "--mu", "2", "--delta", "-1")
        assert code == 2
        assert "conflicts" in err

    def test_bad_fraction_names_the_input(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--op", "hermite",
                               "--delta", "3/0")
        assert code == 2
        assert "--delta" in err and "3/0" in err

    def test_inadmissible_preset_parameter(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--op", "laguerre",
                               "--alpha", "-2", "--delta", "1")
        assert code == 2
        assert "alpha" in err

    def test_closure_violation_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--op", "qes2", "--spin", "2",
                               "--params", "1,0,0,0,0,0,0,0,0,0", "--degree", "5")
        assert code == 3
        assert "degree" in err

    @pytest.mark.parametrize("delta", [[], ["--delta", "3/7"]])
    def test_closure_violation_names_the_lowest_overflowing_degree(self, capsys, delta):
        # a spin-6 form closes on degree <= 6 and x^7 stays below the bound 9,
        # so x^8 is the first basis element to leave it, in both realizations
        code, out, err = run_cli(capsys, "spectrum", "--op", "qes2", "--spin", "6",
                                 "--degree", "9", "--params",
                                 "1,-2,3/2,1/3,-1,2,5/4,-3,1/2,2", *delta)
        assert code == 3 and out == ""
        assert err == ("isospec: domain error: image of the degree-8 basis element "
                       "has degree 10 > bound 9\n")

    def test_zero_delta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--op", "hermite", "--delta", "0")
        assert code == 2

    def test_flag_the_family_does_not_take_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "discretize", "--op", "laguerre",
                               "--mu", "2", "--delta", "1")
        assert code == 2
        assert "mu" in err

    @pytest.mark.parametrize("argv", [
        ["--op", "e2", "--params", "0,0,-1,-2,0,0", "--delta", "1", "--alpha", "5", "--size", "3"],
        ["--op", "three-point", "--params", "1,2,3,4,5", "--delta", "1", "--mu", "2"],
        ["--op", "qes2", "--spin", "2", "--params", "1,0,0,0,0,0,0,0,0,0", "--delta", "1",
         "--beta", "1"],
        ["--op", "qes3", "--spin", "2", "--aplus", "1", "--params", "1,2,3,4,5",
         "--delta", "1", "--size", "4"],
    ], ids=["e2", "three-point-params", "qes2", "qes3"])
    def test_family_flags_on_inline_operators_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "discretize", *argv)
        assert code == 2 and out == ""
        assert "family flags" in err

    def test_meixner_preset_refuses_a_non_positive_integer_gamma(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--op", "three-point", "--preset", "meixner",
                                 "--gamma", "-1", "--mu", "2", "--degree", "3", "--format", "text")
        assert code == 2 and out == ""
        assert "gamma must not be a non-positive integer" in err

    def test_meixner_preset_defaults_gamma_to_one(self, capsys):
        argv = ["spectrum", "--op", "three-point", "--preset", "meixner", "--mu", "2",
                "--degree", "3"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert run_cli(capsys, *argv, "--gamma", "1") == (0, out, "")

    def test_flag_the_preset_does_not_take_names_the_family_rule(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--op", "laguerre", "--mu", "2",
                                 "--degree", "3")
        assert code == 2 and out == ""
        assert "unexpected laguerre parameters ['mu']" in err
        assert "_preset_" not in err

    def test_spin_without_a_qes_operator_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "discretize", "--op", "hermite",
                                 "--delta", "1", "--spin", "3")
        assert code == 2 and out == ""
        assert err.startswith("isospec: usage error:") and "--spin" in err

    def test_aplus_without_qes3_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "discretize", "--op", "qes2", "--spin", "2",
                                 "--params", "1,0,0,0,0,0,0,0,0,0", "--delta", "1",
                                 "--aplus", "2")
        assert code == 2 and out == ""
        assert err.startswith("isospec: usage error:") and "--aplus" in err

    @pytest.mark.parametrize("flag, argv", [
        ("--basis", ["spectrum", "--op", "hermite", "--degree", "2", "--basis", "quasi"]),
        ("--params", ["discretize", "--op", "hermite", "--delta", "1",
                      "--params", "1,2,3,4,5,6"]),
        ("--params", ["discretize", "--op", "three-point", "--preset", "charlier", "--mu", "2",
                      "--params", "1,2,3,4,5"]),
        ("--preset", ["discretize", "--op", "e2", "--params", "0,0,-1,-2,0,0", "--delta", "1",
                      "--preset", "hahn"]),
    ], ids=["basis-on-continuum", "params-on-classical", "params-with-preset", "preset-on-e2"])
    def test_flags_the_operator_does_not_take_are_usage_errors(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("isospec: usage error:") and flag in err

    @pytest.mark.parametrize("argv", [
        ["--op", "e2", "--params", "1,2,3,4,5,6,"],
        ["--op", "e2", "--params", "1,,2,3,4,5,6"],
        ["--op", "e2", "--params", ",1,2,3,4,5,6"],
        ["--op", "three-point", "--params", "1,2,3,4,,5"],
    ], ids=["e2-trailing", "e2-inner", "e2-leading", "three-point-inner"])
    def test_empty_params_fields_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "discretize", *argv, "--delta", "1")
        assert code == 2 and out == ""
        assert err.startswith("isospec: usage error:") and "--params" in err

    def test_unknown_operator_is_named_before_its_flags(self, capsys):
        code, out, err = run_cli(capsys, "discretize", "--op", "bogus", "--params", "1,2",
                                 "--delta", "1")
        assert code == 2 and out == ""
        assert "unknown operator 'bogus'" in err

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "discretize", "--op", "hermite",
                                 "--delta", "1", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("isospec: error:") and "Traceback" not in err


class TestExitCodeTable:
    """One case per documented exit code, each pinning its failure class."""

    def test_0_success(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--op", "hermite", "--degree", "2")
        assert code == 0 and err == ""
        assert json.loads(out)["char_poly"] == ["0", "8", "6", "1"]

    def test_1_verification_failure(self, capsys, monkeypatch):
        def failing_suite(seed, trials):
            return SuiteResult("heisenberg", trials, (CheckResult("forced", False, "x"),))

        monkeypatch.setitem(SUITES, "heisenberg", failing_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", "heisenberg")
        assert code == 1
        blob = json.loads(out)
        assert not blob["ok"] and blob["failed"] == 1

    def test_2_parameter_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--op", "hermite", "--degree", "501")
        assert code == 2 and out == ""
        assert err.startswith("isospec: parameter error:") and "--degree" in err

    def test_3_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--op", "qes2", "--spin", "1",
                                 "--params", "1,0,0,0,0,0,0,0,0,0", "--degree", "3")
        assert code == 3 and out == ""
        assert err.startswith("isospec: domain error:")


class TestSizeCaps:
    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--op", "hermite", "--degree", "501"], "--degree"),
        (["spectrum", "--op", "hermite", "--degree", "-1"], "--degree"),
        (["spectrum", "--op", "hermite", "--degree", "10000000000"], "--degree"),
        (["family", "--name", "discrete-hermite", "--delta", "1", "--kmax", "501"], "--kmax"),
        (["spectrum", "--op", "qes2", "--spin", "501", "--params", "1,0,0,0,0,0,0,0,0,0",
          "--degree", "2"], "--spin"),
        (["discretize", "--op", "qes3", "--spin", "501", "--aplus", "1",
          "--params", "1,2,3,4,5", "--delta", "1"], "--spin"),
        (["verify", "--suite", "heisenberg", "--trials", "1001"], "--trials"),
        (["verify", "--suite", "heisenberg", "--trials", "0"], "--trials"),
        (["verify", "--suite", "heisenberg", "--trials", "-3"], "--trials"),
    ], ids=["degree-above", "degree-negative", "degree-huge", "kmax", "spin-qes2", "spin-qes3",
            "trials-above", "trials-zero", "trials-negative"])
    def test_out_of_range_sizes_exit_two_before_any_work(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("isospec: parameter error:") and flag in err

    @pytest.mark.parametrize("text", ["1_0", "+2", "\u0662", "4/3"],
                             ids=["underscore", "plus", "arabic-2", "fraction"])
    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--op", "hermite", "--degree"], "--degree"),
        (["family", "--name", "discrete-hermite", "--delta", "1", "--kmax"], "--kmax"),
        (["spectrum", "--op", "qes2", "--params", "1,0,0,0,0,0,0,0,0,0", "--degree", "2",
          "--spin"], "--spin"),
        (["discretize", "--op", "three-point", "--preset", "hahn", "--alpha", "0",
          "--beta", "0", "--size"], "--size"),
        (["verify", "--suite", "heisenberg", "--trials"], "--trials"),
        (["verify", "--suite", "heisenberg", "--seed"], "--seed"),
    ], ids=["degree", "kmax", "spin", "size", "trials", "seed"])
    def test_integer_flags_are_strict(self, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(argv + [text])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument {flag}: not an integer" in captured.err

    @pytest.mark.parametrize("text", ["1_0", "+2", "\u0662", "4/3"],
                             ids=["underscore", "plus", "arabic-2", "fraction"])
    def test_seed_environment_variable_is_strict(self, capsys, monkeypatch, text):
        monkeypatch.setenv("ISOSPEC_SEED", text)
        code, out, err = run_cli(capsys, "verify", "--suite", "heisenberg")
        assert code == 2 and out == ""
        assert err.startswith("isospec: usage error:") and "ISOSPEC_SEED" in err

    def test_one_trial_is_the_smallest_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "stencils", "--trials", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["ok"] and blob["suites"][0]["trials"] == 1
