import argparse
import json
import math
import warnings

import numpy as np
import pytest

from pmean.cli import SIMULATING, build_parser, parse_p, parse_vector, run
from pmean.numcore import DomainError


# One small valid command line per subcommand.
MINIMAL = {
    "version": ["version"],
    "critval": ["critval", "--p", "2", "--d", "10", "--alpha", "0.05"],
    "power": ["power", "--p", "2", "--d", "3", "--alpha", "0.05", "--shift", "1,0,0"],
    "samplesize": ["samplesize", "--p", "2", "--d", "3", "--alpha", "0.05", "--beta", "0.8",
                   "--theta", "1,0,0"],
    "feasible": ["feasible", "--p", "1", "--d", "3", "--alpha", "0.05", "--beta", "0.8",
                 "--u", "1,0,0"],
    "are": ["are", "--p", "2", "--alpha", "0.05", "--beta", "0.8", "--useq", "spike"],
    "are-finite": ["are-finite", "--p", "1", "--d", "1", "--u", "1", "--alpha", "0.05",
                   "--beta", "0.8"],
    "ap-curve": ["ap-curve", "--from", "1", "--to", "2", "--step", "0.5", "--format", "json"],
    "verify-ap": ["verify-ap", "--from", "1", "--to", "3", "--step", "0.5"],
    "simulate": ["simulate", "--p", "2", "--d", "3", "--alpha", "0.05", "--reps", "1000",
                 "--critval", "asymptotic"],
    "ks": ["ks", "--p", "2", "--d", "10", "--nrep", "100"],
    "schur2-check": ["schur2-check", "--p", "1", "--d", "2", "--c", "1.5",
                     "--v", "1.4142135623730951,0", "--w", "1,1", "--reps", "1000"],
}


def subcommands():
    """name -> subparser, for every subcommand of build_parser()."""
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def rebuild_argv(config: dict) -> list:
    """Reconstruct the command line from an echoed config block."""
    argv = [config["cmd"]]
    for key, val in config.items():
        if key == "cmd" or val is None:
            continue
        flag = "--" + {"lo": "from", "hi": "to"}.get(key, key)
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        else:
            argv.extend([flag, str(val)])
    return argv


class TestParsing:
    def test_parse_p(self):
        assert parse_p("-inf") == -math.inf
        assert parse_p("inf") == math.inf
        assert parse_p("2.5") == 2.5

    def test_vector_literals(self):
        assert np.array_equal(parse_vector("1,0,0", 3), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(parse_vector("equalized:2", 3), np.full(3, 2.0))
        v = parse_vector("spike:1.5", 4)
        assert v[0] == 1.5 * 2.0 and np.all(v[1:] == 0.0)
        v = parse_vector("block:2:0.7", 4)
        assert np.array_equal(v, np.array([0.7, 0.7, 0.0, 0.0]))

    def test_vector_file(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("1.0 2.0\n3.0\n")
        assert np.array_equal(parse_vector(str(f), 3), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("spec", ["block:2", "block:a:1", "block:1:2:3", "equalized:x",
                                      "spike:", "equalized"])
    def test_malformed_generator_exit_2(self, spec, capsys):
        assert run(["power", "--p", "2", "--d", "3", "--alpha", "0.05", "--shift", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(spec) in captured.err and "block:<k>:<s>" in captured.err

    @pytest.mark.parametrize("flag,spec", [
        ("--shift", "1,a,2"), ("--shift", "abc"), ("--shift", "1,,2"), ("--shift", "file"),
        ("--useq", "block:abc"), ("--useq", "block:"), ("--useq", "blocks")])
    def test_malformed_number_exit_2(self, flag, spec, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("1.0 x 2.0\n")
        if flag == "--shift":
            argv = ["power", "--p", "2", "--d", "3", "--alpha", "0.05", "--shift", spec]
            form = "block:<k>:<s>"
        else:
            argv = ["are", "--p", "2", "--alpha", "0.05", "--beta", "0.8", "--useq", spec]
            form = "block:<gamma>"
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(spec) in captured.err and form in captured.err
        assert "could not convert" not in captured.err

    def test_vector_dimension_mismatch(self):
        with pytest.raises(DomainError):
            parse_vector("1,2", 3)


class TestSubcommands:
    def test_version(self, capsys):
        code, out = run_capture(["version"], capsys)
        assert code == 0
        assert "version" in json.loads(out)["result"]

    def test_critval_json(self, capsys):
        code, out = run_capture(["critval", "--p", "2", "--d", "100", "--alpha", "0.05"],
                                capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["result"]["critical_value"] - 1.11023305244) < 1e-9
        assert doc["config"]["cmd"] == "critval"

    def test_samplesize_unit_theta(self, capsys):
        # spike:0.1 at d=100 has ||theta||^2 = 1, the closed-form n = 47 case
        code, out = run_capture(
            ["samplesize", "--p", "2", "--d", "100", "--alpha", "0.05",
             "--beta", "0.95", "--theta", "spike:0.1"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["n"] == 47

    def test_samplesize_infeasible_exit3(self, capsys):
        # too many zero coordinates, and p = -1 at d = 1e4 where no direction
        # reaches beta: both exit 3 and say which
        for p, d, theta, why in (("-2", "100", "spike:1.0", "d_0=99 exceeds threshold"),
                                 ("-1", "10000", "equalized:0.02", "no direction reaches")):
            code = run(["samplesize", "--p", p, "--d", d, "--alpha", "0.05",
                        "--beta", "0.95", "--theta", theta])
            assert code == 3
            assert why in capsys.readouterr().err

    def test_feasible(self, capsys):
        # infeasible verdicts exit 3 (scripting contract) with the full result
        code, out = run_capture(
            ["feasible", "--p", "-2", "--d", "100", "--alpha", "0.05",
             "--beta", "0.95", "--u", "spike:1.0"], capsys)
        assert code == 3
        doc = json.loads(out)
        assert doc["result"]["feasible"] is False
        assert doc["result"]["d0"] == 99
        code, out = run_capture(
            ["feasible", "--p", "-2", "--d", "100", "--alpha", "0.05",
             "--beta", "0.95", "--u", "equalized:1.0"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["feasible"] is True

    def test_negative_p_spellings(self, capsys):
        code, out = run_capture(
            ["critval", "--p", "-inf", "--d", "10000", "--alpha", "0.05"], capsys)
        assert code == 0
        assert abs(json.loads(out)["result"]["critical_value"] - 3.7546e-4) < 1e-7
        code, out = run_capture(
            ["critval", "--p=-0.5", "--d", "1000", "--alpha", "0.05"], capsys)
        assert code == 0

    def test_power(self, capsys):
        code, out = run_capture(
            ["power", "--p", "2", "--d", "100", "--alpha", "0.05",
             "--shift", "equalized:0"], capsys)
        assert code == 0
        assert abs(json.loads(out)["result"]["power"] - 0.05) < 1e-9

    def test_are_finite(self, capsys):
        code, out = run_capture(
            ["are-finite", "--p", "1", "--d", "2", "--u", "1,1",
             "--alpha", "0.05", "--beta", "0.95"], capsys)
        assert code == 0
        assert abs(json.loads(out)["result"]["are"] - 1.0317) < 2e-3

    def test_are_classifier(self, capsys):
        code, out = run_capture(
            ["are", "--p", "3", "--alpha", "0.05", "--beta", "0.95",
             "--useq", "spike", "--dims", "100,10000,1000000"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["tag"] == "infinite"

    def test_ap_curve_contains_exact_values(self, capsys):
        code, out = run_capture(
            ["ap-curve", "--from", "-0.49", "--to", "8", "--step", "0.01", "--psi"],
            capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,a_p,psi_p,psi_a"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert rows["2"][1] == "1"
        assert abs(float(rows["0"][1]) - 2 / math.pi) < 1e-11
        assert float(rows["0"][2]) == 0.0
        assert abs(float(rows["3"][1]) - 0.959246530077) < 1e-9

    def test_verify_ap(self, capsys):
        code, out = run_capture(
            ["verify-ap", "--from", "-0.4", "--to", "5", "--step", "0.01"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["ok"] is True
        assert doc["result"]["r_violations"] == 0

    def test_simulate_size(self, capsys):
        code, out = run_capture(
            ["simulate", "--p", "2", "--d", "50", "--alpha", "0.05",
             "--reps", "20000", "--seed", "7"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["result"]["estimate"] - 0.05) < 0.01

    def test_ks(self, capsys):
        code, out = run_capture(
            ["ks", "--p", "1", "--d", "500", "--nrep", "2000", "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["distance"] < 0.05

    def test_schur2(self, capsys):
        code, out = run_capture(
            ["schur2-check", "--p", "1", "--d", "2", "--c", "1.5", "--v", "1.41421356,0",
             "--w", "1,1", "--reps", "100000", "--seed", "5"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["tag"] == "consistent-concave"


class TestContracts:
    def test_usage_exit_64(self, capsys):
        assert run(["no-such-command"]) == 64
        assert run(["critval", "--bogus-flag", "1"]) == 64

    def test_domain_exit_2(self, capsys):
        assert run(["critval", "--p", "2", "--d", "100", "--alpha", "1.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["power", "--p", "-0.5", "--d", "1", "--alpha", "0.05", "--shift", "1"],
        ["samplesize", "--p", "-0.5", "--d", "1", "--alpha", "0.05", "--beta", "0.8",
         "--theta", "1"],
        ["critval", "--p", "-0.5", "--d", "1", "--alpha", "0.05"],
        ["feasible", "--p", "-0.5", "--d", "1", "--alpha", "0.05", "--beta", "0.8",
         "--u", "1"],
    ])
    def test_neg_half_at_d1_exit_2(self, argv, capsys):
        # kappa_{-1/2}(1) = sqrt(1 ln 1) = 0
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sqrt(d ln d) vanishes at d=1" in captured.err

    @pytest.mark.parametrize("p", ["149.8", "171", "1e4"])
    @pytest.mark.parametrize("cmd", ["critval", "power", "samplesize", "feasible", "ks"])
    def test_law_past_the_doubles_exit_2(self, cmd, p, capsys):
        # the CLT scale sqrt(d (lambda_2p(0) - lambda_p(0)^2)) leaves the doubles
        # from p ~ 149.47 at d = 1e3, lambda_2p(0) from 150.578 and lambda_p(0)
        # from 301.16; a critical value, power or KS distance read from such a
        # law would be Infinity, NaN or alpha whatever the input
        args = {"critval": [], "power": ["--shift", "equalized:0.5"],
                "samplesize": ["--beta", "0.8", "--theta", "equalized:0.5"],
                "feasible": ["--beta", "0.8", "--u", "equalized:1"], "ks": ["--nrep", "200"]}
        argv = [cmd, "--p", p, "--d", "1000"] + (["--alpha", "0.05"] if cmd != "ks" else [])
        assert run(argv + args[cmd]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "leaves the doubles" in captured.err
        assert f"p={float(p):g}" in captured.err

    def test_law_just_inside_the_doubles(self, capsys):
        code, out = run_capture(["critval", "--p", "149.4", "--d", "1000", "--alpha", "0.05"],
                                capsys)
        assert code == 0 and math.isfinite(json.loads(out)["result"]["critical_value"])

    def test_are_finite_no_root_exit_2(self, capsys):
        # u's zero coordinate holds the p = -2 power at 1 - 0.673 < beta at
        # every scale; this used to exit 4 naming an unresolved window
        assert run(["are-finite", "--p", "-2", "--d", "2", "--u", "1,0",
                    "--alpha", "0.05", "--beta", "0.8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no root" in captured.err and "0.327095 <= beta=0.8" in captured.err

    @pytest.mark.parametrize("argv, flag, value", [
        (["critval", "--p", "2", "--alpha", "0.05"], "d", "1e2"),
        (["critval", "--p", "3", "--d", "10", "--alpha", "0.05", "--method", "mc",
          "--seed", "1"], "reps", "2e3"),
        (["ks", "--p", "2", "--d", "10", "--seed", "2"], "nrep", "1.0e2"),
    ])
    def test_counts_in_float_notation(self, argv, flag, value, capsys):
        code1, out1 = run_capture(argv + [f"--{flag}", value], capsys)
        code2, out2 = run_capture(argv + [f"--{flag}", str(int(float(value)))], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["config"][flag] == int(float(value))

    def test_counts_not_integral_exit_64(self, capsys):
        assert run(["critval", "--p", "2", "--d", "1.5", "--alpha", "0.05"]) == 64
        assert run(["critval", "--p", "2", "--d", "1e400", "--alpha", "0.05"]) == 64
        assert run(["ks", "--p", "2", "--d", "10", "--nrep", "100.5"]) == 64
        assert run(["simulate", "--p", "2", "--d", "10", "--alpha", "0.05",
                    "--reps", "nan"]) == 64

    @pytest.mark.parametrize("argv", [
        ["critval", "--p", "0.5", "--d", "60", "--alpha", "0.05", "--method", "mc",
         "--reps", "4000", "--seed", "11"],
        ["simulate", "--p", "-2", "--d", "40", "--alpha", "0.05",
         "--reps", "5000", "--seed", "11", "--critval", "mc"],
        ["power", "--p", "3", "--d", "30", "--alpha", "0.05", "--shift", "equalized:0.3"],
        ["samplesize", "--p", "2", "--d", "30", "--alpha", "0.05", "--beta", "0.9",
         "--theta", "spike:0.2"],
        ["feasible", "--p", "1", "--d", "30", "--alpha", "0.05", "--beta", "0.9",
         "--u", "equalized:1"],
        ["are-finite", "--p", "inf", "--d", "2", "--u", "1,1", "--alpha", "0.1",
         "--beta", "0.8"],
        ["ks", "--p", "2", "--d", "100", "--nrep", "400", "--seed", "2"],
        ["schur2-check", "--p", "1", "--d", "2", "--c", "1.5", "--v", "2,0",
         "--w", "1.41421356237,1.41421356238", "--reps", "2000", "--seed", "5"],
        ["verify-ap", "--from", "-0.4", "--to", "3", "--step", "0.1"],
        ["are", "--p", "-3", "--alpha", "0.05", "--beta", "0.95", "--useq", "equalized"],
        ["version"],
        ["ap-curve", "--from", "-0.4", "--to", "3", "--step", "0.2", "--psi", "--format", "json"],
        ["critval", "--p", "-0.7", "--d", "500", "--alpha", "0.05"],
        ["simulate", "--p", "3", "--d", "40", "--alpha", "0.05", "--reps", "3000", "--seed", "4",
         "--shift", "equalized:0.3"],
    ])
    def test_json_roundtrip_byte_identical(self, argv, capsys):
        code1, out1 = run_capture(argv, capsys)
        cfg = json.loads(out1)["config"]
        code2, out2 = run_capture(rebuild_argv(cfg), capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_threads_do_not_change_output(self, capsys):
        base = ["simulate", "--p", "0", "--d", "64", "--alpha", "0.1",
                "--reps", "30000", "--seed", "3"]
        _, out1 = run_capture(base + ["--threads", "1"], capsys)
        _, out4 = run_capture(base + ["--threads", "4"], capsys)
        d1, d4 = json.loads(out1), json.loads(out4)
        assert d1["result"] == d4["result"]

    def test_critval_mc_threads_do_not_change_output(self, capsys):
        base = ["critval", "--p", "3", "--d", "100", "--alpha", "0.05", "--method", "mc",
                "--reps", "20000", "--seed", "1"]
        _, out1 = run_capture(base + ["--threads", "1"], capsys)
        _, out2 = run_capture(base + ["--threads", "2"], capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["result"] == d2["result"] and d1["diagnostics"] == d2["diagnostics"]

    def test_env_threads_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PMEAN_THREADS", "3")
        parser = build_parser()
        args = parser.parse_args(["critval", "--p", "2", "--d", "10", "--alpha", "0.05"])
        assert args.threads == 3

    @pytest.mark.parametrize("name", sorted(MINIMAL))
    def test_config_is_the_parsed_namespace(self, name, capsys):
        # the echoed config is vars(args): every flag, nothing else
        assert set(MINIMAL) == set(subcommands())
        argv = MINIMAL[name]
        code, out = run_capture(argv, capsys)
        assert code in (0, 3)
        args = vars(build_parser().parse_args(argv))
        assert json.loads(out)["config"] == json.loads(json.dumps(args))

    @pytest.mark.parametrize("argv, code", [
        (["power", "--p", "2", "--d", "3", "--alpha", "0.05", "--shift", "nan,1,1"], 2),
        (["power", "--p", "2", "--d", "3", "--alpha", "0.05", "--shift", "equalized:inf"], 2),
        (["simulate", "--p", "2", "--d", "3", "--alpha", "0.05", "--reps", "1000",
          "--critval", "nan"], 2),
        (["simulate", "--p", "2", "--d", "3", "--alpha", "0.05", "--reps", "1000",
          "--critval", "-inf"], 2),
        (["simulate", "--p", "2", "--d", "3", "--alpha", "0.05", "--reps", "1000",
          "--shift", "nan,0,0", "--critval", "asymptotic"], 2),
        (["schur2-check", "--p", "1", "--d", "2", "--c", "nan", "--v", "1.4142135623730951,0",
          "--w", "1,1", "--reps", "1000"], 64),
        (["feasible", "--p", "-2", "--d", "3", "--alpha", "0.05", "--beta", "nan",
          "--u", "1,1,1"], 64),
        (["samplesize", "--p", "2", "--d", "3", "--alpha", "0.05", "--beta", "nan",
          "--theta", "1,1,1"], 64),
        (["samplesize", "--p", "2", "--d", "3", "--alpha", "0.05", "--beta", "inf",
          "--theta", "1,1,1"], 64),
        (["are-finite", "--p", "1", "--d", "2", "--u", "nan,1", "--alpha", "0.05",
          "--beta", "0.8"], 2),
        (["critval", "--p", "2", "--d", "3", "--alpha", "-inf"], 64),
        (["ap-curve", "--from", "nan", "--to", "1", "--step", "0.1"], 64),
        (["verify-ap", "--from", "0", "--to", "inf", "--step", "0.1"], 64),
        (["verify-ap", "--from", "0", "--to", "1", "--step", "nan"], 64),
    ])
    def test_non_finite_inputs_rejected(self, argv, code, capsys):
        assert run(argv) == code
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cmd", ["ap-curve", "verify-ap"])
    @pytest.mark.parametrize("lo, hi, step, flag", [
        ("0", "1", "0", "--step"),
        ("0", "1", "-0.1", "--step"),
        ("2", "1", "0.1", "--from"),
        ("0", "8", "1e-9", "--step"),
        ("-1e308", "1e308", "1", "--step"),
        # below twice the spacing of the doubles, which would merge or drop points
        ("1e16", "1e16", "1", "--step"),
        ("1e300", "1e300", "1", "--step"),
    ])
    def test_bad_grid_exit_2(self, cmd, lo, hi, step, flag, capsys, monkeypatch):
        # a bad grid is rejected before any grid is allocated
        def no_arange(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(np, "arange", no_arange)
        assert run([cmd, "--from", lo, "--to", hi, "--step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_verify_ap_grid_outside_domain_exit_2(self, capsys):
        # every point of the grid lies at or below p = -1/2
        assert run(["verify-ap", "--from", "-0.9", "--to", "-0.6", "--step", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--from" in captured.err

    @pytest.mark.parametrize("threads", ["0", "-3", "1.5", "abc"])
    def test_bad_threads_exit_64(self, threads, capsys, monkeypatch):
        argv = MINIMAL["critval"]
        assert run(argv + ["--threads", threads]) == 64
        monkeypatch.setenv("PMEAN_THREADS", threads)
        assert run(argv) == 64
        assert capsys.readouterr().out == ""
        # version has no --threads, so the variable does not concern it
        assert run(["version"]) == 0

    @pytest.mark.parametrize("name", sorted(set(MINIMAL) - {"version"}))
    def test_rng_flags_only_where_simulated(self, name, capsys):
        # --seed, --stream and --threads exist only where random numbers are drawn
        for flag in ("--seed", "--stream", "--threads"):
            assert run(MINIMAL[name] + [flag, "1"]) == (0 if name in SIMULATING else 64)

    def test_dims_parsed_as_counts(self, capsys):
        base = ["are", "--p", "3", "--alpha", "0.05", "--beta", "0.8", "--useq", "spike"]
        for dims in ("100.9,10000,1000000", "100,1e4,1e6.5", "0,100,10000"):
            assert run(base + ["--dims", dims]) == 64
        _, out1 = run_capture(base + ["--dims", "100,10000,1000000"], capsys)
        _, out2 = run_capture(base + ["--dims", "1e2,1e4,1e6"], capsys)
        assert json.loads(out1)["result"] == json.loads(out2)["result"]

    @pytest.mark.parametrize("name", sorted(set(MINIMAL) - {"version", "ap-curve"}))
    def test_csv_only_on_ap_curve(self, name, capsys):
        assert run(MINIMAL[name] + ["--format", "csv"]) == 64
        assert capsys.readouterr().out == ""

    def test_ap_curve_out_file(self, tmp_path, capsys):
        argv = ["ap-curve", "--from", "1", "--to", "2", "--step", "0.5"]
        code, out = run_capture(argv, capsys)
        assert run(argv + ["--out", str(tmp_path / "curve.csv")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "curve.csv").read_text() == out
        # an --out that cannot be opened is a configuration error
        assert run(argv + ["--out", str(tmp_path / "missing" / "curve.csv")]) == 2


def run_clean(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call, with every warning
    caught: none may escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert "nan" not in captured.out.lower()
    return code, captured.out, captured.err


class TestEdgesOfTheDoubles:
    """Inputs at the edges of the doubles: each exits with a documented code,
    prints no NaN and lets no warning escape."""

    def test_p_below_neg_one_far_shift_has_power_one(self, capsys):
        # R = mean_j e^{-s_j^2/2} underflows to 0, and R^p to inf
        code, out, _ = run_clean(["power", "--p", "-2", "--d", "10", "--alpha", "0.05",
                                  "--shift", "equalized:40"], capsys)
        assert code == 0 and json.loads(out)["result"]["power"] == 1.0

    def test_p_below_neg_one_sample_size_of_one(self, capsys):
        code, out, _ = run_clean(["samplesize", "--p", "-2", "--d", "1000", "--alpha", "0.05",
                                  "--beta", "0.8", "--theta", "equalized:1e7"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["result"]["n"] == 1
        assert doc["diagnostics"]["power_at_n"] == 1.0

    @pytest.mark.parametrize("argv", [
        # a zero quantile in K
        ["feasible", "--p", "-21.369064866181812", "--d", "4", "--alpha", "0.01675",
         "--beta", "0.8803", "--u", "spike:8.939e-189"],
        # a negative quantile, and K complex
        ["samplesize", "--p", "-72.06832936596555", "--d", "9", "--alpha", "0.02207",
         "--beta", "0.9863", "--theta", "spike:5.97714e+52"],
        # the quantile's first bracket overflows
        ["feasible", "--p", "-235", "--d", "10", "--alpha", "0.05", "--beta", "0.99",
         "--u", "equalized:1"],
        # a zero quantile, which would make the critical value's m zero
        ["critval", "--p", "-24", "--d", "1000", "--alpha", "0.01"],
        # a level of 5e-324 lies below what the quantile solve resolves
        ["samplesize", "--p", "-964.839416913474", "--d", "1", "--alpha", "5e-324",
         "--beta", "1e-323", "--theta", "block:1:10.0"],
    ])
    def test_unresolved_stable_quantile_is_an_accuracy_error(self, argv, capsys):
        code, out, err = run_clean(argv, capsys)
        assert code == 4 and out == "" and "stable quantile" in err

    def test_shift_scale_past_the_doubles(self, capsys):
        code, out, err = run_clean(["samplesize", "--p", "2", "--d", "10", "--alpha", "0.05",
                                    "--beta", "0.8", "--theta", "equalized:1e-300"], capsys)
        assert code == 2 and out == "" and "t*" in err

    def test_shift_sum_past_the_doubles(self, capsys):
        # sum_j f(t theta_j) overflows at t = 1; the root lies near t = 0 and n = 1
        code, out, _ = run_clean(["samplesize", "--p", "1.7997102991738103", "--d", "20985",
                                  "--alpha", "0.144", "--beta", "0.3844",
                                  "--theta", "equalized:1.23035e+171"], capsys)
        assert code == 0 and json.loads(out)["result"]["n"] == 1

    def test_tiny_shift_scale_is_reported(self, capsys):
        # t* near 7e-173 lies far below find_root's absolute 1e-12: it is solved
        # again in ln t, so t* theta is the scale of the unit direction
        argv = ["samplesize", "--p", "1.7997102991738103", "--d", "20985", "--alpha", "0.144",
                "--beta", "0.3844", "--theta"]
        code, out, _ = run_clean(argv + ["equalized:1.23035e+171"], capsys)
        assert code == 0
        tiny = json.loads(out)["result"]
        code, out, _ = run_clean(argv + ["equalized:1"], capsys)
        unit = json.loads(out)["result"]
        assert tiny["n"] == 1 and tiny["shift_scale"] > 0.0
        assert tiny["shift_scale"] * 1.23035e171 == pytest.approx(unit["shift_scale"], rel=1e-10)

    def test_orlicz_norm_at_shifts_past_the_doubles(self, capsys):
        # g_p(e^l) for p < 0 takes its limit lambda_p(0) where e^l overflows
        code, out, _ = run_clean(["are", "--p", "-1e-06", "--alpha", "0.1537", "--beta",
                                  "0.9427", "--useq", "spike"], capsys)
        assert code == 0 and json.loads(out)["result"]["tag"] == "zero"

    def test_critical_values_at_levels_near_zero(self, capsys):
        # 1 - alpha rounds to 1 and the inner argument of c_{d,alpha} overflows
        for p, want in (("0", 0.5427), ("inf", 38.04)):
            code, out, _ = run_clean(["critval", "--p", p, "--d", "3012219", "--alpha",
                                      "2.225073858507203e-309"], capsys)
            c = json.loads(out)["result"]["critical_value"]
            assert code == 0 and want < c < want + 0.01

    def test_are_finite_scale_not_resolved_from_zero(self, capsys):
        code, out, err = run_clean(["are-finite", "--p", "2", "--d", "1", "--u", "76.3",
                                    "--alpha", "7.249658565923702e-177",
                                    "--beta", "7.249658565923703e-177"], capsys)
        assert code == 4 and out == "" and "resolved" in err

    def test_schur2_majorization_at_a_huge_scale(self, capsys):
        # the squares of the raw coordinates overflow; the pair meets the precondition
        code, out, _ = run_clean(["schur2-check", "--p", "3.3", "--d", "2", "--c", "1.37",
                                  "--v", "1.4e195,0", "--w",
                                  "9.899494936611665e194,9.899494936611665e194",
                                  "--reps", "1000", "--seed", "4"], capsys)
        assert code == 0 and json.loads(out)["result"]["tag"] == "inconclusive"

    def test_schur2_majorization_at_a_tiny_scale(self, capsys):
        # sum w^2 = 4 sum v^2, which an absolute tolerance of 1e-8 let through
        code, out, err = run_clean(["schur2-check", "--p", "1", "--d", "2", "--c", "1.5",
                                    "--v", "1e-5,0", "--w", "0,2e-5", "--reps", "1000",
                                    "--seed", "3"], capsys)
        assert code == 2 and out == "" and "precondition failed" in err

    @pytest.mark.parametrize("lo, hi, step, p", [("1100", "1110", "1", "1100.0"),
                                                 ("1.6e193", "1.6e193", "9e204", "1.6e+193")])
    def test_verify_ap_past_the_doubles(self, lo, hi, step, p, capsys):
        # an overflowed margin (inf, or NaN from inf - inf) verifies nothing
        code, out, err = run_clean(["verify-ap", "--from", lo, "--to", hi, "--step", step],
                                   capsys)
        assert code == 2 and out == "" and f"p = {p}" in err

    @pytest.mark.parametrize("p", ["-1e-08", "1.99999999"])
    def test_verify_ap_next_to_the_equality_points(self, p, capsys):
        # the quadratic margins near 0 and 2 once rounded to false violations (exit 4)
        code, out, _ = run_clean(["verify-ap", "--from", p, "--to", p, "--step", "1"], capsys)
        result = json.loads(out)["result"]
        assert code == 0 and result["ok"] is True
        assert result["r_margin_min"] > 0.0 and result["partial_margin_min"] > 0.0

    def test_ap_curve_where_r_overflows(self, capsys):
        code, out, _ = run_clean(["ap-curve", "--from", "1100", "--to", "1101", "--step", "1",
                                  "--format", "json"], capsys)
        rows = json.loads(out)["result"]["rows"]
        assert code == 0 and [p for p, _ in rows] == [1100.0, 1101.0]
        # a_p = p / sqrt(2 r(p)) with ln r(p) from the log-Gamma functions
        for p, a in rows:
            lnr = math.lgamma(0.5) + math.lgamma(p + 0.5) - 2.0 * math.lgamma((p + 1.0) / 2.0)
            assert a == pytest.approx(math.exp(math.log(p) - 0.5 * (math.log(2.0) + lnr)),
                                      rel=1e-9)

    def test_echoed_config_keeps_every_digit(self, capsys):
        argv = ["ap-curve", "--from", "1.0000000000001", "--to", "1.0000000000002",
                "--step", "1e-13", "--format", "json"]
        code1, out1 = run_capture(argv, capsys)
        doc = json.loads(out1)
        assert (doc["config"]["lo"], doc["config"]["hi"]) == (1.0000000000001, 1.0000000000002)
        code2, out2 = run_capture(rebuild_argv(doc["config"]), capsys)
        assert code1 == code2 == 0 and out1 == out2 and len(doc["result"]["rows"]) == 2


class TestNearZeroExponent:
    @pytest.mark.parametrize("p", ["1e-9", "-1e-9"])
    def test_sample_size_matches_p_zero(self, p, capsys):
        # Var|Z|^p from r(p) keeps its digits near p = 0, where
        # lambda_2p(0) - lambda_p(0)^2 cancels
        base = ["--d", "1000", "--alpha", "0.05", "--beta", "0.8", "--theta", "equalized:0.02"]
        _, out0, _ = run_clean(["samplesize", "--p", "0"] + base, capsys)
        code, out, _ = run_clean(["samplesize", "--p", p] + base, capsys)
        assert code == 0
        assert json.loads(out)["result"]["n"] == json.loads(out0)["result"]["n"] == 450

    def test_power_near_zero(self, capsys):
        code, out, _ = run_clean(["power", "--p", "3.2e-10", "--d", "100", "--alpha", "0.05",
                                  "--shift", "equalized:0.2"], capsys)
        assert code == 0 and 0.05 < json.loads(out)["result"]["power"] < 1.0


@pytest.mark.parametrize("cmd", ["samplesize", "feasible"])
def test_slack_is_gone(cmd, capsys):
    argv = MINIMAL[cmd] + ["--slack", "0.6"]
    assert run(argv) == 64
    assert capsys.readouterr().out == ""
