import csv
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import cayleyheat
from cayleyheat import checks, cli, groups, heat, selftest
from cayleyheat.checks import CheckReport
from cayleyheat.cli import COMMANDS, main
from cayleyheat.continuum import (
    h3_reduced_log,
    heat_lemma_check_sphere,
    random_sphere_point,
    symmetric_ineq_check_sphere,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def weights_file(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"group": "Z12", "weights": {"1": 2.0, "3": 1.0}}))
    return str(p)


class TestSelftest:
    def test_passes_on_fresh_build(self, capsys):
        code, out = run_cli(capsys, "selftest")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["name"] for r in reports] == [name for name, _ in selftest.INVARIANTS]
        assert all(r["passed"] for r in reports)

    def test_mutation_is_caught(self, capsys, monkeypatch):
        # flip the inequality's sign: the suite must fail and name the check
        def flipped(chi, g1, g2, tol):
            rep = _orig(chi, g1, g2, tol)
            return CheckReport(
                passed=-rep.worst_margin >= -tol,
                worst_margin=-rep.worst_margin,
                witness=rep.witness,
                count=rep.count,
                name=rep.name,
            )

        _orig = checks.check_rsd
        monkeypatch.setattr(checks, "check_rsd", flipped)
        code = main(["selftest"])
        reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
        assert code == 1
        assert reports["pushforward_closure_and_inequalities"]["passed"] is False
        assert sum(not r["passed"] for r in reports.values()) == 1

    @pytest.mark.parametrize("name", [
        "group_core", "pushforward_closure_and_inequalities", "lemma37_convergence",
        "factorized_cexp_convergence", "cayley_heat",
    ])
    def test_lost_inverse_normalization_is_caught(self, name, monkeypatch):
        # an inverse transform that drops its 1/|G|: each invariant that
        # compares a transform route with one that shares no inverse
        # transform fails on its own (heat binds its own idft_stack)
        orig = groups.idft_stack

        def times_order(group, spectra):
            return orig(group, spectra) * group.order

        monkeypatch.setattr(groups, "idft_stack", times_order)
        monkeypatch.setattr(heat, "idft_stack", times_order)
        with pytest.raises(selftest.InvariantFailure):
            dict(selftest.INVARIANTS)[name]()

    def test_mutation_is_caught_under_optimize(self):
        # python -O strips assert statements; the invariants must not be them
        script = textwrap.dedent(
            """
            from cayleyheat import checks, selftest

            orig = checks.check_rsd

            def flipped(chi, g1, g2, tol):
                rep = orig(chi, g1, g2, tol)
                return checks.CheckReport(
                    -rep.worst_margin >= -tol, -rep.worst_margin, rep.witness, 1, rep.name
                )

            checks.check_rsd = flipped
            print(",".join(r.name for r in selftest.run() if not r.passed))
            """
        )
        src = str(Path(cayleyheat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        ).stdout
        assert out.split() == ["pushforward_closure_and_inequalities"]

    def test_runs_as_python_dash_m(self):
        src = str(Path(cayleyheat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-m", "cayleyheat", "selftest"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert all(r["passed"] for r in json.loads(out.stdout)["reports"])


class TestCheckMonotone:
    def test_passes(self, capsys, weights_file):
        code, out = run_cli(
            capsys, "check-monotone", "--weights", weights_file,
            "--tmin", "0.05", "--tmax", "50", "--steps", "20",
        )
        assert code == 0
        env = json.loads(out)
        assert env["command"] == "check-monotone"
        assert env["reports"][0]["passed"] is True

    def test_large_t_passes_where_the_degree_sum_misses_the_spectrum(self, capsys, tmp_path):
        # np.sum of these weights is one ulp below Re w_hat(0): shifted by
        # the sum, the k = 0 exponent grew with t until the spectrum
        # overflowed at t = 3.6e14 (exit 3)
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"group": "Z12", "weights": {"1": 0.23, "2": 0.86, "4": 0.63}}))
        code, out = run_cli(
            capsys, "check-monotone", "--weights", str(p),
            "--tmin", "0.05", "--tmax", "1e300", "--steps", "20",
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["passed"] is True

    def test_group_override(self, capsys, tmp_path):
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"group": "Z4", "weights": {"1": 1.0}}))
        code, out = run_cli(capsys, "check-monotone", "--weights", str(p), "--group", "Z8")
        assert code == 0
        assert json.loads(out)["config"]["group"] == "Z8"

    def test_weight_at_identity_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"group": "Z4", "weights": {"0": 1.0}}))
        code, _ = run_cli(capsys, "check-monotone", "--weights", str(p))
        assert code == 2

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "w.json"
        p.write_text("{not json")
        code, _ = run_cli(capsys, "check-monotone", "--weights", str(p))
        assert code == 2


class TestDeterminism:
    def _normalized(self, out):
        env = json.loads(out)
        env["timing_ms"] = 0
        return json.dumps(env, sort_keys=False)

    def test_identical_runs_identical_output(self, capsys):
        _, out1 = run_cli(capsys, "pushforward", "--group", "Z8", "--instances", "2", "--seed", "5")
        _, out2 = run_cli(capsys, "pushforward", "--group", "Z8", "--instances", "2", "--seed", "5")
        assert self._normalized(out1) == self._normalized(out2)

    def test_seed_changes_output(self, capsys):
        _, out1 = run_cli(capsys, "pushforward", "--group", "Z8", "--instances", "2", "--seed", "5")
        _, out2 = run_cli(capsys, "pushforward", "--group", "Z8", "--instances", "2", "--seed", "6")
        assert self._normalized(out1) != self._normalized(out2)


class TestOutputFormats:
    def test_csv_round_trip(self, capsys, weights_file):
        _, json_out = run_cli(capsys, "check-monotone", "--weights", weights_file)
        _, csv_out = run_cli(capsys, "check-monotone", "--weights", weights_file, "--format", "csv")
        env = json.loads(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == len(env["reports"])
        for row, rep in zip(rows, env["reports"]):
            assert row["name"] == rep["name"]
            assert float(row["worst_margin"]) == rep["worst_margin"]
            assert int(row["count"]) == rep["count"]

    def test_output_file(self, capsys, tmp_path, weights_file):
        out_path = tmp_path / "report.json"
        code, _ = run_cli(
            capsys, "check-monotone", "--weights", weights_file, "--output", str(out_path)
        )
        assert code == 0
        assert json.loads(out_path.read_text())["command"] == "check-monotone"

    def test_envelope_schema(self, capsys, weights_file):
        _, out = run_cli(capsys, "check-monotone", "--weights", weights_file)
        env = json.loads(out)
        assert list(env.keys()) == ["command", "config", "reports", "timing_ms", "version"]
        assert list(env["reports"][0].keys()) == [
            "name", "passed", "worst_margin", "witness", "count",
        ]


class TestOtherCommands:
    def test_h3_violation(self, capsys):
        code, out = run_cli(capsys, "h3-violation", "--d1", "3", "--t", "1")
        assert code == 0
        witness = json.loads(out)["reports"][0]["witness"]
        assert "violated=True" in witness

    def test_h3_violation_reports_logs_past_underflow(self, capsys):
        # RS = exp(log RS) is 0 in floats at d1 = 30; the margin is the log gap
        code, out = run_cli(capsys, "h3-violation", "--d1", "30", "--t", "1")
        assert code == 0
        rep = json.loads(out)["reports"][0]
        log_ls, log_rs = h3_reduced_log(30.0, 1.0)
        assert math.exp(log_rs) == 0.0
        assert rep["worst_margin"] == log_rs - log_ls < 0
        assert "violated=True" in rep["witness"] and "log RS=" in rep["witness"]

    @pytest.mark.parametrize("lemma", ["35", "37"])
    def test_rate_check_alpha_zero_is_refused(self, capsys, lemma):
        # chi_n is delta exactly at alpha = 0: no rate, and no log 0 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rate-check", "--lemma", lemma, "--alpha", "0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "alpha = 0" in err and "Warning" not in err

    def test_h3_monotone(self, capsys):
        code, _ = run_cli(capsys, "h3-monotone", "--d", "2")
        assert code == 0

    def test_rate_check_lemma35(self, capsys):
        code, out = run_cli(capsys, "rate-check", "--lemma", "35", "--ns", "16,32,64")
        assert code == 0
        assert json.loads(out)["reports"][0]["worst_margin"] <= -3.5

    def test_rate_check_lemma37(self, capsys):
        code, _ = run_cli(capsys, "rate-check", "--lemma", "37", "--group", "Z8", "--ns", "16,64,256")
        assert code == 0

    @pytest.mark.parametrize("lemma", ["35", "37"])
    @pytest.mark.parametrize("g0", ["-1", "12"])
    def test_rate_check_refuses_g0_out_of_range_by_flag(self, capsys, lemma, g0):
        # --g0 is a flat index into the default Z12
        code = main(["rate-check", "--lemma", lemma, "--g0", g0])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and f"--g0 must index an element of Z12, got {g0}" in err

    @pytest.mark.parametrize("lemma", ["35", "37"])
    def test_rate_check_refuses_a_tiny_alpha_by_name(self, capsys, lemma):
        # n/alpha overflows; the refusal named a basis [[inf]] the user never gave
        code = main(["rate-check", "--lemma", lemma, "--alpha", "1e-308"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "alpha = 1e-308 is too small for n = 16" in err

    def test_search_counterexample(self, capsys):
        code, out = run_cli(capsys, "search-counterexample", "--trials", "200", "--seed", "7")
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["name"] == "violation_found"
        assert "W=" in rep["witness"]

    def test_search_exhausted_budget(self, capsys):
        # 0-trial budget finds nothing and exits 1
        code, out = run_cli(capsys, "search-counterexample", "--trials", "0")
        assert code == 1

    def test_sphere_check(self, capsys):
        # one report per kind; replaying every trial from the seed, each
        # holds its own kind's lowest margin, at the first trial reaching it
        rng = np.random.default_rng(3)
        triples = [[random_sphere_point(rng) for _ in range(3)] for _ in range(20)]
        for space in ("S2", "RP2"):
            code, out = run_cli(capsys, "sphere-check", "--trials", "20", "--space", space, "--seed", "3")
            assert code == 0
            reports = json.loads(out)["reports"]
            assert [r["name"] for r in reports] == ["symmetric_ineq", "heat_lemma"]
            for r, check in zip(reports, (symmetric_ineq_check_sphere, heat_lemma_check_sphere)):
                margins = [
                    check(space, *abc, cli.SPHERE_T_VALUES[i % 4]).worst_margin
                    for i, abc in enumerate(triples)
                ]
                i = int(np.argmin(margins))
                assert r["passed"] and r["count"] == 20
                assert r["worst_margin"] == margins[i]
                assert r["witness"] == f"trial={i}, space={space}, t={cli.SPHERE_T_VALUES[i % 4]}"

    def test_sphere_check_fails_when_one_kind_fails(self, capsys, monkeypatch):
        def failing(space, a, b, c, t, l_max):
            return CheckReport(False, 1.0, f"space={space}, t={t}", 1, "heat_lemma")

        monkeypatch.setattr(cli, "heat_lemma_check_sphere", failing)
        code, out = run_cli(capsys, "sphere-check", "--trials", "3")
        assert code == 1
        sym, lemma = json.loads(out)["reports"]
        assert sym["passed"] and not lemma["passed"]
        # a failing trial is kept even where its margin is not lower
        assert lemma["witness"] == "trial=2, space=S2, t=1.0"

    def test_sphere_truncation_guard_exit_3(self, capsys):
        code, _ = run_cli(capsys, "sphere-check", "--trials", "4", "--lmax", "1")
        assert code == 3

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_sphere_check_needs_a_trial(self, capsys, trials):
        # no trial left the worst margin at inf, printed as non-JSON Infinity
        code = main(["sphere-check", "--trials", trials])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "--trials" in err

    @pytest.mark.parametrize("d1", ["400", "800"])
    def test_h3_overflow_is_refused(self, capsys, d1):
        code = main(["h3-violation", "--d1", d1])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == "" and "overflows" in err

    def test_h3_subnormal_t_is_refused(self, capsys):
        # d1^2/4t overflows at t = 1e-310, so both log sides are -inf: the
        # reduced check refuses them, before the output's JSON guard
        code = main(["h3-violation", "--t", "1e-310"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == "" and "log sides are not finite" in err

    # one seed per configuration on which the box enumeration was refused
    @pytest.mark.parametrize(
        "group, dim, seed",
        [("Z12", "2", "17"), ("Z64", "2", "0"), ("Z2xZ2xZ16", "2", "0"), ("Z12", "3", "0")],
    )
    def test_pushforward_answers_past_the_old_box_cap(self, capsys, group, dim, seed):
        code, out = run_cli(capsys, "pushforward", "--group", group, "--dim", dim, "--seed", seed)
        assert code == 0
        closure = [r for r in json.loads(out)["reports"] if r["name"] == "pushforward_closure"]
        assert len(closure) == 5 and all(r["passed"] for r in closure)

    def test_bad_group_spec_exit_2(self, capsys):
        code, _ = run_cli(capsys, "pushforward", "--group", "Q8", "--instances", "1")
        assert code == 2

    def test_env_tolerance_override(self, capsys, weights_file, monkeypatch):
        monkeypatch.setenv("HEAT_TOL", "1e-4")
        _, out = run_cli(capsys, "check-monotone", "--weights", weights_file)
        assert json.loads(out)["config"]["tolerance"] == 1e-4

    @pytest.mark.parametrize("env", ["1e-4", "abc"])
    def test_tol_flag_beats_env(self, capsys, weights_file, monkeypatch, env):
        monkeypatch.setenv("HEAT_TOL", env)
        code, out = run_cli(capsys, "check-monotone", "--weights", weights_file, "--tol", "1e-3")
        assert code == 0
        assert json.loads(out)["config"]["tolerance"] == 1e-3

    def test_env_epsilon_sets_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HEAT_EPS", "1e-10")
        _, out = run_cli(capsys, "rate-check", "--lemma", "35", "--ns", "16,32")
        assert json.loads(out)["config"]["epsilon"] == 1e-10

    def test_jobs_flag_is_rejected(self, capsys):
        # no command runs in parallel, so no command takes --jobs
        assert main(["pushforward", "--instances", "1", "--jobs", "2"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestCommandTable:
    def test_each_command_takes_exactly_the_flags_it_reads(self):
        for cmd in COMMANDS.values():
            dests = [kwargs.get("dest", flag.lstrip("-")) for flag, kwargs in cmd.flags.items()]
            assert list(inspect.signature(cmd.run).parameters) == dests

    def test_flag_count(self):
        # every command also takes --format and --output
        assert sum(len(cmd.flags) + 2 for cmd in COMMANDS.values()) == 47

    @pytest.mark.parametrize(
        "command, flag, cap",
        [
            ("pushforward", "--instances", cli.MAX_INSTANCES),
            ("search-counterexample", "--trials", cli.MAX_TRIALS),
            ("sphere-check", "--lmax", cli.MAX_LMAX),
            ("sphere-check", "--trials", cli.MAX_SPHERE_TRIALS),
            ("h3-monotone", "--steps", cli.MAX_STEPS),  # check-monotone's --steps is the same
        ],
    )
    def test_size_caps_parse_at_the_bound(self, capsys, command, flag, cap):
        # parsed only, so the cap itself is not run; above it is an argv case
        args = cli.build_parser().parse_args([command, flag, str(cap)])
        assert vars(args)[flag.lstrip("-")] == cap
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, flag, str(cap + 1)])
        assert flag in capsys.readouterr().err

    def test_readme_examples_pass(self, tmp_path, monkeypatch):
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
        lines = block.strip().splitlines()
        assert len(lines) == len(COMMANDS)
        (tmp_path / "w.json").write_text(
            json.dumps({"group": "Z12", "weights": {"1": 2.0, "3": 1.0}})
        )
        monkeypatch.chdir(tmp_path)
        for line in lines:
            prog, *argv = shlex.split(line)
            assert prog == "cayleyheat"
            assert main(argv) == 0, line


def _raises(exc):
    def fn(*args, **kwargs):
        raise exc

    return fn


# (argv, environment, patches of cli names, exit code), run in a directory
# holding w.json and abc.json (a weight that is not a number). Every way in
# which a command used to crash, accept a flag it ignored, or print non-JSON.
ARGV_CASES = {
    "ns_not_integers": (["rate-check", "--lemma", "35", "--ns", "16,abc"], {}, {}, 2),
    "ns_single_point": (["rate-check", "--lemma", "35", "--ns", "16"], {}, {}, 2),
    "ns_repeated_point": (["rate-check", "--lemma", "35", "--ns", "16,16"], {}, {}, 2),
    # the errors fell, 0.165, 0.165 and 0.0115, but not strictly: the check
    # failed (exit 1), and lemma 35 fitted the repeated point twice
    "ns_repeated_among_three": (["rate-check", "--lemma", "37", "--ns", "16,16,256"], {}, {}, 2),
    "g0_out_of_range": (["rate-check", "--lemma", "35", "--g0", "99"], {}, {}, 2),
    "dim_zero": (["pushforward", "--dim", "0"], {}, {}, 2),
    "instances_zero": (["pushforward", "--instances", "0"], {}, {}, 2),
    "negative_seed": (["pushforward", "--seed", "-1"], {}, {}, 2),
    "eps_above_one": (["pushforward", "--eps", "4"], {}, {}, 2),
    # epsilon/2 underflows to 0 (a ZeroDivisionError exited 4), or the
    # enumeration radius overflows (exit 3, "cannot convert float infinity
    # to integer"): refused as input that names epsilon
    "eps_half_underflows": (["pushforward", "--eps", "5e-324"], {}, {}, 2),
    "eps_radius_overflows": (["pushforward", "--eps", "1e-302"], {}, {}, 2),
    "eps_subnormal": (["pushforward", "--eps", "1e-310"], {}, {}, 2),
    "heat_eps_half_underflows": (["pushforward"], {"HEAT_EPS": "5e-324"}, {}, 2),
    "rate_check_eps_half_underflows_35": (
        ["rate-check", "--lemma", "35", "--eps", "5e-324"], {}, {}, 2
    ),
    "rate_check_eps_half_underflows_37": (
        ["rate-check", "--lemma", "37", "--eps", "5e-324"], {}, {}, 2
    ),
    "search_n_two": (["search-counterexample", "--n", "2"], {}, {}, 2),
    "search_n_above_cap": (["search-counterexample", "--n", "1025"], {}, {}, 2),
    "search_n_at_cap": (["search-counterexample", "--n", "1024", "--trials", "0"], {}, {}, 1),
    "dim_above_cap": (["pushforward", "--dim", "6"], {}, {}, 2),
    "dim_at_cap": (["pushforward", "--dim", "5", "--instances", "1"], {}, {}, 0),
    "search_negative_trials": (["search-counterexample", "--trials", "-1"], {}, {}, 2),
    "instances_above_cap": (["pushforward", "--instances", "1001"], {}, {}, 2),
    "search_trials_above_cap": (["search-counterexample", "--trials", "100001"], {}, {}, 2),
    "lmax_above_cap": (["sphere-check", "--lmax", "10001"], {}, {}, 2),
    "lmax_at_cap": (["sphere-check", "--trials", "1", "--lmax", "10000"], {}, {}, 0),
    "lmax_zero": (["sphere-check", "--lmax", "0"], {}, {}, 2),
    "sphere_trials_above_cap": (["sphere-check", "--trials", "100001"], {}, {}, 2),
    "steps_one": (["h3-monotone", "--steps", "1"], {}, {}, 2),
    "steps_above_cap": (["h3-monotone", "--steps", "100001"], {}, {}, 2),
    "nan_float": (["h3-violation", "--t", "nan"], {}, {}, 2),
    "heat_tol_malformed": (["search-counterexample", "--trials", "1"], {"HEAT_TOL": "abc"}, {}, 2),
    "heat_eps_malformed": (["pushforward", "--instances", "1"], {"HEAT_EPS": "abc"}, {}, 2),
    "output_dir_missing": (["h3-violation", "--output", "missing/x.json"], {}, {}, 2),
    "weights_missing": (["check-monotone", "--weights", "missing/w.json"], {}, {}, 2),
    "weight_not_a_number": (["check-monotone", "--weights", "abc.json"], {}, {}, 2),
    "no_command": ([], {}, {}, 2),
    "help": (["--help"], {}, {}, 0),
    "h3_monotone_d_1000": (["h3-monotone", "--d", "1000"], {}, {}, 0),
    # d^2/4t overflows, so every log ratio is -inf: refused (the linear
    # steps of exp(r) passed with worst margin 0.0)
    "h3_monotone_log_ratio_overflow": (["h3-monotone", "--d", "1e300"], {}, {}, 3),
    # d^2 is finite but d^2/4t overflows in the array division: a NumPy
    # warning, made an error by the test settings, exited 4
    "h3_monotone_square_over_t_overflows": (["h3-monotone", "--d", "1e154"], {}, {}, 3),
    # the log sides are finite while 2 r(a,b) + 2 r(b,c) on the points of
    # h3_abc overflows to -inf; a per-call cross-check on that sum refused
    # it as a disagreement, and the violation is reproduced (exit 0)
    "h3_violation_t_5e-308": (["h3-violation", "--d1", "3", "--t", "5e-308"], {}, {}, 0),
    "h3_monotone_negative_d": (["h3-monotone", "--d=-5"], {}, {}, 2),
    # one dropped flag per command
    "selftest_seed": (["selftest", "--seed", "1"], {}, {}, 2),
    "check_monotone_seed": (["check-monotone", "--weights", "w.json", "--seed", "1"], {}, {}, 2),
    "pushforward_tol": (["pushforward", "--tol", "1"], {}, {}, 2),
    "rate_check_seed": (["rate-check", "--lemma", "35", "--seed", "1"], {}, {}, 2),
    "search_eps": (["search-counterexample", "--eps", "1"], {}, {}, 2),
    "h3_violation_seed": (["h3-violation", "--seed", "1"], {}, {}, 2),
    "h3_monotone_tol": (["h3-monotone", "--tol", "5"], {}, {}, 2),
    "sphere_check_tol": (["sphere-check", "--tol", "1"], {}, {}, 2),
    # numerical guards, and a margin that is not finite
    "sphere_truncation": (["sphere-check", "--trials", "4", "--lmax", "1"], {}, {}, 3),
    "h3_cosh_overflow": (["h3-violation", "--d1", "400"], {}, {}, 3),
    # --eps 0.5 cuts chi_n to three points: one error is exactly 0
    "rate_check_zero_error": (["rate-check", "--lemma", "35", "--eps", "0.5"], {}, {}, 3),
    # errors no larger than truncation and rounding alone can make
    "rate_check_below_floor_35": (["rate-check", "--lemma", "35", "--alpha", "1e-4"], {}, {}, 3),
    "rate_check_below_floor_37": (
        ["rate-check", "--lemma", "37", "--group", "Z8", "--ns", "16,64,256", "--alpha", "1e-8"],
        {},
        {},
        3,
    ),
    # the spectrum of cexp(300 phi) is finite but its squares overflow: its
    # norm is taken on the scaled row, and the check runs and fails, its
    # errors (3.1e259 at both n) far above the floor
    "rate_check_squares_overflow_37": (
        ["rate-check", "--lemma", "37", "--alpha", "300", "--ns", "1000,2000"], {}, {}, 1
    ),
    # exp(1000) overflows: the lemma-37 target refuses 2|alpha| = 1000
    "rate_check_exp_overflow_37": (
        ["rate-check", "--lemma", "37", "--alpha", "500", "--ns", "1000,2000"], {}, {}, 3
    ),
    # the degree and the transform overflow: the heat rows' spectra are
    # refused on one line, with no NumPy warning before it
    "weights_overflow": (["check-monotone", "--weights", "huge.json"], {}, {}, 3),
    "infinite_margin": (
        ["h3-violation"], {}, {"h3_reduced_log": lambda d1, t: (float("inf"), 0.0)}, 3
    ),
    "overflow": (["h3-violation"], {}, {"h3_reduced_log": _raises(OverflowError("x"))}, 3),
    "internal_error": (["h3-violation"], {}, {"h3_reduced_log": _raises(KeyError("x"))}, 4),
}


@pytest.mark.parametrize("case", ARGV_CASES)
def test_argv_exit_codes(case, capsys, tmp_path, monkeypatch):
    argv, env, patches, expected = ARGV_CASES[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    for name, fn in patches.items():
        monkeypatch.setattr(cli, name, fn)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps({"group": "Z4", "weights": {"1": 1.0}}))
    (tmp_path / "abc.json").write_text(json.dumps({"group": "Z4", "weights": {"1": "abc"}}))
    huge = {"group": "Z4", "weights": {"1": 1e308, "2": 1e308}}
    (tmp_path / "huge.json").write_text(json.dumps(huge))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expected, err
    assert "Traceback" not in err
    if code >= 2:
        assert out == "" and err.strip()
    if code >= 3:
        assert len(err.splitlines()) == 1


# Value pools for the argv fuzz test, each small enough that one run takes
# milliseconds: per flag, values that parse, then edge values and malformed
# text.
FUZZ_VALUES = {
    "--group": (["Z12", "Z4", "Z1", "Z2xZ2", "Z64"], ["Z0", "Z5000", "Zq", "Z3xx"]),
    "--weights": (["w.json"], ["abc.json", "bad.json", "neg.json", "missing.json"]),
    "--tmin": (["0.05", "1", "1e-300"], ["0", "-1", "inf", "x"]),
    "--tmax": (["50", "0.5", "1e300"], ["nan"]),
    "--steps": (["2", "20", "200"], ["1", "-3", "2.5"]),
    "--tol": (["1e-10", "0", "-1", "1e300"], ["x"]),
    "--dim": (["1", "2"], ["0", "6", "x"]),
    "--instances": (["1", "2"], ["0", "-1", "1001"]),
    "--eps": (["1e-12", "1e-30", "0.5"], ["0", "-1", "4", "nan"]),
    "--seed": (["0", "7"], ["-1", "1.5"]),
    "--lemma": (["35", "37"], ["36", "x"]),
    "--alpha": (["1", "0", "0.5", "5", "300", "1e300", "1e-308"], ["-1", "inf"]),
    "--g0": (["0", "1", "3", "11"], ["99", "-1", "x"]),
    "--ns": (
        ["16,32", "16,64,256", "2,4", "1,2", "16,1000000"],
        ["16", "16,16", "16,16,256", "a,b", ","],
    ),
    "--n": (["3", "8"], ["2", "1025", "x"]),
    "--trials": (["0", "1", "5"], ["-1", "100001", "1000000", "x"]),
    "--d1": (["3", "0", "30", "400", "1e300"], ["-1", "nan"]),
    "--t": (["1", "1e-300", "0", "-1", "1e300"], ["x"]),
    "--d": (["2", "0", "1000", "1e154", "1e300"], ["-5"]),
    "--space": (["S2", "RP2"], ["S3"]),
    "--lmax": (["200", "5", "1", "10000"], ["0", "-3", "10001", "x"]),
}
# text argparse never reads as --help: no "h" in the alphabet
MALFORMED = "-=,.0123456789exZ "


def test_argv_fuzz(capsys, tmp_path, monkeypatch):
    """Random argv: the exit code is 0-3 (no internal error, which is also
    where a NumPy warning made an error by the pytest settings ends up) and
    no traceback is printed; a run that answers prints strict JSON, and a
    refused run prints nothing."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    assert {f for cmd in COMMANDS.values() for f in cmd.flags} <= set(FUZZ_VALUES)
    monkeypatch.chdir(tmp_path)
    for name, weights in [("w", {"1": 1.0}), ("abc", {"1": "abc"}), ("neg", {"1": -1.0})]:
        (tmp_path / f"{name}.json").write_text(json.dumps({"group": "Z4", "weights": weights}))
    (tmp_path / "bad.json").write_text("{")
    everything = sorted({v for pools in FUZZ_VALUES.values() for pool in pools for v in pool})

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(COMMANDS)))
        argv = [command]
        for flag, kwargs in COMMANDS[command].flags.items():
            if kwargs.get("required") or draw(st.booleans()):
                valid, malformed = FUZZ_VALUES[flag]
                pool = valid + malformed if draw(st.integers(0, 3)) == 0 else valid
                argv += [flag, draw(st.sampled_from(pool))]
        extras = st.one_of(
            st.sampled_from(sorted(FUZZ_VALUES)),  # a flag, maybe another command's
            st.sampled_from(everything),
            st.text(MALFORMED, max_size=6),
        )
        if draw(st.integers(0, 3)) == 0:
            argv.insert(draw(st.integers(0, len(argv))), draw(extras))
        return argv

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(argvs())
    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in range(4), (argv, code, err)
        assert "Traceback" not in err, argv
        if code <= 1:
            json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {argv}"))
        else:
            assert out == "", argv

    run()
