import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cayleyheat
from cayleyheat import checks
from cayleyheat.checks import CheckReport
from cayleyheat.cli import main


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
        code, _ = run_cli(capsys, "selftest")
        assert code == 0

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
        out = capsys.readouterr().out
        assert code == 1
        assert "pushforward_closure_and_inequalities" in out

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
            print(",".join(selftest.run()))
            """
        )
        src = str(Path(cayleyheat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        ).stdout
        assert out.split() == ["pushforward_closure_and_inequalities"]


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
        code, _ = run_cli(capsys, "sphere-check", "--trials", "20")
        assert code == 0

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

    def test_bad_group_spec_exit_2(self, capsys):
        code, _ = run_cli(capsys, "pushforward", "--group", "Q8", "--instances", "1")
        assert code == 2

    def test_env_tolerance_override(self, capsys, weights_file, monkeypatch):
        monkeypatch.setenv("HEAT_TOL", "1e-4")
        _, out = run_cli(capsys, "check-monotone", "--weights", weights_file)
        assert json.loads(out)["config"]["tolerance"] == 1e-4

    def test_jobs_flag_is_rejected(self, capsys):
        # no command runs in parallel, so no command takes --jobs
        with pytest.raises(SystemExit) as exc:
            main(["pushforward", "--instances", "1", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
