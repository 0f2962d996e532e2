"""Command-line interface tests, driven in-process through main()."""

import argparse
import contextlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import landen_kdv.cli as cli_module
import landen_kdv.evolve as evolve_module
from landen_kdv import A_constant, DnWaveParams, landen_map, u_p
from landen_kdv.cli import build_parser, main
from landen_kdv.elliptic import complete_E, complete_K


class TestLandenCommand:
    def test_table_output(self, capsys):
        assert main(["landen", "-p", "2", "-m", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "gamma" in out and "m_tilde" in out
        assert "0.585786437626905" in out

    def test_json_output(self, capsys):
        assert main(["landen", "-p", "3", "-m", "0.5", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == "landen-kdv/1"
        lmap = landen_map(3, 0.5)
        assert record["gamma"] == pytest.approx(lmap.gamma, rel=1e-15)
        assert record["A"] == pytest.approx(A_constant(3, 0.5), rel=1e-12)
        assert len(record["shifts"]) == 3
        assert len(record["a"]) == 2

    def test_csv_output(self, capsys):
        assert main(["landen", "-p", "2", "-m", "0.5", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,value"
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert "gamma" in names and "m_tilde" in names

    def test_domain_error_exit_code(self, capsys):
        assert main(["landen", "-p", "0", "-m", "0.5"]) == 2
        assert capsys.readouterr().err != ""

    def test_bad_modulus_exit_code(self):
        assert main(["landen", "-p", "2", "-m", "1.0"]) == 2

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_identity_map_takes_closed_interval(self, capsys, m):
        assert main(["landen", "-p", "1", "-m", m, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["gamma"], record["m_tilde"], record["A"]) == (1.0, float(m), 0.0)


class TestVerifyCommand:
    def test_limits_suite_passes(self, capsys):
        assert main(["verify", "--suite", "limits"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.strip().splitlines() if ln.startswith("{")]
        assert lines
        for ln in lines:
            record = json.loads(ln)
            assert set(record) == {"check", "params", "metric", "tol", "pass"}

    def test_report_file_and_summary(self, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "limits", "--report", str(report)]) == 0
        text = report.read_text()
        assert text.endswith("\n") and "\r" not in text
        assert all(json.loads(ln)["pass"] for ln in text.splitlines())
        assert "passed" in capsys.readouterr().out

    def test_reports_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["verify", "--suite", "kdv", "--report", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_summary_table_worst_metric_per_family(self, capsys, tmp_path):
        report = tmp_path / "r.jsonl"
        assert main(["verify", "--suite", "kdv", "--report", str(report)]) == 0
        rows = {ln.split()[0]: ln.split()
                for ln in capsys.readouterr().out.splitlines()}
        records = [json.loads(ln) for ln in report.read_text().splitlines()]

        def metrics(check):
            return [r["metric"] for r in records if r["check"] == check]

        # upper-bound family: the largest metric is closest to failing
        row = rows["residual_upm"]
        assert row[1] == "6" and row[3:6] == ["<=", "1e-07", "ok"]
        assert float(row[2]) == pytest.approx(max(metrics("residual_upm")), rel=1e-3)
        # lower-bound family: the smallest metric is closest to failing
        row = rows["residual_upm_rejected"]
        assert row[3:6] == [">=", "1e-03", "ok"]
        rejected = metrics("residual_upm_rejected")
        assert min(rejected) < max(rejected)
        assert float(row[2]) == pytest.approx(min(rejected), rel=1e-3)
        assert rows["kdv:"] == ["kdv:", "22/22", "checks", "passed"]

    def test_readme_shows_the_family_table(self, capsys, tmp_path):
        # README quotes, indented, the table that verify --suite all prints
        # to stdout when --report names a file
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert main(["verify", "--suite", "all", "--report", str(tmp_path / "r.jsonl")]) == 0
        table = "".join(f"    {line}\n" for line in capsys.readouterr().out.splitlines())
        assert table.startswith("    check ") and table in readme

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "limits", "--jobs", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_tolerance_override_fails_suite(self, capsys):
        code = main(["verify", "--suite", "equivalence", "--tol", "equivalence=1e-18"])
        assert code == 1
        capsys.readouterr()

    def test_unknown_tolerance_name(self, capsys):
        # landen_map enforces the A agreement itself, so dual_oracle_A is no knob
        for override in ("bogus=1", "dual_oracle_A=1e-8"):
            assert main(["verify", "--suite", "limits", "--tol", override]) == 2
            assert "unknown tolerance name" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "abc", ""])
    def test_vacuous_tolerance_refused(self, capsys, value):
        # run_suite alone converts and judges the text after NAME=
        assert main(["verify", "--suite", "limits", "--tol", f"soliton_limit={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: tolerance 'soliton_limit' must be finite and > 0, got {value!r}\n")

    def test_malformed_tolerance(self):
        assert main(["verify", "--suite", "limits", "--tol", "equivalence"]) == 2

    def test_unknown_suite(self):
        # restricted at the parser level, so argparse exits with the usage code
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "wrong"])
        assert exc.value.code == 2

    def test_json_summary(self, capsys, tmp_path):
        report = tmp_path / "r.jsonl"
        assert main(["verify", "--suite", "limits", "--json",
                     "--report", str(report)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "landen-kdv/1"
        assert summary["suite"] == "limits"
        assert summary["failed_checks"] == []
        assert summary["total"] == summary["passed"]


class TestEvalCommand:
    def test_csv_profile(self, capsys):
        assert main(["eval", "--family", "u1", "-m", "0.5", "--n", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 65
        x0, u0 = (float(v) for v in lines[1].split(","))
        assert x0 == 0.0
        assert u0 == pytest.approx(-2.0, abs=1e-13)

    def test_soliton_needs_explicit_window(self, capsys):
        assert main(["eval", "--family", "u1", "-m", "1"]) == 2
        assert "--length" in capsys.readouterr().err

    def test_soliton_with_window_matches_closed_form(self, capsys):
        assert main(["eval", "--family", "u1", "-m", "1", "--length", "20",
                     "--n", "128", "-t", "0.25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 128
        for ln in lines:
            x, u = (float(v) for v in ln.split(","))
            assert u == pytest.approx(-2.0 / math.cosh(x - 4 * 0.25) ** 2, abs=1e-10)

    def test_superposition_json(self, capsys):
        assert main(["eval", "--family", "up", "-p", "3", "-m", "0.7", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == "landen-kdv/1"
        assert record["family"] == "up"
        assert len(record["x"]) == len(record["u"]) == 256
        params = DnWaveParams(alpha=1.0, beta=0.0, m=0.7, p=3)
        assert record["L"] == pytest.approx(params.spatial_period, rel=1e-12)
        assert record["u"][0] == pytest.approx(
            float(u_p(0.0, 0.0, params)), rel=1e-12)

    def test_mixed_family_scaling_flag(self, capsys):
        assert main(["eval", "--family", "upm", "-m", "0.5", "--sign", "-1",
                     "--scaling", "as_written", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["family"] == "upm"
        assert record["u"][0] == pytest.approx(-math.sqrt(0.5), rel=1e-12)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "profile.csv"
        assert main(["eval", "--family", "u1", "-m", "0.5",
                     "--output", str(target)]) == 0
        capsys.readouterr()
        text = target.read_text()
        assert text.startswith("x,u\n") and "\r" not in text

    def test_rejects_bad_copy_count(self):
        assert main(["eval", "--family", "up", "-p", "0", "-m", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--alpha", "1e200", "--n", "64"],
        ["eval", "--family", "up", "-p", "2", "--alpha", "1e160", "--n", "64"],
        ["evolve", "--alpha", "1e200", "--n", "64"],
    ])
    def test_alpha_with_overflowing_square_is_a_domain_error(self, capsys, argv):
        # the speed scales as alpha**2, which would raise OverflowError
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_negative_values_in_scientific_notation(self, capsys):
        assert main(["eval", "--family", "u1", "-m", "0.5", "--n", "64",
                     "--beta", "-1e-05", "-t", "-2.5E-1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["t"] == -0.25
        params = DnWaveParams(alpha=1.0, beta=-1e-05, m=0.5)
        assert record["u"][0] == pytest.approx(
            float(u_p(0.0, -0.25, params)), rel=1e-12)


class TestEvolveCommand:
    def test_short_run_json(self, capsys):
        assert main(["evolve", "--family", "u1", "-m", "0.5", "--n", "128",
                     "--T", "0.01", "--dt", "1e-4", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == "landen-kdv/1"
        assert record["steps"] == 100
        assert record["error_estimate"] is None
        k_max = (2.0 / 3.0) * math.pi * record["N"] / record["L"]
        # u = -2 dn^2 peaks at -2 on the grid point x = 0, and its mean is
        # -2 E / K, so the oscillation about the mean is 2 (1 - E / K)
        oscillation = 2.0 * (1.0 - complete_E(0.5) / complete_K(0.5))
        assert record["cfl"] == pytest.approx(
            record["dt"] * 6.0 * oscillation * k_max, rel=1e-12)
        assert record["deviation"] < 1e-8
        assert record["mass_drift"] == 0.0
        spacing = record["L"] / record["N"]
        assert abs(record["lag"] - record["predicted_lag"]) <= spacing

    @pytest.mark.parametrize("wave", [
        # V*T lands a hair under a whole period: the lag reads 0
        ["--family", "u1", "-m", "0.7", "--periods-crossed", "3"],
        # V*T is exactly -L, which fmod reduces to -0.0
        ["--family", "u1", "-m", "0.5", "--beta", "2"],
    ], ids=" ".join)
    def test_predicted_lag_is_the_nearest_grid_shift(self, capsys, wave):
        assert main(["evolve", *wave, "--json"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out)
        spacing = record["L"] / record["N"]
        assert abs(record["lag"] - record["predicted_lag"]) <= spacing
        assert '"predicted_lag": -0.0' not in out

    def test_flat_wave_is_one_error_line(self, capsys):
        # at m = 0 the wave is its mean: no lag to read, so no record
        argv = ["evolve", "--family", "u1", "-m", "0", "--n", "64",
                "--periods-crossed", "0.5", "--json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: u0 is constant to roundoff on this grid; the lag measures nothing\n"

    def test_nearly_flat_wave_lags_as_predicted(self, capsys):
        # at m = 1e-9 the oscillation is about 1e-9 of the mean, far above
        # the drop floor, so the flat refusal leaves it alone
        assert main(["evolve", "--family", "u1", "-m", "1e-9", "--n", "64",
                     "--periods-crossed", "0.5", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["lag"] == record["predicted_lag"]

    def test_instability_exit(self, capsys):
        assert main(["evolve", "--family", "u1", "-m", "0.5", "--n", "256",
                     "--T", "0.1", "--dt", "0.01"]) == 1
        err = capsys.readouterr().err
        assert err.count("instability") == 1

    @pytest.mark.parametrize("flags", [
        ["--beta", "1e20", "--T", "0.01"],
        ["--beta", "1e150", "--T", "0.01", "--dt", "1e-3"],
    ], ids=" ".join)
    def test_huge_offset_is_one_instability_line(self, capsys, flags):
        assert main(["evolve", "--family", "up", "-p", "3", "-m", "0.5", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("instability: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [[], ["--dt", "1e-3"]], ids=" ".join)
    def test_offset_whose_sum_overflows_is_one_error_line(self, capsys, flags):
        # the field is finite but its sum is not: an input refusal that
        # names max|u0|, not a target_dt of 0 or a CFL number of inf
        argv = ["evolve", "--family", "up", "-p", "3", "-m", "0.5",
                "--beta", "1e306", "--T", "0.01", *flags]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the sum of u0 overflows (max|u0| = 1e+306)\n"

    @pytest.mark.parametrize("option", [
        "--T=nan", "--T=inf", "--dt=nan", "--periods-crossed=nan"])
    def test_non_finite_duration_is_a_domain_error(self, capsys, option):
        assert main(["evolve", "--family", "u1", "-m", "0.5", "--n", "64", option]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_crossing_time_that_overflows_names_the_crossing(self, capsys):
        # alpha = 1e-150 moves at 6e-300, so one crossing takes inf: refused
        # as the crossing, not as a --T the run never had
        assert main(["evolve", "--alpha", "1e-150", "--n", "64"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --periods-crossed 1.0 at wave speed 6e-300 takes a "
                       "non-finite time; pass --T explicitly\n")

    def test_overflowing_step_count_is_a_domain_error(self, capsys):
        # 1e300 / 1e-10 is inf: refused, since no step count can hold it
        assert main(["evolve", "--n", "64", "--T", "1e300", "--dt", "1e-10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_step_budget_is_a_domain_error(self, capsys):
        # 1e11 steps is past the budget: refused at once, never run
        assert main(["evolve", "--n", "64", "--T", "1", "--dt", "1e-11"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "steps" in err

    def test_mixed_family_rejected(self, capsys):
        # upm is not offered for evolution, so the parser itself refuses
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--family", "upm", "-m", "0.5"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_snapshot_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["evolve", "--family", "u1", "-m", "0.5", "--n", "128",
                     "--T", "0.01", "--dt", "1e-4", "--snapshot-every", "25",
                     "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        snapshots = sorted(out_dir.glob("snapshot_*.csv"))
        assert len(snapshots) == 5
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert sorted(meta) == ["L", "N", "T", "cfl", "deviation", "dt",
                                "error_estimate", "mass_drift", "momentum_drift",
                                "schema", "snapshot_times"]
        assert meta["schema"] == "landen-kdv/1"
        assert len(meta["snapshot_times"]) == 5
        assert meta["error_estimate"] is None and 0.0 < meta["cfl"] <= evolve_module.CFL_MAX
        first = snapshots[0].read_text().splitlines()
        assert first[0] == "x,u"

    def test_chosen_step_is_reported(self, capsys):
        argv = ["evolve", "--family", "up", "-p", "3", "-m", "0.6",
                "--beta", "-1e-05", "--periods-crossed", "0.05", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        record = json.loads(first)
        assert 0.0 < record["cfl"] <= evolve_module.CFL_MAX
        assert 0.0 <= record["error_estimate"] <= 1e-8
        assert record["deviation"] <= 1e-6
        assert main(argv[:-1]) == 0
        text = capsys.readouterr().out
        assert "cfl " in text and "error estimate " in text

    @pytest.mark.parametrize("wave, rounds", [
        (["--family", "u1", "-m", "0.5"], 2),
        (["--family", "up", "-p", "3", "-m", "0.6", "--beta=-1.0"], 2),
    ])
    def test_run_takes_its_first_step_from_the_pilot(
            self, monkeypatch, capsys, wave, rounds):
        # each pilot round makes one step of dt and two of dt/2; the
        # accepted round's step of dt is the run's step 1
        argv = ["evolve", *wave, "--n", "128", "--periods-crossed", "0.05", "--json"]
        assert main(argv) == 0
        handed = capsys.readouterr().out

        step, pilot, choose = (evolve_module._GridSteps.step,
                               evolve_module._pilot_error,
                               evolve_module._choose_step)
        steps, pilots = [], []

        def counted(self, u_hat, dt, a=None):
            steps.append(dt)
            return step(self, u_hat, dt, a)

        monkeypatch.setattr(evolve_module._GridSteps, "step", counted)
        monkeypatch.setattr(evolve_module, "_pilot_error",
                            lambda *args: pilots.append(args) or pilot(*args))
        assert main(argv) == 0
        assert capsys.readouterr().out == handed
        record = json.loads(handed)
        assert len(pilots) == rounds
        assert len(steps) == 3 * rounds + record["steps"] - 1

        # the run with its first step computed again writes the same record
        def recomputed_first(tables, u_hat, config):
            chosen, estimate, _ = choose(tables, u_hat, config)
            return chosen, estimate, tables.step(u_hat, chosen.dt)

        monkeypatch.setattr(evolve_module, "_choose_step", recomputed_first)
        steps.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == handed
        assert len(steps) == 3 * rounds + record["steps"]


class TestConfigFile:
    def test_options_load_from_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"command": "landen", "options": {"p": 2, "m": 0.5, "json": True}}))
        assert main(["landen", "--config", str(config)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["p"] == 2

    def test_flags_override_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"command": "landen", "options": {"p": 2, "m": 0.5, "json": True}}))
        assert main(["landen", "--config", str(config), "-p", "4"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["p"] == 4
        assert record["m"] == 0.5

    def test_command_mismatch(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "eval", "options": {}}))
        assert main(["landen", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_unknown_option_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"command": "landen", "options": {"wavelength": 3}}))
        assert main(["landen", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_malformed_json(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        assert main(["landen", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # UnicodeDecodeError is a ValueError but no json.JSONDecodeError
        config = tmp_path / "run.json"
        config.write_bytes(b"\xff\xfe{}")
        assert main(["landen", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: config {config} is not valid JSON")

    @pytest.mark.parametrize("command, options", [
        ("eval", {"family": "upm", "scaling": "bogus"}),
        ("landen", {"m": "abc"}),
        ("landen", {"p": 2.7}),
        ("landen", {"p": True}),
        ("landen", {"json": 1}),
        ("verify", {"suite": "nonsense"}),
        ("verify", {"tol": "equivalence=1"}),
        ("evolve", {"family": "upm"}),
    ])
    def test_value_checked_like_its_flag(self, tmp_path, capsys, command, options):
        # the flag's own type and choices apply: a bad value is a usage
        # error, never a traceback or a silently truncated number
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": command, "options": options}))
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {config}: {[*options][-1]}: ")

    def test_values_parse_as_their_flags_would(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "eval", "options": {
            "family": "upm", "m": 1, "alpha": "1.3", "sign": -1, "n": 64,
            "length": 10, "output": None, "json": True}}))
        assert main(["eval", "--config", str(config)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["N"], record["L"]) == (64, 10.0)

    @pytest.mark.parametrize("flag, code, limit_tol", [
        ("soliton_exact=1", 1, 1e-20),    # another name: the file's entry stays
        ("soliton_limit=1e-3", 0, 1e-3),  # the same name: the flag wins
    ])
    def test_tol_flags_merge_with_file_by_name(
            self, tmp_path, capsys, flag, code, limit_tol):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "verify", "options": {
            "suite": "limits", "tol": ["soliton_limit=1e-20"]}}))
        assert main(["verify", "--config", str(config), "--tol", flag]) == code
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["tol"] for r in lines if r["check"] == "soliton_limit"] == [limit_tol] * 2

    def test_vacuous_tol_in_file_refused(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "verify", "options": {
            "suite": "limits", "tol": ["residual_non_solution=-1"]}}))
        assert main(["verify", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite and > 0" in err


# Every subcommand's option dests and defaults, pinned like PUBLIC_NAMES:
# adding, renaming or re-defaulting an option must edit this table.
CLI_DEFAULTS = {
    "landen": {"p": 1, "m": 0.5, "json": False, "csv": False, "config": None},
    "verify": {"suite": "all", "report": None, "tol": [], "json": False,
               "config": None},
    "eval": {"family": "u1", "p": 3, "m": 0.5, "alpha": 1.0, "beta": 0.0,
             "sign": 1, "scaling": "standard", "n": 256, "periods": 1,
             "length": None, "t": 0.0, "output": None, "json": False,
             "config": None},
    "evolve": {"family": "u1", "p": 3, "m": 0.5, "alpha": 1.0, "beta": 0.0,
               "n": 256, "periods_crossed": 1.0, "T": None, "dt": None,
               "snapshot_every": 0, "output_dir": None, "json": False,
               "config": None},
}


def direct_route(monkeypatch, argv: list[str]) -> argparse.Namespace:
    """The namespace main hands argv's command, with the command stubbed out."""
    seen = []
    add_flags, help_line, _ = cli_module._COMMANDS[argv[0]]
    monkeypatch.setitem(cli_module._COMMANDS, argv[0],
                        (add_flags, help_line, lambda args: seen.append(args) or 0))
    assert main(argv) == 0
    (args,) = seen
    return args


class TestCliSurface:
    @pytest.mark.parametrize("command", sorted(CLI_DEFAULTS))
    def test_option_defaults_are_pinned(self, monkeypatch, command):
        # the namespace holds the option dests and nothing else
        args = vars(direct_route(monkeypatch, [command]))
        assert args == CLI_DEFAULTS[command]
        assert all(type(args[k]) is type(v) for k, v in CLI_DEFAULTS[command].items())

    @pytest.mark.parametrize("command, extra", [
        ("landen", []),
        ("eval", []),
        ("verify", ["--suite", "limits"]),
        ("evolve", ["--T", "0.001"]),
    ])
    def test_config_restating_defaults_changes_nothing(
            self, tmp_path, capsys, command, extra):
        options = {k: v for k, v in CLI_DEFAULTS[command].items() if k != "config"}
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({"command": command, "options": options}))
        plain = main([command, *extra]), capsys.readouterr()
        configured = main([command, "--config", str(config), *extra]), capsys.readouterr()
        assert plain[0] == 0
        assert configured == plain


USAGE = "usage: landen-kdv [-h] {landen,verify,eval,evolve} ...\n"

# stdout, stderr and exit code of each --help and usage error, keyed by
# terminal width and argv, with the Python version that printed them
SURFACE = json.loads((Path(__file__).parent / "cli_surface.json").read_text())


class TestParserSurface:
    # main parses a command's arguments with that command's parser alone,
    # which reports every error in them; any other command line goes to
    # the flagless tree, which exits
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "argument command_name: invalid choice: 'bogus' "
                    "(choose from 'landen', 'verify', 'eval', 'evolve')"),
        (["evolve", "--bogus"], "unrecognized arguments: --bogus"),
        # the tree knows no command's flags, so it reports --n 3 as well
        (["-x", "evolve", "--n", "3"], "unrecognized arguments: -x --n 3"),
        ([], "the following arguments are required: command_name"),
        *(([command, token], f"unrecognized arguments: {token}")
          for command in CLI_DEFAULTS for token in ("--bogus", "stray")
          if [command, token] != ["evolve", "--bogus"]),
    ])
    def test_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        if argv and argv[0] in CLI_DEFAULTS:
            prog = f"landen-kdv {argv[0]}"
            usage = cli_module._command_parser(argv[0]).format_usage()
        else:
            prog, usage = "landen-kdv", USAGE
        assert usage.startswith(f"usage: {prog} [-h]")
        assert out == "" and err == f"{usage}{prog}: error: {message}\n"

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(USAGE)
        assert "evolve              integrate a family and compare to its exact translate" in out

    @pytest.mark.parametrize("command", sorted(CLI_DEFAULTS))
    def test_subcommand_help_shows_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: landen-kdv {command} [-h]")
        missing = [dest for dest in CLI_DEFAULTS[command] if not re.search(
            rf"(?<![\w-])--?{re.escape(dest.replace('_', '-'))}(?![\w-])", out)]
        assert missing == []

    @pytest.mark.skipif(sys.version_info[:2] != tuple(map(int, SURFACE["python"].split("."))),
                        reason="argparse lays out help differently in other Pythons")
    @pytest.mark.parametrize("columns, argv", [
        (columns, argv) for columns, texts in SURFACE["columns"].items() for argv in texts])
    def test_help_and_usage_error_bytes_are_pinned(self, monkeypatch, capsys, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        out, err = capsys.readouterr()
        expected = SURFACE["columns"][columns][argv]
        assert (exc.value.code, out, err) == (
            expected["code"], expected["stdout"], expected["stderr"])

    def test_the_tree_holds_no_command_flags(self):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(CLI_DEFAULTS)
        assert all({a.dest for a in command._actions} == {"help"}
                   for command in sub.choices.values())

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h", "evolve"], ["bogus"], ["--", "landen"],
        ["-x", "evolve", "--n", "3"],
    ], ids=repr)
    def test_only_command_lines_without_a_command_reach_the_tree(
            self, monkeypatch, capsys, argv):
        trees, commands = [], []
        monkeypatch.setattr(cli_module, "build_parser",
                            lambda build=build_parser: trees.append(1) or build())
        monkeypatch.setattr(cli_module, "_command_parser", commands.append)
        with pytest.raises(SystemExit):
            main(argv)
        assert trees and commands == []

    @pytest.mark.parametrize("command", sorted(CLI_DEFAULTS))
    def test_only_the_dispatched_subcommand_gets_its_flags(self, monkeypatch, command):
        # a successful call builds the one parser it runs, never the full tree
        parsers, trees = [], []
        init = cli_module._Parser.__init__

        def recording_init(self, *args, **kwargs):
            parsers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli_module._Parser, "__init__", recording_init)
        monkeypatch.setattr(cli_module, "build_parser",
                            lambda build=build_parser: trees.append(1) or build())
        direct_route(monkeypatch, [command])
        assert trees == []
        (parser,) = parsers
        assert parser.prog == f"landen-kdv {command}"
        assert {a.dest for a in parser._actions} == {"help", *CLI_DEFAULTS[command]}

    def test_config_run_builds_its_subparser_once(self, monkeypatch, tmp_path, capsys):
        progs = []
        init = cli_module._Parser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli_module._Parser, "__init__", counting_init)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "landen", "options": {"p": 2}}))
        for _ in range(2):  # and nothing is cached across main calls
            assert main(["landen", "--config", str(config), "--json"]) == 0
        assert progs == ["landen-kdv landen"] * 2
        assert json.loads(capsys.readouterr().out.splitlines()[0])["p"] == 2

    @pytest.mark.parametrize("argv", [
        ["evolve", "--n", "64", "--T", "0.001", "--json"],
        ["evolve", "--help"],
        ["--help"],
    ])
    def test_one_terminal_size_query_per_main(self, monkeypatch, capsys, argv):
        # argparse's HelpFormatter asks for the terminal size whenever it
        # is built without a width, once per add_argument; the width is
        # asked once per parser build and bound into every formatter
        queries = []
        query = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size",
                            lambda *args: queries.append(args) or query(*args))
        with contextlib.suppress(SystemExit):
            main(argv)
        assert capsys.readouterr().out
        assert len(queries) == 1


# each command's flags with a value to set (None for a switch) and the
# value main must hand the command
ROUTE_FLAGS = {
    "landen": [("-p", "2", 2), ("-m", "0.3", 0.3), ("--json", None, True),
               ("--csv", None, True)],
    "verify": [("--suite", "limits", "limits"), ("--report", "r.jsonl", "r.jsonl"),
               ("--tol", "equivalence=1e-9", ["equivalence=1e-9"]),
               ("--json", None, True)],
    "eval": [("--family", "upm", "upm"), ("-p", "2", 2), ("-m", "0.3", 0.3),
             ("--alpha", "1.5", 1.5), ("--beta", "-1e-05", -1e-05), ("--n", "64", 64),
             ("--sign", "-1", -1), ("--scaling", "as_written", "as_written"),
             ("--periods", "2", 2), ("--length", "10", 10.0), ("-t", "0.5", 0.5),
             ("--output", "u.csv", "u.csv"), ("--json", None, True)],
    "evolve": [("--family", "up", "up"), ("-p", "2", 2), ("-m", "0.3", 0.3),
               ("--alpha", "1.5", 1.5), ("--beta", "-1e-05", -1e-05), ("--n", "64", 64),
               ("--periods-crossed", "0.5", 0.5), ("--T", "0.01", 0.01),
               ("--dt", "1e-3", 1e-3), ("--snapshot-every", "2", 2),
               ("--output-dir", "out", "out"), ("--json", None, True)],
}


def route_cases(command: str) -> list:
    """Defaults, each flag alone in split and NAME=VALUE form, all flags at
    once; each argv with the dests it sets."""
    flags = ROUTE_FLAGS[command]
    split = [[flag] if text is None else [flag, text] for flag, text, _ in flags]
    joined = [[flag if text is None else f"{flag}={text}"] for flag, text, _ in flags]
    values = [{flag.lstrip("-").replace("-", "_"): value} for flag, _, value in flags]
    every = {k: v for value in values for k, v in value.items()}
    return ([([command], {})]
            + [([command, *argv], value)
               for argv, value in zip(split + joined, values + values)]
            + [([command, *sum(split, [])], every), ([command, *sum(joined, [])], every)])


class TestRouteEquivalence:
    # every command line main dispatches reaches the command as the values
    # written here; unlike the byte pins, this holds on every Python the
    # package supports
    @staticmethod
    def assert_namespace(monkeypatch, argv, changed):
        args = vars(direct_route(monkeypatch, argv))
        expected = {**CLI_DEFAULTS[argv[0]], **changed}
        assert args == expected
        assert {k: type(v) for k, v in args.items()} == {
            k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("argv, changed", [
        *(pytest.param(argv, changed, id=" ".join(argv))
          for command in ROUTE_FLAGS for argv, changed in route_cases(command)),
        pytest.param(["verify", "--tol", "equivalence=1e-9", "--tol=kdv=1e-8",
                      "--tol", "equivalence=1e-7"],
                     {"tol": ["equivalence=1e-9", "kdv=1e-8", "equivalence=1e-7"]},
                     id="verify --tol equivalence=1e-9 --tol=kdv=1e-8 --tol equivalence=1e-7"),
    ])
    def test_same_namespace(self, monkeypatch, argv, changed):
        self.assert_namespace(monkeypatch, argv, changed)

    # the dests each config run below sets, file and flags together
    CONFIGURED = {
        "landen": {"p": 2, "json": True, "m": 0.3},
        "verify": {"suite": "limits", "tol": ["soliton_limit=1e-3", "equivalence=1e-9"]},
        "eval": {"family": "upm", "m": 1.0, "alpha": 1.3, "length": 10.0, "n": 64},
        "evolve": {"family": "up", "T": 0.01, "n": 128, "beta": -1e-05},
    }

    @pytest.mark.parametrize("command, options, flags", [
        ("landen", {"p": 2, "json": True}, ["-m", "0.3"]),
        ("verify", {"suite": "limits", "tol": ["soliton_limit=1e-3"]},
         ["--tol", "equivalence=1e-9"]),
        ("eval", {"family": "upm", "m": 1, "alpha": "1.3", "length": 10}, ["--n=64"]),
        ("evolve", {"family": "up", "T": 0.01, "n": 64}, ["--beta", "-1e-05", "--n", "128"]),
    ])
    def test_config_file(self, monkeypatch, tmp_path, command, options, flags):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": command, "options": options}))
        self.assert_namespace(monkeypatch, [command, "--config", str(config), *flags],
                              {**self.CONFIGURED[command], "config": str(config)})

    @pytest.mark.parametrize("argv", [
        ["evolve", "--bogus"], ["evolve", "--n", "abc"], ["evolve", "stray"],
        ["verify", "--suite", "nope"], ["landen", "-p"],
    ], ids=" ".join)
    def test_same_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith(f"usage: landen-kdv {argv[0]} [-h]")
        assert err.splitlines()[-1].startswith(f"landen-kdv {argv[0]}: error: ")


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "landen_kdv.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "landen" in proc.stdout and "evolve" in proc.stdout

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["landen", "--not-a-flag"])
        assert exc.value.code == 2
