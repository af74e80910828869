import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twogroupbf
from twogroupbf.cli import parse_and_run, read_raw_csv
from twogroupbf.datamodel import SummaryCi, derive_stats
from twogroupbf.engine import CauchyPrior, TestSpec, get_bf, infer_bf, super_bf
from twogroupbf.oracle import GridSpec, default_span, grid_bf
from twogroupbf.report import render_text

INFER_ARGS = [
    "infer", "--n-x", "193", "--n-y", "205", "--mean-x", "4.7", "--mean-y", "4.8",
    "--ci-margin", "0.19", "--ci-level", "0.95", "--ni-margin", "1",
    "--direction", "low",
]

# t = 2e300, past the point where t^2 overflows
TINY_CI_MARGIN = ["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0", "--mean-y", "0.5",
                  "--ci-margin", "1e-300"]


class TestInferInvocation:
    def test_matches_engine_output_byte_for_byte(self, capsys):
        assert parse_and_run(INFER_ARGS) == 0
        out = capsys.readouterr().out
        expected = render_text(
            infer_bf(SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95),
                     TestSpec.non_inferiority(1.0, direction="low"))
        )
        assert out == expected
        assert "Non-inferiority margin:       1.04 (standardised)" in out
        assert "                              1.00 (unstandardised)" in out
        assert "Cauchy prior scale:           0.707" in out

    def test_deterministic_across_runs(self, capsys):
        parse_and_run(INFER_ARGS)
        first = capsys.readouterr().out
        parse_and_run(INFER_ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_json_format(self, capsys):
        assert parse_and_run(INFER_ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "non_inferiority"
        assert payload["direction"] == "low"
        engine = infer_bf(SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95),
                          TestSpec.non_inferiority(1.0, direction="low"))
        assert payload["log_bf"] == engine.log_bf


class TestRawCsv:
    def _write(self, path, rows, header="group,value"):
        path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
        return str(path)

    def test_minimal_file(self, tmp_path):
        path = self._write(tmp_path / "d.csv", ["x,1.0", "x,2.0", "y,1.5", "y,2.5"])
        raw = read_raw_csv(path)
        assert list(raw.x) == [1.0, 2.0]
        assert list(raw.y) == [1.5, 2.5]

    def test_row_order_irrelevant(self, tmp_path):
        a = read_raw_csv(self._write(tmp_path / "a.csv",
                                     ["x,1", "y,5", "x,2", "y,6"]))
        b = read_raw_csv(self._write(tmp_path / "b.csv",
                                     ["x,1", "x,2", "y,5", "y,6"]))
        assert list(a.x) == list(b.x) and list(a.y) == list(b.y)

    def test_unknown_group_label(self, tmp_path, capsys):
        path = self._write(tmp_path / "d.csv", ["x,1", "x,2", "z,3", "y,4", "y,5"])
        rc = parse_and_run(["super", "--raw", path])
        assert rc == 2
        assert "unknown group label 'z'" in capsys.readouterr().err

    def test_bad_header(self, tmp_path, capsys):
        path = self._write(tmp_path / "d.csv", ["x,1"], header="grp,val")
        assert parse_and_run(["super", "--raw", path]) == 2
        assert "expected header 'group,value'" in capsys.readouterr().err

    def test_non_numeric_value(self, tmp_path, capsys):
        path = self._write(tmp_path / "d.csv", ["x,1", "x,two", "y,3", "y,4"])
        assert parse_and_run(["super", "--raw", path]) == 2
        assert "non-numeric value" in capsys.readouterr().err

    def test_group_too_small(self, tmp_path, capsys):
        path = self._write(tmp_path / "d.csv", ["x,1", "y,3", "y,4"])
        assert parse_and_run(["super", "--raw", path]) == 2
        assert "fewer than 2 rows" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert parse_and_run(["super", "--raw", "/nonexistent/path.csv"]) == 2
        assert "cannot read raw data file" in capsys.readouterr().err

    def test_large_file_moments_match_plain_sums(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.normal(1.0, 2.0, size=5000)
        y = rng.normal(1.3, 1.7, size=5000)
        rows = [f"x,{float(v)!r}" for v in x] + [f"y,{float(v)!r}" for v in y]
        raw = read_raw_csv(self._write(tmp_path / "big.csv", rows))
        stats = derive_stats(raw)
        # independent reduction: compensated sums, no numpy
        def mean_sd(vals):
            n = len(vals)
            m = math.fsum(vals) / n
            var = math.fsum((v - m) ** 2 for v in vals) / (n - 1)
            return m, math.sqrt(var)

        mx, sx = mean_sd(list(x))
        my, sy = mean_sd(list(y))
        sp = math.sqrt(((5000 - 1) * sx**2 + (5000 - 1) * sy**2) / 9998)
        t = (my - mx) / (sp * math.sqrt(2 / 5000))
        assert stats.t_obs == pytest.approx(t, abs=1e-10)
        assert stats.sd_pooled == pytest.approx(sp, abs=1e-10)


class TestSuperInvocation:
    def test_identical_groups_favor_the_null(self, tmp_path, capsys):
        rows = []
        values = [0.4, 1.1, 1.9, 2.6, 3.0, 3.7]
        for v in values:
            rows.append(f"x,{v}")
            rows.append(f"y,{v}")
        path = tmp_path / "same.csv"
        path.write_text("group,value\n" + "\n".join(rows) + "\n")
        rc = parse_and_run(["super", "--raw", str(path), "--alternative", "two_sided"])
        assert rc == 0
        out = capsys.readouterr().out
        bf_line = [l for l in out.splitlines() if "BF10 (superiority)" in l][0]
        bf = float(bf_line.split("=")[1])
        assert bf < 1.0
        # the grid oracle agrees on this exact fixture
        raw = read_raw_csv(str(path))
        prior = CauchyPrior()
        oracle = grid_bf(derive_stats(raw), prior, TestSpec.superiority(),
                         GridSpec(span=default_span(prior), nodes=100_001))
        engine = get_bf(super_bf(raw, TestSpec.superiority()))
        assert engine == pytest.approx(oracle, rel=1e-6)

    def test_prior_scale_flag(self, capsys):
        rc = parse_and_run(["super", "--n-x", "100", "--n-y", "100", "--mean-x", "0",
                            "--mean-y", "0.5", "--sd-x", "1", "--sd-y", "1",
                            "--prior-scale", "0.5"])
        assert rc == 0
        assert "BF10 (superiority) = 51.58" in capsys.readouterr().out

    def test_tiny_prior_scale_tends_to_the_point_null(self, capsys):
        # a prior spike of width 1e-10 must still be seen by the quadrature
        rc = parse_and_run(["super", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "1", "--sd-x", "1", "--sd-y", "1",
                            "--prior-scale", "1e-10"])
        assert rc == 0
        assert "BF10 (superiority) = 1.00" in capsys.readouterr().out


    def test_bayes_factor_beyond_float_range(self, capsys):
        # ln BF10 is in the thousands here, far past the float range
        args = ["super", "--n-x", "100000", "--n-y", "100000", "--mean-x", "0",
                "--mean-y", "0.5", "--sd-x", "1", "--sd-y", "1"]
        assert parse_and_run(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["log_bf"] > 709.8
        assert payload["bf"] is None
        assert parse_and_run(args) == 0
        bf_line = [l for l in capsys.readouterr().out.splitlines() if "BF10" in l][0]
        mantissa, exponent = bf_line.split("= ")[1].split("e")
        assert 1.0 <= float(mantissa) < 10.0
        assert int(exponent) == math.floor(payload["log_bf"] / math.log(10.0))


class TestEquivInvocation:
    def test_symmetric_expansion_in_h0_line(self, capsys):
        rc = parse_and_run(["equiv", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "0.05", "--sd-x", "1", "--sd-y", "1",
                            "--interval", "0.3", "--interval-std"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "H0 (equivalence):             delta > -0.30 AND delta < 0.30" in out
        assert "BF01 (equivalence)" in out

    def test_point_null_default(self, capsys):
        rc = parse_and_run(["equiv", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "0.05", "--sd-x", "1", "--sd-y", "1"])
        assert rc == 0
        assert "mu_y - mu_x = 0" in capsys.readouterr().out

    def test_point_null_below_float_range(self, capsys):
        # exp(ln BF01) underflows to 0.0 here; the report comes from ln BF01
        args = ["--n-x", "20000", "--n-y", "20000", "--mean-x", "0", "--mean-y", "0.5",
                "--sd-x", "1", "--sd-y", "1"]
        assert parse_and_run(["equiv", *args]) == 0
        assert "    BF01 (equivalence) = 3.41e-525\n" in capsys.readouterr().out
        assert parse_and_run(["equiv", *args, "--format", "json"]) == 0
        equiv = json.loads(capsys.readouterr().out)
        assert parse_and_run(["super", *args, "--format", "json"]) == 0
        superiority = json.loads(capsys.readouterr().out)
        assert equiv["log_bf"] == -superiority["log_bf"]


class TestSweepInvocation:
    def test_reports_min_and_max(self, capsys):
        rc = parse_and_run(["sweep", "--design", "super", "--scales", "0.5", "5",
                            "--n-x", "100", "--n-y", "100", "--mean-x", "0",
                            "--mean-y", "0.5", "--sd-x", "1", "--sd-y", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "min BF10 (superiority) = 9.87" in out
        assert "max BF10 (superiority) = 51.58" in out

    def test_sweep_needs_margin_for_infer(self, capsys):
        rc = parse_and_run(["sweep", "--design", "infer", "--scales", "0.5",
                            "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "0.1", "--sd-x", "1", "--sd-y", "1"])
        assert rc == 2
        assert "--ni-margin is required" in capsys.readouterr().err


class TestSplitRawFiles:
    def test_two_single_column_files(self, tmp_path, capsys):
        fx = tmp_path / "x.txt"
        fy = tmp_path / "y.txt"
        fx.write_text("1.0\n2.0\n\n3.0\n")
        fy.write_text("2.5\n3.5\n4.5\n")
        rc = parse_and_run(["super", "--raw-x", str(fx), "--raw-y", str(fy)])
        assert rc == 0
        out = capsys.readouterr().out
        from twogroupbf.datamodel import RawGroups

        expected = render_text(super_bf(RawGroups(x=[1, 2, 3], y=[2.5, 3.5, 4.5]),
                                        TestSpec.superiority()))
        assert out == expected

    def test_missing_partner_file(self, tmp_path, capsys):
        fx = tmp_path / "x.txt"
        fx.write_text("1.0\n2.0\n")
        assert parse_and_run(["super", "--raw-x", str(fx)]) == 2
        assert "both --raw-x and --raw-y" in capsys.readouterr().err

    def test_conflict_with_combined_csv(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("group,value\nx,1\nx,2\ny,3\ny,4\n")
        fx = tmp_path / "x.txt"
        fx.write_text("1.0\n2.0\n")
        rc = parse_and_run(["super", "--raw", str(f), "--raw-x", str(fx),
                            "--raw-y", str(fx)])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_non_numeric_line(self, tmp_path, capsys):
        fx = tmp_path / "x.txt"
        fy = tmp_path / "y.txt"
        fx.write_text("1.0\noops\n")
        fy.write_text("1.0\n2.0\n")
        assert parse_and_run(["super", "--raw-x", str(fx), "--raw-y", str(fy)]) == 2
        assert "non-numeric value 'oops'" in capsys.readouterr().err


class TestNegativeNumberSpellings:
    @staticmethod
    def _argv(sub, mean_x, lower):
        data = ["--n-x", "20", "--n-y", "24", "--mean-x", mean_x, "--mean-y", "0.3",
                "--sd-x", "1", "--sd-y", "1.2"]
        extra = {"super": [],
                 "infer": ["--ni-margin", "2e-1"],
                 "equiv": ["--interval", lower, "3e-1"],
                 "sweep": ["--design", "equiv", "--scales", "5e-1", "1",
                           "--interval", lower, "3e-1"]}[sub]
        return [sub, *data, *extra]

    @pytest.mark.parametrize("sub", ["super", "infer", "equiv", "sweep"])
    def test_scientific_notation_reads_as_a_value(self, sub, capsys):
        outputs = []
        for mean_x, lower in (("-1e-3", "-2e-1"), ("-0.001", "-0.2")):
            assert parse_and_run(self._argv(sub, mean_x, lower)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestValidationAndExitCodes:
    def test_conflicting_input_modes(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("group,value\nx,1\nx,2\ny,3\ny,4\n")
        rc = parse_and_run(["super", "--raw", str(path), "--n-x", "4", "--n-y", "4",
                            "--mean-x", "0", "--mean-y", "1"])
        assert rc == 2
        assert "conflict" in capsys.readouterr().err

    def test_sd_and_ci_conflict(self, capsys):
        rc = parse_and_run(["super", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "1", "--sd-x", "1", "--sd-y", "1",
                            "--ci-margin", "0.2"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_variability(self, capsys):
        rc = parse_and_run(["super", "--n-x", "10", "--n-y", "10",
                            "--mean-x", "0", "--mean-y", "1"])
        assert rc == 2
        assert "no variability information" in capsys.readouterr().err

    def test_incomplete_sds(self, capsys):
        rc = parse_and_run(["super", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "1", "--sd-x", "1"])
        assert rc == 2
        assert "both --sd-x and --sd-y" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert parse_and_run(["super", "--bogus", "1"]) == 2
        # a dash token that is not a float stays a flag
        assert parse_and_run(["super", "-e3"]) == 2

    def test_unknown_subcommand(self):
        assert parse_and_run(["frobnicate"]) == 2

    def test_invalid_numerics(self, capsys):
        rc = parse_and_run(["infer", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "0.1", "--sd-x", "1", "--sd-y", "1",
                            "--ni-margin", "-2"])
        assert rc == 2
        assert "ni_margin" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, field", [
        (["equiv", "--interval", "nan"], "interval"),
        (["equiv", "--interval", "0", "inf"], "interval"),
        (["equiv", "--interval", "-inf", "0.2"], "interval"),
        (["sweep", "--design", "equiv", "--scales", "0.5", "1", "--interval", "nan"],
         "interval"),
        (["infer", "--ni-margin", "nan"], "ni_margin"),
        (["infer", "--ni-margin", "inf"], "ni_margin"),
        (["sweep", "--design", "infer", "--scales", "0.5", "--ni-margin", "nan"],
         "ni_margin"),
    ])
    def test_non_finite_margins_are_rejected(self, extra, field, capsys):
        rc = parse_and_run([*extra, "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "0.1", "--sd-x", "1", "--sd-y", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert field in captured.err and captured.out == ""

    def test_numerical_failure_maps_to_exit_3(self, capsys, monkeypatch):
        from twogroupbf import cli
        from twogroupbf.quadrature import QuadratureError

        def boom(*args, **kwargs):
            raise QuadratureError("did not converge", -1.0, 0.5)

        monkeypatch.setattr(cli, "run_test", boom)
        rc = parse_and_run(["super", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "0.1", "--sd-x", "1", "--sd-y", "1"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_log_bf_exits_3(self, capsys):
        # t = 2e300: the likelihood is zero in any scale under both hypotheses
        for alternative in ("two_sided", "one_sided"):
            rc = parse_and_run([*TINY_CI_MARGIN, "--alternative", alternative])
            captured = capsys.readouterr()
            assert rc == 3
            assert "log Bayes factor is not finite" in captured.err and captured.out == ""

    def test_overflowing_inputs_print_only_their_error_line(self, tmp_path):
        # numpy's overflow warnings would reach a user's stderr ahead of the
        # error; a fresh interpreter shows what the user sees
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        fx.write_text("1e200\n-1e200\n3e200\n")
        fy.write_text("2e200\n-1e200\n5e200\n")
        env = {**os.environ, "PYTHONPATH": str(Path(twogroupbf.__file__).resolve().parents[1])}
        for args, status in ((TINY_CI_MARGIN, 3),
                             (["super", "--raw-x", str(fx), "--raw-y", str(fy)], 2)):
            proc = subprocess.run([sys.executable, "-m", "twogroupbf.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == status
            assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_huge_sds_pool_without_overflow(self, capsys):
        small = ["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0", "--mean-y", "0.5"]
        assert parse_and_run([*small, "--sd-x", "1", "--sd-y", "2", "--format", "json"]) == 0
        unit = json.loads(capsys.readouterr().out)
        big = ["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0", "--mean-y", "0.5e200"]
        assert parse_and_run([*big, "--sd-x", "1e200", "--sd-y", "2e200", "--format", "json"]) == 0
        scaled = json.loads(capsys.readouterr().out)
        assert scaled["log_bf"] == pytest.approx(unit["log_bf"], rel=1e-12)

    def test_infinite_t_statistic_names_the_means(self, capsys):
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "-1e308",
                            "--mean-y", "1e308", "--sd-x", "1", "--sd-y", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "mean_x = -1e+308, mean_y = 1e+308" in captured.err and captured.out == ""

    def test_ci_level_next_to_one(self, capsys):
        # (1 + level) / 2 rounds to 1.0 here; the tail (1 - level) / 2 does not
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0",
                            "--mean-y", "0.5", "--ci-margin", "4",
                            "--ci-level", "0.9999999999999999", "--format", "json"])
        assert rc == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["log_bf"])


class TestCurves:
    def test_unwritable_curves_path_exits_2(self, tmp_path, capsys):
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0",
                            "--mean-y", "0.4", "--sd-x", "1", "--sd-y", "1",
                            "--curves", str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_curves_file_written(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0",
                            "--mean-y", "0.4", "--sd-x", "1", "--sd-y", "1",
                            "--curves", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,prior,posterior"
        assert len(lines) == 513
