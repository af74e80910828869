import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import twogroupbf
from conftest import nct_logpdf_mpmath, strict_json
from twogroupbf.cli import parse_and_run, read_raw_csv
from twogroupbf.datamodel import SummaryCi, SummaryMoments, derive_stats
from twogroupbf.engine import DESIGN_FIELDS, CauchyPrior, TestSpec, get_bf, infer_bf, super_bf
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
# t = 2.2e160 from moments
TINY_SDS = ["super", "--n-x", "10", "--n-y", "10", "--mean-x", "0", "--mean-y", "1",
            "--sd-x", "1e-160", "--sd-y", "1e-160"]
# t = 1e152 at df 2e6, whose ncp^2 df overflows at the likelihood's peak
HUGE_N_TINY_SDS = ["super", "--n-x", "1000000", "--n-y", "1000000", "--mean-x", "0",
                   "--mean-y", "1", "--sd-x", "1e-149", "--sd-y", "1e-149"]
# n 50/50, d = 0.3; every node past a standardized margin of 1e307 is past the float range
FAR_MARGIN = ["--n-x", "50", "--n-y", "50", "--mean-x", "0", "--mean-y", "0.3",
              "--sd-x", "1", "--sd-y", "1", "--prior-scale", "1e307"]
# sds of 1e308: a standardized margin or interval end of 3 or more is past
# the float range in outcome units, while the Bayes factor stays finite
HUGE_SDS = ["--n-x", "20", "--n-y", "20", "--mean-x", "0", "--mean-y", "1e307",
            "--sd-x", "1e308", "--sd-y", "1e308"]


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

    def test_margin_past_the_float_range_is_null_in_json(self, capsys):
        args = ["infer", "--ni-margin", "10", "--ni-margin-std", *HUGE_SDS]
        assert parse_and_run([*args, "--format", "json"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["ni_margin"] == {"standardized": 10.0, "unstandardized": None}
        assert payload["bf"] == math.exp(payload["log_bf"]) > 1.0
        assert payload["prior_scale"] == 1.0 / math.sqrt(2.0)
        assert parse_and_run(args) == 0
        assert "inf (unstandardised)" in capsys.readouterr().out


class TestRawCsv:
    def _write(self, path, rows, header="group,value"):
        path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
        return str(path)

    def test_minimal_file(self, tmp_path):
        # a blank row is skipped
        path = self._write(tmp_path / "d.csv", ["x,1.0", "", "x,2.0", "y,1.5", "y,2.5"])
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

    def test_row_with_three_fields_names_its_line(self, tmp_path, capsys):
        path = self._write(tmp_path / "d.csv", ["x,1", "x,2,3", "y,3", "y,4"])
        assert parse_and_run(["super", "--raw", path]) == 2
        assert capsys.readouterr().err == f"error: {path}:3: expected exactly 2 columns\n"

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

    def test_field_past_the_csv_limit_names_its_line(self, tmp_path, capsys):
        path = self._write(tmp_path / "d.csv", ["x,1", "x,2", "y,3", "y," + "1" * 200000])
        assert parse_and_run(["super", "--raw", path]) == 2
        assert capsys.readouterr().err == f"error: {path}:5: field larger than field limit (131072)\n"

    def test_empty_file(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("")
        assert parse_and_run(["super", "--raw", str(tmp_path / "d.csv")]) == 2
        assert "file is empty" in capsys.readouterr().err

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

    def test_ci_study_past_the_underflow_of_hills_start(self, capsys):
        # n = 1e200 per group puts df past ~7e161, where the t quantile's start
        # divided by zero and the CLI exited 1 with a traceback
        n = str(10 ** 200)
        study = ["super", "--n-x", n, "--n-y", n, "--mean-x", "0", "--mean-y", "1",
                 "--ci-margin", "0.5"]
        assert parse_and_run([*study, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # the likelihood is normal, 1e-100 wide against a prior flat over it:
        # ln BF10 = ln p(0) - ln(n_eff) / 2 + t^2 / 2 + ln sqrt(2 pi), t = 2 z_0.975
        t = 2.0 * 1.959963984540054
        want = (-math.log(math.pi / math.sqrt(2.0)) - 0.5 * math.log(5e199) + t * t / 2.0
                + 0.5 * math.log(2.0 * math.pi))
        assert json.loads(captured.out)["log_bf"] == pytest.approx(want, rel=1e-9)

    def test_group_sizes_whose_sum_passes_the_float_range_exit_2(self, capsys):
        # each size fits in a float; the sum raised OverflowError with a traceback
        for n in (str(10 ** 308), str(9 * 10 ** 307)):
            rc = parse_and_run(["super", "--n-x", n, "--n-y", n, "--mean-x", "0",
                                "--mean-y", "1", "--sd-x", "1", "--sd-y", "1"])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            assert "n_x + n_y passes the float range" in captured.err
            assert len(captured.err.splitlines()) == 1

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

    @pytest.mark.parametrize("n", [100_000_000, 1_000_000_000])
    def test_megatrial_against_mpmath_likelihood_ratios(self, n, capsys):
        # t = 22.4 at df ~ 2n: terms of ln f that grow like df, formed on
        # their own, leave rounding noise above the quadrature's tolerance
        d = 22.4 * math.sqrt(2.0 / n)
        assert parse_and_run(["super", "--n-x", str(n), "--n-y", str(n), "--mean-x", "0",
                              "--mean-y", repr(d), "--sd-x", "1", "--sd-y", "1",
                              "--format", "json"]) == 0
        log_bf = json.loads(capsys.readouterr().out)["log_bf"]
        # BF10 is the prior average of f(t; delta sqrt(n_eff)) / f(t; 0): a
        # trapezoid in delta, half a likelihood width apart, over the
        # likelihood's peak +- 10 widths
        stats = derive_stats(SummaryMoments(n, n, 0.0, d, 1.0, 1.0))
        sqrt_n = math.sqrt(stats.n_eff)
        peak = stats.t_obs / sqrt_n
        width = math.hypot(1.0, stats.t_obs / math.sqrt(2.0 * stats.df)) / sqrt_n
        log_null = nct_logpdf_mpmath(stats.t_obs, stats.df, 0.0)
        scale = 1.0 / math.sqrt(2.0)
        with mpmath.workdps(30):
            terms = []
            for k in range(-20, 21):
                delta = mpmath.mpf(peak + k * width / 2.0)
                log_r = nct_logpdf_mpmath(stats.t_obs, stats.df, delta * sqrt_n) - log_null
                prior = scale / (mpmath.pi * (scale ** 2 + delta ** 2))
                terms.append(mpmath.exp(log_r) * prior / (2 if abs(k) == 20 else 1))
            ref = float(mpmath.log(mpmath.fsum(terms) * width / 2.0))
        assert abs(log_bf - ref) <= 1e-9


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

    @pytest.mark.parametrize("interval, words", [
        (["0.3", "0.3"], "a point equivalence hypothesis must sit at 0"),
        (["1", "2", "3"], "--interval takes one or two values")])
    def test_bad_interval_prints_one_line(self, interval, words, capsys):
        rc = parse_and_run(["equiv", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "0.05", "--sd-x", "1", "--sd-y", "1",
                            "--interval", *interval])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {words}\n"

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

    def test_interval_past_the_float_range_is_null_in_json(self, capsys):
        assert parse_and_run(["equiv", "--interval", "-3", "3", "--interval-std",
                              *HUGE_SDS, "--format", "json"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["interval"] == {"standardized": [-3.0, 3.0],
                                       "unstandardized": [None, None]}
        assert payload["bf"] == math.exp(payload["log_bf"]) > 1.0
        assert payload["orientation"] == "bf01"


class TestSweepInvocation:
    def test_failing_scale_in_json(self, capsys):
        # the JSON record of every scale goes to stdout, and one line per failed
        # scale to stderr; the run still succeeds
        rc = parse_and_run(["sweep", "--design", "equiv", "--interval", "-0.2", "0.3",
                            "--interval-std", "--scales", "1e-20", "0.5", "1", "--format", "json",
                            *INFER_ARGS[1:11]])
        captured = capsys.readouterr()
        assert rc == 0
        golden = Path(__file__).parent / "golden" / "reference_json"
        assert captured.out == (golden / "sweep_with_failing_scale.json").read_text()
        assert captured.err == ("scale 1e-20 failed: H1 carries essentially no prior mass "
                                "(2.65e-20)\n")

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

    def test_one_value_is_too_few(self, tmp_path, capsys):
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        fx.write_text("1.0\n\n")
        fy.write_text("1.0\n2.0\n")
        assert parse_and_run(["super", "--raw-x", str(fx), "--raw-y", str(fy)]) == 2
        assert capsys.readouterr().err == f"error: {fx}: group 'x' has fewer than 2 values\n"

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

    @pytest.mark.parametrize("raw, stray", [
        (["--raw", "{csv}"], ["--mean-x", "100"]),
        (["--raw", "{csv}"], ["--n-x", "4"]),
        (["--raw", "{csv}"], ["--ci-margin", "0.2"]),
        (["--raw", "{csv}"], ["--ci-level", "0.9"]),
        (["--raw-x", "{col}", "--raw-y", "{col}"], ["--n-x", "10"]),
        (["--raw-x", "{col}", "--raw-y", "{col}"], ["--sd-y", "1"])])
    def test_any_summary_flag_conflicts_with_raw_input(self, raw, stray, tmp_path, capsys):
        # a lone summary flag beside raw input is an error, not ignored
        csv_path, col_path = tmp_path / "d.csv", tmp_path / "col.txt"
        csv_path.write_text("group,value\nx,1\nx,2\ny,3\ny,4\n")
        col_path.write_text("1\n2\n3\n")
        raw = [a.format(csv=csv_path, col=col_path) for a in raw]
        assert parse_and_run(["super", *raw, *stray]) == 2
        assert "conflict" in self._one_error_line(capsys)

    @pytest.mark.parametrize("variability", [["--sd-x", "1", "--sd-y", "1"], []])
    def test_ci_level_needs_ci_margin(self, variability, capsys):
        rc = parse_and_run(["super", "--n-x", "10", "--n-y", "10", "--mean-x", "0",
                            "--mean-y", "1", *variability, "--ci-level", "0.5"])
        assert rc == 2
        assert "--ci-level needs --ci-margin" in self._one_error_line(capsys)

    def test_ci_level_defaults_to_0_95(self, capsys):
        study = ["super", "--n-x", "10", "--n-y", "10", "--mean-x", "0", "--mean-y", "1",
                 "--ci-margin", "0.9", "--format", "json"]
        assert parse_and_run(study) == 0
        default = capsys.readouterr().out
        assert parse_and_run([*study, "--ci-level", "0.95"]) == 0
        assert capsys.readouterr().out == default
        assert parse_and_run(["super", "--help"]) == 0
        assert "confidence level of that CI (default 0.95)" in capsys.readouterr().out

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

    @staticmethod
    def _one_error_line(capsys):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert captured.out == ""
        return lines[0]

    def test_unknown_flag(self, capsys):
        assert parse_and_run(["super", "--bogus", "1"]) == 2
        assert "--bogus" in self._one_error_line(capsys)
        # a dash token that is not a float stays a flag
        assert parse_and_run(["super", "-e3"]) == 2
        assert "-e3" in self._one_error_line(capsys)

    def test_unknown_subcommand(self, capsys):
        assert parse_and_run(["frobnicate"]) == 2
        assert "frobnicate" in self._one_error_line(capsys)
        assert parse_and_run([]) == 2
        assert "subcommand" in self._one_error_line(capsys)

    @pytest.mark.parametrize("extra, words", [
        ([], "required: --ni-margin"),
        (["--ni-margin", "1", "--n-x", "ten"], "invalid int value: 'ten'"),
        (["--ni-margin", "1", "--direction", "sideways"], "invalid choice: 'sideways'")])
    def test_argparse_errors_print_one_line(self, extra, words, capsys):
        study = ["--n-x", "10", "--n-y", "10", "--mean-x", "0", "--mean-y", "0.1",
                 "--sd-x", "1", "--sd-y", "1"]
        assert parse_and_run(["infer", *study, *extra]) == 2
        assert words in self._one_error_line(capsys)

    def test_help_exits_0(self, capsys):
        assert parse_and_run(["infer", "--help"]) == 0
        assert "--ni-margin" in capsys.readouterr().out

    def test_help_lists_the_design_flags_of_the_table(self, capsys):
        """Each subcommand offers its design's flags from DESIGN_FIELDS, the
        sweep every design's; past the flags all four share, a single test
        adds --prior-scale and --curves and the sweep --design and --scales.
        A flag added outside the table shows here."""
        flag = {f: "--" + f.replace("_", "-") for fs in DESIGN_FIELDS.values() for f in fs}
        designs = {"super": "superiority", "infer": "non_inferiority", "equiv": "equivalence"}
        listed = {}
        for sub in (*designs, "sweep"):
            assert parse_and_run([sub, "--help"]) == 0
            listed[sub] = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert not listed["sweep"] & {"--prior-scale", "--curves"}
        shared = set.intersection(*listed.values())
        for sub, flags in listed.items():
            own = {flag[f] for f in DESIGN_FIELDS[designs[sub]]} if sub in designs \
                else set(flag.values())
            assert flags & set(flag.values()) == own, sub
            assert flags - shared - own == ({"--prior-scale", "--curves"} if sub in designs
                                            else {"--design", "--scales"}), sub

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
        # the likelihood is zero in any scale on every piece of one hypothesis:
        # H0 of non-inferiority, H1 of equivalence
        for design in (["infer", "--ni-margin", "1e307", "--ni-margin-std"],
                       ["equiv", "--interval", "1e307", "--interval-std"]):
            rc = parse_and_run([*design, *FAR_MARGIN])
            captured = capsys.readouterr()
            assert rc == 3
            assert "log Bayes factor is not finite" in captured.err and captured.out == ""

    def test_overflowing_inputs_print_only_their_error_line(self, tmp_path):
        # numpy's overflow warnings would reach a user's stderr ahead of the
        # error, or alone on success; a fresh interpreter shows what the user sees
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        fx.write_text("1e200\n-1e200\n3e200\n")
        fy.write_text("2e200\n-1e200\n5e200\n")
        # one field past the csv module's field size limit
        big = tmp_path / "big.csv"
        big.write_text("group,value\nx,1\nx,2\ny,3\ny," + "1" * 200000 + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(twogroupbf.__file__).resolve().parents[1])}
        # a margin of 1e307 puts the outer nodes past the float range
        far_margin = ["infer", "--ni-margin", "1e307", "--ni-margin-std", *FAR_MARGIN]
        # a group size past the float range
        huge_n = ["super", "--n-x", "9" * 400, "--n-y", "10", "--mean-x", "0", "--mean-y", "1",
                  "--sd-x", "1", "--sd-y", "1"]
        # t = -2.5e107 at prior scale 1e-200: (delta / scale)^2 overflows at the
        # likelihood's peak, where the prior's log density is still finite
        far_spike = ["super", "--n-x", "50", "--n-y", "336", "--mean-x", "0", "--mean-y",
                     "-3.8e106", "--sd-x", "1", "--sd-y", "1", "--prior-scale", "1e-200"]
        for args, status in ((TINY_CI_MARGIN, 2), (TINY_SDS, 2),
                             (["super", "--raw-x", str(fx), "--raw-y", str(fy)], 2),
                             (["super", "--raw", str(big)], 2),
                             (far_margin, 3), (huge_n, 2), (far_spike, 0)):
            proc = subprocess.run([sys.executable, "-m", "twogroupbf.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == status
            assert len(proc.stderr.splitlines()) == (status != 0), proc.stderr

    def test_prior_scale_past_max_over_pi(self, capsys):
        # pi * scale overflows past 5.72e307; the prior's density does not
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0",
                            "--mean-y", "0.5", "--sd-x", "1", "--sd-y", "1",
                            "--prior-scale", "1e308", "--format", "json"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        assert json.loads(captured.out)["log_bf"] == pytest.approx(-709.3308342, abs=1e-7)

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

    @pytest.mark.parametrize("args, limit", [
        (TINY_CI_MARGIN, "at df 38 is computed for |t| <= 9.58e+152"),
        (TINY_SDS, "at df 18 is computed for |t| <= 1.09e+153"),
        (HUGE_N_TINY_SDS, "at df 2e+06 is computed for |t| <= 9.44e+150")])
    def test_t_statistic_past_the_limit_exits_2(self, args, limit, capsys):
        rc = parse_and_run(args)
        captured = capsys.readouterr()
        assert rc == 2
        assert f"is too large: the likelihood {limit}" in captured.err and captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_ci_level_next_to_one(self, capsys):
        # (1 + level) / 2 rounds to 1.0 here; the tail (1 - level) / 2 does not
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0",
                            "--mean-y", "0.5", "--ci-margin", "4",
                            "--ci-level", "0.9999999999999999", "--format", "json"])
        assert rc == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["log_bf"])

    def test_ci_level_next_to_zero(self, capsys):
        # below 2^-54, 1 - level rounds to 1 and the quantile to 0: refused by name
        args = ["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0", "--mean-y", "0.5",
                "--ci-margin", "1", "--format", "json", "--ci-level"]
        for level in ("1e-300", "5e-17"):
            assert parse_and_run([*args, level]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1 and "ci_level" in captured.err
        assert parse_and_run([*args, "1e-16"]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["log_bf"])


class TestCurves:
    def test_unwritable_curves_path_exits_2(self, tmp_path, capsys):
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0",
                            "--mean-y", "0.4", "--sd-x", "1", "--sd-y", "1",
                            "--curves", str(tmp_path / "missing" / "x.csv")])
        captured = capsys.readouterr()
        assert rc == 2
        # the curves come before the report, so the failure prints no report
        assert "No such file or directory" in captured.err and captured.out == ""

    def test_curves_at_prior_scales_up_to_the_float_max(self, tmp_path):
        # +-6 scale passes the float range from 3e307 and linspace's
        # upper - lower from 1.5e307; a fresh interpreter shows any warning
        env = {**os.environ, "PYTHONPATH": str(Path(twogroupbf.__file__).resolve().parents[1])}
        out = tmp_path / "curves.csv"
        for scale in ("1.6e307", "3e307", "1.7e308", repr(sys.float_info.max)):
            proc = subprocess.run(
                [sys.executable, "-m", "twogroupbf.cli", "super", "--n-x", "20", "--n-y", "20",
                 "--mean-x", "0", "--mean-y", "0.5", "--sd-x", "1", "--sd-y", "1",
                 "--prior-scale", scale, "--curves", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), scale
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 512
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def test_curves_file_written(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        rc = parse_and_run(["super", "--n-x", "20", "--n-y", "20", "--mean-x", "0",
                            "--mean-y", "0.4", "--sd-x", "1", "--sd-y", "1",
                            "--curves", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,prior,posterior"
        assert len(lines) == 513
