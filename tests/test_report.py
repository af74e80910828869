import json
import math
from dataclasses import replace

import numpy as np
import pytest

from twogroupbf.datamodel import SummaryCi, SummaryMoments, derive_stats
from twogroupbf.engine import (
    BfResult,
    CauchyPrior,
    TestSpec,
    equiv_bf,
    infer_bf,
    prior_sweep,
    savage_dickey_bf,
    super_bf,
)
from twogroupbf.quadrature import Interval
from twogroupbf.report import (
    ReportOptions,
    emit_density_curves,
    render_json,
    render_sweep_text,
    render_text,
    write_curves_csv,
)

STUDY_47 = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)


def _reference_infer_result():
    return infer_bf(STUDY_47, TestSpec.non_inferiority(1.0, direction="low"))


class TestRenderText:
    def test_non_inferiority_block_layout(self):
        text = render_text(_reference_infer_result())
        lines = text.splitlines()
        assert lines[0] == "*" * 30
        assert lines[-1] == "*" * 30
        assert lines[1] == "Non-inferiority analysis"
        assert lines[2] == "-" * len("Non-inferiority analysis")
        assert lines[3] == "Data:                         summary data"
        assert lines[4] == "H0 (inferiority):             mu_y - mu_x > ni_margin"
        assert lines[5] == "H1 (non-inferiority):         mu_y - mu_x < ni_margin"
        assert lines[6] == "Non-inferiority margin:       1.04 (standardised)"
        assert lines[7] == "                              1.00 (unstandardised)"
        assert lines[8] == "Cauchy prior scale:           0.707"
        assert lines[9] == ""
        assert lines[10].startswith("    BF10 (non-inferiority) = ")

    def test_deterministic(self):
        res = _reference_infer_result()
        assert render_text(res) == render_text(res)

    def test_bf_of_one_renders_fixed_point(self):
        res = replace(_reference_infer_result(), log_bf=0.0)
        assert render_text(res).splitlines()[10] == "    BF10 (non-inferiority) = 1.00"

    def test_scientific_notation_threshold(self):
        res = _reference_infer_result()
        big = replace(res, log_bf=math.log(4.41e9))
        assert "BF10 (non-inferiority) = 4.41e+09" in render_text(big)
        tiny = replace(res, log_bf=math.log(2.5e-7))
        assert "= 2.50e-07" in render_text(tiny)
        moderate = replace(res, log_bf=math.log(51.578))
        assert "= 51.58" in render_text(moderate)
        # the threshold sits at |log10 bf| = 4
        just_below = replace(res, log_bf=math.log(9999.0))
        assert "= 9999.00" in render_text(just_below)
        at_threshold = replace(res, log_bf=math.log(10000.0))
        assert "= 1.00e+04" in render_text(at_threshold)

    def test_significant_digits_option(self):
        res = replace(_reference_infer_result(), log_bf=math.log(4.41237e9))
        assert "= 4.4124e+09" in render_text(res, ReportOptions(significant_digits=5))

    def test_superiority_block(self):
        res = super_bf(SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0),
                       TestSpec.superiority(alternative="two_sided"), 0.5)
        lines = render_text(res).splitlines()
        assert lines[1] == "Superiority analysis"
        assert lines[4] == "H0 (no superiority):          mu_y - mu_x = 0"
        assert lines[5] == "H1 (superiority):             mu_y - mu_x != 0"
        assert lines[6] == "Cauchy prior scale:           0.500"
        assert lines[8] == "    BF10 (superiority) = 51.58"

    def test_superiority_one_sided_hypotheses(self):
        data = SummaryMoments(10, 10, 0.0, 0.4, 1.0, 1.0)
        high = render_text(super_bf(data, TestSpec.superiority(alternative="one_sided")))
        assert "H1 (superiority):             mu_y - mu_x > 0" in high
        low = render_text(super_bf(data, TestSpec.superiority(direction="low",
                                                              alternative="one_sided")))
        assert "H1 (superiority):             mu_y - mu_x < 0" in low

    def test_non_inferiority_high_direction_hypotheses(self):
        data = SummaryMoments(10, 10, 0.0, 0.4, 1.0, 1.0)
        text = render_text(infer_bf(data, TestSpec.non_inferiority(0.5)))
        assert "H0 (inferiority):             mu_y - mu_x < -ni_margin" in text
        assert "H1 (non-inferiority):         mu_y - mu_x > -ni_margin" in text

    def test_equivalence_point_block(self):
        data = SummaryMoments(10, 10, 0.0, 0.4, 1.0, 1.0)
        lines = render_text(equiv_bf(data, TestSpec.equivalence(0.0))).splitlines()
        assert lines[1] == "Equivalence analysis"
        assert lines[4] == "H0 (equivalence):             mu_y - mu_x = 0"
        assert lines[5] == "H1 (non-equivalence):         mu_y - mu_x != 0"
        assert lines[6] == "Equivalence interval:         (0.00, 0.00) (standardised)"
        assert lines[7] == "                              (0.00, 0.00) (unstandardised)"
        assert lines[10].startswith("    BF01 (equivalence) = ")

    def test_equivalence_interval_block(self):
        data = SummaryMoments(10, 10, 0.0, 0.05, 1.0, 1.0)
        text = render_text(equiv_bf(data, TestSpec.equivalence(0.3, standardized=True)))
        assert "H0 (equivalence):             delta > -0.30 AND delta < 0.30" in text
        assert "H1 (non-equivalence):         delta < -0.30 OR delta > 0.30" in text
        assert "Equivalence interval:         (-0.30, 0.30) (standardised)" in text

    def test_raw_data_label(self):
        from twogroupbf.datamodel import RawGroups

        res = super_bf(RawGroups(x=[0.0, 1.0, 2.0], y=[0.5, 1.5, 2.5]),
                       TestSpec.superiority())
        assert "Data:                         raw data" in render_text(res)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ReportOptions(significant_digits=1)


class TestRenderJson:
    def test_round_trip_is_lossless(self):
        res = _reference_infer_result()
        payload = json.loads(render_json(res))
        assert payload["log_bf"] == res.log_bf
        assert payload["bf"] == math.exp(res.log_bf)
        assert payload["schema_version"] == 1
        assert payload["design"] == "non_inferiority"
        assert payload["orientation"] == "bf10"
        assert payload["input_mode"] == "summary-ci"
        assert payload["ni_margin"]["standardized"] == res.margin_std
        assert payload["ni_margin"]["unstandardized"] == res.margin_unstd

    def test_superiority_fields(self):
        res = super_bf(SummaryMoments(10, 10, 0.0, 0.4, 1.0, 1.0),
                       TestSpec.superiority())
        payload = json.loads(render_json(res))
        assert payload["alternative"] == "two_sided"
        assert "ni_margin" not in payload
        assert "interval" not in payload

    def test_sweep_array_ordered_by_input_scale(self):
        data = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
        sweep = prior_sweep(data, TestSpec.superiority(), [5.0, 0.5])
        payload = json.loads(render_json(sweep))
        assert [e["scale"] for e in payload["sweep"]] == [5.0, 0.5]
        assert payload["min_log_bf"] == sweep.min_log_bf
        assert payload["max_log_bf"] == sweep.max_log_bf

    def test_sweep_error_entries_serialized(self):
        data = SummaryMoments(10, 10, 0.0, 0.1, 1.0, 1.0)
        sweep = prior_sweep(data, TestSpec.equivalence(1e-4, standardized=True),
                            [0.7071, 1e12])
        payload = json.loads(render_json(sweep))
        assert "error" in payload["sweep"][1]
        assert "log_bf" in payload["sweep"][0]


class TestSweepText:
    def test_min_max_lines(self):
        data = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
        text = render_sweep_text(prior_sweep(data, TestSpec.superiority(), [0.5, 5.0]))
        assert "scale = 0.500    BF10 (superiority) = 51.58" in text
        assert "scale = 5.000    BF10 (superiority) = 9.87" in text
        assert "min BF10 (superiority) = 9.87" in text
        assert "max BF10 (superiority) = 51.58" in text


class TestDensityCurves:
    def test_prior_column_at_zero(self):
        stats = derive_stats(SummaryMoments(10, 10, 0.0, 0.2, 1.0, 1.0))
        prior = CauchyPrior(scale=1.0)
        delta, prior_density, _ = emit_density_curves(stats, prior, Interval(-4, 4), 129)
        mid = np.argmin(np.abs(delta))
        assert delta[mid] == 0.0
        assert prior_density[mid] == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_posterior_column_normalizes(self):
        stats = derive_stats(SummaryMoments(30, 25, 0.0, 0.4, 1.0, 1.2))
        prior = CauchyPrior()
        delta, _, post = emit_density_curves(stats, prior, Interval(-6, 6), 2001)
        assert np.trapezoid(post, delta) == pytest.approx(1.0, abs=1e-3)

    def test_ratio_at_zero_matches_savage_dickey(self):
        stats = derive_stats(SummaryMoments(20, 20, 0.0, 0.3, 1.0, 1.0))
        prior = CauchyPrior()
        delta, prior_density, post = emit_density_curves(stats, prior, Interval(-2, 2), 2001)
        mid = np.argmin(np.abs(delta))
        ratio = post[mid] / prior_density[mid]
        assert ratio == pytest.approx(savage_dickey_bf(stats, prior, 0.0), rel=1e-4)

    def test_columns_nonnegative(self):
        stats = derive_stats(SummaryMoments(10, 10, 0.0, 0.2, 1.0, 1.0))
        prior = CauchyPrior()
        _, prior_density, post = emit_density_curves(stats, prior, Interval(-1, 3), 257)
        assert np.all(prior_density >= 0.0)
        assert np.all(post >= 0.0)

    def test_csv_format(self, tmp_path):
        stats = derive_stats(SummaryMoments(10, 10, 0.0, 0.2, 1.0, 1.0))
        curves = emit_density_curves(stats, CauchyPrior(), Interval(-1, 1), 16)
        out = tmp_path / "curves.csv"
        with out.open("w") as fh:
            write_curves_csv(fh, *curves)
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,prior,posterior"
        assert len(lines) == 17
        d, p, q = lines[1].split(",")
        assert float(d) == -1.0
        assert float(p) > 0.0 and float(q) >= 0.0
