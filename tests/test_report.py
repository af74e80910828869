import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogroupbf.datamodel import SummaryCi, SummaryMoments, derive_stats
from twogroupbf.engine import (
    BfResult,
    CauchyPrior,
    SweepEntry,
    SweepResult,
    TestSpec,
    equiv_bf,
    get_bf,
    infer_bf,
    prior_sweep,
    savage_dickey_bf,
    super_bf,
)
from twogroupbf.report import (
    emit_density_curves,
    render_json,
    render_sweep_text,
    render_text,
    write_curves_csv,
)

STUDY_47 = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)


def _reference_infer_result():
    return infer_bf(STUDY_47, TestSpec.non_inferiority(1.0, direction="low"))


def _finite_or_none(value):
    return value if value is None or isinstance(value, int) or math.isfinite(value) else None


def _reference_record(result):
    f = _finite_or_none
    record = {
        "schema_version": 1,
        "design": result.design,
        "direction": result.direction,
        "orientation": result.orientation,
        "log_bf": f(result.log_bf),
        "bf": f(get_bf(result)),
        "prior_scale": f(result.prior_scale),
        "input_mode": result.input_mode,
    }
    if result.alternative is not None:
        record["alternative"] = result.alternative
    if result.margin_std is not None:
        record["ni_margin"] = {
            "standardized": f(result.margin_std),
            "unstandardized": f(result.margin_unstd),
        }
    if result.interval_std is not None:
        record["interval"] = {
            "standardized": [f(v) for v in result.interval_std],
            "unstandardized": [f(v) for v in result.interval_unstd],
        }
    return record


def reference_payload(result):
    """The record render_json once built for json.dumps(indent=2,
    sort_keys=True), with every number that is not finite as None."""
    if not isinstance(result, SweepResult):
        return _reference_record(result)
    return {
        "schema_version": 1,
        "sweep": [
            {"scale": _finite_or_none(e.scale),
             **({"error": e.error} if e.error is not None else _reference_record(e.result))}
            for e in result.entries
        ],
        "min_log_bf": _finite_or_none(result.min_log_bf),
        "max_log_bf": _finite_or_none(result.max_log_bf),
    }


def _reference_json(result):
    return json.dumps(reference_payload(result), indent=2, sort_keys=True) + "\n"


_EDGE_NUMBERS = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
NUMBERS = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.floats(),
    st.integers(-10**20, 10**20),
    st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats()).map(np.float64),
)
TEXT = st.one_of(st.text(), st.sampled_from(
    ['say "no"', "back\\slash", "ctl \x00\x1f\n\t\x7f", "\u00e9t\u00e9", "line\u2028sep"]))


@st.composite
def bf_results(draw):
    design = draw(st.sampled_from(["superiority", "non_inferiority", "equivalence"]))
    pair = st.tuples(NUMBERS, NUMBERS)
    return BfResult(
        log_bf=draw(NUMBERS),
        orientation=draw(st.sampled_from(["bf10", "bf01"])),
        design=design,
        direction=draw(st.sampled_from(["high", "low"])),
        prior_scale=draw(NUMBERS),
        input_mode=draw(st.sampled_from(["raw", "summary-moments", "summary-ci"])),
        alternative=draw(st.sampled_from([None, "one_sided", "two_sided"])),
        margin_std=draw(NUMBERS) if design == "non_inferiority" else None,
        margin_unstd=draw(NUMBERS) if design == "non_inferiority" else None,
        interval_std=draw(pair) if design == "equivalence" else None,
        interval_unstd=draw(pair) if design == "equivalence" else None,
    )


ENTRIES = st.one_of(st.builds(SweepEntry, scale=NUMBERS, result=bf_results()),
                    st.builds(SweepEntry, scale=NUMBERS, error=TEXT))
MIN_MAX = st.one_of(st.none(), st.integers(-10**6, 10**6), NUMBERS)
SWEEPS = st.builds(SweepResult, entries=st.lists(ENTRIES, max_size=4).map(tuple),
                   min_log_bf=MIN_MAX, max_log_bf=MIN_MAX)


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
        # beyond the float range, a mantissa that rounds up a decade carries it
        carried = replace(res, log_bf=999.9999 * math.log(10.0))
        assert "= 1.00e+1000\n" in render_text(carried)

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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(bf_results(), SWEEPS))
    def test_bytes_are_json_dumps_of_the_reference_payload(self, result):
        assert render_json(result) == _reference_json(result)

    def test_rendering_never_enters_the_json_package_encoder(self, monkeypatch):
        data = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
        scales = [0.1 * 100.0 ** (k / 9.0) for k in range(10)]
        cases = [prior_sweep(data, TestSpec.equivalence((-0.2, 0.3)), scales),
                 _reference_infer_result()]
        expected = [_reference_json(r) for r in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the json package's Python encoder ran")
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        monkeypatch.setattr(json, "dumps", refuse)
        assert [render_json(r) for r in cases] == expected


class TestSweepText:
    def test_min_max_lines(self):
        data = SummaryMoments(100, 100, 0.0, 0.5, 1.0, 1.0)
        text = render_sweep_text(prior_sweep(data, TestSpec.superiority(), [0.5, 5.0]))
        assert "scale = 0.500    BF10 (superiority) = 51.58" in text
        assert "scale = 5.000    BF10 (superiority) = 9.87" in text
        assert "min BF10 (superiority) = 9.87" in text
        assert "max BF10 (superiority) = 51.58" in text


    def test_scales_outside_three_decimals_print_in_scientific_notation(self):
        # three decimals read 0.000 below 0.001 and 300+ digits near the float max
        data = SummaryMoments(10, 10, 0.0, 1.0, 1.0, 1.0)
        sweep = prior_sweep(data, TestSpec.superiority(), [1e-4, 2e-4, 0.001, 9999.0, 1e4, 1e300])
        rows = [line.split("    ")[0] for line in render_sweep_text(sweep).splitlines()[3:9]]
        assert rows == ["scale = 1.00e-04", "scale = 2.00e-04", "scale = 0.001",
                        "scale = 9999.000", "scale = 1.00e+04", "scale = 1.00e+300"]
        block = render_text(super_bf(data, TestSpec.superiority(), 1e-5))
        assert "Cauchy prior scale:           1.00e-05\n" in block

class TestDensityCurves:
    def test_grid_spans_the_prior_and_the_likelihood(self):
        # 512 points over +-6 prior scales around 0 and +-8 / sqrt(n_eff)
        # around the likelihood's peak: the prior sets both ends, the peak
        # one, the peak both
        for data, scale in ((SummaryMoments(10, 10, 0.0, 0.2, 1.0, 1.0), 1.0),
                            (SummaryMoments(5000, 5000, 0.0, 3.0, 1.0, 1.0), 0.1),
                            (SummaryMoments(5, 5, 0.0, 0.2, 1.0, 1.0), 0.1)):
            stats = derive_stats(data)
            delta, _, _ = emit_density_curves(stats, CauchyPrior(scale=scale))
            peak, spread = stats.t_obs / math.sqrt(stats.n_eff), 8.0 / math.sqrt(stats.n_eff)
            assert len(delta) == 512
            assert delta[0] == min(-6.0 * scale, peak - spread)
            assert delta[-1] == max(6.0 * scale, peak + spread)
            assert np.all(np.diff(delta) > 0.0)

    def test_prior_column_at_zero(self):
        # the Cauchy density at every grid point: 1 / pi at 0 for scale 1
        stats = derive_stats(SummaryMoments(10, 10, 0.0, 0.2, 1.0, 1.0))
        delta, prior_density, _ = emit_density_curves(stats, CauchyPrior(scale=1.0))
        np.testing.assert_allclose(prior_density, 1.0 / (math.pi * (1.0 + delta * delta)),
                                   rtol=1e-12)

    def test_posterior_column_normalizes(self):
        stats = derive_stats(SummaryMoments(30, 25, 0.0, 0.4, 1.0, 1.2))
        delta, _, post = emit_density_curves(stats, CauchyPrior())
        assert np.trapezoid(post, delta) == pytest.approx(1.0, abs=1e-3)

    def test_ratio_at_zero_matches_savage_dickey(self):
        # at the grid point nearest 0, posterior over prior is the
        # Savage-Dickey ratio there
        stats = derive_stats(SummaryMoments(20, 20, 0.0, 0.3, 1.0, 1.0))
        prior = CauchyPrior()
        delta, prior_density, post = emit_density_curves(stats, prior)
        mid = np.argmin(np.abs(delta))
        assert abs(delta[mid]) < 0.02
        ratio = post[mid] / prior_density[mid]
        assert ratio == pytest.approx(savage_dickey_bf(stats, prior, float(delta[mid])), rel=1e-10)

    def test_columns_nonnegative(self):
        stats = derive_stats(SummaryMoments(10, 10, 0.0, 0.2, 1.0, 1.0))
        _, prior_density, post = emit_density_curves(stats, CauchyPrior())
        assert np.all(prior_density >= 0.0)
        assert np.all(post >= 0.0)

    def test_csv_format(self, tmp_path):
        stats = derive_stats(SummaryMoments(10, 10, 0.0, 0.2, 1.0, 1.0))
        curves = emit_density_curves(stats, CauchyPrior())
        out = tmp_path / "curves.csv"
        with out.open("w") as fh:
            write_curves_csv(fh, *curves)
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,prior,posterior"
        assert len(lines) == 513
        d, p, q = lines[1].split(",")
        assert float(d) == curves[0][0]
        assert float(p) > 0.0 and float(q) >= 0.0
