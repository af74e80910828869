"""Byte-for-byte JSON records and console text for the reference study.

Each file under ``golden/reference_json/`` is ``render_json`` output for one
test on the reference study, and each under ``golden/reference_text/`` the
console text for the same case, written once and kept fixed, so a change
that moves any ``log_bf`` in its last bit, or any other field or line,
shows here.
"""

import math
from pathlib import Path

import pytest

from twogroupbf.datamodel import SummaryCi
from twogroupbf.engine import SweepResult, TestSpec, equiv_bf, infer_bf, prior_sweep, super_bf
from twogroupbf.report import render_json, render_sweep_text, render_text

GOLDEN_DIR = Path(__file__).parent / "golden" / "reference_json"
TEXT_DIR = Path(__file__).parent / "golden" / "reference_text"

REFERENCE_STUDY = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)

CASES = {
    "superiority_one_sided": lambda: super_bf(
        REFERENCE_STUDY, TestSpec.superiority(alternative="one_sided")),
    "superiority_one_sided_low": lambda: super_bf(
        REFERENCE_STUDY, TestSpec.superiority(direction="low", alternative="one_sided")),
    "superiority_two_sided": lambda: super_bf(
        REFERENCE_STUDY, TestSpec.superiority(alternative="two_sided")),
    "superiority_two_sided_low": lambda: super_bf(
        REFERENCE_STUDY, TestSpec.superiority(direction="low", alternative="two_sided")),
    "non_inferiority_margin_1_high": lambda: infer_bf(
        REFERENCE_STUDY, TestSpec.non_inferiority(1.0, direction="high")),
    "non_inferiority_margin_1_low": lambda: infer_bf(
        REFERENCE_STUDY, TestSpec.non_inferiority(1.0, direction="low")),
    "equivalence_interval": lambda: equiv_bf(
        REFERENCE_STUDY, TestSpec.equivalence((-0.2, 0.3))),
    "equivalence_interval_low": lambda: equiv_bf(
        REFERENCE_STUDY, TestSpec.equivalence((-0.2, 0.3), direction="low")),
    "equivalence_point": lambda: equiv_bf(REFERENCE_STUDY, TestSpec.equivalence(0.0)),
    "equivalence_point_low": lambda: equiv_bf(
        REFERENCE_STUDY, TestSpec.equivalence(0.0, direction="low")),
    "sweep_3_scales": lambda: prior_sweep(
        REFERENCE_STUDY, TestSpec.superiority(alternative="two_sided"),
        [0.5, 1.0 / math.sqrt(2.0), 1.0]),
    # at scale 1e-20 H1 holds almost no prior mass: that entry is an error line
    "sweep_with_failing_scale": lambda: prior_sweep(
        REFERENCE_STUDY, TestSpec.equivalence((-0.2, 0.3), standardized=True),
        [1e-20, 0.5, 1.0]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_json_is_byte_identical(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert render_json(CASES[name]()).encode() == golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_text_is_byte_identical(name):
    result = CASES[name]()
    render = render_sweep_text if isinstance(result, SweepResult) else render_text
    assert render(result).encode() == (TEXT_DIR / f"{name}.txt").read_bytes()
