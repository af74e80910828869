"""Byte-for-byte JSON records for the reference study.

Each file under ``golden/reference_json/`` is ``render_json`` output for one
test on the reference study, written once and kept fixed, so a change that
moves any ``log_bf`` in its last bit, or any other field, shows here.
"""

import math
from pathlib import Path

import pytest

from twogroupbf.datamodel import SummaryCi
from twogroupbf.engine import TestSpec, equiv_bf, infer_bf, prior_sweep, super_bf
from twogroupbf.report import render_json

GOLDEN_DIR = Path(__file__).parent / "golden" / "reference_json"

REFERENCE_STUDY = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)

CASES = {
    "superiority_one_sided": lambda: super_bf(
        REFERENCE_STUDY, TestSpec.superiority(alternative="one_sided")),
    "superiority_two_sided": lambda: super_bf(
        REFERENCE_STUDY, TestSpec.superiority(alternative="two_sided")),
    "non_inferiority_margin_1_low": lambda: infer_bf(
        REFERENCE_STUDY, TestSpec.non_inferiority(1.0, direction="low")),
    "equivalence_interval": lambda: equiv_bf(
        REFERENCE_STUDY, TestSpec.equivalence((-0.2, 0.3))),
    "equivalence_point": lambda: equiv_bf(REFERENCE_STUDY, TestSpec.equivalence(0.0)),
    "sweep_3_scales": lambda: prior_sweep(
        REFERENCE_STUDY, TestSpec.superiority(alternative="two_sided"),
        [0.5, 1.0 / math.sqrt(2.0), 1.0]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_json_is_byte_identical(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert render_json(CASES[name]()).encode() == golden
