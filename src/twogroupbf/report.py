"""Render Bayes factor results as console text, JSON, and density curves."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .datamodel import DerivedStats
from .engine import BfResult, CauchyPrior, SweepResult, get_bf, posterior_log_density
from .quadrature import Interval, QuadratureSettings

__all__ = [
    "ReportOptions",
    "render_text",
    "render_sweep_text",
    "render_json",
    "emit_density_curves",
    "write_curves_csv",
]

_RULE = "*" * 30
_LABEL_WIDTH = 30
_SCI_LOG10_THRESHOLD = 4.0  # |log10 BF| at or beyond which scientific notation kicks in


@dataclass(frozen=True)
class ReportOptions:
    significant_digits: int = 3

    def __post_init__(self):
        if not 2 <= self.significant_digits <= 10:
            raise ValueError("significant_digits must be between 2 and 10")


def _format_bf(log_bf: float, significant_digits: int) -> str:
    log10_bf = log_bf / math.log(10.0)
    try:
        value = math.exp(log_bf)
    except OverflowError:
        value = 0.0  # formatted from log10_bf below, like an underflow
    if abs(log10_bf) < _SCI_LOG10_THRESHOLD:
        return f"{value:.2f}"
    if value > 0.0:
        return f"{value:.{significant_digits - 1}e}"
    # beyond the float range: mantissa and exponent straight from log10 BF
    exponent = math.floor(log10_bf)
    mantissa = 10.0 ** (log10_bf - exponent)
    if f"{mantissa:.{significant_digits - 1}f}".startswith("10"):  # rounds up a decade
        exponent, mantissa = exponent + 1, mantissa / 10.0
    return f"{mantissa:.{significant_digits - 1}f}e{exponent:+03d}"


def _row(label: str, value: str) -> str:
    return f"{label:<{_LABEL_WIDTH}}{value}"


_TITLES = {
    "superiority": "Superiority analysis",
    "non_inferiority": "Non-inferiority analysis",
    "equivalence": "Equivalence analysis",
}

_BF_LABELS = {
    "superiority": "BF10 (superiority)",
    "non_inferiority": "BF10 (non-inferiority)",
    "equivalence": "BF01 (equivalence)",
}


def _hypothesis_rows(result: BfResult) -> list:
    if result.design == "superiority":
        h1 = {"two_sided": "mu_y - mu_x != 0",
              "one_sided": "mu_y - mu_x > 0" if result.direction == "high"
              else "mu_y - mu_x < 0"}[result.alternative]
        return [
            _row("H0 (no superiority):", "mu_y - mu_x = 0"),
            _row("H1 (superiority):", h1),
        ]
    if result.design == "non_inferiority":
        if result.direction == "low":
            h0, h1 = "mu_y - mu_x > ni_margin", "mu_y - mu_x < ni_margin"
        else:
            h0, h1 = "mu_y - mu_x < -ni_margin", "mu_y - mu_x > -ni_margin"
        return [
            _row("H0 (inferiority):", h0),
            _row("H1 (non-inferiority):", h1),
        ]
    lo, hi = result.interval_std
    if lo == hi == 0.0:
        h0, h1 = "mu_y - mu_x = 0", "mu_y - mu_x != 0"
    else:
        h0 = f"delta > {lo:.2f} AND delta < {hi:.2f}"
        h1 = f"delta < {lo:.2f} OR delta > {hi:.2f}"
    return [
        _row("H0 (equivalence):", h0),
        _row("H1 (non-equivalence):", h1),
    ]


def _margin_rows(result: BfResult) -> list:
    if result.design == "non_inferiority":
        return [
            _row("Non-inferiority margin:", f"{result.margin_std:.2f} (standardised)"),
            _row("", f"{result.margin_unstd:.2f} (unstandardised)"),
        ]
    if result.design == "equivalence":
        lo_s, hi_s = result.interval_std
        lo_u, hi_u = result.interval_unstd
        return [
            _row("Equivalence interval:", f"({lo_s:.2f}, {hi_s:.2f}) (standardised)"),
            _row("", f"({lo_u:.2f}, {hi_u:.2f}) (unstandardised)"),
        ]
    return []


def render_text(result: BfResult, options: ReportOptions | None = None) -> str:
    """The console block: hypotheses, margins, prior scale, Bayes factor.

    Deterministic; identical results yield byte-identical blocks.
    """
    options = options or ReportOptions()
    title = _TITLES[result.design]
    data_mode = "raw data" if result.input_mode == "raw" else "summary data"
    lines = [
        _RULE,
        title,
        "-" * len(title),
        _row("Data:", data_mode),
        *_hypothesis_rows(result),
        *_margin_rows(result),
        _row("Cauchy prior scale:", f"{result.prior_scale:.3f}"),
        "",
        f"    {_BF_LABELS[result.design]} = {_format_bf(result.log_bf, options.significant_digits)}",
        _RULE,
    ]
    return "\n".join(lines) + "\n"


def render_sweep_text(sweep: SweepResult, options: ReportOptions | None = None) -> str:
    """Per-scale Bayes factors followed by min and max."""
    options = options or ReportOptions()
    lines = [_RULE, "Prior scale sweep", "-" * len("Prior scale sweep")]
    label = None
    for entry in sweep.entries:
        if entry.result is not None:
            label = _BF_LABELS[entry.result.design]
            value = _format_bf(entry.result.log_bf, options.significant_digits)
            lines.append(f"scale = {entry.scale:.3f}    {label} = {value}")
        else:
            lines.append(f"scale = {entry.scale:.3f}    error: {entry.error}")
    if sweep.min_log_bf is not None:
        label = label or "BF"
        lines.append("")
        lines.append(f"min {label} = {_format_bf(sweep.min_log_bf, options.significant_digits)}")
        lines.append(f"max {label} = {_format_bf(sweep.max_log_bf, options.significant_digits)}")
    lines.append(_RULE)
    return "\n".join(lines) + "\n"


def _result_record(result: BfResult) -> dict:
    bf = get_bf(result)  # null in JSON beyond the float range; log_bf is exact
    record = {
        "schema_version": 1,
        "design": result.design,
        "direction": result.direction,
        "orientation": result.orientation,
        "log_bf": result.log_bf,
        "bf": bf if math.isfinite(bf) else None,
        "prior_scale": result.prior_scale,
        "input_mode": result.input_mode,
    }
    if result.alternative is not None:
        record["alternative"] = result.alternative
    if result.margin_std is not None:
        record["ni_margin"] = {
            "standardized": result.margin_std,
            "unstandardized": result.margin_unstd,
        }
    if result.interval_std is not None:
        record["interval"] = {
            "standardized": list(result.interval_std),
            "unstandardized": list(result.interval_unstd),
        }
    return record


def render_json(result, options: ReportOptions | None = None) -> str:
    """JSON record (schema v1) for a result or a sweep; floats at full precision."""
    if isinstance(result, SweepResult):
        payload = {
            "schema_version": 1,
            "sweep": [
                {
                    "scale": e.scale,
                    **({"error": e.error} if e.error is not None
                       else _result_record(e.result)),
                }
                for e in result.entries
            ],
            "min_log_bf": result.min_log_bf,
            "max_log_bf": result.max_log_bf,
        }
    else:
        payload = _result_record(result)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_density_curves(stats: DerivedStats, prior: CauchyPrior, region: Interval,
                        points: int = 512,
                        settings: QuadratureSettings | None = None):
    """Prior and posterior densities of delta on an even grid.

    Returns (delta, prior_density, posterior_density) arrays; the posterior
    column is normalized over the whole line.
    """
    if points < 2:
        raise ValueError("need at least 2 curve points")
    if not region.is_finite:
        raise ValueError("curve emission needs a finite range")
    delta = np.linspace(region.lower, region.upper, points)
    with np.errstate(over="ignore"):
        prior_density = np.exp(prior.logpdf(delta))
        posterior_density = np.exp(posterior_log_density(delta, stats, prior, settings))
    return delta, prior_density, posterior_density


def write_curves_csv(fileobj, delta, prior_density, posterior_density) -> None:
    """CSV with header ``delta,prior,posterior``, full-precision floats."""
    fileobj.write("delta,prior,posterior\n")
    for d, p, q in zip(delta, prior_density, posterior_density):
        fileobj.write(f"{float(d)!r},{float(p)!r},{float(q)!r}\n")
