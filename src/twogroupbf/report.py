"""Render Bayes factor results as console text, JSON, and density curves."""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .datamodel import DerivedStats
from .engine import BfResult, CauchyPrior, SweepResult, get_bf, posterior_log_density

__all__ = [
    "render_text",
    "render_sweep_text",
    "render_json",
    "emit_density_curves",
    "write_curves_csv",
]

_RULE = "*" * 30
_LABEL_WIDTH = 30
_SCI_LOG10_THRESHOLD = 4.0  # |log10 BF| at or beyond which scientific notation kicks in
_SIGNIFICANT_DIGITS = 3  # of a Bayes factor in scientific notation
_CURVE_POINTS = 512


def _format_bf(log_bf: float) -> str:
    log10_bf = log_bf / math.log(10.0)
    try:
        value = math.exp(log_bf)
    except OverflowError:
        value = 0.0  # formatted from log10_bf below, like an underflow
    if abs(log10_bf) < _SCI_LOG10_THRESHOLD:
        return f"{value:.2f}"
    if value > 0.0:
        return f"{value:.{_SIGNIFICANT_DIGITS - 1}e}"
    # beyond the float range: mantissa and exponent straight from log10 BF
    exponent = math.floor(log10_bf)
    mantissa = 10.0 ** (log10_bf - exponent)
    if f"{mantissa:.{_SIGNIFICANT_DIGITS - 1}f}".startswith("10"):  # rounds up a decade
        exponent, mantissa = exponent + 1, mantissa / 10.0
    return f"{mantissa:.{_SIGNIFICANT_DIGITS - 1}f}e{exponent:+03d}"


def _format_scale(scale: float) -> str:
    return f"{scale:.3f}" if 1e-3 <= scale < 1e4 else f"{scale:.2e}"


def _row(label: str, value: str) -> str:
    return f"{label:<{_LABEL_WIDTH}}{value}"


_NAMES = {
    "superiority": "Superiority",
    "non_inferiority": "Non-inferiority",
    "equivalence": "Equivalence",
}


def _bf_label(result: BfResult) -> str:
    return f"{result.orientation.upper()} ({_NAMES[result.design].lower()})"


def _design_rows(result: BfResult) -> list:
    """The design's hypothesis lines, then its margin or interval lines."""
    if result.design == "superiority":
        h1 = ("!=" if result.alternative == "two_sided"
              else ">" if result.direction == "high" else "<")
        return [_row("H0 (no superiority):", "mu_y - mu_x = 0"),
                _row("H1 (superiority):", f"mu_y - mu_x {h1} 0")]
    if result.design == "non_inferiority":
        low = result.direction == "low"
        h0, h1 = (("mu_y - mu_x > ni_margin", "mu_y - mu_x < ni_margin") if low
                  else ("mu_y - mu_x < -ni_margin", "mu_y - mu_x > -ni_margin"))
        return [_row("H0 (inferiority):", h0), _row("H1 (non-inferiority):", h1),
                _row("Non-inferiority margin:", f"{result.margin_std:.2f} (standardised)"),
                _row("", f"{result.margin_unstd:.2f} (unstandardised)")]
    (lo, hi), (lo_u, hi_u) = result.interval_std, result.interval_unstd
    if lo == hi == 0.0:
        h0, h1 = "mu_y - mu_x = 0", "mu_y - mu_x != 0"
    else:
        h0 = f"delta > {lo:.2f} AND delta < {hi:.2f}"
        h1 = f"delta < {lo:.2f} OR delta > {hi:.2f}"
    return [_row("H0 (equivalence):", h0), _row("H1 (non-equivalence):", h1),
            _row("Equivalence interval:", f"({lo:.2f}, {hi:.2f}) (standardised)"),
            _row("", f"({lo_u:.2f}, {hi_u:.2f}) (unstandardised)")]


def render_text(result: BfResult) -> str:
    """The console block: hypotheses, margins, prior scale, Bayes factor.

    Deterministic; identical results yield byte-identical blocks.
    """
    title = f"{_NAMES[result.design]} analysis"
    lines = [
        _RULE,
        title,
        "-" * len(title),
        _row("Data:", "raw data" if result.input_mode == "raw" else "summary data"),
        *_design_rows(result),
        _row("Cauchy prior scale:", _format_scale(result.prior_scale)),
        "",
        f"    {_bf_label(result)} = {_format_bf(result.log_bf)}",
        _RULE,
    ]
    return "\n".join(lines) + "\n"


def render_sweep_text(sweep: SweepResult) -> str:
    """Per-scale Bayes factors followed by min and max."""
    lines = [_RULE, "Prior scale sweep", "-" * len("Prior scale sweep")]
    for entry in sweep.entries:
        outcome = f"error: {entry.error}"
        if entry.result is not None:
            label = _bf_label(entry.result)
            outcome = f"{label} = {_format_bf(entry.result.log_bf)}"
        lines.append(f"scale = {_format_scale(entry.scale)}    {outcome}")
    if sweep.min_log_bf is not None:  # so some entry has a result, and a label
        lines += ["", f"min {label} = {_format_bf(sweep.min_log_bf)}",
                  f"max {label} = {_format_bf(sweep.max_log_bf)}"]
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


def render_json(result) -> str:
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


def emit_density_curves(stats: DerivedStats, prior: CauchyPrior):
    """Prior and posterior densities of delta on an even grid of 512 points
    that spans +-6 prior scales around 0 and +-8 / sqrt(n_eff) around the
    likelihood's peak.

    Returns (delta, prior_density, posterior_density) arrays; the posterior
    column is normalized over the whole line.
    """
    center = stats.t_obs / math.sqrt(stats.n_eff)
    spread = 8.0 / math.sqrt(stats.n_eff)
    half = min(6.0 * prior.scale, sys.float_info.max / 4.0)  # so that hi - lo is finite
    delta = np.linspace(min(-half, center - spread), max(half, center + spread), _CURVE_POINTS)
    with np.errstate(over="ignore"):
        prior_density = np.exp(prior.logpdf(delta))
        posterior_density = np.exp(posterior_log_density(delta, stats, prior))
    return delta, prior_density, posterior_density


def write_curves_csv(fileobj, delta, prior_density, posterior_density) -> None:
    """CSV with header ``delta,prior,posterior``, full-precision floats."""
    fileobj.write("delta,prior,posterior\n")
    for d, p, q in zip(delta, prior_density, posterior_density):
        fileobj.write(f"{float(d)!r},{float(p)!r},{float(q)!r}\n")
