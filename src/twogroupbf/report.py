"""Render Bayes factor results as console text, JSON, and density curves."""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii as _string

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


def _number(value) -> str:
    """A JSON number as json.dumps writes it, or null where it is not finite."""
    if isinstance(value, int):  # an int stays an int: a prior scale of 1 prints 1
        return int.__repr__(value)
    return float.__repr__(value) if value is not None and math.isfinite(value) else "null"


def _block(items: list, indent: str, brackets: str = "{}") -> str:
    """Items one per line at ``indent`` + 2, as json.dumps(indent=2) lays them out."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _record_fields(result: BfResult, indent: str) -> list:
    """The ``"key": value`` lines of a result's record, for braces at ``indent``;
    sorting them sorts the keys, since '"' sorts below every key character."""
    inner, nested = indent + "  ", indent + "    "
    fields = [
        '"schema_version": 1',
        f'"design": {_string(result.design)}',
        f'"direction": {_string(result.direction)}',
        f'"orientation": {_string(result.orientation)}',
        f'"log_bf": {_number(result.log_bf)}',
        f'"bf": {_number(get_bf(result))}',  # null beyond the float range; log_bf is exact
        f'"prior_scale": {_number(result.prior_scale)}',
        f'"input_mode": {_string(result.input_mode)}',
    ]
    if result.alternative is not None:
        fields.append(f'"alternative": {_string(result.alternative)}')
    if result.margin_std is not None:
        fields.append('"ni_margin": ' + _block(
            [f'"standardized": {_number(result.margin_std)}',
             f'"unstandardized": {_number(result.margin_unstd)}'], inner))
    if result.interval_std is not None:
        std, unstd = (_block([_number(v) for v in pair], nested, "[]")
                      for pair in (result.interval_std, result.interval_unstd))
        fields.append('"interval": ' + _block(
            [f'"standardized": {std}', f'"unstandardized": {unstd}'], inner))
    return fields


def render_json(result) -> str:
    """JSON record (schema v1) for a result or a sweep; floats at full precision,
    null for a number that is not finite.  Written field by field in the bytes
    json.dumps(record, indent=2, sort_keys=True) gives a finite record, since
    json.dumps takes its C encoder only without indent."""
    if not isinstance(result, SweepResult):
        return _block(sorted(_record_fields(result, "")), "") + "\n"
    entries = [_block(sorted([f'"scale": {_number(e.scale)}',
                              *([f'"error": {_string(e.error)}'] if e.error is not None
                                else _record_fields(e.result, "    "))]), "    ")
               for e in result.entries]
    return _block([f'"max_log_bf": {_number(result.max_log_bf)}',
                   f'"min_log_bf": {_number(result.min_log_bf)}',
                   '"schema_version": 1',
                   '"sweep": ' + _block(entries, "  ", "[]")], "") + "\n"


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
