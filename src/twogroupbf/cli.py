"""Command-line frontend: superiority, non-inferiority, equivalence, sweeps.

Exit codes: 0 success, 2 invalid invocation or input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .datamodel import RawGroups, SummaryCi, SummaryMoments, ValidationError, derive_stats
from .engine import (
    DEFAULT_PRIOR_SCALE,
    DESIGN_FIELDS,
    CauchyPrior,
    TestSpec,
    prior_sweep,
    run_test,
)
from .quadrature import QuadratureError
from .report import (
    emit_density_curves,
    render_json,
    render_sweep_text,
    render_text,
    write_curves_csv,
)

__all__ = ["parse_and_run", "read_raw_csv", "main"]


def _open(path: str, **kwargs):
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise ValidationError(f"cannot read raw data file: {exc}") from exc


def _number(path: str, lineno: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: non-numeric value {text!r}") from None


def read_raw_csv(path: str) -> RawGroups:
    """Two-column CSV, header ``group,value``, group labels ``x`` and ``y``.

    A file that cannot be read raises ValidationError naming its path and line.
    """
    groups = {"x": [], "y": []}
    with _open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: file is empty")
            if [h.strip() for h in header] != ["group", "value"]:
                raise ValidationError(
                    f"{path}: expected header 'group,value', got {','.join(header)!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValidationError(f"{path}:{lineno}: expected exactly 2 columns")
                label = row[0].strip()
                if label not in groups:
                    raise ValidationError(
                        f"{path}:{lineno}: unknown group label {label!r} (expected 'x' or 'y')")
                groups[label].append(_number(path, lineno, row[1]))
        except csv.Error as exc:  # a malformed row, or a field past the csv module's limit
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    for label, values in groups.items():
        if len(values) < 2:
            raise ValidationError(f"{path}: group {label!r} has fewer than 2 rows")
    return RawGroups(x=groups["x"], y=groups["y"])


def _read_column(path: str, label: str) -> list:
    """Single-column file: one numeric value per line, blanks ignored."""
    with _open(path) as handle:
        values = [_number(path, lineno, line.strip())
                  for lineno, line in enumerate(handle, start=1) if line.strip()]
    if len(values) < 2:
        raise ValidationError(f"{path}: group {label!r} has fewer than 2 values")
    return values


class _ArgumentParser(argparse.ArgumentParser):
    """Reads every token that parses as a float as a value, not a flag.

    argparse itself takes ``-1e-3`` for an unknown flag; no flag here is a float.
    Its errors raise ValidationError, which the CLI prints as one line.
    """

    def error(self, message):
        raise ValidationError(message)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("data input (choose exactly one mode)")
    group.add_argument("--raw", metavar="CSV", help="raw observations (header group,value)")
    group.add_argument("--raw-x", metavar="FILE",
                       help="control observations, one value per line")
    group.add_argument("--raw-y", metavar="FILE",
                       help="experimental observations, one value per line")
    group.add_argument("--n-x", type=int, help="control sample size")
    group.add_argument("--n-y", type=int, help="experimental sample size")
    group.add_argument("--mean-x", type=float, help="control mean")
    group.add_argument("--mean-y", type=float, help="experimental mean")
    group.add_argument("--sd-x", type=float, help="control standard deviation")
    group.add_argument("--sd-y", type=float, help="experimental standard deviation")
    group.add_argument("--ci-margin", type=float,
                       help="half-width of the CI for the mean difference")
    group.add_argument("--ci-level", type=float,
                       help=f"confidence level of that CI (default {SummaryCi.ci_level})")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--direction", choices=("high", "low"), default="high",
                        help="which pole of the outcome is beneficial (default high)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")


# each single-test subcommand's design and help line
_SUBCOMMANDS = {"super": ("superiority", "superiority test (BF10)"),
                "infer": ("non_inferiority", "non-inferiority test (BF10)"),
                "equiv": ("equivalence", "equivalence test (BF01)")}

# each design flag, keyed by the TestSpec field it sets, with its single-test default
_FIELD_FLAGS = {
    "alternative": dict(choices=("one_sided", "two_sided"), default="two_sided",
                        help="sidedness of H1 (default two_sided)"),
    "ni_margin": dict(type=float, required=True, help="largest tolerated disadvantage"),
    "ni_margin_std": dict(action="store_true", help="margin is already in standardized units"),
    "interval": dict(type=float, nargs="+", default=[0.0], metavar="BOUND",
                     help="one value v for (-v, v), two for an asymmetric "
                          "interval; 0 is the point null (default)"),
    "interval_std": dict(action="store_true", help="interval is already in standardized units"),
}


def _add_design_flags(parser: argparse.ArgumentParser, fields, **override) -> None:
    for field in fields:
        parser.add_argument("--" + field.replace("_", "-"), **{**_FIELD_FLAGS[field], **override})


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="twogroupbf",
        description="Bayes factors for two-group superiority, non-inferiority, "
                    "and equivalence designs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (design, help_line) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        _add_design_flags(p, DESIGN_FIELDS[design])
        _add_input_flags(p)
        p.add_argument("--prior-scale", type=float, default=DEFAULT_PRIOR_SCALE,
                       help="Cauchy prior scale on the standardized effect (default 1/sqrt(2))")
        _add_output_flags(p)
        p.add_argument("--curves", metavar="CSV",
                       help="also write prior/posterior density curves here")

    p = sub.add_parser("sweep", help="prior-scale robustness sweep")
    p.add_argument("--design", choices=tuple(_SUBCOMMANDS), required=True)
    p.add_argument("--scales", type=float, nargs="+", required=True,
                   metavar="SCALE", help="prior scales to sweep")
    # every design's flags, each absent unless given, so that _test_spec sees a stray one
    _add_design_flags(p, [f for fields in DESIGN_FIELDS.values() for f in fields],
                      required=False, default=argparse.SUPPRESS)
    _add_input_flags(p)
    _add_output_flags(p)
    return parser


def _study_input(args):
    summary_flags = [args.n_x, args.n_y, args.mean_x, args.mean_y, args.sd_x, args.sd_y,
                     args.ci_margin, args.ci_level]
    has_raw = args.raw is not None
    has_split_raw = args.raw_x is not None or args.raw_y is not None
    has_sds = args.sd_x is not None or args.sd_y is not None
    has_ci = args.ci_margin is not None

    if has_raw and has_split_raw:
        raise ValidationError("give either --raw or --raw-x/--raw-y, not both")
    if (has_raw or has_split_raw) and any(v is not None for v in summary_flags):
        raise ValidationError("raw-data flags conflict with the summary-statistic flags")
    if has_raw:
        return read_raw_csv(args.raw)
    if has_split_raw:
        if args.raw_x is None or args.raw_y is None:
            raise ValidationError("both --raw-x and --raw-y are required")
        return RawGroups(x=_read_column(args.raw_x, "x"),
                         y=_read_column(args.raw_y, "y"))
    if any(v is None for v in summary_flags[:4]):
        raise ValidationError("summary input needs --n-x, --n-y, --mean-x, and --mean-y "
                              "(or use --raw)")
    if has_sds and has_ci:
        raise ValidationError("give either --sd-x/--sd-y or --ci-margin, not both")
    if args.ci_level is not None and not has_ci:
        raise ValidationError("--ci-level needs --ci-margin")
    if has_sds:
        if args.sd_x is None or args.sd_y is None:
            raise ValidationError("both --sd-x and --sd-y are required")
        return SummaryMoments(n_x=args.n_x, n_y=args.n_y,
                              mean_x=args.mean_x, mean_y=args.mean_y,
                              sd_x=args.sd_x, sd_y=args.sd_y)
    if has_ci:
        level = SummaryCi.ci_level if args.ci_level is None else args.ci_level
        return SummaryCi(n_x=args.n_x, n_y=args.n_y,
                         mean_x=args.mean_x, mean_y=args.mean_y,
                         ci_margin=args.ci_margin, ci_level=level)
    raise ValidationError("no variability information: add --sd-x/--sd-y or --ci-margin")


def _test_spec(args) -> TestSpec:
    name = args.design if args.subcommand == "sweep" else args.subcommand
    design, given = _SUBCOMMANDS[name][0], vars(args)
    for field in (f for d, fields in DESIGN_FIELDS.items() if d != design for f in fields):
        if field in given:  # another design's flag would be ignored
            raise ValidationError(f"--{field.replace('_', '-')} does not apply to --design {name}")
    # a sweep leaves out each flag not given, which then takes its single-test default
    values = {f: _FIELD_FLAGS[f].get("default", False) for f in DESIGN_FIELDS[design]} | given
    if design == "superiority":
        return TestSpec.superiority(args.direction, values["alternative"])
    if design == "non_inferiority":
        if "ni_margin" not in given:
            raise ValidationError("--ni-margin is required for a non-inferiority sweep")
        return TestSpec.non_inferiority(given["ni_margin"], values["ni_margin_std"], args.direction)
    interval = values["interval"]
    if len(interval) > 2:
        raise ValidationError("--interval takes one or two values")
    # TestSpec.equivalence reads a single value v as (-v, v)
    return TestSpec.equivalence(interval[0] if len(interval) == 1 else tuple(interval),
                                values["interval_std"], args.direction)


def parse_and_run(argv) -> int:
    """Validate the invocation, run the engine, print the report."""
    try:
        args = _build_parser().parse_args(argv)
        data = _study_input(args)
        spec = _test_spec(args)
        if args.subcommand == "sweep":
            result, render = prior_sweep(data, spec, args.scales), render_sweep_text
        else:
            result, render = run_test(data, spec, args.prior_scale), render_text
            if args.curves:  # before the report, so that a failure leaves stdout empty
                curves = emit_density_curves(derive_stats(data), CauchyPrior(args.prior_scale))
                with open(args.curves, "w") as handle:
                    write_curves_csv(handle, *curves)
        sys.stdout.write((render_json if args.format == "json" else render)(result))
        if args.subcommand == "sweep":
            for e in result.entries:
                if e.error is not None:
                    print(f"scale {e.scale:g} failed: {e.error}", file=sys.stderr)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # ValidationError and DomainError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
