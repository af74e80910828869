"""Command-line frontend: superiority, non-inferiority, equivalence, sweeps.

Exit codes: 0 success, 2 invalid invocation or input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from .datamodel import RawGroups, SummaryCi, SummaryMoments, ValidationError, derive_stats
from .engine import (
    DEFAULT_PRIOR_SCALE,
    CauchyPrior,
    TestSpec,
    prior_sweep,
    run_test,
)
from .quadrature import Interval, QuadratureError
from .report import (
    emit_density_curves,
    render_json,
    render_sweep_text,
    render_text,
    write_curves_csv,
)

__all__ = ["parse_and_run", "read_raw_csv", "main"]


class _CliError(Exception):
    """Invocation problem surfaced with exit status 2."""


def read_raw_csv(path: str) -> RawGroups:
    """Two-column CSV, header ``group,value``, group labels ``x`` and ``y``."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise _CliError(f"cannot read raw data file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise _CliError(f"{path}: file is empty") from None
        if [h.strip() for h in header] != ["group", "value"]:
            raise _CliError(f"{path}: expected header 'group,value', got {','.join(header)!r}")
        groups = {"x": [], "y": []}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise _CliError(f"{path}:{lineno}: expected exactly 2 columns")
            label = row[0].strip()
            if label not in groups:
                raise _CliError(
                    f"{path}:{lineno}: unknown group label {label!r} (expected 'x' or 'y')"
                )
            try:
                groups[label].append(float(row[1]))
            except ValueError:
                raise _CliError(f"{path}:{lineno}: non-numeric value {row[1]!r}") from None
    for label, values in groups.items():
        if len(values) < 2:
            raise _CliError(f"{path}: group {label!r} has fewer than 2 rows")
    return RawGroups(x=groups["x"], y=groups["y"])


def _read_column(path: str, label: str) -> list:
    """Single-column file: one numeric value per line, blanks ignored."""
    try:
        handle = open(path)
    except OSError as exc:
        raise _CliError(f"cannot read raw data file: {exc}") from exc
    values = []
    with handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise _CliError(f"{path}:{lineno}: non-numeric value {text!r}") from None
    if len(values) < 2:
        raise _CliError(f"{path}: group {label!r} has fewer than 2 values")
    return values


class _ArgumentParser(argparse.ArgumentParser):
    """Reads every token that parses as a float as a value, not a flag.

    argparse itself takes ``-1e-3`` for an unknown flag; no flag here is a float.
    """

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
    group.add_argument("--ci-level", type=float, default=0.95,
                       help="confidence level of that CI (default 0.95)")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior-scale", type=float, default=DEFAULT_PRIOR_SCALE,
                        help="Cauchy prior scale on the standardized effect "
                             "(default 1/sqrt(2))")
    parser.add_argument("--direction", choices=("high", "low"), default="high",
                        help="which pole of the outcome is beneficial (default high)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--curves", metavar="CSV",
                        help="also write prior/posterior density curves here")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="twogroupbf",
        description="Bayes factors for two-group superiority, non-inferiority, "
                    "and equivalence designs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_super = sub.add_parser("super", help="superiority test (BF10)")
    p_super.add_argument("--alternative", choices=("one_sided", "two_sided"),
                         default="two_sided", help="sidedness of H1 (default two_sided)")

    p_infer = sub.add_parser("infer", help="non-inferiority test (BF10)")
    p_infer.add_argument("--ni-margin", type=float, required=True,
                         help="largest tolerated disadvantage")
    p_infer.add_argument("--ni-margin-std", action="store_true",
                         help="margin is already in standardized units")

    p_equiv = sub.add_parser("equiv", help="equivalence test (BF01)")
    p_equiv.add_argument("--interval", type=float, nargs="+", default=[0.0],
                         metavar="BOUND",
                         help="one value v for (-v, v), two for an asymmetric "
                              "interval; 0 is the point null (default)")
    p_equiv.add_argument("--interval-std", action="store_true",
                         help="interval is already in standardized units")

    p_sweep = sub.add_parser("sweep", help="prior-scale robustness sweep")
    p_sweep.add_argument("--design", choices=("super", "infer", "equiv"), required=True)
    p_sweep.add_argument("--scales", type=float, nargs="+", required=True,
                         metavar="SCALE", help="prior scales to sweep")
    p_sweep.add_argument("--alternative", choices=("one_sided", "two_sided"),
                         default="two_sided")
    p_sweep.add_argument("--ni-margin", type=float)
    p_sweep.add_argument("--ni-margin-std", action="store_true")
    p_sweep.add_argument("--interval", type=float, nargs="+")
    p_sweep.add_argument("--interval-std", action="store_true")

    for p in (p_super, p_infer, p_equiv, p_sweep):
        _add_input_flags(p)
        _add_common_flags(p)
    return parser


def _study_input(args):
    moment_flags = [args.mean_x, args.mean_y, args.n_x, args.n_y]
    has_raw = args.raw is not None
    has_split_raw = args.raw_x is not None or args.raw_y is not None
    has_counts = all(v is not None for v in moment_flags)
    has_sds = args.sd_x is not None or args.sd_y is not None
    has_ci = args.ci_margin is not None

    if has_raw and has_split_raw:
        raise _CliError("give either --raw or --raw-x/--raw-y, not both")
    if (has_raw or has_split_raw) and (has_counts or has_sds or has_ci):
        raise _CliError("raw-data flags conflict with the summary-statistic flags")
    if has_raw:
        return read_raw_csv(args.raw)
    if has_split_raw:
        if args.raw_x is None or args.raw_y is None:
            raise _CliError("both --raw-x and --raw-y are required")
        return RawGroups(x=_read_column(args.raw_x, "x"),
                         y=_read_column(args.raw_y, "y"))
    if not has_counts:
        raise _CliError("summary input needs --n-x, --n-y, --mean-x, and --mean-y "
                        "(or use --raw)")
    if has_sds and has_ci:
        raise _CliError("give either --sd-x/--sd-y or --ci-margin, not both")
    if has_sds:
        if args.sd_x is None or args.sd_y is None:
            raise _CliError("both --sd-x and --sd-y are required")
        return SummaryMoments(n_x=args.n_x, n_y=args.n_y,
                              mean_x=args.mean_x, mean_y=args.mean_y,
                              sd_x=args.sd_x, sd_y=args.sd_y)
    if has_ci:
        return SummaryCi(n_x=args.n_x, n_y=args.n_y,
                         mean_x=args.mean_x, mean_y=args.mean_y,
                         ci_margin=args.ci_margin, ci_level=args.ci_level)
    raise _CliError("no variability information: add --sd-x/--sd-y or --ci-margin")


def _interval_from_flag(values):
    if len(values) not in (1, 2):
        raise _CliError("--interval takes one or two values")
    # TestSpec.equivalence reads a single value v as (-v, v)
    return values[0] if len(values) == 1 else tuple(values)


def _test_spec(args) -> TestSpec:
    design = args.design if args.subcommand == "sweep" else args.subcommand
    if design == "super":
        return TestSpec.superiority(direction=args.direction,
                                    alternative=args.alternative)
    if design == "infer":
        if args.ni_margin is None:
            raise _CliError("--ni-margin is required for a non-inferiority sweep")
        return TestSpec.non_inferiority(args.ni_margin,
                                        standardized=args.ni_margin_std,
                                        direction=args.direction)
    interval = _interval_from_flag(args.interval if args.interval is not None else [0.0])
    return TestSpec.equivalence(interval, standardized=args.interval_std,
                                direction=args.direction)


def _write_curves(path: str, data, prior_scale: float) -> None:
    stats = derive_stats(data)
    prior = CauchyPrior(scale=prior_scale)
    center = stats.t_obs / math.sqrt(stats.n_eff)
    spread = 8.0 / math.sqrt(stats.n_eff)
    lo = min(-6.0 * prior.scale, center - spread)
    hi = max(6.0 * prior.scale, center + spread)
    curves = emit_density_curves(stats, prior, Interval(lo, hi))
    with open(path, "w") as handle:
        write_curves_csv(handle, *curves)


def parse_and_run(argv) -> int:
    """Validate the invocation, run the engine, print the report."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        data = _study_input(args)
        spec = _test_spec(args)
        if args.subcommand == "sweep":
            sweep = prior_sweep(data, spec, args.scales)
            if args.format == "json":
                sys.stdout.write(render_json(sweep))
            else:
                sys.stdout.write(render_sweep_text(sweep))
            if any(e.error is not None for e in sweep.entries):
                for e in sweep.entries:
                    if e.error is not None:
                        print(f"scale {e.scale:g} failed: {e.error}", file=sys.stderr)
        else:
            result = run_test(data, spec, args.prior_scale)
            if args.format == "json":
                sys.stdout.write(render_json(result))
            else:
                sys.stdout.write(render_text(result))
        if args.curves:
            _write_curves(args.curves, data, args.prior_scale)
    except (_CliError, ValidationError, ValueError) as exc:
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
