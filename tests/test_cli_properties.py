"""Property test of the CLI over the whole input domain it accepts.

Every invocation drawn here must end in exit 0 with a finite log Bayes
factor, or in one documented error line with exit 2 (invalid input) or 3
(numerical failure); the suite's ``error::RuntimeWarning`` filter turns any
stray numpy warning into a failure.  Finiteness alone cannot see a wrong
answer, so laws that are exact in their own regimes are checked too:
mirrored data under the flipped direction give the same log BF; at prior
scales far below the likelihood's peak the log BF moves by exactly
ln(s1 / s2), and far above it by ln(s2 / s1); at large t it follows the
large-t law.  A share of the draws also writes density curves, whose every
value must be finite.  A flag of another input form or design is refused.
"""

import io
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import strict_json
from twogroupbf import cli
from twogroupbf.datamodel import _max_abs_t, derive_stats
from twogroupbf.engine import DESIGN_FIELDS

# magnitudes from 1e-300 to 1e300, log-uniform
MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: float(10.0 ** e))
SIGNED = st.tuples(st.booleans(), MAGNITUDES).map(lambda p: -p[1] if p[0] else p[1])
SIZES = st.floats(math.log10(2.0), 9.0).map(lambda e: int(round(10.0 ** e)))
# a third of the prior scales sit at the default's neighbourhood, and a
# third from 1e300 up to the float max
HUGE = st.one_of(st.floats(300.0, 308.25).map(lambda e: float(10.0 ** e)),
                 st.just(sys.float_info.max))
SCALES = st.one_of(st.just(0.707), MAGNITUDES, HUGE)
CI_LEVELS = st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999])
FORMS = ("moments", "ci", "raw", "raw_split")


def _num(v):
    return repr(float(v))


@st.composite
def invocations(draw, subcommand):
    """A study, a design and its flags, as a dict the argv builder reads."""
    form = draw(st.sampled_from(FORMS))
    case = {"subcommand": subcommand, "form": form,
            "direction": draw(st.sampled_from(["high", "low"]))}
    if form in ("raw", "raw_split"):
        case["x"] = draw(st.lists(SIGNED, min_size=2, max_size=8))
        case["y"] = draw(st.lists(SIGNED, min_size=2, max_size=8))
    else:
        case["n"] = (draw(SIZES), draw(SIZES))
        case["means"] = (draw(SIGNED), draw(SIGNED))
        if form == "moments":
            case["sds"] = (draw(MAGNITUDES), draw(MAGNITUDES))
        else:
            case["ci"] = (draw(MAGNITUDES), draw(CI_LEVELS))
    design = draw(st.sampled_from(["super", "infer", "equiv"])) if subcommand == "sweep" \
        else subcommand
    case["design"] = design
    if design == "super":
        case["design_flags"] = ["--alternative",
                                draw(st.sampled_from(["one_sided", "two_sided"]))]
    elif design == "infer":
        case["design_flags"] = ["--ni-margin", _num(draw(MAGNITUDES))] + (
            ["--ni-margin-std"] if draw(st.booleans()) else [])
    else:
        interval = draw(st.one_of(st.just([0.0]), st.lists(SIGNED, min_size=1, max_size=2)))
        case["point_null"] = interval == [0.0]
        case["design_flags"] = ["--interval", *map(_num, interval)] + (
            ["--interval-std"] if draw(st.booleans()) else [])
    if subcommand == "sweep":
        case["scales"] = draw(st.lists(SCALES, min_size=1, max_size=3))
    else:
        case["scale"] = draw(SCALES)
        case["curves"] = draw(st.integers(0, 3)) == 0
    return case


def _argv(case, folder, mirror=False, scales=None):
    """The invocation for ``case``; ``mirror`` negates every observation and
    mean and flips the direction."""
    sign = -1.0 if mirror else 1.0
    direction = case["direction"]
    if mirror:
        direction = "low" if direction == "high" else "high"
    argv = [case["subcommand"]]
    if case["subcommand"] == "sweep" or scales is not None:
        argv = ["sweep", "--design", case["design"],
                "--scales", *map(_num, scales or case["scales"])]
    argv += case["design_flags"] + ["--direction", direction, "--format", "json"]
    tag = "m" if mirror else "p"
    if scales is None and case["subcommand"] != "sweep":
        argv += ["--prior-scale", _num(case["scale"])]
        if case["curves"]:
            argv += ["--curves", str(Path(folder) / f"{tag}curves.csv")]
    form = case["form"]
    if form in ("raw", "raw_split"):
        x, y = ([sign * v for v in case[g]] for g in ("x", "y"))
        if form == "raw":
            path = Path(folder) / f"{tag}.csv"
            rows = [f"x,{_num(v)}" for v in x] + [f"y,{_num(v)}" for v in y]
            path.write_text("group,value\n" + "\n".join(rows) + "\n")
            return argv + ["--raw", str(path)]
        paths = [Path(folder) / f"{tag}{g}.txt" for g in ("x", "y")]
        for path, values in zip(paths, (x, y)):
            path.write_text("".join(f"{_num(v)}\n" for v in values))
        return argv + ["--raw-x", str(paths[0]), "--raw-y", str(paths[1])]
    (n_x, n_y), (m_x, m_y) = case["n"], case["means"]
    argv += ["--n-x", str(n_x), "--n-y", str(n_y),
             "--mean-x", _num(sign * m_x), "--mean-y", _num(sign * m_y)]
    if form == "moments":
        return argv + ["--sd-x", _num(case["sds"][0]), "--sd-y", _num(case["sds"][1])]
    return argv + ["--ci-margin", _num(case["ci"][0]), "--ci-level", _num(case["ci"][1])]


def _run(argv):
    """parse_and_run in-process: exit code, stdout, stderr and any curves
    file, checked against the CLI's contract; the log BFs of a success (None
    for a failed sweep entry)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.parse_and_run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3), (rc, argv)
    lines = err.splitlines()
    if rc != 0:
        prefix = "error: " if rc == 2 else "numerical failure: "
        assert len(lines) == 1 and lines[0].startswith(prefix), (err, argv)
        assert out == ""
        return rc, None
    payload = strict_json(out)  # a NaN or Infinity anywhere fails
    entries = payload["sweep"] if argv[0] == "sweep" else [payload]
    log_bfs = [e.get("log_bf") for e in entries]
    assert all(v is None or math.isfinite(v) for v in log_bfs), (log_bfs, argv)
    failed = [e for e in entries if "error" in e]
    assert len(lines) == len(failed), (err, argv)
    assert all(line.startswith("scale ") and " failed: " in line for line in lines), err
    if "--curves" in argv:
        rows = Path(argv[argv.index("--curves") + 1]).read_text().splitlines()[1:]
        assert len(rows) == 512
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")), argv
    return rc, log_bfs


def _tail_law(case, folder):
    """At scales far below the likelihood's peak |delta*| the prior's spike
    holds no likelihood, and ln BF10(s) = ln(s) + a constant to O(s^2 / delta*^2)
    and O(1 / BF10).  Checked from s1 = 1e-8 |delta*| to s2 = 1e-k |delta*|."""
    args = cli._build_parser().parse_args(_argv(case, folder))
    stats = derive_stats(cli._study_input(args))
    t_c = stats.t_obs if case["direction"] == "high" else -stats.t_obs
    peak = abs(t_c) / math.sqrt(stats.n_eff)
    if case["design_flags"][1] == "one_sided" and t_c <= 0.0:
        return
    for k in (20, 160, 300):  # below 1e-154 |delta*|, (delta / s)^2 overflows at the peak
        s1, s2 = 1e-8 * peak, 10.0 ** -k * peak
        if s2 < 1e-300:
            continue
        _, log_bfs = _run(_argv(case, folder, scales=[s1, s2]))
        if log_bfs is None or None in log_bfs or log_bfs[1] < 50.0:
            continue
        log1, log2 = log_bfs
        err = abs(log1 - log2 - math.log(s1 / s2))
        assert err <= 1e-6 + 1e-12 * abs(log1), (case, s1, s2, log1, log2)


def _wide_law(case, folder):
    """At scales far above the likelihood's peak |delta*| and its width, the
    prior is flat across the likelihood at height 1 / (pi s), so ln BF10(s)
    = -ln(s) + a constant to O(delta*^2 / s^2); the point null's BF01 is its
    reciprocal.  Checked from s1 = 1e8 max(1, |delta*|) up to the float max,
    where every scale must succeed."""
    args = cli._build_parser().parse_args(_argv(case, folder))
    stats = derive_stats(cli._study_input(args))
    s1 = 1e8 * max(1.0, abs(stats.t_obs) / math.sqrt(stats.n_eff))
    scales = [s for s in (s1, 1e100 * s1, 1e200 * s1, sys.float_info.max) if s1 <= s < math.inf]
    rc, log_bfs = _run(_argv(case, folder, scales=scales))
    assert rc == 0 and None not in log_bfs, (case, scales, log_bfs)
    sign = -1.0 if case["design"] == "equiv" else 1.0
    for s2, log2 in zip(scales[1:], log_bfs[1:]):
        err = abs(sign * (log_bfs[0] - log2) - math.log(s2 / s1))
        assert err <= 1e-6 + 1e-12 * abs(log_bfs[0]), (case, s1, s2, log_bfs)


@pytest.mark.parametrize("subcommand", ["super", "infer", "equiv", "sweep"])
def test_every_invocation_ends_in_a_documented_way(subcommand):
    @given(invocations(subcommand))
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def check(case):
        with tempfile.TemporaryDirectory() as folder:
            rc, log_bfs = _run(_argv(case, folder))
            mirror_rc, mirror_log_bfs = _run(_argv(case, folder, mirror=True))
            assert (mirror_rc, mirror_log_bfs) == (rc, log_bfs), case
            if rc == 0 and subcommand == "super":
                _tail_law(case, folder)
            if rc == 0 and (subcommand == "super" or subcommand == "equiv" and case["point_null"]):
                _wide_law(case, folder)

    check()


# flags of the other input forms: any summary flag beside raw input, a CI's
# level beside sds, and an sd beside a CI
STRAY_FLAGS = {
    "raw": ("--n-x", "--n-y", "--mean-x", "--mean-y", "--sd-x", "--sd-y",
            "--ci-margin", "--ci-level"),
    "moments": ("--ci-level",),
    "ci": ("--sd-x", "--sd-y"),
}
# the values each design flag takes
DESIGN_VALUES = {"alternative": st.lists(st.sampled_from(["one_sided", "two_sided"]),
                                         min_size=1, max_size=1),
                 "ni_margin": st.lists(MAGNITUDES.map(_num), min_size=1, max_size=1),
                 "interval": st.lists(SIGNED.map(_num), min_size=1, max_size=2),
                 "ni_margin_std": st.just([]), "interval_std": st.just([])}


@given(st.sampled_from(["super", "infer", "equiv", "sweep"]).flatmap(invocations),
       st.data())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_stray_flag_from_another_input_form_is_refused(case, data):
    """One flag of another input form, or of another design, is an error,
    never silently ignored."""
    flag = data.draw(st.sampled_from(STRAY_FLAGS[case["form"].replace("_split", "")]))
    value = str(data.draw(SIZES)) if flag in ("--n-x", "--n-y") else _num(
        data.draw(CI_LEVELS if flag == "--ci-level" else MAGNITUDES))
    design = {"super": "superiority", "infer": "non_inferiority",
              "equiv": "equivalence"}[case["design"]]
    field = data.draw(st.sampled_from(
        [f for other, fields in DESIGN_FIELDS.items() if other != design for f in fields]))
    design_flag = ["--" + field.replace("_", "-"), *data.draw(DESIGN_VALUES[field])]
    with tempfile.TemporaryDirectory() as folder:
        rc, _ = _run(_argv(case, folder) + [flag, value])
        assert rc == 2, (case, flag, value)
        rc, _ = _run(_argv(case, folder) + design_flag)
        assert rc == 2, (case, design_flag)


STUDY = ["--n-x", "20", "--n-y", "20", "--mean-x", "0", "--mean-y", "0.5",
         "--sd-x", "1", "--sd-y", "1", "--scales", "0.5", "1"]


def _stdout_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.parse_and_run(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, flag", [
    (["--design", "infer", "--ni-margin", "0.1", "--interval", "0.3"], "--interval"),
    (["--design", "super", "--ni-margin", "0.3", "--interval-std"], "--ni-margin"),
    (["--design", "equiv", "--interval", "0.2", "--alternative", "one_sided"],
     "--alternative"),
    (["--design", "super", "--ni-margin", "0"], "--ni-margin"),
    (["--design", "equiv", "--ni-margin-std"], "--ni-margin-std"),
])
def test_a_sweep_refuses_a_flag_of_another_design(argv, flag):
    """sweep takes every design's flags; one its design does not read is an
    error naming the flag and the design, never silently ignored."""
    rc, out, err = _stdout_stderr(["sweep", *argv, *STUDY])
    design = argv[1]
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} does not apply to --design {design}\n"


@pytest.mark.parametrize("flag, value", [("--prior-scale", "3"), ("--curves", None)])
def test_a_sweep_refuses_the_single_test_flags(flag, value, tmp_path):
    """A sweep would read --prior-scale and --curves only to write an
    unrelated curves file: both are unknown flags to it."""
    curves = tmp_path / "curves.csv"
    rc, out, err = _stdout_stderr(["sweep", "--design", "super", *STUDY,
                                   flag, value or str(curves)])
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and flag in err
    assert not curves.exists()


def test_a_superiority_sweep_is_two_sided_by_default():
    default = _stdout_stderr(["sweep", "--design", "super", *STUDY])
    assert default[0] == 0
    assert default == _stdout_stderr(["sweep", "--design", "super",
                                      "--alternative", "two_sided", *STUDY])
    assert default != _stdout_stderr(["sweep", "--design", "super",
                                      "--alternative", "one_sided", *STUDY])


def _large_t(n_x, n_y, t, scale):
    """ln BF10 of two-sided and one-sided superiority at t, from moments
    through the CLI, and (df - 1) ln t at the t the CLI derives; None where
    a run does not exit 0."""
    sd = _num(1.0 / (t * math.sqrt(1.0 / n_x + 1.0 / n_y)))
    argv = ["super", "--n-x", str(n_x), "--n-y", str(n_y), "--mean-x", "0", "--mean-y", "1",
            "--sd-x", sd, "--sd-y", sd, "--prior-scale", _num(scale), "--format", "json"]
    stats = derive_stats(cli._study_input(cli._build_parser().parse_args(argv)))
    runs = [_run(argv + ["--alternative", alt]) for alt in ("two_sided", "one_sided")]
    if any(rc != 0 for rc, _ in runs):
        return None
    return [log_bfs[0] for _, log_bfs in runs], (stats.df - 1.0) * math.log(stats.t_obs)


@given(SIZES, SIZES, st.floats(0.0, 1.0), st.floats(8.0, 300.0))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_large_t_follows_its_law(n_x, n_y, u, k):
    """At t far past sqrt(df) and a prior scale s far below the likelihood's
    peak, ln BF10 = C(df, s) + (df - 1) ln t for either alternative, and the
    one-sided BF is twice the two-sided one.  The next terms are df^2 / (2 t^2)
    and O(1 / BF10), so t starts at max(1e6, 1e4 df) and the laws apply where
    ln BF10 >= 50.  Runs that end in exit 3 are left out: at n >= 1e8 per
    group the density's rounding noise keeps the quadrature from
    converging, a documented numerical failure."""
    df = n_x + n_y - 2.0
    t1 = max(1e6, 1e4 * df)
    t2 = t1 * (0.999999 * _max_abs_t(df) / t1) ** u
    scale = max(1e-300, 10.0 ** -k * t1 * math.sqrt(1.0 / n_x + 1.0 / n_y))
    runs = [_large_t(n_x, n_y, t, scale) for t in (t1, t2)]
    if None in runs or min(v for log_bfs, _ in runs for v in log_bfs) < 50.0:
        return
    (log1, law1), (log2, law2) = runs
    for a, b in zip(log1, log2):  # rounding of ln BF10 and (df - 1) ln t at df ~ 1e9
        assert b - law2 == pytest.approx(a - law1, abs=1e-6 + 1e-15 * abs(law2))
    for log_bfs in (log1, log2):
        assert log_bfs[1] - log_bfs[0] == pytest.approx(
            math.log(2.0), abs=1e-12 + 1e-15 * abs(log_bfs[0]))
