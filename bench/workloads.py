"""Seeded inputs for the four benchmark workloads (stdlib only).

Each generator turns a seed into a pool of cases; a worker runs whole
passes over its pool until the timed window has closed.  The combination
of input form, test and direction follows a fixed rotation, so every seed
exercises the same mix, and the numeric values (sizes, effects, margins)
come from the seed through stratified draws, so a pool's cost hardly moves
between seeds.  Cases are plain JSON-able dicts: the program under test
only ever sees the generated values.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

FORMS = ("moments", "ci", "raw")
# infer integrates 2 regions, equiv with an interval 3, the others 1
TESTS = ("super2", "infer", "equiv", "point", "super1")
CI_LEVELS = ((0.90, 1.645), (0.95, 1.960), (0.99, 2.576))

# one 10-scale robustness grid, geometric from 0.1 to 10; a sweep op then
# takes ~0.3 s, so a run holds ~50 ops and its median is not one op's noise
SWEEP_SCALES = [0.1 * 100.0 ** (k / 9.0) for k in range(10)]
CLI_SWEEP_SCALES = [0.5, 1.0 / math.sqrt(2.0), 1.0, 2.0]


def _strata(rng: random.Random, k: int, axis: str) -> list:
    """k uniforms on [0, 1), one per stratum of width 1/k.

    Which stratum each pool slot gets is a fixed permutation per ``axis``;
    the seed only places the value inside its stratum.  Slot costs then
    barely move between seeds, while every input still comes from the seed.
    """
    order = list(range(k))
    random.Random(f"{axis}:{k}").shuffle(order)
    return [(j + rng.random()) / k for j in order]


def _log_uniform_int(u: float, lo: float, hi: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def _sample(rng, n, mean, sd):
    """Gaussian draws rescaled to the exact sample mean and sd (ddof 1).

    Exact moments keep a raw case's effect at its stratum's d, so raw cases
    cost what their summary twins cost instead of adding sampling noise.
    """
    z = [rng.gauss(0.0, 1.0) for _ in range(n)]
    m = sum(z) / n
    s = math.sqrt(sum((v - m) ** 2 for v in z) / (n - 1))
    return [mean + sd * (v - m) / s for v in z]


def _study(rng, form, n_x, n_y, d, slot):
    """One study of effect size d in outcome units of a random scale.

    A CI's level rotates with ``slot``: the t quantile's cost depends on it,
    so a seeded pick would move a pool's cost between seeds.
    """
    mean_x = rng.uniform(0.0, 100.0)
    sd = rng.uniform(0.5, 20.0)
    sd_x, sd_y = sd * rng.uniform(0.8, 1.25), sd * rng.uniform(0.8, 1.25)
    case = {"form": form, "sd": sd}
    if form == "raw":
        case["x"] = _sample(rng, n_x, mean_x, sd_x)
        case["y"] = _sample(rng, n_y, mean_x + d * sd, sd_y)
        return case
    case.update(n_x=n_x, n_y=n_y, mean_x=mean_x, mean_y=mean_x + d * sd)
    if form == "moments":
        case.update(sd_x=sd_x, sd_y=sd_y)
    else:
        level, z = CI_LEVELS[slot % len(CI_LEVELS)]
        df = n_x + n_y - 2
        # roughly the t critical value; any positive half-width is valid input
        case.update(ci_level=level,
                    ci_margin=z * (1.0 + 2.5 / df) * sd * math.sqrt(1.0 / n_x + 1.0 / n_y))
    return case


def _add_test(case, test, direction, u):
    """Attach the hypothesis layout; margins are 0.1-0.6 sd, in outcome units.

    An equivalence interval is (-h, h * r) with r in 0.5-1.5 from the same
    stratum draw u.
    """
    case.update(test=test, direction=direction)
    if test == "infer":
        case["margin"] = (0.1 + 0.5 * u) * case["sd"]
    elif test == "equiv":
        half = (0.1 + 0.5 * u) * case["sd"]
        case["interval"] = [-half, half * (0.5 + (u * 7.0) % 1.0)]
    return case


def reanalysis_pool(rng: random.Random, size: int = 120, forms=FORMS) -> list:
    """Published-trial-style studies: n 20-500 per group, |d| <= 0.8."""
    u_nx, u_ny, u_d, u_m = (_strata(rng, size, axis) for axis in ("n_x", "n_y", "d", "m"))
    pool = []
    for i in range(size):
        form = forms[i % len(forms)]
        test = TESTS[i % len(TESTS)]
        direction = ("high", "low")[(i // 5) % 2]
        case = _study(rng, form, _log_uniform_int(u_nx[i], 20, 500),
                      _log_uniform_int(u_ny[i], 20, 500), -0.8 + 1.6 * u_d[i],
                      i // len(forms))
        pool.append(_add_test(case, test, direction, u_m[i]))
    return pool


# |t| bound of a large-n study at its nominal sd; the group sds move t by at
# most 1.25x, so ln BF stays near t^2 / 2 <= 490, well inside exp()'s range
LARGE_N_MAX_T = 25.0
# the overflow probe's studies reach |t| ~ 200, where most BFs exceed 1e308
OVERFLOW_PROBE_MAX_T = 200.0


def large_n_pool(rng: random.Random, size: int = 100, max_t: float = LARGE_N_MAX_T) -> list:
    """Megatrial sizes: n 1e4-1e6 per group, |t| <= max_t, two-sided superiority.

    The effect comes from a t statistic, d = t * sqrt(1/n_x + 1/n_y), as in a
    megatrial, where a large n makes a small effect clear (|d| <= 0.35 at the
    default max_t).  Every Bayes factor is then representable as a float.
    """
    u_nx, u_ny, u_t = (_strata(rng, size, axis) for axis in ("n_x", "n_y", "t"))
    pool = []
    for i in range(size):
        n_x = _log_uniform_int(u_nx[i], 1e4, 1e6)
        n_y = _log_uniform_int(u_ny[i], 1e4, 1e6)
        d = max_t * (2.0 * u_t[i] - 1.0) * math.sqrt(1.0 / n_x + 1.0 / n_y)
        case = _study(rng, "moments", n_x, n_y, d, i)
        pool.append(_add_test(case, "super2", ("high", "low")[i % 2], 0.0))
    return pool


# CLI pool: every subcommand meets every input form once; text and JSON
# alternate in blocks of four so each subcommand is rendered both ways.
_CLI_SUBS = ("super", "infer", "equiv", "sweep")
_CLI_FORMS = ("moments", "ci", "csv", "columns")
_CLI_CURVES_INDEX = 5


def _num(flag: str, value) -> str:
    return f"--{flag}={float(value)!r}" if isinstance(value, float) else f"--{flag}={value}"


def cli_pool(rng: random.Random, workdir: Path) -> list:
    """CLI invocations over studies like reanalysis; raw files of 200-5000 rows.

    Writes the raw data files into ``workdir``.  Each entry holds the argv
    and the structured case it encodes, from which the expected library
    result is computed.
    """
    size = len(_CLI_SUBS) * len(_CLI_FORMS)
    u_n, u_d, u_m = (_strata(rng, size, axis) for axis in ("n", "d", "m"))
    pool = []
    for i in range(size):
        sub = _CLI_SUBS[i % 4]
        form = _CLI_FORMS[(i + i // 4) % 4]
        fmt = ("text", "json")[(i // 4) % 2]
        d = -0.8 + 1.6 * u_d[i]
        if form in ("csv", "columns"):
            rows = _log_uniform_int(u_n[i], 200, 5000)
            n_x = rows // 2
            case = _study(rng, "raw", n_x, rows - n_x, d, i // 4)
        else:
            n = _log_uniform_int(u_n[i], 20, 500)
            case = _study(rng, form, n, _log_uniform_int(rng.random(), 20, 500), d, i // 4)
        design = _CLI_SUBS[(i // 4) % 3] if sub == "sweep" else sub
        test = {"super": ("super2", "super1")[i % 2], "infer": "infer",
                "equiv": ("equiv", "point")[(i // 4) % 2]}[design]
        _add_test(case, test, ("high", "low")[(i // 2) % 2], u_m[i])

        argv = [sub]
        if sub == "sweep":
            argv += ["--design", design, "--scales", *map(repr, CLI_SWEEP_SCALES)]
            case["scales"] = CLI_SWEEP_SCALES
        if design == "super":
            argv.append("--alternative=" + ("two_sided" if test == "super2" else "one_sided"))
        elif test == "infer":
            argv.append(_num("ni-margin", case["margin"]))
        elif test == "equiv":
            argv += ["--interval", *map(repr, case["interval"])]
        argv.append("--direction=" + case["direction"])
        if form == "csv":
            path = workdir / f"raw{i}.csv"
            path.write_text("group,value\n"
                            + "".join(f"x,{v!r}\n" for v in case["x"])
                            + "".join(f"y,{v!r}\n" for v in case["y"]))
            argv += ["--raw", str(path)]
        elif form == "columns":
            for g in ("x", "y"):
                path = workdir / f"raw{i}_{g}.txt"
                path.write_text("".join(f"{v!r}\n" for v in case[g]))
                argv += [f"--raw-{g}", str(path)]
        else:
            for key in ("n_x", "n_y", "mean_x", "mean_y", "sd_x", "sd_y",
                        "ci_margin", "ci_level"):
                if key in case:
                    argv.append(_num(key.replace("_", "-"), case[key]))
        if fmt == "json":
            argv.append("--format=json")
        if i == _CLI_CURVES_INDEX:
            argv += ["--curves", str(workdir / "curves.csv")]
        pool.append({"argv": argv, "case": case, "sub": sub, "format": fmt})
    return pool


WORKLOADS = {
    # the paper's own use case: mixed input forms and designs, so region
    # count (quadrature) and the CI quantile (specfun via datamodel) both load
    "reanalysis": {"target": "twogroupbf", "pool": reanalysis_pool},
    # one region and no quantile, so region-count and quantile changes should
    # not move it; the nct kernel runs at huge df.  An untimed probe outside
    # the measured ops shows the report overflow at |ln BF| > 709.78
    "large-n": {"target": "twogroupbf", "pool": large_n_pool},
    # 10 prior scales over one study recompute the same stats and
    # likelihood at every scale, and from a CI the same t quantile too: the
    # case for reuse across scales.  Three CI studies per test make a pass
    # of about 4.5 s
    "sweep": {"target": "twogroupbf",
              "pool": lambda rng: reanalysis_pool(rng, 3 * len(TESTS), forms=("ci",))},
    # the README's main interface; interpreter, numpy and package import
    # dominate, so import-time and argument-handling changes show here alone
    "cli": {"target": "twogroupbf.cli", "pool": cli_pool},
}
