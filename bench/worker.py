"""Benchmark worker: one fresh process per workload run.

Usage: ``python bench/worker.py <module>``.  The worker imports the module,
prints ``ready`` and reads commands from stdin: ``calibrate`` prints the
median time of the reference loop in ms; a JSON job (a workload name, its
generated pool of cases, the window length and the trace flag) runs a
warm-up op, then the timed window(s), then the untimed output checks, and
prints one JSON result line.  An empty line or ``exit`` ends it.
"""

from __future__ import annotations

import importlib
import sys
import time

if __name__ == "__main__":
    importlib.import_module(sys.argv[1])  # the workload's entry module comes first

import json
import math
import random
import re
import resource
import statistics
import subprocess
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import twogroupbf
from twogroupbf import engine, report
from twogroupbf.datamodel import RawGroups, SummaryCi, SummaryMoments

from tracer import AttachError, Tracer, check_expected, merge_summaries

ORACLE_GRIDS = (100_001, 200_001, 400_001)  # the acceptance grid, then refinements
ORACLE_BOUND = 1e-6          # |d ln BF| against the grid oracle
MAX_LINEAR_LOG_BF = math.log(sys.float_info.max)  # 709.78: beyond, exp() overflows
# the oracle's 201-node inner mixture grid resolves the noncentral t density
# up to df ~1e5 (|d ln f| 5e-10 there, 5e-3 at df 4e5): the README's domain
ORACLE_MAX_DF = 1e5
LIBRARY_CHECKS = 3           # oracle-checked cases per in-process run
SWEEP_CHECKS = (1, 2)        # checked sweep ops, scales checked in each
CLI_TIMEOUT_S = 60.0
REF_SHARE = 0.1              # reference-loop time run after each op, share of its latency
CALIBRATE_LOOPS = 7
_PACKAGE_DIR = str(Path(twogroupbf.__file__).resolve().parent)


class SweepScaleError(Exception):
    """Some scales of a prior sweep ended in an error entry."""

    layer = "engine"


class CliFailure(Exception):
    """A CLI child exited non-zero; ``layer`` is read from its traceback."""

    def __init__(self, status, stderr):
        super().__init__(f"exit {status}: {stderr.strip()[-300:]}")
        frames = re.findall(r'File ".*[/\\]twogroupbf[/\\](\w+)\.py"', stderr)
        self.layer = frames[-1] if frames else "cli"


def failure_layer(exc: BaseException) -> str:
    """Module of the innermost package frame in the traceback, else 'bench'."""
    layer = getattr(exc, "layer", "bench")
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = frame.f_code.co_filename
        if path.startswith(_PACKAGE_DIR):
            layer = Path(path).stem
    return layer


# ---------------------------------------------------------------------------
# host speed reference
# ---------------------------------------------------------------------------

_REF_X = np.linspace(0.05, 8.0, 129)
_REF_J = np.arange(48.0)[:, None]


def _reference_loop():
    """Fixed work in the package's own mix: small-array ufuncs, a terms-by-points
    matrix as in the nct series, and scalar Python."""
    acc = 0.0
    for k in range(60):
        y = np.log1p(_REF_X * (1.0 + k)) - 0.5 * _REF_X * _REF_X
        acc += float(np.logaddexp.reduce(y))
        terms = _REF_J * np.log(_REF_X[k] + 1.0) - np.log1p(_REF_J * _REF_X)
        acc += float(np.max(np.sum(np.exp(terms - terms.max()), axis=0)))
        acc += math.lgamma(k + 1.5) + sum(v * v for v in (1.0, 2.0, 3.0))
    return acc


def reference_ms():
    t0 = time.perf_counter()
    _reference_loop()
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# cases and operations
# ---------------------------------------------------------------------------

def study_input(case):
    form = case["form"]
    if form == "raw":
        return RawGroups(x=case["x"], y=case["y"])
    if form == "moments":
        return SummaryMoments(case["n_x"], case["n_y"], case["mean_x"], case["mean_y"],
                              case["sd_x"], case["sd_y"])
    return SummaryCi(case["n_x"], case["n_y"], case["mean_x"], case["mean_y"],
                     case["ci_margin"], case["ci_level"])


def test_spec(case):
    """(engine function name, TestSpec) for the case's hypothesis layout."""
    test, direction = case["test"], case["direction"]
    if test in ("super1", "super2"):
        alt = "two_sided" if test == "super2" else "one_sided"
        return "super_bf", engine.TestSpec.superiority(direction, alt)
    if test == "infer":
        return "infer_bf", engine.TestSpec.non_inferiority(case["margin"], False, direction)
    interval = tuple(case["interval"]) if test == "equiv" else 0.0
    return "equiv_bf", engine.TestSpec.equivalence(interval, False, direction)


class Case:
    """A prepared case; functions are looked up at call time so traces see them."""

    def __init__(self, case, scales=None):
        self.data = study_input(case)
        self.fn, self.spec = test_spec(case)
        self.scales = scales

    def single(self):
        return getattr(engine, self.fn)(self.data, self.spec, engine.DEFAULT_PRIOR_SCALE)

    def sweep(self):
        return engine.prior_sweep(self.data, self.spec, self.scales)


def library_op(case: Case, record: dict):
    """The library call, then both renderers; log BF is kept before rendering."""
    result = case.single()
    record["log_bf"] = result.log_bf
    report.render_text(result)
    report.render_json(result)


def sweep_op(case: Case, record: dict):
    sweep = case.sweep()
    record["log_bf"] = [e.result.log_bf if e.result else None for e in sweep.entries]
    errors = [e.error for e in sweep.entries if e.error is not None]
    if errors:
        raise SweepScaleError(f"{len(errors)} sweep scales failed: {errors[0]}")
    report.render_sweep_text(sweep)
    report.render_json(sweep)


def cli_op(argv, env, record: dict, traced_summary=None):
    if traced_summary is None:
        cmd = [sys.executable, "-m", "twogroupbf.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               traced_summary, *argv]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    record["stdout"] = proc.stdout
    if proc.returncode != 0:
        raise CliFailure(proc.returncode, proc.stderr)


# ---------------------------------------------------------------------------
# timed window
# ---------------------------------------------------------------------------

def run_window(pool_len, op, seconds, tracer=None):
    """Closed loop over the pool for ``seconds``, rounded up to whole passes.

    Every pass runs the same cases, so the op mix, the latency distribution
    and ops per second do not depend on where the clock stops.  After each op,
    outside its latency, the reference loop runs at least once and for about
    ``REF_SHARE`` of that latency, so the ops carry a measure of the host's
    speed while they ran.  Returns ops, the summed op latency, the op count
    of a pass, and one record per op with pool index, latency, reference
    times in ms, ok flag and, on failure, the exception type and layer.
    """
    records = []
    end = time.perf_counter()
    deadline = end + seconds
    i = 0
    while end < deadline or i % pool_len or i == 0:
        record = {"index": i % pool_len}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op(record)
            else:
                with tracer.span("op"):
                    op(record)
            record["ok"] = True
        except Exception as exc:  # every failure is counted, none is filtered
            record["ok"] = False
            record["error"] = type(exc).__name__
            record["layer"] = failure_layer(exc)
            record["message"] = str(exc)[:300]
        record["latency_s"] = time.perf_counter() - t0
        records.append(record)
        refs = record["ref_ms"] = [reference_ms()]
        while sum(refs) < REF_SHARE * record["latency_s"] * 1e3:
            refs.append(reference_ms())
        end = time.perf_counter()
        i += 1
    return {"ops": len(records), "op_s": sum(r["latency_s"] for r in records),
            "pass_len": pool_len, "records": records}


# ---------------------------------------------------------------------------
# output checks (untimed)
# ---------------------------------------------------------------------------

def oracle_dlog(stats, prior_scale, spec, log_bf):
    """(|d ln BF| against the grid oracle, refinements); None if its BF overflows.

    The acceptance grid decides first.  Past the bound, the grid is doubled
    and the trapezoid's h^2 error extrapolated away (Richardson) before a
    mismatch is declared: at prior scale 10 the acceptance grid's point-null
    window alone is off by ~5e-6, falling as nodes^-2 toward the engine.
    """
    from twogroupbf.oracle import GridSpec, default_span, grid_bf

    prior = engine.CauchyPrior(scale=prior_scale)
    span = default_span(prior)
    previous = None
    for level, nodes in enumerate(ORACLE_GRIDS):
        try:
            value = math.log(grid_bf(stats, prior, spec, GridSpec(span=span, nodes=nodes)))
        except OverflowError:
            return None, level
        estimate = value if previous is None else value + (value - previous) / 3.0
        dlog = abs(log_bf - estimate)
        if dlog <= ORACLE_BOUND:
            break
        previous = value
    return dlog, level


def skip_reason(stats, log_bfs):
    """Why the grid oracle cannot check a case, or None if it can."""
    if any(abs(v) > MAX_LINEAR_LOG_BF for v in log_bfs):
        return "unrepresentable"
    if stats.df > ORACLE_MAX_DF:
        return "df"
    return None


def computed(records, complete_only):
    """First record per pool index that holds a log BF."""
    seen = {}
    for r in records:
        if "log_bf" in r and (r["ok"] or not complete_only):
            seen.setdefault(r["index"], r)
    return seen


def check_library(workload, cases, records, rng):
    """Oracle checks on a seeded subset of the cases the window ran.

    Every case the window ran is either eligible or counted as skipped by
    reason; the seeded subset is drawn from the eligible ones.
    """
    from twogroupbf.datamodel import derive_stats

    # a library op that failed in rendering still has a log BF to check;
    # a failed sweep has scales without one
    ran = computed(records, complete_only=workload == "sweep")
    eligible, skipped = [], Counter()
    for index, r in sorted(ran.items()):
        stats = derive_stats(cases[index].data)
        log_bfs = r["log_bf"] if workload == "sweep" else [r["log_bf"]]
        reason = skip_reason(stats, log_bfs)
        if reason:
            skipped[reason] += 1
        else:
            eligible.append((index, stats, log_bfs))

    checked, refined, worst, bad = 0, 0, 0.0, set()
    picks = rng.sample(eligible, min(len(eligible), SWEEP_CHECKS[0] if workload == "sweep"
                                     else LIBRARY_CHECKS))
    for index, stats, log_bfs in picks:
        case = cases[index]
        if workload == "sweep":
            scales = rng.sample(range(len(case.scales)), SWEEP_CHECKS[1])
            pairs = [(case.scales[k], log_bfs[k]) for k in scales]
        else:
            pairs = [(engine.DEFAULT_PRIOR_SCALE, log_bfs[0])]
        for scale, log_bf in pairs:
            dlog, level = oracle_dlog(stats, scale, case.spec, log_bf)
            refined += level > 0
            if dlog is None:
                skipped["unrepresentable"] += 1
                continue
            checked += 1
            worst = max(worst, dlog)
            if not dlog <= ORACLE_BOUND:
                bad.add(index)
    return {"oracle.checked": checked, "oracle.skipped": sum(skipped.values()),
            **{f"oracle.skipped_{k}": skipped[k] for k in ("unrepresentable", "df")},
            "oracle.refined": refined, "oracle.max_abs_dlog": worst,
            "mismatched": sorted(bad)}


def check_cli(pool, records, workdir):
    """JSON log BF and text output must equal the in-process library's."""
    expected = {}
    bad = set()
    for r in records:
        if not r["ok"]:
            continue
        index = r["index"]
        if index not in expected:
            entry = pool[index]
            case = entry["case"]
            prepared = Case(case, case.get("scales"))
            if entry["sub"] == "sweep":
                result = prepared.sweep()
                logs = [e.result.log_bf if e.result else None for e in result.entries]
                text = report.render_sweep_text(result)
            else:
                result = prepared.single()
                logs = [result.log_bf]
                text = report.render_text(result)
            expected[index] = (entry["format"], logs, text)
        fmt, logs, text = expected[index]
        if fmt == "json":
            payload = json.loads(r["stdout"])
            got = [e.get("log_bf") for e in payload["sweep"]] if "sweep" in payload \
                else [payload["log_bf"]]
            ok = got == logs
        else:
            ok = r["stdout"] == text
        if not ok:
            bad.add(index)
    curves = Path(workdir) / "curves.csv"
    if not (curves.exists() and curves.read_text().startswith("delta,prior,posterior\n")):
        bad.update(i for i, entry in enumerate(pool) if "--curves" in entry["argv"])
    return {"cli.checked_ops": sum(r["ok"] for r in records), "mismatched": sorted(bad)}


# ---------------------------------------------------------------------------
# job
# ---------------------------------------------------------------------------

def run_job(job):
    workload, pool, seconds = job["workload"], job["pool"], job["seconds"]
    trace = job["trace"]
    rng = random.Random(job["check_seed"])
    out = {"numpy": np.__version__}

    if workload == "cli":
        env = job["env"]

        def make_op(summary_dir=None):
            def op(record):
                path = None
                if summary_dir is not None:
                    path = str(Path(summary_dir) / f"trace{len(summaries)}.json")
                    summaries.append(path)
                cli_op(pool[record["index"]]["argv"], env, record, path)
            return op
        summaries = []
        cases = None
    else:
        scales = job.get("scales")
        cases = [Case(c, scales) for c in pool]
        body = sweep_op if workload == "sweep" else library_op

        def make_op(summary_dir=None):
            return lambda record: body(cases[record["index"]], record)

    make_op()({"index": 0})  # warm-up, untimed
    window_s = seconds / 2.0 if trace else seconds
    out["window"] = run_window(len(pool), make_op(), window_s)
    if workload == "cli":
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if trace:
        if workload == "cli":
            traced = run_window(len(pool), make_op(job["workdir"]), window_s)
            summary = merge_summaries(json.loads(Path(p).read_text()) for p in summaries
                                      if Path(p).exists())
        else:
            tracer = Tracer()
            tracer.attach()
            try:
                traced = run_window(len(pool), make_op(), window_s, tracer)
            finally:
                tracer.detach()
            summary = tracer.summary()
        check_expected(workload, summary)
        out["traced"] = traced
        out["trace"] = summary

    records = out["window"]["records"]
    if workload == "cli":
        out["checks"] = check_cli(pool, records, job["workdir"])
    else:
        out["checks"] = check_library(workload, cases, records, rng)
    if "overflow_probe" in job:
        # outcomes by type@layer of studies whose BF exceeds a float; the
        # measured ops stay inside that range
        probe = Counter()
        for c in job["overflow_probe"]:
            try:
                library_op(Case(c), {})
                probe["ok"] += 1
            except Exception as exc:
                probe[f"{type(exc).__name__}@{failure_layer(exc)}"] += 1
        out["overflow_probe"] = dict(probe)
    for r in records:  # bulky outputs are checked, not returned
        r.pop("stdout", None)
        r.pop("log_bf", None)
    if trace:
        for r in out["traced"]["records"]:
            r.pop("stdout", None)
            r.pop("log_bf", None)
    return out


def main():
    print("ready", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "calibrate":
            ms = statistics.median(reference_ms() for _ in range(CALIBRATE_LOOPS))
            print(repr(ms), flush=True)
            continue
        if not command or command == "exit":
            return 0
        try:
            result = run_job(json.loads(command))
        except AttachError as exc:
            print(f"trace attach failure: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(result), flush=True)
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
