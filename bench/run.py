"""twogroupbf benchmark: seeded closed-loop workloads, oracle-checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload reanalysis --seed 1 --seconds 15 --trace 0

``--workload`` is one of reanalysis, large-n, sweep, cli, or ``all`` for
every workload in turn.  Each run times the start-up of several fresh
single-threaded workers (set-up time), then hands the seeded inputs to the
last one, which has one caller (for ``cli``, one child process at a time).
It runs an untimed warm-up op, then a closed loop for ``--seconds`` rounded
up to whole passes over its inputs, then checks outputs untimed: library
results against the grid oracle, CLI output against the in-process library.

Times are reported at a reference host speed.  A shared or virtual host
can change speed by tens of percent within seconds to minutes, and that
moves every workload alike.  So a fixed reference loop runs beside the work (after each
op, and after each set-up spawn), and each time is multiplied by
REF_NOMINAL_MS over the median reference time measured around it.  The raw
times are printed next to the scaled ones.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it splits the window into an untraced and a traced half and reports
per-layer metrics from spans around the package's public functions.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Any setup or attach failure exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from workloads import (CLI_SWEEP_SCALES, OVERFLOW_PROBE_MAX_T, SWEEP_SCALES, WORKLOADS,
                       large_n_pool)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twogroupbf"
MODULES = ("datamodel", "specfun", "quadrature", "engine", "report", "cli",
           "__init__", "oracle")
SETUP_SPAWNS = 9          # fresh workers timed per run; the last one does the work
IMPORT_PROBES = 3         # fresh `import twogroupbf.cli` probes in a traced run
RUN_BUDGET_S = 170.0      # a run must end within 180 s
P90_MIN_SAMPLES = 100     # so that at least 10 samples lie beyond p90
OVERFLOW_PROBES = 20      # untimed large-n studies past exp()'s range, per run
# median ms of the worker's reference loop on the CPU the benchmark was
# written on (Intel Xeon, 2 vCPUs): the host speed times are scaled to
REF_NOMINAL_MS = 4.0
REF_MIN_SAMPLES = 16      # reference times behind one op's speed factor


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment() -> dict:
    return {"cpu": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version()}


def source_loc() -> dict:
    """Non-blank source lines per package module."""
    loc = {}
    for name in MODULES:
        text = (PACKAGE / f"{name}.py").read_text()
        loc[name.strip("_")] = sum(1 for line in text.splitlines() if line.strip())
    return loc


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def spawn_worker(target: str, env: dict):
    """Start a worker; return (process, seconds from spawn until it is ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(ROOT / "bench" / "worker.py"), target],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker for {target} did not start")
    return proc, setup


def calibrate(proc: subprocess.Popen) -> float:
    """Median ms of the reference loop, run in the worker ``proc``."""
    proc.stdin.write("calibrate\n")
    proc.stdin.flush()
    return float(proc.stdout.readline())


def retire(proc: subprocess.Popen) -> None:
    try:
        proc.communicate("exit\n", timeout=30)
    finally:
        stop(proc)


def import_probe_ms(env: dict) -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, str(ROOT / "bench" / "cli_child.py"),
                              "--import-only"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    spec = WORKLOADS[name]
    env = child_env()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        rng = random.Random(f"{name}:{seed}")
        pool = spec["pool"](rng, workdir) if name == "cli" else spec["pool"](rng)
        job = {"workload": name, "pool": pool, "seconds": seconds, "trace": int(trace),
               "check_seed": rng.getrandbits(32),
               "workdir": str(workdir), "env": env,
               "scales": SWEEP_SCALES if name == "sweep" else None}
        if name == "large-n":
            job["overflow_probe"] = large_n_pool(rng, OVERFLOW_PROBES,
                                                 max_t=OVERFLOW_PROBE_MAX_T)

        # warm the bytecode cache and the page cache; this spawn is not timed
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE),
                        str(ROOT / "bench")], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        retire(spawn_worker(spec["target"], env)[0])

        setups, refs = [], []
        for k in range(SETUP_SPAWNS):
            proc, setup = spawn_worker(spec["target"], env)
            setups.append(setup)
            try:
                refs.append(calibrate(proc))
            except (OSError, ValueError):
                stop(proc)
                raise BenchError(f"worker for {spec['target']} did not calibrate") from None
            if k < SETUP_SPAWNS - 1:
                retire(proc)
        try:
            out, _ = proc.communicate(json.dumps(job) + "\n",
                                      timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker exceeded the run budget") from None
        finally:
            stop(proc)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{name}: worker failed with exit {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setups"], result["setup_refs"] = setups, refs
        if trace:
            result["cli_import_ms"] = import_probe_ms(env)
        return pool, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def count_failures(window: dict, bad: set) -> tuple:
    """(failed op count, Counter of (error type, layer)) for one window."""
    failures = Counter()
    for r in window["records"]:
        if not r["ok"]:
            failures[(r["error"], r["layer"])] += 1
        elif r["index"] in bad:
            failures[("OutputMismatch", "check")] += 1
    return sum(failures.values()), failures


def speed_factors(records: list) -> list:
    """Per op, REF_NOMINAL_MS over the median reference time around it.

    The samples come from the runs before and after the op, widened to
    neighbouring ops until there are REF_MIN_SAMPLES of them.
    """
    refs = [r["ref_ms"] for r in records]
    factors = []
    for k in range(len(refs)):
        lo, hi = max(k - 1, 0), k
        samples = refs[lo] + (refs[hi] if hi != lo else [])
        while len(samples) < REF_MIN_SAMPLES and (lo > 0 or hi < len(refs) - 1):
            if lo > 0:
                lo -= 1
                samples = samples + refs[lo]
            if hi < len(refs) - 1:
                hi += 1
                samples = samples + refs[hi]
        factors.append(REF_NOMINAL_MS / statistics.median(samples))
    return factors


def end_to_end(name: str, result: dict) -> tuple:
    window, bad = result["window"], set(result["checks"]["mismatched"])
    failed, failures = count_failures(window, bad)
    ops = window["ops"]
    if failed == ops:
        raise BenchError(f"{name}: no op completed in the window")
    # every attempted op, failed or not, so fixing a failure changes the
    # sample's speed only, not its membership
    lat = [r["latency_s"] * 1e3 for r in window["records"]]
    speed = speed_factors(window["records"])
    scaled = [v * f for v, f in zip(lat, speed)]
    # the median over passes, each running the whole pool once, so a burst
    # that the reference misses moves one pass's rate and not the figure
    pass_len = window["pass_len"]
    bounds = range(0, ops, pass_len)
    rates = [pass_len * 1e3 / sum(scaled[b:b + pass_len]) for b in bounds]
    raw_rates = [pass_len * 1e3 / sum(lat[b:b + pass_len]) for b in bounds]
    setup_scaled = [t * REF_NOMINAL_MS / ref
                    for t, ref in zip(result["setups"], result["setup_refs"])]
    metrics = {
        "ops_per_s": (statistics.median(rates), "op/s"),
        "latency_p50_ms": (statistics.median(scaled), "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "ops_per_s": (f"raw {statistics.median(raw_rates):.4g}; median over {len(rates)} "
                      f"passes of {pass_len} ops; {ops} ops in {window['op_s']:.2f} s "
                      "of op time"),
        "latency_p50_ms": (f"raw {statistics.median(lat):.4g}; over {len(lat)} "
                           "attempted ops"),
        "setup_s": (f"raw {statistics.median(result['setups']):.4g}; median of "
                    f"{len(result['setups'])} fresh workers"),
        "peak_rss_mb": "max over CLI children" if name == "cli" else "worker",
        "host_speed": (f"median speed factor over ops; {REF_NOMINAL_MS:g} ms over the "
                       "reference loop's time"),
    }
    extra = {"failed_ratio": (failed / ops, "1"),
             "host_speed": (statistics.median(speed), "1")}
    if len(lat) >= P90_MIN_SAMPLES:
        extra["latency_p90_ms"] = (
            statistics.quantiles(scaled, n=10, method="inclusive")[8], "ms")
        notes["latency_p90_ms"] = (
            f"raw {statistics.quantiles(lat, n=10, method='inclusive')[8]:.4g}")
    return metrics, notes, extra, failures


def scaled_rate(window: dict) -> float:
    """Ops per second of op time at the reference host speed."""
    speed = speed_factors(window["records"])
    return window["ops"] / sum(r["latency_s"] * f for r, f in zip(window["records"], speed))


def per_layer(name: str, pool: list, result: dict, loc: dict) -> tuple:
    """(reported metrics, text-only metrics); text-only ones are zero or absent
    on some workloads."""
    traced, summary = result["traced"], result["trace"]
    spans, counts = summary["spans"], summary["counts"]
    n = traced["ops"]

    def calls(s):
        return spans.get(s, {}).get("calls", 0)

    def total(s):
        return spans.get(s, {}).get("total_s", 0.0)

    def self_s(s):
        return spans.get(s, {}).get("self_s", 0.0)

    integ, nct, quant = ("quadrature.integrate_log", "specfun.noncentral_t_logpdf",
                         "specfun.student_t_quantile")
    evals, panels = counts.get("quadrature.evals", 0), counts.get("quadrature.panels", 0)
    points = counts.get("specfun.nct_points", 0)
    report_failures = sum(1 for r in traced["records"]
                          if not r["ok"] and r.get("layer") == "report")
    untraced = result["window"]
    m = {
        f"{integ}.calls_per_op": (calls(integ) / n, "count"),
        f"{integ}.evals_per_op": (evals / n, "count"),
        f"{integ}.panels_per_op": (panels / n, "count"),
        f"{integ}.scan_eval_share": (counts.get("quadrature.scan_evals", 0) / evals, "1"),
        f"{integ}.self_ms_per_op": (self_s(integ) * 1e3 / n, "ms"),
        f"{nct}.calls_per_op": (calls(nct) / n, "count"),
        f"{nct}.points_per_op": (points / n, "count"),
        f"{nct}.us_per_point": (total(nct) * 1e6 / points, "us"),
        f"{nct}.self_share": (self_s(nct) / total("op"), "1"),
        "datamodel.derive_stats.calls_per_op": (calls("datamodel.derive_stats") / n, "count"),
        "datamodel.derive_stats.self_ms_per_op": (self_s("datamodel.derive_stats") * 1e3 / n,
                                                  "ms"),
        "engine.self_ms_per_op": (sum(a["self_s"] for s, a in spans.items()
                                      if s.startswith("engine.")) * 1e3 / n, "ms"),
        "report.render_json.us_per_call": (total("report.render_json") * 1e6
                                           / calls("report.render_json"), "us"),
        "cli.import_ms": (result["cli_import_ms"], "ms"),
        **{f"{mod}.loc": (lines, "lines") for mod, lines in loc.items()},
        "trace.overhead_ratio": (scaled_rate(traced) / scaled_rate(untraced), "1"),
    }

    # zero on some workloads, where a relative bound has no base: printed only
    text = {f"{quant}.calls_per_op": (calls(quant) / n, "count"),
            "report.failed_per_op": (report_failures / n, "count")}
    if calls(quant):
        text[f"{quant}.ms_per_call"] = (total(quant) * 1e3 / calls(quant), "ms")
    for fn in ("super_bf", "infer_bf", "equiv_bf"):
        if calls(f"engine.{fn}"):
            text[f"engine.{fn}.ms_p50"] = (
                statistics.median(spans[f"engine.{fn}"]["durations"]) * 1e3, "ms")
    if calls("engine.prior_sweep"):
        per_call = len(SWEEP_SCALES if name == "sweep" else CLI_SWEEP_SCALES)
        text["engine.prior_sweep.ms_per_scale"] = (
            total("engine.prior_sweep") * 1e3 / (calls("engine.prior_sweep") * per_call), "ms")
    for r in ("render_text", "render_sweep_text"):
        if calls(f"report.{r}"):
            text[f"report.{r}.us_per_call"] = (
                total(f"report.{r}") * 1e6 / calls(f"report.{r}"), "us")
    if name == "cli":
        by_sub = {}
        for r in untraced["records"]:
            if r["ok"]:
                by_sub.setdefault(pool[r["index"]]["sub"], []).append(r["latency_s"])
        for sub, lat in sorted(by_sub.items()):
            text[f"cli.{sub}.process_ms"] = (statistics.median(lat) * 1e3, "ms")
        text["cli.parse_and_run.self_ms"] = (
            self_s("cli.parse_and_run") * 1e3 / calls("cli.parse_and_run"), "ms")
    return m, text


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def show(metrics: dict, notes: dict | None = None) -> None:
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if notes and key in notes else ""
        print(f"  {key:<48} {value:>14.6g} {unit}{note}")


def report_run(name: str, seed: int, seconds: float, trace: bool, env_info: dict,
               pool: list, result: dict) -> None:
    loc = source_loc()
    print(f"# workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# cpu={env_info['cpu']!r} nproc={env_info['nproc']} "
          f"python={env_info['python']} numpy={result['numpy']}")
    print("# loc " + " ".join(f"{k}={v}" for k, v in loc.items()))

    metrics, notes, extra, failures = end_to_end(name, result)
    checks = result["checks"]
    attempted = result["window"]["ops"]
    failed = sum(failures.values())
    if trace:
        t_failed, t_failures = count_failures(result["traced"], set(checks["mismatched"]))
        attempted += result["traced"]["ops"]
        failed += t_failed
        failures += t_failures
    print("end-to-end (untraced window):")
    show({**metrics, **extra}, notes)
    print("failures by type@layer: "
          + (", ".join(f"{t}@{layer}={c}" for (t, layer), c in sorted(failures.items()))
             or "none"))
    print("output checks: " + ", ".join(f"{k}={v:.3g}" if isinstance(v, float)
                                        else f"{k}={v}" for k, v in checks.items()))
    if "overflow_probe" in result:
        print(f"overflow probe (untimed, not in attempted/failed; {OVERFLOW_PROBES} studies "
              f"at |t| <= {OVERFLOW_PROBE_MAX_T:g}): "
              + ", ".join(f"{k}={v}" for k, v in sorted(result["overflow_probe"].items())))
    correct = not checks["mismatched"]

    if trace:
        layers, text_only = per_layer(name, pool, result, loc)
        print(f"per-layer (traced window, {result['traced']['ops']} ops):")
        show(layers)
        print("per-layer, workload-specific:")
        show(text_only)
        reported = layers
    else:
        reported = metrics
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    env_info = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            pool, result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        deadline)
            report_run(name, args.seed, args.seconds, bool(args.trace), env_info, pool,
                       result)
        except (BenchError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
