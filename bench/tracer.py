"""In-memory spans around the package's public functions, from outside it.

Each attach point names the module attribute a caller really looks up at
call time (the engine and the CLI import some names directly, so their
copies are patched as well).  A span records its name, start, end and
parent; spans stay in a list until the run ends, and self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); _wrap adds counts to the quadrature and nct spans
ATTACH_POINTS = (
    ("twogroupbf.engine", "derive_stats", "datamodel.derive_stats"),
    ("twogroupbf.cli", "derive_stats", "datamodel.derive_stats"),
    ("twogroupbf.datamodel", "student_t_quantile", "specfun.student_t_quantile"),
    ("twogroupbf.specfun", "noncentral_t_logpdf", "specfun.noncentral_t_logpdf"),
    ("twogroupbf.engine", "integrate_log", "quadrature.integrate_log"),
    ("twogroupbf.engine", "super_bf", "engine.super_bf"),
    ("twogroupbf.engine", "infer_bf", "engine.infer_bf"),
    ("twogroupbf.engine", "equiv_bf", "engine.equiv_bf"),
    ("twogroupbf.engine", "prior_sweep", "engine.prior_sweep"),
    ("twogroupbf.cli", "run_test", "engine.run_test"),
    ("twogroupbf.cli", "prior_sweep", "engine.prior_sweep"),
    ("twogroupbf.report", "render_text", "report.render_text"),
    ("twogroupbf.report", "render_sweep_text", "report.render_sweep_text"),
    ("twogroupbf.report", "render_json", "report.render_json"),
    ("twogroupbf.cli", "render_text", "report.render_text"),
    ("twogroupbf.cli", "render_sweep_text", "report.render_sweep_text"),
    ("twogroupbf.cli", "render_json", "report.render_json"),
    ("twogroupbf.cli", "emit_density_curves", "report.emit_density_curves"),
    ("twogroupbf.cli", "parse_and_run", "cli.parse_and_run"),
)

# spans each workload must record; a missing one means the call site moved
EXPECTED_CALLS = {
    "reanalysis": ("quadrature.integrate_log", "specfun.noncentral_t_logpdf",
                   "specfun.student_t_quantile", "datamodel.derive_stats",
                   "engine.super_bf", "engine.infer_bf", "engine.equiv_bf",
                   "report.render_text", "report.render_json"),
    "large-n": ("quadrature.integrate_log", "specfun.noncentral_t_logpdf",
                "datamodel.derive_stats", "engine.super_bf",
                "report.render_text", "report.render_json"),
    "sweep": ("quadrature.integrate_log", "specfun.noncentral_t_logpdf",
              "specfun.student_t_quantile", "datamodel.derive_stats",
              "engine.prior_sweep", "report.render_sweep_text", "report.render_json"),
    "cli": ("quadrature.integrate_log", "specfun.noncentral_t_logpdf",
            "specfun.student_t_quantile", "datamodel.derive_stats",
            "engine.run_test", "engine.prior_sweep", "report.render_text",
            "report.render_sweep_text", "report.render_json", "cli.parse_and_run"),
}

# integrate_log calls its integrand for the mode scan, then for the shift
# probe at the breakpoints, then once per GK15 panel; classifying by order,
# not by array size, keeps a 15-point probe from counting as a panel
PRE_PANEL_CALLS = 2


class AttachError(RuntimeError):
    """An attach point is missing or was never reached."""


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        if name == "quadrature.integrate_log":
            def wrapper(f, *args, **kwargs):
                order = [0]  # integrand calls so far in this integrate_log call

                def counted(x):
                    n = np.size(x)
                    self.counts["quadrature.evals"] += n
                    order[0] += 1
                    if order[0] > PRE_PANEL_CALLS:
                        self.counts["quadrature.panels"] += 1
                    else:
                        self.counts["quadrature.scan_evals"] += n
                    return f(x)
                with self.span(name):
                    return fn(counted, *args, **kwargs)
        elif name == "specfun.noncentral_t_logpdf":
            def wrapper(t, df, ncp):
                self.counts["specfun.nct_points"] += np.broadcast(
                    np.asarray(t), np.asarray(ncp)).size
                with self.span(name):
                    return fn(t, df, ncp)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    def attach(self):
        """Patch every attach point; raise AttachError if one is missing."""
        for module_name, attr, name in ATTACH_POINTS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.detach()
                raise AttachError(f"attach point {module_name}.{attr} is missing")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def detach(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, durations; plus counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "durations": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
            agg["durations"].append(end - start)
        return {"spans": by_name, "counts": dict(self.counts)}


def merge_summaries(parts) -> dict:
    merged = {"spans": {}, "counts": defaultdict(int)}
    for part in parts:
        for name, agg in part["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0,
                                                     "self_s": 0.0, "durations": []})
            into["calls"] += agg["calls"]
            into["total_s"] += agg["total_s"]
            into["self_s"] += agg["self_s"]
            into["durations"] += agg["durations"]
        for key, value in part["counts"].items():
            merged["counts"][key] += value
    merged["counts"] = dict(merged["counts"])
    return merged


def check_expected(workload: str, summary: dict) -> None:
    """Raise AttachError if a span the workload must reach has no calls."""
    missing = [name for name in EXPECTED_CALLS[workload]
               if summary["spans"].get(name, {}).get("calls", 0) == 0]
    if missing:
        raise AttachError(f"{workload}: attach points never called: {', '.join(missing)}")
