"""The benchmark's attach points must resolve in the package and be reached.

``bench/tracer.py`` patches the module attributes named in its
``ATTACH_POINTS`` at run time, exits with status 3 when one is missing, and
fails a workload whose expected spans record no call.  Running that here
makes a refactor that renames, drops or stops calling one of them fail in
the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

from twogroupbf import engine, report
from twogroupbf.datamodel import SummaryCi, SummaryMoments

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_attach_point_resolves():
    tracer = _load_tracer()
    assert tracer.ATTACH_POINTS
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.ATTACH_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_library_workloads_reach_their_attach_points():
    # one op of each design, a sweep and every renderer, looked up at call
    # time through the module attributes the tracer patches
    tracer = _load_tracer()
    study = SummaryCi(193, 205, 4.7, 4.8, ci_margin=0.19, ci_level=0.95)
    megatrial = SummaryMoments(100_000, 100_000, 0.0, 0.02, 1.0, 1.0)
    spec = engine.TestSpec
    recorder = tracer.Tracer()
    recorder.attach()
    try:
        results = [engine.super_bf(megatrial, spec.superiority()),
                   engine.infer_bf(study, spec.non_inferiority(1.0, direction="low")),
                   engine.equiv_bf(study, spec.equivalence((-0.2, 0.2)))]
        for result in results:
            report.render_text(result)
            report.render_json(result)
        sweep = engine.prior_sweep(study, spec.superiority(), [0.5, 1.0])
        report.render_sweep_text(sweep)
        report.render_json(sweep)
    finally:
        recorder.detach()
    summary = recorder.summary()
    for workload in ("reanalysis", "large-n", "sweep"):
        tracer.check_expected(workload, summary)
