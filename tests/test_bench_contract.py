"""The benchmark's attach points must resolve in the package.

``bench/tracer.py`` patches the module attributes named in its
``ATTACH_POINTS`` at run time, and exits with status 3 when one is missing.
Reading that table here makes a refactor that renames or drops one of them
fail in the test suite instead.  The tracer is only loaded, never attached.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_attach_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ATTACH_POINTS
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.ATTACH_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
