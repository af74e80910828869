"""One CLI invocation with tracing on, or a fresh-import probe.

Usage: ``python bench/cli_child.py SUMMARY.json ARGS...`` runs
``twogroupbf.cli.parse_and_run(ARGS)`` under the tracer, writes the span
summary to SUMMARY.json and exits with the CLI's status.
``python bench/cli_child.py --import-only`` prints the milliseconds a fresh
``import twogroupbf.cli`` took.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import twogroupbf.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    if sys.argv[1] == "--import-only":
        print(repr(import_ms))
        sys.exit(0)

    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.attach()
    with tracer.span("op"):
        status = twogroupbf.cli.parse_and_run(sys.argv[2:])
    tracer.detach()
    with open(sys.argv[1], "w") as handle:
        json.dump(tracer.summary(), handle)
    sys.exit(status)
