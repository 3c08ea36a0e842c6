"""Start ``repro serve`` for the benchmark, with the span tracer when asked.

Usage: ``python3 perfbench/serve_traced.py <socket> [repro serve options]``.
With ``PERFBENCH_TRACE_DIR`` and ``PERFBENCH_TRACE_FLAG`` set, the server
installs the same wrappers as the benchmark process and writes its spans to
``PERFBENCH_TRACE_DIR/spans-<pid>.json`` when it exits.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    tracer = None
    if out_dir:
        import tracing

        tracer = tracing.Tracer(out_dir, os.environ["PERFBENCH_TRACE_FLAG"])
        tracing.install(tracer, service=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *sys.argv[1:]])
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
