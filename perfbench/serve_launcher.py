"""Start the policy server with the benchmark's tracing wrappers installed.

Usage::

    python perfbench/serve_launcher.py TRACE_FILE RUN_ID serve MODEL [serve options]

Installs the serving-layer wrappers of :mod:`layers`, hands the remaining
arguments to the serving CLI's public entry point
(``repro.serving.cli.main``), and when the server stops (SIGINT) puts the
originals back and appends the server's spans to ``TRACE_FILE``.
"""

from __future__ import annotations

import sys
from typing import Sequence

import layers
from tracing import Tracer, install


def main(argv: Sequence[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, run_id, *serve_args = argv
    from repro.serving.cli import main as serving_main

    tracer = Tracer(layers.SPAN_NAMES, run_id)
    installation = install(tracer, layers.serving_sites())
    try:
        return serving_main(serve_args)
    finally:
        installation.restore()
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
