"""Run ``python -m repro serve …`` with every layer's entry points traced.

    python perfbench/launch.py SPANS_FILE serve --store DIR --port 0

The wrappers are installed from this file before the server starts;
the spans are written to ``SPANS_FILE`` when the server exits (on
SIGINT, as ``repro serve`` shuts down).  Untraced runs start
``python -m repro serve`` directly and never import the tracer.
"""

from __future__ import annotations

import sys


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from tracer import Tracer, install_gc, install_reads, install_service

    from repro.__main__ import main as repro_main

    tracer = Tracer()
    install_reads(tracer)
    install_service(tracer)
    install_gc(tracer)
    try:
        return repro_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
