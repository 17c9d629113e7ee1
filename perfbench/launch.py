"""Traced launcher: ``python launch.py ARGS...`` behaves like
``python -m repro.cli ARGS...`` with the layer wrappers of
:mod:`layers` installed.

``import repro.cli`` is timed as the ``cli.import`` span.  The spans
are written as JSON to the file named by ``PERFBENCH_SPANS`` when the
CLI returns; for ``serve`` that is after the daemon drained.
"""

import os
import sys

import layers


def main() -> int:
    tracer = layers.Tracer()
    index = tracer.begin("cli.import")
    import repro.cli
    tracer.end(index)
    argv = sys.argv[1:]
    layers.install(tracer, daemon=bool(argv) and argv[0] == "serve")
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
