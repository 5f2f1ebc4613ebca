"""Traced ``hybridopt target-runner`` call.

Usage: ``python launcher.py SPANS_FILE CALL_ID -- <target-runner arguments>``

Installs the benchmark's span wrappers, calls ``hybridopt.cli.main`` with the
given arguments inside one ``cli.main`` span, and writes the spans, the
interpreter start time and the import time to SPANS_FILE (``.npz``).  What
``main`` prints and its exit code pass through unchanged.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

t0 = time.perf_counter()
import hybridopt.cli  # noqa: E402
import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, call_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: launcher.py SPANS_FILE CALL_ID -- ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.run_id = int(call_id)
    tracer.install()
    try:
        code = tracer.wrap("cli.main", hybridopt.cli.main)(argv)
    finally:
        tracer.uninstall()
    tracer.save(spans_file, started=STARTED, import_s=import_s,
                run_wall_ms=tracer.run_wall_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
