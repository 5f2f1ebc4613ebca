"""Set-up cost of one workload in a fresh interpreter, with no FE.

Reads ``{"configs": [...], "instances": [[function, dim, seed], ...]}`` as
JSON on stdin, imports ``hybridopt.cli``, validates every configuration and
builds every instance, then prints its own timings as one JSON line.  The
caller times the whole process from spawn to exit.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter()
import hybridopt.cli  # noqa: E402,F401
from hybridopt import make_instance, validate  # noqa: E402
import_s = time.perf_counter() - t0


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    for raw in job["configs"]:
        if not hasattr(validate(raw), "execution"):
            print(f"configuration rejected: {raw}", file=sys.stderr)
            return 1
    validate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for function, dim, seed in job["instances"]:
        make_instance(function, dim, instance_seed=seed)
    instance_s = time.perf_counter() - t0
    print(json.dumps({
        "started": STARTED,
        "import_ms": import_s * 1e3,
        "validate_us": validate_s * 1e6 / max(1, len(job["configs"])),
        "make_instance_ms": instance_s * 1e3 / max(1, len(job["instances"])),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
