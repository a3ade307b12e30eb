"""Time one cold set-up of collapsim in this fresh interpreter.

Usage (from the repository root, with src on PYTHONPATH):
    python3 bench/probe_setup.py WARMUP_JSON

WARMUP_JSON holds a list of argv lists for `collapsim.cli.main`. Prints one
JSON line with `import_s` (import of collapsim.cli) and `setup_s` (that
import plus every warm-up job), both timed from before the import, and
`kernel_s`, the median of three reference-kernel timings taken afterwards.
"""

import time

_START = time.perf_counter()
import collapsim.cli  # noqa: E402  (the import is what is being timed)

_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    with open(sys.argv[1]) as fh:
        jobs = json.load(fh)
    for argv in jobs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = collapsim.cli.main(argv)
        if rc != 0:
            print(f"warm-up job {argv[0]} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
            return 1
    done = time.perf_counter()
    from speed import reference_kernel

    kernel_s = sorted(reference_kernel() for _ in range(3))[1]
    print(json.dumps({"import_s": _IMPORTED - _START, "setup_s": done - _START,
                      "kernel_s": kernel_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
