"""A traced CLI process: times a fresh ``import pmean.cli``, installs the span
tracer, runs one command, and writes the spans to a file.

    python3 perfbench/clitrace.py <span-file> <pmean cli arguments...>

The exit code and standard output are those of the command.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import pmean.cli  # noqa: E402

import_s = perf_counter() - t0

import tracer  # noqa: E402


def main(span_file, argv) -> int:
    tr = tracer.Tracer()
    tr.install()
    try:
        code = pmean.cli.run(argv)
    finally:
        tr.uninstall()
    sys.stdout.flush()
    lazy = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
    with open(span_file, "w") as fh:
        json.dump({"import_s": import_s, "lazy_misses": lazy,
                   "cache_delta": tr.cache_delta, "spans": tr.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
