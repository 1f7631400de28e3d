"""Traced stand-in for ``python -m hopflift``: times ``import hopflift``,
installs the benchmark's span wrappers, runs one CLI command and writes
the spans to a JSON file when it ends.

    python perfbench/launch.py <spans.json> <hopflift arguments...>

Exits with the command's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import hopflift.cli  # noqa: E402
IMPORT_S = time.perf_counter() - t0

import tracer as tr  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tr.install(tracer)
    tracer.begin_pass(0)
    try:
        code = hopflift.cli.run(argv)
    except SystemExit as exc:  # argparse exits with the usage code
        code = exc.code
    finally:
        tracer.end_pass()
        with open(out, "w", encoding="ascii") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
