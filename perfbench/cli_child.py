"""Run the partcalc CLI under the benchmark's tracer, in a child process.

Usage: python cli_child.py SPANS_FILE partcalc-arguments...

Traced cli-auto runs start this in place of `python -m partcalc`.  It installs
the tracer, runs `partcalc.cli.main` inside a `cli.main` span, and writes the
spans to SPANS_FILE for the parent to merge.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from partcalc import cli

    try:
        return tracer.call("cli.main", "cli", cli.main, argv)
    finally:
        tracer.uninstall()
        with open(spans, "w") as out:
            json.dump(tracer.dump(), out)


if __name__ == "__main__":
    sys.exit(main())
