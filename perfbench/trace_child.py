"""Run one ``phelix`` CLI call under the tracer and write its spans to a file.

Usage: python trace_child.py <spans.json> <phelix arguments...>

The report goes to stdout exactly as ``python -m phelix`` prints it, and the
exit code is the CLI's.  The traced cli-cold run starts this in place of
``python -m phelix``.
"""

import json
import sys

from phelix import cli

from tracer import TIMED, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.phase = TIMED
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.records(), "divmods": tracer.divmods[TIMED]}, fh)


if __name__ == "__main__":
    sys.exit(main())
