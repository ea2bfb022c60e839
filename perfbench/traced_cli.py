"""Run one belldiag command with the span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

The command's output and exit code are those of ``belldiag COMMAND ARGS``;
the spans are written to SPANS_JSON when the command ends.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from belldiag import cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.time_discord_grid()
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
