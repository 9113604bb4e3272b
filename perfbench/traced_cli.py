"""Run the irid-cfoi command line with layer tracing.

Usage: python traced_cli.py SPANS_JSON [irid-cfoi flags...]

Behaves like ``python -m irid`` with the given flags, and writes the
tracer's spans and counters to SPANS_JSON when the command returns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import irid.cli

    tracer = Tracer()
    with tracer.installed():
        code = irid.cli.cli_main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
