"""Traced CLI launch: install the span tracer, then run ``cli.main(argv)``.

    python3 bench/cli_launch.py <fptrace arguments...>

The report goes to stdout exactly as ``fptrace`` would print it; the span
totals go to stderr as one last line starting with ``SPANS ``.
"""

import json
import os
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import fptrace.cli
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = fptrace.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("SPANS " + json.dumps(tracer.state()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
