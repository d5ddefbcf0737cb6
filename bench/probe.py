"""Set-up probe: one fresh interpreter's set-up time for a workload.

    python3 bench/probe.py <workload> <seed>

Prints one JSON object: ``import_s`` (``import fptrace``, or
``import fptrace.cli`` for the cli workload) and ``build_s`` (turning the
first round's generated inputs into fptrace objects).  Only ``sys``,
``os`` and ``time`` are imported before the timed import, so the package
pays for its own dependencies as it does in a user's process.
"""

import os
import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    if workload == "cli":
        import fptrace.cli  # noqa: F401
    else:
        import fptrace  # noqa: F401
    import_s = time.perf_counter() - t0
    build_s = 0.0
    if workload != "cli":
        import workloads

        specs = workloads.make_round(workload, seed, 0)
        t0 = time.perf_counter()
        for spec in specs:
            workloads.HANDLERS[spec["kind"]][0](spec)
        build_s = time.perf_counter() - t0
    print('{"import_s": %r, "build_s": %r}' % (import_s, build_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
