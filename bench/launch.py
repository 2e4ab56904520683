"""One cold CLI request: a fresh interpreter calling ``weylbuildings.cli.main``.

    python3 bench/launch.py SPAWN_TIME TRACE -- ARGV...

``main`` is called directly because ``python -m weylbuildings.cli`` has no
``__main__`` guard and prints nothing.  With TRACE = 1 the span wrappers
are installed after the import and before ``main`` runs, and the span
summary is written to stderr as one line starting with ``TRACE_PREFIX``
when the request ends.  SPAWN_TIME is the parent's ``time.time()`` just
before it started this process.
"""

import json
import sys
import time

TRACE_PREFIX = "bench-trace "


def main() -> int:
    spawned, trace = float(sys.argv[1]), sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py SPAWN_TIME TRACE -- ARGV...")
    argv = sys.argv[4:]
    import weylbuildings.cli as cli

    start_import_s = time.time() - spawned
    if not trace:
        return cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["process.start_import_s"] = start_import_s
        sys.stderr.write(TRACE_PREFIX + json.dumps(summary) + "\n")


if __name__ == "__main__":
    sys.exit(main())
