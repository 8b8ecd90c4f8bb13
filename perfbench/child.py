"""One cold CLI op: a fresh interpreter that runs ``algrest.cli.main`` once.

Usage: python3 perfbench/child.py <src dir> <probe|plain|trace> <cli argv...>

The CLI writes its output to stdout as the console script would.  Once
``algrest.cli`` is imported the child writes a ready marker to stderr, so
the parent can time set-up.  In ``probe`` mode a speed probe
(``speed.py``) runs from the start of the child to the end of ``main``;
the ready marker and a speed marker written after ``main`` carry its
chunk count and chunk time so far.  In ``trace`` mode the child writes the
per-layer totals as one marked JSON line to stderr after ``main``
returns.  ``plain`` does neither.
"""

import sys

READY = "perfbench-ready"
SPEED = "perfbench-speed "
TRACE = "perfbench-trace "
MODES = ("probe", "plain", "trace")


def run(argv: list[str]) -> int:
    src, mode, cli_argv = argv[0], argv[1], argv[2:]
    probe = None
    if mode == "probe":
        from speed import Probe

        probe = Probe()
        probe.start()
    sys.path.insert(0, src)
    import algrest.cli as cli

    if probe is not None:
        chunks, chunk_s = probe.state()
        print(f"{READY} {chunks} {chunk_s!r}", file=sys.stderr, flush=True)
        try:
            return cli.main(cli_argv)
        finally:
            probe.stop()
            sys.stdout.flush()
            chunks, chunk_s = probe.state()
            print(f"{SPEED}{chunks} {chunk_s!r}", file=sys.stderr, flush=True)

    print(READY, file=sys.stderr, flush=True)
    if mode == "plain":
        return cli.main(cli_argv)

    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(TRACE + json.dumps(tracer.snapshot()), file=sys.stderr, flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
