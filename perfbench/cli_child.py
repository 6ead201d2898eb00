"""Run one frob2d command line under the tracer and write its trace.

    python3 perfbench/cli_child.py TRACE_JSON ARGS...

Behaves like ``python3 -m frob2d.cli ARGS...``: same output, same exit code,
and an uncaught exception still ends in a traceback.  The trace is written
to TRACE_JSON in every case.
"""

import sys

import tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    from frob2d import cli

    try:
        return cli.main(argv)
    finally:
        tr.uninstall()
        tr.dump(path)


if __name__ == "__main__":
    sys.exit(main())
