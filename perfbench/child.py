"""Child process of the benchmark: enter `pelab.cli.main` the way the `pelab` script does.

usage: python3 child.py SRC STAMP TRACE -- [PELAB-ARGS...]

Imports `pelab.cli` from SRC, writes the CLOCK_MONOTONIC time at which
`main` is about to be entered to STAMP, then runs `main(PELAB-ARGS)` and
exits with its code.  With no PELAB-ARGS the process stops before `main`
(a set-up probe).  TRACE is `-` for an untraced run; otherwise span
wrappers are installed before `main` and the spans are saved to TRACE after
it returns.
"""

import sys
import time


def launch(argv: list[str]) -> int:
    src, stamp, trace_path, sep, *pelab_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SRC STAMP TRACE -- [PELAB-ARGS...]")
    sys.path.insert(0, src)
    import pelab.cli

    tracer = None
    if trace_path != "-":
        from spans import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    entered = time.monotonic()
    with open(stamp, "w") as fh:
        fh.write(repr(entered))
    if not pelab_args:
        return 0
    code = pelab.cli.main(pelab_args)
    if tracer is not None:
        tracer.save(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
