"""Forked worker processes: fn(item) for each item of a list, at most K at a time.

Each call runs in a process forked for it (start method `fork`), so it inherits
fn, its closures and whatever the caller has loaded or patched, and imports
nothing again; what fn returns comes back pickled over a pipe.  Module
`multiprocessing` is imported only when a fan-out runs.
"""

from __future__ import annotations

import sys


def _work(fn, item, send) -> None:
    send.send(fn(item))


def fan_out(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], each call in a worker process of its own.

    At most `workers` run at a time, started in the order of `items`.  A worker
    that ends without sending its result (it raised, or exited) gives, in its
    place, a ChildProcessError naming its exit code.  stdout and stderr are
    flushed before each fork, so that no worker prints what the caller had
    buffered.  Every worker has been joined when this returns or raises; an
    exception in the caller terminates the workers still running first.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    results, queue, running = [None] * len(items), list(enumerate(items)), {}
    try:
        while queue or running:
            while queue and len(running) < workers:
                i, item = queue.pop(0)
                recv, send = ctx.Pipe(duplex=False)
                sys.stdout.flush()
                sys.stderr.flush()
                proc = ctx.Process(target=_work, args=(fn, item, send))
                proc.start()
                running[recv] = i, proc
                send.close()   # the worker holds the only write end: its end is EOF
            for recv in wait(list(running)):
                i, proc = running.pop(recv)
                try:
                    results[i] = recv.recv()
                except EOFError:
                    proc.join()
                    results[i] = ChildProcessError(f"worker exited with code {proc.exitcode}")
                finally:
                    _close(recv, proc)
    finally:
        for recv, (_, proc) in running.items():
            proc.terminate()
            _close(recv, proc)
    return results


def _close(recv, proc) -> None:
    """Close a worker's read end, join the worker and release its process object."""
    recv.close()
    proc.join()
    proc.close()
