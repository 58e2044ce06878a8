"""A map split into contiguous slices over forked worker processes.

The sweeps run thousands of independent replications per point.  Their
random draws are made up front in the calling process, so the walks can run
anywhere; :func:`split_map` runs them in slices, one per worker, and joins
the slices in order, so its result is the serial list for any worker count.

Workers are ``os.fork`` children: they inherit the function, its closure and
every module state it reads (the sweep's set-up memo, a tracer's wrappers)
without pickling any of it.  Results come back through a pipe in ``marshal``
form, which is built in and so costs no import; ``pickle`` is imported only
to carry an error back.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Callable, List, Optional, Sequence

# A fork and the pipe back cost about 2-3 ms on a 2-core host, and 100 grid
# replications about 3.5-4 ms there, walked serially.  In the benchmark on
# that host, with 2 workers against 1, `grid-sweep` (1,000 replications a
# point) read 0.0053-0.0064 cal forked against 0.0089-0.0091 serial, and
# `rg-sweep` (200 a point) read about 0.0155-0.016 cal either way.  Without
# an explicit worker count no worker gets fewer items than this.
MIN_SLICE = 100


def default_workers(items: int) -> int:
    """The CPUs this process may run on, capped so no slice is below MIN_SLICE."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, items // MIN_SLICE))


def split_map(fn: Callable, items: Sequence, workers: Optional[int] = None) -> List:
    """``[fn(x) for x in items]``, its contiguous slices run in forked workers.

    The caller runs the first slice; each other slice runs in a child that
    sends its results back, and the slices are joined in order.  Results must
    be values ``marshal`` can write (numbers, strings, None, and tuples or
    lists of them).  ``workers=None`` takes :func:`default_workers`; an
    explicit count is capped only by the number of items.  An error in a
    child is raised again here with its type and message.  Every child is
    reaped before this returns or raises, and killed first if the caller
    failed.  Runs serially where ``os.fork`` is missing or other threads run,
    since forking is unsafe then.
    """
    if workers is None:
        workers = default_workers(len(items))
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    workers = min(workers, len(items))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]

    bounds = [len(items) * k // workers for k in range(workers + 1)]
    children = []  # (pid, read end of its pipe or None once read), in slice order
    finished = False
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, items[bounds[k] : bounds[k + 1]], w)
            os.close(w)
            children.append((pid, r))
        results = [fn(x) for x in items[: bounds[1]]]
        while children:
            pid, r = children[0]
            with os.fdopen(r, "rb") as pipe:
                children[0] = (pid, None)
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise RuntimeError(f"worker {pid} ended with status {status} and no result")
            ok, value = marshal.loads(data)
            if not ok:
                import pickle

                raise pickle.loads(value)
            results.extend(value)
        finished = True
        return results
    finally:
        for pid, r in children:
            if r is not None:
                os.close(r)
            if not finished:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn: Callable, items: Sequence, w: int) -> None:
    """Body of a forked worker: write the results to `w` and end.

    The worker ends with ``os._exit`` on every path, so neither atexit
    handlers nor stdio buffers inherited from the caller run a second time.
    """
    status = 1
    try:
        try:
            payload = marshal.dumps((True, [fn(x) for x in items]))
        except Exception as exc:
            import pickle

            try:
                pickle.loads(pickle.dumps(exc))  # the caller must be able to rebuild it
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            payload = marshal.dumps((False, pickle.dumps(exc)))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
