"""Contiguous slices of a sweep run in persistent forked worker processes.

The sweeps run thousands of independent replications per point, and every
process can make a point's random draws itself: they follow from the point's
arguments alone.  :func:`split_call` runs ``fn(*args, lo, hi)`` for
contiguous slices ``[lo, hi)`` of ``range(n)``, the first in the caller and
one in each worker, and joins the slices in order, so its result is the
serial list for any worker count.

Workers are ``os.fork`` children, forked the first time a call needs them
and kept for later calls.  A request names ``fn`` by module and qualified
name and carries only ``args`` and the slice; the reply is the slice's list.
Each goes as one ``marshal`` value, which is built in and costs no import,
behind its length in bytes, so that the reader takes it off the pipe whole
and decodes it with ``marshal.loads``: ``marshal.load`` on a pipe reads a
list item by item, 594 us for a 500-outcome reply (5.6 KB) on a 2-core
host, against 25 us to read it whole and decode it.
``pickle`` is imported only to carry an error back.
So a worker runs the code, and the module state, as they stood when it was
forked, together with whatever its own calls grow there since (the sweeps'
set-up memo and its tours).

Workers end at interpreter exit (:func:`close_workers` runs at exit: each
worker reads the end of its request pipe, exits and is reaped), after any
error in a call, from a worker or from the caller's own slice (they are
killed and reaped, and the next call forks fresh ones), and when the caller
dies, since that too ends their request pipe.
"""

from __future__ import annotations

import atexit
import marshal
import os
import sys
import threading
from typing import BinaryIO, Callable, List, Tuple

# On a 2-core host the round trip of a call to one persistent worker, with
# an empty slice, took 0.03-0.04 ms (median of 2,000 calls in each of two
# runs), and one replication walks in 28-30 us on the grid and 20-24 us on a
# random graph whose set-up is drawn.  Each process also makes what a point
# walks against (0.09 ms for a grid slice).  Against one process, 2 workers
# broke even at 20 replications each and took 1.1 ms for 40 grid
# replications against 1.9 ms.  No worker gets fewer items than this.
MIN_SLICE = 20

# (pid, write end of its request pipe, read end of its reply pipe), in
# slice order: worker k walks slice k + 1.
_Worker = Tuple[int, int, BinaryIO]
_workers: List[_Worker] = []
_in_worker = False  # set in a worker, which runs every call it makes serially


def default_workers(items: int) -> int:
    """The CPUs this process may run on, capped so no slice is below MIN_SLICE."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, items // MIN_SLICE))


def split_call(fn: Callable[..., list], args: tuple, n: int) -> list:
    """``fn(*args, 0, n)``, computed as ``fn(*args, lo, hi)`` over
    contiguous slices of ``range(n)`` and joined in order.

    `fn` is a module-level function returning a list; the caller runs the
    first slice, and each other slice runs in a persistent worker that looks
    `fn` up by module and qualified name.  `args` and the results must be
    values ``marshal`` can write (numbers, strings, None, and tuples or
    lists of them).  The worker count is :func:`default_workers` of `n`,
    capped by `n`.  An error in a worker is raised again here with its type
    and message.  After any error every worker is killed and reaped.  Runs
    serially where ``os.fork`` is missing, in a worker, or while other
    threads run, since forking is unsafe then.
    """
    workers = min(default_workers(n), n)
    if workers <= 1 or _in_worker or not hasattr(os, "fork") or threading.active_count() > 1:
        return fn(*args, 0, n)

    bounds = [n * k // workers for k in range(workers + 1)]
    try:
        while len(_workers) < workers - 1:
            _fork_worker()
        pool = _workers[: workers - 1]
        for (_, request, _), lo, hi in zip(pool, bounds[1:], bounds[2:]):
            _write(request, marshal.dumps((fn.__module__, fn.__qualname__, args, lo, hi)))
        results = fn(*args, 0, bounds[1])
        for worker in pool:
            try:
                ok, value = _receive(worker[2])
            except EOFError:
                status = _end(worker, kill=False)
                raise RuntimeError(f"worker {worker[0]} ended with status {status} and no result") from None
            if not ok:
                import pickle

                raise pickle.loads(value)
            results += value
        return results
    except BaseException:
        close_workers(kill=True)
        raise


def close_workers(kill: bool = False) -> None:
    """End every worker and reap it: close its pipes, so that it exits at
    the end of its requests, or with `kill` send it SIGKILL first."""
    for worker in list(_workers):
        _end(worker, kill)


atexit.register(close_workers)


def _end(worker: _Worker, kill: bool) -> int:
    """Close one worker's pipes, kill it if asked, reap it; its status."""
    pid, request, reply = worker
    _workers.remove(worker)
    os.close(request)
    reply.close()
    if kill:
        import signal  # not at import: it costs about 0.8 ms

        os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still this worker's
    return os.waitpid(pid, 0)[1]


def _fork_worker() -> None:
    """Fork one worker and append it to the pool."""
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (request_r, request_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:
        _serve(request_r, reply_w, request_w, reply_r)
    os.close(request_r)
    os.close(reply_w)
    _workers.append((pid, request_w, os.fdopen(reply_r, "rb")))


def _serve(request: int, reply: int, *unused: int) -> None:
    """Body of a worker: answer requests until the request pipe ends.

    The worker first closes the caller's ends of its own pipes and every
    pipe it inherited from the other workers, so that each pipe ends when
    its one owner closes it.  It ends with ``os._exit`` on every path, so
    neither atexit handlers nor stdio buffers inherited from the caller run
    a second time.
    """
    global _in_worker
    status = 1
    try:
        _in_worker = True
        for fd in unused:
            os.close(fd)
        for _, other_request, other_reply in _workers:
            os.close(other_request)
            other_reply.close()
        _workers.clear()
        requests = os.fdopen(request, "rb")
        while True:
            try:
                module, qualname, args, lo, hi = _receive(requests)
            except EOFError:
                break
            try:
                fn = sys.modules[module]
                for name in qualname.split("."):
                    fn = getattr(fn, name)
                payload = marshal.dumps((True, fn(*args, lo, hi)))
            except Exception as exc:
                payload = marshal.dumps((False, _pickled(exc)))
            _write(reply, payload)
        status = 0
    finally:
        os._exit(status)


def _pickled(exc: Exception) -> bytes:
    """`exc` pickled, or a RuntimeError with its type and message where the
    caller could not rebuild it."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return pickle.dumps(exc)


# The bytes of the length that goes before each message.
_HEADER = 8


def _write(fd: int, data: bytes) -> None:
    """Write all of `data`, behind its length."""
    view = memoryview(len(data).to_bytes(_HEADER, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _receive(stream: BinaryIO) -> object:
    """Read one message of :func:`_write` whole and decode it with
    ``marshal.loads``; EOFError if the pipe ends before the message does."""
    header = stream.read(_HEADER)
    if len(header) < _HEADER:
        raise EOFError
    size = int.from_bytes(header, "little")
    data = stream.read(size)
    if len(data) < size:
        raise EOFError
    return marshal.loads(data)
