import marshal
import os
import threading
import time

import pytest

from fresh_python import run_python
from sinksim import forkmap
from sinksim.forkmap import MIN_SLICE, close_workers, default_workers, split_call

CALLER = os.getpid()


def _no_child_left():
    # Ending the workers reaps every one: this process has no child left.
    close_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count that split_call takes in place of the default."""

    def use(count):
        monkeypatch.setattr(forkmap, "default_workers", lambda items: count)

    return use


def _gone(pid):
    # Reaped, so no process has this pid.
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    return True


# Slice functions: module-level, so that a worker finds them by name.


def _pids(lo, hi):
    return [(i, os.getpid()) for i in range(lo, hi)]


def _rows(lo, hi):
    return [(i, i * i, None if i % 3 else -i, f"x{i}", 0.1 * i, [i] * (i % 2)) for i in range(lo, hi)]


class _NotRebuilt(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _fail_in_a_worker(kind, lo, hi):
    if os.getpid() == CALLER:
        return list(range(lo, hi))
    if kind == "value":
        raise ValueError(f"slice {lo}-{hi} failed")
    if kind == "not rebuilt":
        raise _NotRebuilt(1, 2)
    if kind == "exit":
        os._exit(3)
    return [object()]  # "unwritable"


def _fail_in_the_caller(lo, hi):
    if os.getpid() == CALLER:
        raise ValueError("the caller's slice failed")
    return [os.getpid()]


def test_the_first_slice_runs_here_and_the_rest_in_children(workers):
    workers(3)
    out = split_call(_pids, (), 8)
    assert [i for i, _ in out] == list(range(8))
    pids = [pid for _, pid in out]
    assert pids[:2] == [CALLER] * 2  # slices 0-1, 2-4 and 5-7
    assert len(set(pids[2:5])) == len(set(pids[5:])) == 1
    assert len(set(pids)) == 3
    assert _no_child_left()


# 5,000 rows make replies of about 100 KB, more than a pipe holds at once.
@pytest.mark.parametrize("items", [0, 1, 2, 5, 7, 300, 5000])
@pytest.mark.parametrize("count", [1, 2, 3, 4, None])
def test_the_result_is_the_serial_map(workers, items, count):
    if count is not None:
        workers(count)
    assert split_call(_rows, (), items) == _rows(0, items)


def test_a_message_cut_short_reads_as_the_end_of_the_pipe():
    value = _rows(0, 50)
    read, write = os.pipe()
    forkmap._write(write, marshal.dumps(value))
    os.close(write)
    with os.fdopen(read, "rb") as stream:
        message = stream.read()
    for cut in (0, 1, forkmap._HEADER, len(message) - 1, len(message)):
        read, write = os.pipe()
        os.write(write, message[:cut])
        os.close(write)
        with os.fdopen(read, "rb") as stream:
            if cut == len(message):
                assert forkmap._receive(stream) == value
            else:
                with pytest.raises(EOFError):
                    forkmap._receive(stream)


def test_consecutive_calls_are_served_by_the_same_workers(workers):
    workers(3)
    first = split_call(_pids, (), 6)
    second = split_call(_pids, (), 6)
    assert first == second
    assert len({pid for _, pid in first} - {CALLER}) == 2
    # A smaller call is served by the first of them.
    workers(2)
    assert split_call(_pids, (), 4)[2:] == first[2:4]
    assert _no_child_left()


def test_the_default_count_keeps_every_slice_at_the_minimum():
    cpus = len(os.sched_getaffinity(0))
    assert default_workers(0) == default_workers(MIN_SLICE - 1) == 1
    assert default_workers(2 * MIN_SLICE) == min(cpus, 2)
    assert default_workers(1000 * MIN_SLICE) == cpus


def test_it_runs_serially_while_other_threads_run(workers):
    close_workers()
    workers(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        out = split_call(_pids, (), 4)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert out == [(i, CALLER) for i in range(4)]
    assert _no_child_left()


def test_errors_that_cannot_be_rebuilt_and_silent_exits_are_reported(workers):
    workers(2)
    with pytest.raises(RuntimeError, match="^_NotRebuilt: 1 and 2$"):
        split_call(_fail_in_a_worker, ("not rebuilt",), 2)
    with pytest.raises(RuntimeError, match="ended with status 768 and no result"):
        split_call(_fail_in_a_worker, ("exit",), 2)
    assert _no_child_left()


def test_a_result_marshal_cannot_write_is_an_error_in_the_caller(workers):
    workers(2)
    with pytest.raises(ValueError, match="unmarshallable"):
        split_call(_fail_in_a_worker, ("unwritable",), 2)
    assert _no_child_left()


def test_a_worker_error_ends_the_workers_and_the_next_call_forks_fresh_ones(workers):
    workers(2)
    pids = {pid for _, pid in split_call(_pids, (), 2)} - {CALLER}
    with pytest.raises(ValueError, match="^slice 1-2 failed$"):
        split_call(_fail_in_a_worker, ("value",), 2)
    assert all(_gone(pid) for pid in pids)
    assert split_call(_pids, (), 2)[0] == (0, CALLER)
    assert split_call(_rows, (), 9) == _rows(0, 9)
    assert _no_child_left()


def test_a_caller_error_ends_the_workers_and_the_next_call_forks_fresh_ones(workers):
    workers(2)
    pids = {pid for _, pid in split_call(_pids, (), 2)} - {CALLER}
    with pytest.raises(ValueError, match="^the caller's slice failed$"):
        split_call(_fail_in_the_caller, (), 2)
    assert all(_gone(pid) for pid in pids)
    workers(3)
    assert split_call(_rows, (), 9) == _rows(0, 9)
    assert _no_child_left()


# A fresh interpreter runs a parallel sweep point and exits without closing
# anything: its exit handler ends and reaps the workers, and without that
# handler they read the end of their request pipes and exit.
EXIT_PROBE = """
import os, sys
from sinksim import forkmap
from sinksim.scenario import grid_point
forkmap.default_workers = lambda items: 3
grid_point("edge", 4, 60, 1)
print(*(pid for pid, _, _ in forkmap._workers), flush=True)
if sys.argv[1] == "os._exit":
    os._exit(0)
"""


def _ended(pid):
    # Gone, or a zombie that its new parent has not reaped yet.
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("exit", ["return", "os._exit"])
def test_the_workers_end_when_their_interpreter_exits(exit):
    proc = run_python(["-c", EXIT_PROBE, exit], capture_output=True, text=True, check=True, timeout=60)
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2 and CALLER not in pids
    if exit == "return":
        assert all(_gone(pid) for pid in pids)
        return
    if not os.path.isdir("/proc/self"):
        pytest.skip("reads the state of an orphaned worker from /proc")
    deadline = time.monotonic() + 30
    while not all(_ended(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(_ended(pid) for pid in pids)
