import os
import threading
import time

import pytest

from fresh_python import run_python
from sinksim.forkmap import MIN_SLICE, close_workers, default_workers, split_call

CALLER = os.getpid()


def _no_child_left():
    # Ending the workers reaps every one: this process has no child left.
    close_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


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


def test_the_first_slice_runs_here_and_the_rest_in_children():
    out = split_call(_pids, (), 8, 3)
    assert [i for i, _ in out] == list(range(8))
    pids = [pid for _, pid in out]
    assert pids[:2] == [CALLER] * 2  # slices 0-1, 2-4 and 5-7
    assert len(set(pids[2:5])) == len(set(pids[5:])) == 1
    assert len(set(pids)) == 3
    assert _no_child_left()


@pytest.mark.parametrize("items", [0, 1, 2, 5, 7, 300])
@pytest.mark.parametrize("workers", [1, 2, 3, 4, None])
def test_the_result_is_the_serial_map(items, workers):
    assert split_call(_rows, (), items, workers) == _rows(0, items)


def test_consecutive_calls_are_served_by_the_same_workers():
    first = split_call(_pids, (), 6, 3)
    second = split_call(_pids, (), 6, 3)
    assert first == second
    assert len({pid for _, pid in first} - {CALLER}) == 2
    # A smaller call is served by the first of them.
    assert split_call(_pids, (), 4, 2)[2:] == first[2:4]
    assert _no_child_left()


def test_the_default_count_keeps_every_slice_at_the_minimum():
    cpus = len(os.sched_getaffinity(0))
    assert default_workers(0) == default_workers(MIN_SLICE - 1) == 1
    assert default_workers(2 * MIN_SLICE) == min(cpus, 2)
    assert default_workers(1000 * MIN_SLICE) == cpus


def test_it_runs_serially_while_other_threads_run():
    close_workers()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        out = split_call(_pids, (), 4, 2)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert out == [(i, CALLER) for i in range(4)]
    assert _no_child_left()


def test_a_worker_count_below_one_is_an_error():
    # so is any count that is not an int, a bool included
    for workers in (0, -1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="workers"):
            split_call(_pids, (), 2, workers)


def test_errors_that_cannot_be_rebuilt_and_silent_exits_are_reported():
    with pytest.raises(RuntimeError, match="^_NotRebuilt: 1 and 2$"):
        split_call(_fail_in_a_worker, ("not rebuilt",), 2, 2)
    with pytest.raises(RuntimeError, match="ended with status 768 and no result"):
        split_call(_fail_in_a_worker, ("exit",), 2, 2)
    assert _no_child_left()


def test_a_result_marshal_cannot_write_is_an_error_in_the_caller():
    with pytest.raises(ValueError, match="unmarshallable"):
        split_call(_fail_in_a_worker, ("unwritable",), 2, 2)
    assert _no_child_left()


def test_a_worker_error_ends_the_workers_and_the_next_call_forks_fresh_ones():
    pids = {pid for _, pid in split_call(_pids, (), 2, 2)} - {CALLER}
    with pytest.raises(ValueError, match="^slice 1-2 failed$"):
        split_call(_fail_in_a_worker, ("value",), 2, 2)
    assert all(_gone(pid) for pid in pids)
    assert split_call(_pids, (), 2, 2)[0] == (0, CALLER)
    assert split_call(_rows, (), 9, 2) == _rows(0, 9)
    assert _no_child_left()


def test_a_caller_error_ends_the_workers_and_the_next_call_forks_fresh_ones():
    pids = {pid for _, pid in split_call(_pids, (), 2, 2)} - {CALLER}
    with pytest.raises(ValueError, match="^the caller's slice failed$"):
        split_call(_fail_in_the_caller, (), 2, 2)
    assert all(_gone(pid) for pid in pids)
    assert split_call(_rows, (), 9, 3) == _rows(0, 9)
    assert _no_child_left()


# A fresh interpreter runs a parallel sweep point and exits without closing
# anything: its exit handler ends and reaps the workers, and without that
# handler they read the end of their request pipes and exit.
EXIT_PROBE = """
import os, sys
from sinksim import forkmap
from sinksim.scenario import grid_point
grid_point("edge", 4, 60, 1, workers=3)
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
