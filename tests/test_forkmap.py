import os
import threading

import pytest

from sinksim.forkmap import MIN_SLICE, default_workers, split_map


def _no_child_left():
    # Every worker was reaped: this process has no child at all.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_the_first_slice_runs_here_and_the_rest_in_children():
    out = split_map(lambda x: (x, os.getpid()), range(8), 3)
    assert [x for x, _ in out] == list(range(8))
    pids = [pid for _, pid in out]
    assert pids[:2] == [os.getpid()] * 2  # slices 0-1, 2-4 and 5-7
    assert len(set(pids[2:5])) == len(set(pids[5:])) == 1
    assert len(set(pids)) == 3
    assert _no_child_left()


@pytest.mark.parametrize("items", [0, 1, 2, 5, 7, 300])
@pytest.mark.parametrize("workers", [1, 2, 3, 4, None])
def test_the_result_is_the_serial_map(items, workers):
    values = [(i, i * i, None if i % 3 else -i, f"x{i}", 0.1 * i) for i in range(items)]
    assert split_map(lambda v: v[1:], values, workers) == [v[1:] for v in values]
    assert _no_child_left()


def test_the_default_count_keeps_every_slice_at_the_minimum():
    cpus = len(os.sched_getaffinity(0))
    assert default_workers(0) == default_workers(MIN_SLICE - 1) == 1
    assert default_workers(2 * MIN_SLICE) == min(cpus, 2)
    assert default_workers(1000 * MIN_SLICE) == cpus


def test_it_runs_serially_while_other_threads_run():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        out = split_map(lambda x: os.getpid(), range(4), 2)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert out == [os.getpid()] * 4


def test_a_worker_count_below_one_is_an_error():
    with pytest.raises(ValueError, match="workers"):
        split_map(abs, [1, 2], 0)


class _NotRebuilt(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _fail_in_the_second_slice(x):
    if x > 0:
        raise _NotRebuilt(1, 2)
    return x


def test_errors_that_cannot_be_rebuilt_and_silent_exits_are_reported():
    with pytest.raises(RuntimeError, match="^_NotRebuilt: 1 and 2$"):
        split_map(_fail_in_the_second_slice, [0, 1], 2)
    with pytest.raises(RuntimeError, match="no result"):
        split_map(lambda x: os._exit(3) if x else x, [0, 1], 2)
    assert _no_child_left()


def test_a_result_marshal_cannot_write_is_an_error_in_the_caller():
    with pytest.raises(ValueError, match="unmarshallable"):
        split_map(lambda x: object() if x else x, [0, 1], 2)
    assert _no_child_left()
