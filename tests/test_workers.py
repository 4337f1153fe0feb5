import itertools
import multiprocessing
import os
import signal
from contextlib import closing

import pytest

from scootpriv import workers
from scootpriv.workers import WorkerDied, ordered_map, worker_count


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _square_and_pid(x):
    return x * x, os.getpid()


def _fail_at_five(x):
    if x == 5:
        raise KeyError(f"task {x}")
    return x


class LocalError(Exception):
    def __init__(self, a, b):  # unpickling calls it with one argument
        super().__init__(f"{a} and {b}")


def _die_at_three(x):
    if x == 3:
        os._exit(7)  # as a worker the kernel kills would
    return x


class TestOrderedMap:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_results_in_task_order_from_n_workers(self, n):
        got = list(ordered_map(_square_and_pid, list(range(20)), n))
        assert [square for square, _ in got] == [x * x for x in range(20)]
        pids = {pid for _, pid in got}
        assert os.getpid() not in pids and len(pids) == min(n, 20)

    def test_no_workers_runs_in_process(self):
        got = list(ordered_map(_square_and_pid, [1, 2, 3], 0))
        assert got == [(1, os.getpid()), (4, os.getpid()), (9, os.getpid())]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n", [0, 2])
    def test_exception_raised_with_its_type_and_message_after_earlier_results(self, n):
        got = []
        with pytest.raises(KeyError, match="'task 5'"):
            for x in ordered_map(_fail_at_five, list(range(10)), n):
                got.append(x)
        assert got == [0, 1, 2, 3, 4]

    def test_exception_that_cannot_travel_keeps_its_type_name_and_message(self):
        def fail(x):
            raise LocalError(x, "b")

        with pytest.raises(RuntimeError, match="^LocalError: 0 and b$"):
            list(ordered_map(fail, [0, 1], 2))

    def test_dead_worker_is_one_error_naming_its_exit_code(self):
        got = []
        with pytest.raises(WorkerDied, match="^worker died: exit code 7$"):
            for x in ordered_map(_die_at_three, list(range(8)), 2):
                got.append(x)
        assert got == [0, 1, 2]

    def test_workers_ignore_ctrl_c(self):
        # the caller handles Ctrl-C, whatever the process running the tests inherited
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            got = list(ordered_map(lambda x: signal.getsignal(signal.SIGINT), [0, 1], 2))
            assert got == [signal.SIG_IGN] * 2
            assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_nothing_forked_before_the_first_result(self):
        stream = ordered_map(_square_and_pid, [1, 2], 2)
        assert multiprocessing.active_children() == []
        stream.close()

    def test_closed_early_leaves_no_worker(self):
        # results larger than a pipe holds, so that both workers are still running
        with closing(ordered_map(lambda x: (x, bytes(1 << 17)), list(range(100)), 2)) as stream:
            assert [x for x, _ in itertools.islice(stream, 3)] == [0, 1, 2]
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []

    def test_raised_leaves_no_worker(self):
        with pytest.raises(KeyError):
            list(ordered_map(_fail_at_five, list(range(100)), 3))
        assert multiprocessing.active_children() == []


class TestWorkerCount:
    def test_cpus_tasks_and_the_cap_bound_it(self, two_cpus, monkeypatch):
        assert worker_count(10, 10, 100) == 2
        assert worker_count(10, 0, 100) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert worker_count(10, 10, 100) == workers.MAX_WORKERS
        assert worker_count(10, 10, 3) == 3

    def test_zero_below_the_floor(self, two_cpus):
        assert worker_count(9, 10, 100) == 0

    def test_zero_on_one_cpu(self, two_cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert worker_count(10, 10, 100) == 0

    def test_zero_for_a_single_task(self, two_cpus):
        assert worker_count(10, 10, 1) == 0
        assert worker_count(10, 10, 0) == 0

    def test_zero_without_fork(self, two_cpus, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert worker_count(10, 10, 100) == 0

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert worker_count(1, 1, 100) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(1, 1, 100) == 0
