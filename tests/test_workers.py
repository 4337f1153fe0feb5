import multiprocessing
import os
import signal

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
        got = ordered_map(_square_and_pid, list(range(20)), n)
        assert [square for square, _ in got] == [x * x for x in range(20)]
        pids = {pid for _, pid in got}
        assert os.getpid() not in pids and len(pids) == min(n, 20)

    def test_no_workers_runs_in_process(self):
        got = ordered_map(_square_and_pid, [1, 2, 3], 0)
        assert got == [(1, os.getpid()), (4, os.getpid()), (9, os.getpid())]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n", [0, 2])
    def test_exception_raised_with_its_type_and_message(self, n):
        with pytest.raises(KeyError, match="'task 5'"):
            ordered_map(_fail_at_five, list(range(10)), n)

    def test_exception_that_cannot_travel_keeps_its_type_name_and_message(self):
        def fail(x):
            raise LocalError(x, "b")

        with pytest.raises(RuntimeError, match="^LocalError: 0 and b$"):
            ordered_map(fail, [0, 1], 2)

    def test_dead_worker_is_one_error_naming_its_exit_code(self):
        with pytest.raises(WorkerDied, match="^worker died: exit code 7$"):
            ordered_map(_die_at_three, list(range(8)), 2)
        assert multiprocessing.active_children() == []

    def test_workers_ignore_ctrl_c(self):
        # the caller handles Ctrl-C, whatever the process running the tests inherited
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            got = ordered_map(lambda x: signal.getsignal(signal.SIGINT), [0, 1], 2)
            assert got == [signal.SIG_IGN] * 2
            assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        finally:
            signal.signal(signal.SIGINT, previous)

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_returns_a_list_with_no_worker_left(self, n):
        # results larger than a pipe holds, so that workers block on their pipes
        got = ordered_map(lambda x: (x, bytes(1 << 17)), list(range(10)), n)
        assert type(got) is list and [x for x, _ in got] == list(range(10))
        assert multiprocessing.active_children() == []

    def test_raised_leaves_no_worker(self):
        with pytest.raises(KeyError):
            ordered_map(_fail_at_five, list(range(100)), 3)
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
