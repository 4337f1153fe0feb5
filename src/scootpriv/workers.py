"""Forked worker processes that map a function over tasks, in task order.

The package's one implementation of process parallelism: evaluate
(utility_eval.neighborhood_loss_experiment) runs its R grid with it.
Workers are forked, so a task function is never pickled and
sees the caller's state as it was at the fork; only results and
exceptions travel back, pickled, through one pipe per worker.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Sequence

# every worker of a sweep holds one R's arrays, so the memory a sweep
# holds across processes grows with the number of workers
MAX_WORKERS = 4


class WorkerDied(ChildProcessError):
    """A worker exited before it sent the result of a task it ran."""


def worker_count(work: float, floor: float, tasks: int) -> int:
    """Workers to run tasks worth work on: min(CPUs available, tasks,
    MAX_WORKERS), or 0, for a run in-process, with less work than floor
    (below which starting workers costs more than they save), where fewer
    than two would run, or where worker processes cannot be forked."""
    if work < floor:
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(cpus or 1, tasks, MAX_WORKERS)
    if n < 2:
        return 0
    import multiprocessing  # only a run that may fork pays for the import

    return n if "fork" in multiprocessing.get_all_start_methods() else 0


def _portable(exc: Exception) -> Exception:
    """exc, if it survives pickling, else a RuntimeError that carries its
    type's name and its message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _work(fn: Callable, tasks: Sequence, conn) -> None:
    """A worker: sends (True, fn(task)) down conn for each task in turn,
    or (False, exception) for the first task that raises, and stops.
    Ctrl-C interrupts the caller alone, which kills its workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for task in tasks:
        try:
            conn.send((True, fn(task)))  # pickled before a byte is sent
        except Exception as exc:
            conn.send((False, _portable(exc)))
            return


def ordered_map(fn: Callable, tasks: Sequence, n: int) -> list:
    """[fn(task) for task in tasks], computed in n forked workers, or
    in-process if n is 0.

    Worker w runs tasks w, w+n, ... and sends each result down its own
    one-way pipe, where a full pipe blocks it; task i's result is
    received from pipe i % n. An exception fn raises is raised here, with
    its type and message (see _portable); a worker that dies instead
    raises WorkerDied, naming its exit code. Every worker is killed and
    joined, and every pipe closed, before this returns or raises.
    """
    if not n:
        return [fn(task) for task in tasks]
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    pipes, workers, results = [], [], []
    try:
        for w in range(n):
            recv, send = fork.Pipe(duplex=False)
            pipes.append(recv)
            worker = fork.Process(target=_work, args=(fn, tasks[w::n], send), daemon=True)
            worker.start()
            workers.append(worker)
            send.close()  # the worker's copy is the last: its exit ends the pipe
        for i in range(len(tasks)):
            try:
                ok, value = pipes[i % n].recv()
            except EOFError:
                workers[i % n].join()
                raise WorkerDied(f"worker died: exit code {workers[i % n].exitcode}") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for worker in workers:
            worker.kill()
            worker.join()
        for conn in pipes:
            conn.close()
