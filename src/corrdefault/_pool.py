"""Forked worker pools over the CPUs this process may use: the lattice writers' and the search restarts'.

A pool forks at most one worker per usable CPU, and none when there is one
job or one CPU.  The workers start without an import, and each sets every
loaded OpenBLAS to one thread: a forked worker keeps its parent's count, and
each worker's BLAS threads would contend with the other workers for the
same CPUs.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

# The thread-count setters of scipy's OpenBLAS, of numpy's 64-bit-integer one and of a plain OpenBLAS.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_", "openblas_set_num_threads")

_task = None  # what a worker applies to its jobs; set by _start_worker, in the worker only


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def loaded_openblas():
    """ctypes handles of the OpenBLAS libraries mapped into this process; none where /proc/self/maps is missing."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5].strip())}
    return [ctypes.CDLL(path) for path in sorted(paths)]


def _start_worker(task):
    global _task
    _task = task
    for library in loaded_openblas():
        for name in _BLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _run(job):
    return _task(job)


@contextmanager
def cpu_map(task, jobs, fork: bool = True):
    """Yield an iterator of task(job) over jobs, in job order: from forked workers, or computed here as it is read.

    It forks min(usable CPUs, jobs) workers if that is at least 2, fork is
    true and the platform can fork; they all start on entry, and the task
    reaches them by the fork, so it need not pickle (the jobs and results
    do).  A worker's exception, or its death (BrokenProcessPool), raises
    where its result is read.  On exit the workers are joined, and after a
    failure no waiting job starts.
    """
    jobs = list(jobs)
    workers = min(usable_cpus(), len(jobs))
    if workers < 2 or not fork or "fork" not in multiprocessing.get_all_start_methods():
        yield map(task, jobs)
        return
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker, initargs=(task,))
    try:
        yield pool.map(_run, jobs)  # forks the workers
    finally:
        pool.shutdown(cancel_futures=True)
