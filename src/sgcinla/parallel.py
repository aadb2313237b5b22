"""Independent tasks on the cores the BLAS leaves idle.

One rule picks the worker count and one map runs the tasks, serially or on
a ``fork`` process pool; :func:`blas_threads` reads the BLAS thread count
that the rule, and the Gaussian draws' block size, follow.  The fit's (grid point, component) refinements
and the sampler's per-configuration draws go through :func:`map_tasks`.  Forked children inherit
the caller's state and BLAS thread count, so each task computes what it
would compute in the caller, bit for bit.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

# Variables from which OpenBLAS, OpenMP and MKL take their thread count at load.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_count(tasks: int) -> int:
    """Processes to run ``tasks`` tasks on; 1 runs them in this process.

    The count is min(tasks, cpus // blas_threads), so tasks use only the
    cores the BLAS leaves idle; blas_threads is the largest positive count
    among the thread variables, or every core when none is set.  It is 1
    without ``fork``, in a daemonic process (which may not have children),
    and while another Python thread is alive, which a forked child could
    inherit mid-way through a lock.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if threading.active_count() > 1 or multiprocessing.current_process().daemon:
        return 1
    return max(1, min(tasks, _cpus() // blas_threads()))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def blas_threads() -> int:
    """The BLAS's thread count: the largest positive count among the thread
    variables, or every core when none is set."""
    counts = [int(v) for v in map(os.environ.get, _BLAS_THREAD_VARS) if v and v.isdigit()]
    return max((c for c in counts if c > 0), default=_cpus())


# The task function of the running pool, set in the caller just before the
# fork so that the children inherit it, and cleared as soon as the map ends.
# It never enters the pool's own state, so the pool pins nothing it closes over.
_task_fn = None


def _run_task(task):
    return _task_fn(task)


def map_tasks(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, serially or on a fork pool, in task order.

    ``fn`` itself is never pickled, so it may be a closure; only the tasks
    and the results cross the pipe.  Results come back in task order,
    whichever child ran them, and an exception raised in a child reaches the
    caller with its own type.
    """
    global _task_fn
    workers = worker_count(len(tasks))
    if workers == 1:
        return list(map(fn, tasks))
    _task_fn = fn
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(_run_task, tasks, chunksize=1)
    finally:
        _task_fn = None
