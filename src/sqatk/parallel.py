"""Thread parallelism: the one ordered parallel map that featurize,
predict and the training shards run on, and the thread count of the
OpenBLAS that NumPy's wheels bundle.

Threads run clips at once because NumPy and OpenBLAS release the
interpreter lock while they compute. OpenBLAS at its default count
starts threads of its own inside each call, so `fit` pins it to one
thread while it trains on cores() workers. NumPy's error state does not
carry into a pool thread: each job sets its own np.errstate.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# NumPy's wheels bundle the scipy-openblas64 build beside the package,
# whose thread calls carry the library's symbol suffix.
_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"
_OPENBLAS_GLOB = "libscipy_openblas64_-*.so"


def cores() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """One pool per size for the life of the process, so a training
    step does not start and join threads of its own."""
    return ThreadPoolExecutor(max_workers=threads)


def thread_map(jobs: int, fn, items):
    """fn(item) for each item, yielded in item order. With jobs > 1 and
    more than one item, the calling thread and jobs - 1 pool threads
    take the items one at a time from one shared iterator, so no thread
    waits for another while items remain: the caller takes the next item
    whenever the result it yields next is not ready, and waits only when
    none is left. Under glibc each thread that allocates keeps freed
    memory in a malloc arena of its own, and the caller's share adds
    none. A result is dropped once yielded, so with items of even cost
    about jobs results are held at a time. fn must not call thread_map."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    futures = [Future() for _ in items]
    lock = threading.Lock()
    order = iter(range(len(items)))

    def take() -> bool:
        """Run the next untaken item; False when none is left."""
        with lock:
            i = next(order, None)
        if i is None:
            return False
        try:
            futures[i].set_result(fn(items[i]))
        except BaseException as exc:
            futures[i].set_exception(exc)
        return True

    def drain() -> None:
        while take():
            pass

    helpers = [_pool(jobs - 1).submit(drain) for _ in range(jobs - 1)]
    try:
        for i in range(len(items)):
            while not futures[i].done() and take():
                pass
            result = futures[i].result()
            futures[i] = None
            yield result
    finally:
        with lock:  # after a raise: the helpers stop at their current item
            for _ in order:
                pass
        for helper in helpers:
            if not helper.cancel():
                helper.result()


def _openblas_thread_calls():
    """The (get, set) thread-count calls of NumPy's bundled OpenBLAS, or
    None where NumPy ships no such library."""
    for path in sorted(_NUMPY_LIBS.glob(_OPENBLAS_GLOB)):
        lib = ctypes.CDLL(str(path))
        try:
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS at one thread, and restore the count
    it had on exit, also when the block raises. Yields whether it could:
    where the count cannot be set, it yields False and changes nothing."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)
