"""An in-order parallel map over independent items, on every usable core.

``map(fn, items)`` returns ``[fn(item) for item in items]``. Inside a
region (one map call that is not nested) the items go to a thread pool
with one thread per usable core (``len(os.sched_getaffinity(0))``), kept
for the life of the process, and the calling thread waits for them. Each
result is read back at its item's index, so the list comes back in item
order however the items were shared out.

Rules of a region:
- OpenBLAS runs one thread inside it. Its ``*_set_num_threads*`` entry
  point is found among the loaded libraries, and the old count is restored
  on the way out, failure or not, once no item is running. One BLAS thread
  per worker keeps the cores busy with independent items, where a second
  BLAS thread would spin on the other core after every GEMM.
- Each item runs whole on one thread, in the order of its own statements,
  and its GEMMs run at one BLAS thread whatever the worker count (a
  threaded GEMM may sum in another order). So an item's result does not
  depend on the core count, and a caller that reduces the results in item
  order gets the same bytes on one core or many.
- If items fail, the failure of the lowest-index one is raised: the one a
  serial loop would raise. Every item below it has run by then, and the
  items not yet started are dropped.
- The items run serially on the calling thread when there is one usable
  core or one item (still at one BLAS thread), and when no OpenBLAS handle
  is found (BLAS left as it is). A nested call, made from inside an item,
  runs inline, as does a call made while another thread's region runs.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import os
import threading

_REGION = threading.Lock()  # held while a parallel region runs
_last = None                # (workers, pinned) of the latest region since reset_region()


class _Blas:
    """The loaded OpenBLAS's thread count, read and set through ctypes."""

    def __init__(self, get, set_):
        get.restype = ctypes.c_int
        get.argtypes = []
        set_.restype = None
        set_.argtypes = [ctypes.c_int]
        self.get, self.set = get, set_


@functools.cache
def _openblas():
    """The OpenBLAS handle of this process, or None if none is loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return _Blas(get, set_)
    return None


@functools.cache
def _pool(workers: int):
    return concurrent.futures.ThreadPoolExecutor(workers, thread_name_prefix="odlc-parallel")


def reset_region():
    """Forget the latest region, so last_region() speaks for what runs next."""
    global _last
    _last = None


def last_region() -> str:
    """What the latest region since reset_region() used, for run manifests:
    "workers=N blas=openblas-pinned|not-pinned", or "unused"."""
    if _last is None:
        return "unused"
    workers, pinned = _last
    return f"workers={workers} blas={'openblas-pinned' if pinned else 'not-pinned'}"


def _in_pool(fn, items, cores: int) -> list:
    futures = [_pool(cores).submit(fn, item) for item in items]
    try:
        return [f.result() for f in futures]  # raises the lowest-index failure
    finally:
        for f in futures:  # after a failure, drop the items not yet started
            f.cancel()
        concurrent.futures.wait(futures)


def map(fn, items) -> list:
    """[fn(item) for item in items], run on every usable core; see the
    module docstring for the rules."""
    global _last
    items = list(items)
    if not _REGION.acquire(blocking=False):  # nested, or another thread's region runs
        return [fn(item) for item in items]
    try:
        blas = _openblas()
        if blas is None:
            _last = (1, False)
            return [fn(item) for item in items]
        cores = len(os.sched_getaffinity(0))
        workers = max(1, min(cores, len(items)))
        _last = (workers, True)
        old = blas.get()
        blas.set(1)
        try:
            return _in_pool(fn, items, cores) if workers > 1 else [fn(item) for item in items]
        finally:
            blas.set(old)
    finally:
        _REGION.release()
