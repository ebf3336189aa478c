"""Two compute lanes for the forward: the calling thread and one pooled worker.

Most of a long forward is elementwise numpy work on one core: attention's
stacked products and exp_rows, gelu and the online FHT.  Each of them is
independent row by row, so from a size floor up it runs as a list of items
(attention groups, gelu chunks, FHT blocks) that both lanes claim one at a
time, each item writing its own part of one output.  Every element is
computed by the same operations as on one lane, so the outputs are
bit-identical; no GEMM is split by rows, as the row count of a product can
change BLAS's rounding.

evaluate's packs are too short for any kernel floor, so there the two
jobs are whole forwards (pair): a pack's float reference runs on the
calling thread while its quantized forward runs on the worker, and every
kernel inside them runs inline on its lane, as the worker is taken.

With two lanes, a forward runs with numpy's OpenBLAS held to one thread,
from its entry to its end, and so does a fork made outside a forward.
Left at two, BLAS's second thread spins on the second core between the
forward's small GEMMs: the process burns about two CPU-seconds per
wall-second for the speed of one, and the lanes' worker would share that
core with it.
Holding BLAS is what lets the worker run.  The hold starts at the
forward's entry: taken only at its first fork, after its first GEMMs ran
on two threads, it left an L=1024 forward about a tenth of the lanes'
gain (prefill_long -2 % against -19 %).

The lane count comes from the CPUs this process may run on, or from the
machine's CPU count where the OS does not say.  The worker pool, and its
concurrent.futures import (which loads logging), wait for the first fork,
so importing mquant starts no thread.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import glob
import os
import threading

import numpy as np

# The calling thread, plus one worker when a second CPU is there; without
# sched_getaffinity (macOS, Windows), by the CPU count, which may be None.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
LANES = 2 if (_CPUS or 1) > 1 else 1

# The work from which each kernel forks: score entries (heads x summed
# group areas) for attention, elements for gelu and the FHT, pack rows for
# evaluate's two forwards.  Each kernel floor sits above the size where
# its two lanes first win when timed alone (about 2^16 elements for gelu
# and the FHT, 2^18 score entries for attention): whichever lane finishes
# first waits for the item the other holds, and on a shared VM that lane
# can lose its CPU for milliseconds, which below the floors cost evaluate's
# ≈600-row packs more than the second lane saved.  evaluate's floor is
# in pack rows.  On packs of 16/32/64-row samples a forked evaluate took
# 1.48x its serial time at 48 rows, 1.07x at 112, 0.97x at 128, 0.86x at
# 160 (1.12x in a second run), 0.80x at 224 and 0.77x at 576 (2 vCPUs,
# medians of 40-80 calls): short forwards are mostly Python between
# numpy calls, and the two lanes queue for the interpreter lock.  192
# keeps the 128-row desk pack serial, where the second forward's
# working set would cost more memory than its time saves.
FLOORS = {"attention": 1 << 19, "gelu": 1 << 18, "fht": 1 << 18, "evaluate": 192}

# The worker takes one job at a time; a fork that finds it busy (a second
# caller's, or one made inside a job) runs both of its jobs itself.
_free = threading.BoundedSemaphore(1)
_pool_lock = threading.Lock()
_pool = None


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mquant-lane")
        return _pool


def fork(a, b):
    """Return (a(), b()), with b on the worker if it is free.

    a runs on the calling thread.  b runs in a copy of the caller's context,
    so numpy's errstate holds in it.  The call returns only after both have
    finished, also when one raises; a's exception wins over b's.
    """
    if LANES < 2 or not _free.acquire(blocking=False):
        return a(), b()
    try:
        future = _executor().submit(contextvars.copy_context().run, b)
        try:
            ra = a()
        except BaseException:
            future.exception()  # b may still write into the caller's arrays
            raise
        return ra, future.result()
    finally:
        _free.release()


def share(kernel: str, size: int, n: int, run, scratch=tuple) -> None:
    """run(s, i) for every i in range(n), s being the scratch of the lane
    that runs it.

    Below the kernel's floor of work (size), or with one lane, this is a
    loop here, in order.  Otherwise, with BLAS held, lane 0 runs here and
    lane 1 on the worker, and each claims the next i when it comes free,
    so a lane whose CPU is taken elsewhere, or which drew the larger
    items, leaves more to the other.  Each lane makes its scratch()
    itself: scratch made on the calling thread and written on the worker
    left gelu no faster on two lanes than on one.
    """
    if LANES < 2 or size < FLOORS[kernel]:
        s = scratch()
        for i in range(n):
            run(s, i)
        return
    lock = threading.Lock()
    claimed = [0]

    def claim() -> int:
        with lock:
            i = claimed[0]
            claimed[0] += 1
        return i

    def lane() -> None:
        s = scratch()
        i = claim()
        while i < n:
            run(s, i)
            i = claim()

    with held():
        fork(lane, lane)


def pair(kernel: str, size: int, a, b):
    """(a(), b()): from the kernel's floor of work (size), a fork with BLAS
    held, a on the calling thread and b on the worker if it is free;
    below the floor, a then b here.  As in fork, a's exception wins.

    Each job keeps its lane from one call to the next, so each thread's
    allocator keeps the working set of one job: with the two jobs claimed
    as share claims items, each lane ran either, and eval_mixed's peak RSS
    rose 9.5 % over one lane, against 2-3 % with a fixed assignment.
    """
    if size < FLOORS[kernel]:
        return a(), b()
    with held():
        return fork(a, b)


# ===== BLAS hold =====


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# The thread count is the process's, so the hold is too: the blocks
# holding it now, in any thread, and the count found by the first of them.
_hold_lock = threading.Lock()
_holders = 0
_saved = None


@contextlib.contextmanager
def held():
    """OpenBLAS held to one thread for the block, with two lanes.  Blocks
    nest and may run in several threads at once; the last to leave
    restores the count the first one found, also when the block raises.
    Without an OpenBLAS symbol nothing is held."""
    global _holders, _saved
    threads = _openblas_threads() if LANES > 1 else None
    if threads is None:
        yield
        return
    with _hold_lock:
        if _holders == 0:
            _saved = threads[0]()
            threads[1](1)
        _holders += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holders -= 1
            if _holders == 0:
                threads[1](_saved)
