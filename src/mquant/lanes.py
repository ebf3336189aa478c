"""Two compute lanes for the forward: the calling thread and one pooled worker.

Most of a long forward is numpy work on one core whose rows are
independent.  Three things fork:

- attention groups: from a size floor of score entries, a block's
  stacked products and exp_rows run as a list of groups that both lanes
  claim one at a time (share), each group writing its own part of one
  output;
- block row halves: from a floor of rows, while the worker is free, a
  block's row-wise work runs as two share items, one per row half (halves):
  the attention prologue (attention norm, q/k/v projections, rotary,
  scale, head-major copies), then, after the groups, the epilogue (head merge and wo) with
  the residual, mlp_norm, w_up, GELU, FHT and w_down;
- evaluate's pair: its packs hold short samples, so there the two jobs
  are whole forwards (pair), the float reference on the calling thread
  and the quantized forward on the worker; every block inside them runs
  whole, and every share inline on its lane, as the worker is taken.

Every element is computed by the same operations as on one lane, so the
outputs are bit-identical.  Rows split only at multiples of 64, and never
into a half of fewer than 64 rows (numpy runs a one-row product as gemv,
with its own rounding): a half's GEMMs then give the bits of the whole
block's, which the tests check at lengths on each side of every split
point.

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
# group areas) for attention, rows for a block's row halves, pack rows for
# evaluate's two forwards.  Below a floor the fork's wake-ups and the two
# lanes' queueing for the interpreter lock cost more than the second lane
# saves.  Timed alone, forked against inline (2 vCPUs, medians of 200-300
# interleaved calls, in several runs as the host's load moved them):
# attention over 2^17 score entries took 1.01x, 2^18 (a 256-row vision
# block) 0.88x and 2^19 0.75x; a block as two row halves took 1.02-1.29x at
# 192 rows, 0.84-0.97x at 256 rows for a vision block (0.87-1.23x for a
# causal LLM one) and 0.74-0.80x at 512.  evaluate's floor is in pack
# rows.  On packs of 16/32/64-row samples a forked evaluate took
# 1.48x its serial time at 48 rows, 1.07x at 112, 0.97x at 128, 0.86x at
# 160 (1.12x in a second run), 0.80x at 224 and 0.77x at 576 (2 vCPUs,
# medians of 40-80 calls): short forwards are mostly Python between
# numpy calls, and the two lanes queue for the interpreter lock.  192
# keeps the 128-row desk pack serial, where the second forward's
# working set would cost more memory than its time saves.
FLOORS = {"attention": 1 << 18, "block": 256, "evaluate": 192}

# Row halves split at a multiple of this many rows.
ROW_ALIGN = 64

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
    itself, in its own thread's memory.
    """
    if LANES < 2 or n < 2 or size < FLOORS[kernel]:
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


def halves(rows: int) -> list[slice]:
    """The row ranges a block's row-wise work runs in, as share items.

    From FLOORS["block"] rows, with two lanes and while the worker is
    free, two halves split at the multiple of ROW_ALIGN nearest rows / 2,
    each of at least ROW_ALIGN rows; otherwise all rows at once.  Inside
    evaluate's pair the worker is taken, so its forwards run whole blocks.
    """
    if LANES < 2 or rows < max(FLOORS["block"], 2 * ROW_ALIGN) or not _worker_free():
        return [slice(0, rows)]
    cut = ROW_ALIGN * ((rows + ROW_ALIGN) // (2 * ROW_ALIGN))
    return [slice(0, cut), slice(cut, rows)]


def _worker_free() -> bool:
    if not _free.acquire(blocking=False):
        return False
    _free.release()
    return True


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


def blas_hold_found() -> bool:
    """Whether held() found the thread-count symbol of numpy's OpenBLAS."""
    return _openblas_threads() is not None


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
