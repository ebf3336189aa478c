"""The forward's two compute lanes: bit-identical outputs with one lane or
two, errors and errstate that cross the fork as they would without it, the
OpenBLAS thread count restored after every forward, a bounded thread
count, and concurrent forwards that each give their serial output."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from mquant import lanes
from mquant.hadamard import fht
from mquant.model import ToyMllmConfig, build_toy_mllm, gelu, model_forward
from mquant.numerics import check_finite
from mquant.pipeline import (
    PipelineConfig,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
    qmodel_to_dict,
)

DESK = generate_synthetic_samples(8, 16, seed=123)
PACK = [
    generate_synthetic_samples(1, n, seed=500 + i)[0]
    for i, n in enumerate((16, 32, 64, 100, 130, 1, 65))
]


@pytest.fixture(scope="module")
def qm():
    pcfg = PipelineConfig(model=ToyMllmConfig())
    return mquant_quantize(build_toy_mllm(pcfg.model), pcfg, samples=DESK)


@pytest.fixture
def floors_zero(monkeypatch):
    """Every kernel runs on two lanes, whatever its size."""
    monkeypatch.setattr(lanes, "FLOORS", dict.fromkeys(lanes.FLOORS, 0))


def digest(qm) -> str:
    """sha256 over static and dynamic evaluate reports on the desk batch
    and a mixed pack, quantized forwards and their scale ops at L = 1, 40,
    300 and 1024, a float forward at L = 1024 and the qmodel JSON."""
    h = hashlib.sha256()
    for batch in (DESK, PACK):
        for dynamic in (False, True):
            report = evaluate(qm, batch, dynamic=dynamic)
            h.update(json.dumps(report, sort_keys=True).encode())
    for length in (1, 40, 300, 1024):
        rows, layout = generate_synthetic_samples(1, length, seed=length)[0]
        for dynamic in (False, True):
            h.update(qm.forward(rows, layout.modality, dynamic=dynamic).tobytes())
            h.update(str(qm.counter.scale_ops).encode())
    rows, layout = generate_synthetic_samples(1, 1024, seed=7)[0]
    h.update(model_forward(qm.float_model, rows, layout.modality).tobytes())
    h.update(json.dumps(qmodel_to_dict(qm), sort_keys=True).encode())
    return h.hexdigest()


def worker_is_free() -> bool:
    """A fork runs its second job on the worker, not after the first: the
    first job waits (up to 10 s) for the second to start."""
    started = threading.Event()

    def first():
        started.wait(timeout=10)
        return threading.get_ident()

    def second():
        started.set()
        return threading.get_ident()

    here, there = lanes.fork(first, second)
    return here != there


@pytest.mark.parametrize("floors", ["measured", "zero"])
def test_digest_is_the_same_on_one_lane_and_two(qm, monkeypatch, request, floors):
    """At the measured floors only the long forwards fork; at zero floors
    every kernel does, down to one-row attention groups."""
    if floors == "zero":
        request.getfixturevalue("floors_zero")
    monkeypatch.setattr(lanes, "LANES", 1)
    one = digest(qm)
    forks = []
    fork = lanes.fork

    def counted(a, b):
        forks.append(1)
        return fork(a, b)

    monkeypatch.setattr(lanes, "fork", counted)
    monkeypatch.setattr(lanes, "LANES", 2)
    assert digest(qm) == one
    assert forks


@pytest.mark.parametrize("row", [3, 1000], ids=["first_half", "second_half"])
@pytest.mark.parametrize("kernel", ["attention", "fht"])
def test_a_nan_row_in_either_half_raises_the_single_lane_error(monkeypatch, kernel, row):
    """An item that raises, here on a NaN row of its block, raises the one
    lane's error whichever lane runs it, and the worker is free for the
    next fork."""
    x = np.random.default_rng(1).normal(size=(1024, 256))
    x[row, 7] = np.nan

    def run(_, i: int) -> None:
        check_finite(x[i * 64 : (i + 1) * 64], f"block {i}")

    def call():
        lanes.share(kernel, lanes.FLOORS[kernel], 16, run)

    monkeypatch.setattr(lanes, "LANES", 1)
    with pytest.raises(ValueError) as single:
        call()
    monkeypatch.setattr(lanes, "LANES", 2)
    with pytest.raises(ValueError) as two:
        call()
    assert str(two.value) == str(single.value)
    assert "non-finite" in str(single.value)
    assert worker_is_free()


@pytest.mark.parametrize("lane", ["caller", "worker"])
def test_the_callers_errstate_holds_on_both_lanes(monkeypatch, lane):
    """-inf * 0 is an invalid operation: under the caller's
    errstate(all="raise") it raises on whichever lane computes it.  The
    first job waits for the second to start, so the second runs on the
    worker."""
    monkeypatch.setattr(lanes, "LANES", 2)
    started = threading.Event()
    ran_on = []

    def invalid():
        ran_on.append(threading.get_ident())
        np.multiply(np.full(4, -np.inf), 0.0)

    def first():
        started.wait(timeout=10)
        if lane == "caller":
            invalid()

    def second():
        started.set()
        if lane == "worker":
            invalid()

    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        lanes.fork(first, second)
    assert (ran_on == [threading.get_ident()]) == (lane == "caller")
    assert worker_is_free()


def test_gelu_raises_under_the_callers_errstate_on_two_lanes(monkeypatch):
    """gelu(-inf) is -inf * 0: with the caller's errstate(all="raise") a
    two-lane gelu raises, wherever the element sits."""
    monkeypatch.setattr(lanes, "LANES", 2)
    for row in (3, 1000):
        x = np.ones((1024, 256))
        x[row, 5] = -np.inf
        assert x.size >= lanes.FLOORS["gelu"]
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            gelu(x)


@pytest.fixture
def blas_two():
    """(get, set) of OpenBLAS's thread count, set to 2 for the test and
    restored after it."""
    threads = lanes._openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundle exposes no OpenBLAS thread-count symbol")
    get, put = threads
    original = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield get, put
    finally:
        put(original)


@pytest.mark.parametrize("length", [16, 600, 1024])
def test_forwards_run_with_blas_held_and_restore_it(qm, monkeypatch, blas_two, length):
    """OpenBLAS runs on one thread from a forward's entry to its end, so
    also at every fork, and gets its count back after.  At L=600 only
    attention forks, at 1024 gelu and the FHT do too, and a 16-row
    forward forks nowhere."""
    get, _ = blas_two
    monkeypatch.setattr(lanes, "LANES", 2)
    at_fork = []
    fork = lanes.fork

    def counted(a, b):
        at_fork.append(get())
        return fork(a, b)

    monkeypatch.setattr(lanes, "fork", counted)
    inside = []

    def act_fn(name, x):
        inside.append(get())
        return x

    rows, layout = generate_synthetic_samples(1, length, seed=3)[0]
    for run in (
        lambda: model_forward(qm.float_model, rows, layout.modality, act_fn),
        lambda: qm.forward(rows, layout.modality),
    ):
        at_fork.clear()
        run()
        assert bool(at_fork) == (length > 16)
        assert set(at_fork) <= {1}
        assert get() == 2
    assert set(inside) == {1}


def test_failing_and_nested_forwards_restore_the_blas_thread_count(
    qm, monkeypatch, blas_two
):
    """A forward that raises gives its hold back; a nested hold keeps
    the outer one; a fork outside any forward holds BLAS for itself."""
    get, _ = blas_two
    monkeypatch.setattr(lanes, "LANES", 2)
    rows, layout = generate_synthetic_samples(1, 1024, seed=3)[0]
    bad = rows.copy()
    bad[500] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        qm.forward(bad, layout.modality)
    assert get() == 2
    with pytest.raises(ValueError, match="non-finite"):
        model_forward(qm.float_model, bad, layout.modality)
    assert get() == 2
    with lanes.held():
        qm.forward(rows, layout.modality)
        assert get() == 1
    assert get() == 2
    held = []
    fork = lanes.fork

    def counted(a, b):
        held.append(get())
        return fork(a, b)

    monkeypatch.setattr(lanes, "fork", counted)
    fht(np.ones((1024, 256)), axis=1)
    assert held == [1] and get() == 2


def test_fifty_forwards_add_at_most_one_thread_per_extra_lane(qm, monkeypatch, floors_zero):
    monkeypatch.setattr(lanes, "LANES", 2)
    rows, layout = generate_synthetic_samples(1, 64, seed=5)[0]
    before = threading.active_count()
    for _ in range(50):
        qm.forward(rows, layout.modality)
    assert threading.active_count() <= before + lanes.LANES - 1


def test_concurrent_forwards_each_give_their_serial_output(qm, monkeypatch, floors_zero):
    """Three callers on two lanes, with a short switch interval: every
    forward finishes in time with its one-lane output, and the OpenBLAS
    thread count ends where it started."""
    inputs = [generate_synthetic_samples(1, n, seed=n)[0] for n in (96, 130, 200)]
    monkeypatch.setattr(lanes, "LANES", 1)
    want = [qm.forward(rows, layout.modality) for rows, layout in inputs]
    monkeypatch.setattr(lanes, "LANES", 2)
    threads = lanes._openblas_threads()
    blas_before = threads[0]() if threads else None
    results = [[] for _ in inputs]
    errors = []

    def caller(i):
        rows, layout = inputs[i]
        try:
            for _ in range(6):
                results[i].append(qm.forward(rows, layout.modality))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    workers = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    for got, expect in zip(results, want):
        assert len(got) == 6
        assert all(g.tobytes() == expect.tobytes() for g in got)
    if threads:
        assert threads[0]() == blas_before
