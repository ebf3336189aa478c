"""The forward's two compute lanes: bit-identical outputs with one lane or
two, errors and errstate that cross the fork as they would without it, the
OpenBLAS thread count restored after every forward, a bounded thread
count, concurrent forwards that each give their serial output, and
evaluate's two forwards forked per pack from their floor."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from mquant import lanes, model, pipeline
from mquant.model import ToyMllmConfig, build_toy_mllm, model_forward
from mquant.numerics import check_finite
from mquant.pipeline import (
    PACK_ROWS,
    PipelineConfig,
    QuantizedModel,
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


# 16 samples of 16, 32 and 64 rows in turn: a 576-row pack
MIXED = [
    generate_synthetic_samples(1, (16, 32, 64)[i % 3], seed=700 + i)[0] for i in range(16)
]


@pytest.fixture(scope="module")
def qm():
    pcfg = PipelineConfig(model=ToyMllmConfig())
    return mquant_quantize(build_toy_mllm(pcfg.model), pcfg, samples=DESK)


@pytest.fixture(scope="module")
def variants(qm, row_order):
    """The default quantized model (W8) run visual-first, and a W4 one
    made and run in natural order, each with its order."""
    pcfg = PipelineConfig(model=ToyMllmConfig(), bits_w=4)
    with row_order("natural"):
        w4 = mquant_quantize(build_toy_mllm(pcfg.model), pcfg, samples=DESK)
    return [(qm, "visual_first"), (w4, "natural")]


@pytest.fixture
def floors_zero(monkeypatch):
    """Every kernel runs on two lanes, whatever its size."""
    monkeypatch.setattr(lanes, "FLOORS", dict.fromkeys(lanes.FLOORS, 0))


# Lengths on each side of the row halves' split points and floors
SPLIT_LENGTHS = (1, 40, 63, 64, 65, 255, 256, 257, 300, 511, 513, 1024)


def digest(qm, variants, row_order) -> str:
    """sha256 over static and dynamic evaluate reports on the desk batch
    and a mixed pack, quantized forwards and their scale ops at
    SPLIT_LENGTHS and of a 3x300 pack for each variant, a float forward
    at L = 1024 and the qmodel JSON."""
    h = hashlib.sha256()
    for batch in (DESK, PACK):
        for dynamic in (False, True):
            report = evaluate(qm, batch, dynamic=dynamic)
            h.update(json.dumps(report, sort_keys=True).encode())
    pack = generate_synthetic_samples(3, 300, seed=301)
    pack_rows = np.concatenate([rows for rows, _ in pack])
    pack_tags = np.concatenate([layout.modality for _, layout in pack])
    for variant, order in variants:
        with row_order(order):
            for length in SPLIT_LENGTHS:
                rows, layout = generate_synthetic_samples(1, length, seed=length)[0]
                for dynamic in (False, True):
                    h.update(variant.forward(rows, layout.modality, dynamic=dynamic).tobytes())
                    h.update(str(variant.counter.scale_ops).encode())
            for dynamic in (False, True):
                out = variant.forward(pack_rows, pack_tags, dynamic=dynamic, lengths=[300] * 3)
                h.update(out.tobytes())
                h.update(str(variant.counter.scale_ops).encode())
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
def test_digest_is_the_same_on_one_lane_and_two(
    qm, variants, row_order, monkeypatch, request, floors
):
    """At the measured floors only the long forwards and evaluate's
    408-row pack fork; at zero floors every kernel and every pack does,
    down to one-row attention groups, and every block of 128 rows or more
    runs as two row halves."""
    if floors == "zero":
        request.getfixturevalue("floors_zero")
    monkeypatch.setattr(lanes, "LANES", 1)
    one = digest(qm, variants, row_order)
    forks, splits = [], set()
    fork, halves = lanes.fork, lanes.halves

    def counted(a, b):
        forks.append(1)
        return fork(a, b)

    def recorded(rows):
        ranges = halves(rows)
        if len(ranges) == 2:
            splits.add((rows, ranges[0].stop))
        return ranges

    monkeypatch.setattr(lanes, "fork", counted)
    monkeypatch.setattr(lanes, "halves", recorded)
    monkeypatch.setattr(lanes, "LANES", 2)
    assert digest(qm, variants, row_order) == one
    assert forks
    assert all(cut % lanes.ROW_ALIGN == 0 and rows - cut >= lanes.ROW_ALIGN for rows, cut in splits)
    # the 1024-row LLM blocks split at the measured floor, the 65-row ones never
    assert (1024, 512) in splits
    assert not any(rows < 2 * lanes.ROW_ALIGN for rows, _ in splits)


@pytest.mark.parametrize("row", [3, 1000], ids=["first_half", "second_half"])
@pytest.mark.parametrize("kernel, items", [("attention", 16), ("block", 2)], ids=["attention", "block"])
def test_a_nan_row_in_either_half_raises_the_single_lane_error(monkeypatch, kernel, items, row):
    """An item that raises, here on a NaN row of its block, raises the one
    lane's error whichever lane runs it, and the worker is free for the
    next fork.  A block's two row halves run at once, one on each lane:
    each waits for the other to start."""
    x = np.random.default_rng(1).normal(size=(1024, 256))
    x[row, 7] = np.nan
    size = 1024 // items
    both = threading.Barrier(2, timeout=10)
    ran_on = set()

    def run(_, i: int) -> None:
        if kernel == "block" and lanes.LANES > 1:
            both.wait()
            ran_on.add(threading.get_ident())
        check_finite(x[i * size : (i + 1) * size], f"block {i}")

    def call():
        lanes.share(kernel, lanes.FLOORS[kernel], items, run)

    monkeypatch.setattr(lanes, "LANES", 1)
    with pytest.raises(ValueError) as single:
        call()
    monkeypatch.setattr(lanes, "LANES", 2)
    with pytest.raises(ValueError) as two:
        call()
    assert str(two.value) == str(single.value)
    assert "non-finite" in str(single.value)
    assert len(ran_on) == (2 if kernel == "block" else 0)
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


def test_gelu_raises_under_the_callers_errstate_on_two_lanes(qm, monkeypatch):
    """gelu(-inf) is -inf * 0: with the caller's errstate(all="raise") a
    two-lane L=1024 forward raises when the -inf sits in the row half that
    the worker runs, at either end of it.  The forward raises nothing
    else under that errstate; the first block's GELU on the calling thread
    waits for the worker's to start, so the worker takes the other half."""
    monkeypatch.setattr(lanes, "LANES", 2)
    caller = threading.get_ident()
    rows, layout = generate_synthetic_samples(1, 1024, seed=3)[0]
    real = model.gelu
    for row in (0, -1):
        started = threading.Event()
        poisoned = []

        def gelu(u, out=None):
            if threading.get_ident() == caller:
                started.wait(timeout=10)
            elif not poisoned:
                started.set()
                u[row, 5] = -np.inf
                poisoned.append(u.shape[0])
            return real(u, out=out)

        monkeypatch.setattr(model, "gelu", gelu)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="invalid value"):
                model_forward(qm.float_model, rows, layout.modality)
        assert poisoned
        assert worker_is_free()


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
    also at every fork, and gets its count back after.  At L=600 and
    1024 the blocks' row halves and attention fork, and a 16-row forward
    forks nowhere."""
    get, _ = blas_two
    monkeypatch.setattr(lanes, "LANES", 2)
    at_fork = []
    fork = lanes.fork

    def counted(a, b):
        at_fork.append(get())
        return fork(a, b)

    monkeypatch.setattr(lanes, "fork", counted)
    inside = []

    def act_fn(name, x, modality):
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
    lanes.share("block", lanes.FLOORS["block"], 2, lambda _, i: None)
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


# ===== evaluate's two forwards =====


def outer_forks(monkeypatch) -> list:
    """Count the forks made while no other fork runs: evaluate's, not the
    kernel forks inside its forwards, which find the worker taken."""
    outer, active = [], []
    fork = lanes.fork

    def counted(a, b):
        if not active:
            outer.append(1)
        active.append(1)
        try:
            return fork(a, b)
        finally:
            active.pop()

    monkeypatch.setattr(lanes, "fork", counted)
    return outer


@pytest.mark.parametrize("batch, rows, forks", [(MIXED, 576, 1), (DESK, 128, 0)])
def test_at_the_measured_floor_a_576_row_pack_forks_and_the_desk_pack_does_not(
    qm, monkeypatch, batch, rows, forks
):
    assert sum(sample.shape[0] for sample, _ in batch) == rows
    monkeypatch.setattr(lanes, "LANES", 2)
    counted = outer_forks(monkeypatch)
    evaluate(qm, batch)
    assert len(counted) == forks


def test_an_evaluate_of_two_packs_forks_once_per_pack_as_on_one_lane(qm, monkeypatch):
    """1,280 rows make a PACK_ROWS pack and a 256-row one, both at or above
    the floor; the report is the one-lane report, bit for bit."""
    samples = [generate_synthetic_samples(1, 64, seed=900 + i)[0] for i in range(20)]
    assert PACK_ROWS < 20 * 64
    monkeypatch.setattr(lanes, "LANES", 1)
    one = [evaluate(qm, samples, dynamic=dynamic) for dynamic in (False, True)]
    monkeypatch.setattr(lanes, "LANES", 2)
    counted = outer_forks(monkeypatch)
    assert [evaluate(qm, samples, dynamic=dynamic) for dynamic in (False, True)] == one
    assert len(counted) == 4


@pytest.mark.parametrize(
    "failing", [("float", "quantized"), ("quantized",)], ids=["both", "quantized"]
)
def test_a_failing_forward_in_evaluate_raises_the_one_lane_error(qm, monkeypatch, failing):
    """The desk pack's two forwards run at once, the float reference here
    and the quantized forward on the worker, each waiting until the other
    has started.  When both raise, evaluate raises the float reference's
    error, which one lane meets first; when only the quantized forward
    raises, its error surfaces.  Either way the worker is free after, and
    OpenBLAS has its thread count back."""
    model_forward_, forward_ = pipeline.model_forward, QuantizedModel.forward
    started = {"float": threading.Event(), "quantized": threading.Event()}
    ran_on = {}

    def run_as(which: str, other: str, real):
        def run(*args, **kwargs):
            ran_on[which] = threading.get_ident()
            started[which].set()
            if lanes.LANES > 1:
                started[other].wait(timeout=10)
            if which in failing:
                raise ValueError(f"{which} forward failed")
            return real(*args, **kwargs)

        return run

    monkeypatch.setattr(pipeline, "model_forward", run_as("float", "quantized", model_forward_))
    monkeypatch.setattr(QuantizedModel, "forward", run_as("quantized", "float", forward_))
    monkeypatch.setitem(lanes.FLOORS, "evaluate", 0)
    threads = lanes._openblas_threads()
    blas_before = threads[0]() if threads else None
    for lane_count in (1, 2):
        monkeypatch.setattr(lanes, "LANES", lane_count)
        ran_on.clear()
        for event in started.values():
            event.clear()
        with pytest.raises(ValueError, match=f"^{failing[0]} forward failed$"):
            evaluate(qm, DESK)
        assert ran_on["float"] == threading.get_ident()
        if lane_count == 2:
            assert ran_on["quantized"] != ran_on["float"]
    assert worker_is_free()
    if threads:
        assert threads[0]() == blas_before
