import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant.hadamard import fht, walsh_hadamard
from mquant.numerics import matmul
from mquant.quantizer import Granularity, compute_params_absmax, fake_quant
from mquant.rms import (
    build_split_plan,
    compliance_ratio,
    detect_outliers,
    rms_forward,
)


def float_split_forward(x, plan, w_rot):
    """The split path with float weights: x @ main + x[:, 0] (x) split_row,
    main being the w_rot the plan was built from, with row 0 zeroed when
    the plan triggered."""
    main = w_rot.copy()
    if plan.triggered:
        main[0] = 0.0
    out = x @ main
    if plan.triggered:
        out = out + x[:, :1] * plan.split_row[None, :]
    return out


def brute_force_outliers(w):
    """Oracle: rotate densely, flag columns where the first-row entry
    strictly exceeds the original column maximum."""
    n = w.shape[0]
    rotated = matmul(walsh_hadamard(n), w)
    cols = []
    for j in range(w.shape[1]):
        if rotated[0, j] > w[:, j].max():
            cols.append(j)
    return cols


def biased_matrix(seed, n=64, d=8, bias=0.03):
    """Random weight with planted positive column means, post output-rotation
    shape: the construction every triggered-layer test uses."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 0.02, (n, d))
    w[:, : d // 2] += bias  # first half of the columns trigger
    return w


def test_detect_all_ones():
    w = np.ones((4, 2))
    assert detect_outliers(w) == [0, 1]  # sqrt(4)*1 = 2 > 1


def test_detect_negative_means_never_trigger():
    w = -np.ones((16, 3))
    assert detect_outliers(w) == []


def test_detect_zero_matrix():
    assert detect_outliers(np.zeros((8, 4))) == []


def test_detect_single_planted_column():
    rng = np.random.default_rng(0)
    w = rng.normal(0, 0.1, (64, 6))
    w = w - w.mean(axis=0, keepdims=True)  # exact zero means, no triggers
    assert detect_outliers(w) == []
    w[:, 3] += 1.0
    assert detect_outliers(w) == [3]


def test_detect_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.choice([4, 16, 64]))
        d = int(rng.integers(1, 8))
        w = rng.normal(0, 1.0, (n, d)) + rng.normal(0, 0.3, (1, d))
        got = detect_outliers(w)
        want = brute_force_outliers(w)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_plan_all_ones_example():
    w = np.ones((4, 2))
    w_rot = fht(w, axis=0)
    plan = build_split_plan("t.0", w_rot, w, bits=8)
    assert plan.triggered and plan.columns == [0, 1]
    np.testing.assert_allclose(plan.split_row, [2.0, 2.0])
    np.testing.assert_allclose(plan.main_q, 0.0, atol=1e-12)


def test_plan_restores_exact_weight():
    w = biased_matrix(2)
    w_rot = fht(w, axis=0)
    plan = build_split_plan("t.1", w_rot, w, bits=8)
    assert plan.triggered
    # row 0 moves to the split row whole; test_frozen_weights_equal_a_fresh_fake_quant
    # pins the main kernel to the other rows
    assert np.array_equal(plan.split_row, w_rot[0]) and not plan.main_q[0].any()


def test_plan_consistency_check_rejects_wrong_rotation():
    w = biased_matrix(3)
    with pytest.raises(ValueError, match="not the transform"):
        build_split_plan("t.2", w, w, bits=8)


def test_plan_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        build_split_plan("t.3", np.ones((4, 2)), np.ones((4, 3)), bits=8)


def test_untriggered_plan_is_plain_matmul():
    rng = np.random.default_rng(4)
    w = rng.normal(0, 0.1, (16, 4))
    w = w - w.mean(axis=0, keepdims=True)
    w_rot = fht(w, axis=0)
    plan = build_split_plan("t.4", w_rot, w, bits=8)
    assert not plan.triggered and plan.split_row is None
    x = rng.normal(size=(5, 16))
    out = float_split_forward(x, plan, w_rot)
    np.testing.assert_allclose(out, matmul(x, w_rot), atol=1e-12)


def test_split_float_path_is_lossless():
    """With quantization off the split is pure algebra: pulling row 0 out of
    the product and adding it back must reproduce x @ w_rot."""
    for seed in range(10):
        w = biased_matrix(seed)
        w_rot = fht(w, axis=0)
        plan = build_split_plan("t", w_rot, w, bits=4)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(7, w.shape[0]))
        out = float_split_forward(x, plan, w_rot)
        np.testing.assert_allclose(out, matmul(x, w_rot), atol=1e-9)


def test_split_shrinks_main_grid():
    w = biased_matrix(5)
    w_rot = fht(w, axis=0)
    plan = build_split_plan("t", w_rot, w, bits=4)
    full = compute_params_absmax(
        np.ascontiguousarray(w_rot.T), 4, Granularity.PER_CHANNEL
    )
    # triggered output channels get a strictly finer main grid
    assert plan.main_params.scales[plan.columns].max() < full.scales[plan.columns].min()


def test_split_improves_low_bit_mse():
    w = biased_matrix(6, n=64, d=16)
    q = walsh_hadamard(16)
    w_orig = matmul(w, q)  # output-rotated, the pre-transform snapshot shape
    w_rot = fht(w_orig, axis=0)
    plan = build_split_plan("t", w_rot, w_orig, bits=4)
    assert plan.triggered
    rng = np.random.default_rng(7)
    x = rng.normal(size=(256, 64))
    ref = matmul(x, w_rot)
    with_split = rms_forward(x, plan)
    p = compute_params_absmax(np.ascontiguousarray(w_rot.T), 4, Granularity.PER_CHANNEL)
    plain = matmul(x, np.ascontiguousarray(fake_quant(np.ascontiguousarray(w_rot.T), p).T))
    assert np.mean((with_split - ref) ** 2) < np.mean((plain - ref) ** 2)


def test_mean_subtraction_alternative_recreates_the_outlier_and_doubles_work():
    """Rejected alternative, kept as a demonstration: subtract each column's
    mean before the transform and re-inject it afterwards. The mean term is
    itself hit by the transform, which concentrates all of its mass back in
    row 0, so the very shape that triggered detection reappears inside the
    compensation path. Exactness then needs two full weight products where
    the split needs one product plus a rank-1 correction."""
    w = biased_matrix(13)
    n, d = w.shape
    mu = w.mean(axis=0)
    centered = w - mu[None, :]
    means = np.tile(mu, (n, 1))

    # Centering kills the trigger in the main weight, but every column that
    # triggered originally triggers again in the compensation term: its
    # transform is sqrt(n)*mu in row 0 and exactly zero everywhere else.
    assert detect_outliers(centered) == []
    assert set(detect_outliers(w)) <= set(detect_outliers(means))
    means_rot = fht(means, axis=0)
    np.testing.assert_allclose(means_rot[0], np.sqrt(n) * mu, atol=1e-12)
    np.testing.assert_allclose(means_rot[1:], 0.0, atol=1e-12)

    # Reproducing x @ fht(w) requires both full products.
    rng = np.random.default_rng(14)
    x = rng.normal(size=(32, n))
    two_products = matmul(x, fht(centered, axis=0)) + matmul(x, means_rot)
    np.testing.assert_allclose(two_products, matmul(x, fht(w, axis=0)), atol=1e-9)

    # Multiply counts per forward: the re-injection is a second full n-by-d
    # layer, the split correction is one scaled row.
    t = x.shape[0]
    alternative = 2 * (t * n * d)
    split = t * n * d + t * d
    assert alternative / split > 1.9


def test_wider_split_grid_helps_the_split_row():
    w = biased_matrix(8)
    w_rot = fht(w, axis=0)
    p4 = build_split_plan("t", w_rot, w, bits=4, split_bits=4)
    p16 = build_split_plan("t", w_rot, w, bits=4, split_bits=16)
    row = p4.split_row
    err4 = np.abs(fake_quant(row[None, :], p4.split_params)[0] - row).max()
    err16 = np.abs(fake_quant(row[None, :], p16.split_params)[0] - row).max()
    assert err16 < err4


def test_compliance_table():
    w = biased_matrix(12)
    w_rot = fht(w, axis=0)
    plans = [
        build_split_plan("vision.0.w_down", w_rot, w, bits=8),
        build_split_plan("vision.1.w_down", w_rot, w, bits=8),
    ]
    flat = np.zeros((16, 4))
    plans.append(build_split_plan("llm.0.w_down", fht(flat, axis=0), flat, bits=8))
    table = compliance_ratio(plans)
    assert table["vision"]["layers"] == 2 and table["vision"]["triggered"] == 2
    assert table["vision"]["ratio"] == 1.0
    assert table["llm"] == {"layers": 1, "triggered": 0, "ratio": 0.0, "columns": {}}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_n=st.integers(1, 6),
    d=st.integers(1, 8),
    bias=st.sampled_from([0.0, 0.03, 0.3]),
    bits=st.sampled_from([4, 8]),
    split_bits=st.sampled_from([None, 4, 8, 16]),
)
def test_frozen_weights_equal_a_fresh_fake_quant(seed, log_n, d, bias, bits, split_bits):
    """main_q and split_q are exactly what fake-quantizing the plan's
    kernels on its grids gives, so rms_forward need not redo it per call:
    the main kernel is the rotated weight with row 0 zeroed when the plan
    triggered, the split row that row 0."""
    rng = np.random.default_rng(seed)
    n = 2**log_n
    w = rng.normal(0, 0.02, (n, d)) + bias
    w_rot = fht(w, axis=0)
    plan = build_split_plan("t", w_rot, w, bits=bits, split_bits=split_bits)
    main = w_rot.copy()
    if plan.triggered:
        assert np.array_equal(plan.split_row, main[0])
        main[0] = 0.0
    # contiguous, as rms_forward's main_q is: BLAS rounding follows the layout
    fresh = np.ascontiguousarray(fake_quant(main.T, plan.main_params).T)
    assert np.array_equal(plan.main_q, fresh)
    if plan.triggered:
        row = fake_quant(plan.split_row[None, :], plan.split_params)[0]
        assert np.array_equal(plan.split_q, row)
    else:
        assert plan.split_q is None
    x = rng.normal(size=(3, n))
    want = matmul(x, fresh)
    if plan.triggered:
        want += x[:, 0:1] * row[None, :]
    assert np.array_equal(rms_forward(x, plan), want)
