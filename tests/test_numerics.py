import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant.numerics import (
    MASK_BLOCKED,
    MASK_FREE,
    NormParams,
    as_tensor,
    exp_rows,
    layer_norm,
    masked_softmax_rows,
    matmul,
    rms_norm,
)


def triple_loop_matmul(a, b):
    """Independent oracle: naive three-loop product, inner dim innermost."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def rank1_loop_matmul(a, b):
    """Reference for the BLAS matmul: one rank-1 update per inner index,
    accumulated strictly left to right."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def test_matmul_matches_triple_loop_bitwise():
    """The rank-1 loop oracle sums in the triple loop's order, bit for bit."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = rank1_loop_matmul(a, b)
        want = triple_loop_matmul(a, b)
        assert np.array_equal(got, want)


# Two summation orders of k products differ by at most
# 2(k-1) * eps * sum|a_i b_i| <= 2 k^2 * max|a| * max|b| * eps.  On
# random-sign operands the rounding errors mostly cancel, so the tolerance is
# fixed beforehand at 4 k * max|a| * max|b| * eps.
MATMUL_TOL_FACTOR = 4.0


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 12),
    k=st.integers(1, 40),
    n=st.integers(1, 12),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_loop_oracle_within_rounding(m, k, n, scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k)) * scale
    b = rng.normal(size=(k, n))
    got = matmul(a, b)
    want = rank1_loop_matmul(a, b)
    assert got.shape == (m, n) and got.flags.c_contiguous
    bound = MATMUL_TOL_FACTOR * k * np.abs(a).max() * np.abs(b).max()
    bound *= np.finfo(np.float64).eps
    assert np.abs(got - want).max() <= bound
    assert np.array_equal(matmul(a, b), got)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    k=st.integers(1, 6),
    n=st.integers(1, 6),
    extra=st.integers(1, 3),
)
def test_matmul_checks_shapes_and_finiteness(m, k, n, extra):
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        matmul(np.ones((m, k)), np.ones((k + extra, n)))
    a = np.full((m, k), 1e200)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="matmul result contains non-finite"):
            matmul(a, np.full((k, n), 1e200))


def test_matmul_known_values():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    assert np.array_equal(matmul(a, np.eye(4)), a)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(np.ones((2, 3)), np.ones((4, 2)))


def test_matmul_repeatable():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(16, 16))
    b = rng.normal(size=(16, 16))
    assert np.array_equal(matmul(a, b), matmul(a, b))


def test_as_tensor_rejects_wrong_ndim():
    with pytest.raises(ValueError, match="2-D"):
        as_tensor(np.zeros(3))
    with pytest.raises(ValueError, match="2-D"):
        as_tensor(np.zeros((2, 2, 2)))


def test_softmax_uniform_when_free():
    scores = np.zeros((2, 4))
    mask = np.full((2, 4), MASK_FREE)
    out = masked_softmax_rows(scores, mask)
    np.testing.assert_allclose(out, 0.25)


def test_softmax_blocked_positions_exactly_zero():
    scores = np.array([[1.0, 2.0, 3.0]])
    mask = np.array([[MASK_FREE, MASK_BLOCKED, MASK_FREE]])
    out = masked_softmax_rows(scores, mask)
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(out.sum(axis=1), 1.0)
    # surviving entries renormalize among themselves
    e1, e3 = np.exp(1.0), np.exp(3.0)
    np.testing.assert_allclose(out[0, 0], e1 / (e1 + e3))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(6, 6)) * 10
    mask = np.where(rng.random((6, 6)) < 0.4, MASK_BLOCKED, MASK_FREE)
    mask[:, 0] = MASK_FREE  # keep every row alive
    out = masked_softmax_rows(scores, mask)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out[mask == MASK_BLOCKED] == 0.0)


def test_softmax_fully_blocked_row_raises():
    scores = np.zeros((2, 2))
    mask = np.array([[MASK_FREE, MASK_FREE], [MASK_BLOCKED, MASK_BLOCKED]])
    with pytest.raises(ValueError, match="row 1"):
        masked_softmax_rows(scores, mask)


def test_softmax_rejects_foreign_mask_values():
    with pytest.raises(ValueError, match="mask entries"):
        masked_softmax_rows(np.zeros((1, 2)), np.array([[0.0, -1.0]]))


def test_masked_softmax_rejects_non_finite_scores():
    mask = np.full((2, 3), MASK_FREE)
    # a -inf score is a blocked entry, so only NaN and +inf can escape
    for bad in (np.nan, np.inf):
        scores = np.zeros((2, 3))
        scores[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="softmax result"):
            masked_softmax_rows(scores, mask)


def test_softmax_huge_scores_stay_finite():
    scores = np.array([[1e300, 0.0]])
    mask = np.full((1, 2), MASK_FREE)
    out = masked_softmax_rows(scores, mask)
    np.testing.assert_allclose(out, [[1.0, 0.0]])


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 40),
    heads=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_exp_rows_zeroes_blocked_entries_and_matches_masked_softmax_bitwise(
    rows, cols, heads, seed
):
    """exp_rows over stacked heads with a boolean tile over the columns
    from the first to the last blocked one leaves every blocked entry at
    exactly 0.0, and divided by its row sums equals masked_softmax_rows of
    each head bit for bit."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(heads, rows, cols)) * rng.uniform(0.1, 50.0)
    blocked = rng.random((rows, cols)) < rng.uniform(0.0, 1.0)
    blocked[np.arange(rows), rng.integers(0, cols, rows)] = False  # keep every row alive
    hit = np.flatnonzero(blocked.any(axis=0))
    start, stop = (hit[0], hit[-1] + 1) if hit.size else (0, 0)
    s = scores.copy()
    sums = exp_rows(s, blocked[:, start:stop] if hit.size else None, start)
    assert sums.shape == (heads, rows, 1)
    assert np.all(s[:, blocked] == 0.0)
    s /= sums
    mask = np.where(blocked, MASK_BLOCKED, MASK_FREE)
    for h in range(heads):
        assert np.array_equal(s[h], masked_softmax_rows(scores[h], mask))


def test_layer_norm_known_example():
    # row [1, 3]: mean 2, var 1
    params = NormParams(alpha=np.ones(2), beta=np.zeros(2), eps=1e-12)
    out = layer_norm(np.array([[1.0, 3.0]]), params)
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_constant_row_is_zero_plus_beta():
    params = NormParams(alpha=np.ones(3), beta=np.full(3, 0.5))
    out = layer_norm(np.full((2, 3), 7.0), params)
    np.testing.assert_allclose(out, 0.5)


def test_rms_norm_ignores_beta():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 8))
    a = NormParams(alpha=np.ones(8), beta=np.zeros(8))
    b = NormParams(alpha=np.ones(8), beta=np.full(8, 123.0))
    assert np.array_equal(rms_norm(x, a), rms_norm(x, b))


def test_layer_norm_equals_rms_norm_on_zero_mean_rows():
    """On recentered rows the two normalizations coincide (same eps, unit
    affine), which is the identity the vision rewrite depends on."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 16))
    x = x - x.mean(axis=1, keepdims=True)
    params = NormParams(alpha=np.ones(16), beta=np.zeros(16), eps=1e-6)
    np.testing.assert_allclose(layer_norm(x, params), rms_norm(x, params), atol=1e-12)


def test_norm_params_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        NormParams(alpha=np.ones(3), beta=np.zeros(2))
    with pytest.raises(ValueError, match="eps"):
        NormParams(alpha=np.ones(2), beta=np.zeros(2), eps=0.0)


def test_norm_feature_count_checked():
    params = NormParams(alpha=np.ones(4), beta=np.zeros(4))
    with pytest.raises(ValueError, match="features"):
        layer_norm(np.zeros((2, 5)), params)
