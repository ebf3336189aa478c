import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant import lanes
from mquant.hadamard import (
    fht,
    incoherence,
    incoherence_ratio,
    walsh_hadamard,
)
from mquant.numerics import frobenius_norm, matmul


def test_order_two_exact():
    h = walsh_hadamard(2)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(h, [[r, r], [r, -r]])


def test_order_four_structure():
    h = walsh_hadamard(4)
    assert h.shape == (4, 4)
    # all entries are +-1/2 and the first row and column are positive
    np.testing.assert_allclose(np.abs(h), 0.5)
    assert np.all(h[0] == 0.5) and np.all(h[:, 0] == 0.5)


def test_orthogonal_and_involutory():
    for n in (2, 8, 64):
        h = walsh_hadamard(n)
        np.testing.assert_allclose(matmul(h, h.T), np.eye(n), atol=1e-12)
        np.testing.assert_allclose(matmul(h, h), np.eye(n), atol=1e-12)
        assert np.array_equal(h, h.T)


def test_rejects_non_power_of_two():
    for n in (0, 3, 6, -4):
        with pytest.raises(ValueError, match="power of two"):
            walsh_hadamard(n)
    with pytest.raises(ValueError, match="power of two"):
        fht(np.ones((6, 2)), axis=0)


def test_fht_matches_dense_both_axes():
    rng = np.random.default_rng(0)
    for n in (2, 4, 16, 128):
        h = walsh_hadamard(n)
        x = rng.normal(size=(n, 5))
        np.testing.assert_allclose(fht(x, axis=0), matmul(h, x), atol=1e-10)
        y = rng.normal(size=(5, n))
        np.testing.assert_allclose(fht(y, axis=1), matmul(y, h), atol=1e-10)


def block_loop_fht(x, axis=0):
    """Reference for the vectorized fht: one slice update per butterfly
    block, n - 1 of them over the log2(n) stages."""
    work = np.array(x, dtype=np.float64)
    if axis == 1:
        work = work.T.copy()
    n = work.shape[0]
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            a = work[start : start + h].copy()
            b = work[start + h : start + 2 * h]
            work[start : start + h] = a + b
            work[start + h : start + 2 * h] = a - b
        h *= 2
    work /= np.sqrt(n)
    return work if axis == 0 else work.T


def test_fht_equals_block_loop_bitwise_up_to_1024():
    rng = np.random.default_rng(4)
    for log_n in range(11):
        n = 2**log_n
        x = rng.normal(size=(n, 3))
        assert np.array_equal(fht(x, axis=0), block_loop_fht(x, axis=0))
        assert np.array_equal(fht(x.T, axis=1), block_loop_fht(x.T, axis=1))


@settings(max_examples=100, deadline=None)
@given(
    log_n=st.integers(0, 7),
    cols=st.integers(1, 9),
    axis=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fht_equals_block_loop_oracle_bitwise(log_n, cols, axis, seed):
    rng = np.random.default_rng(seed)
    n = 2**log_n
    shape = (n, cols) if axis == 0 else (cols, n)
    x = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3], size=shape)
    got = fht(x, axis=axis)
    assert np.array_equal(got, block_loop_fht(x, axis=axis))
    assert got.shape == shape


def test_fht_involutory():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(32, 8))
    np.testing.assert_allclose(fht(fht(x, axis=0), axis=0), x, atol=1e-12)


def test_fht_one_dimensional_input():
    x = np.array([1.0, 1.0])
    np.testing.assert_allclose(fht(x), [np.sqrt(2.0), 0.0])


@pytest.mark.parametrize("lanes_", [1, 2])
@pytest.mark.parametrize("shape, axis", [((1024, 256), 1), ((256, 1024), 0), ((64,), 0)])
def test_fht_into_its_input_gives_the_bits_of_a_new_array(monkeypatch, lanes_, shape, axis):
    """The online FHT runs in place; the 2-D cases reach the two-lane floor,
    so with two lanes both write blocks of the same buffer."""
    monkeypatch.setattr(lanes, "LANES", lanes_)
    x = np.random.default_rng(4).normal(size=shape)
    want = fht(x, axis=axis)
    assert fht(x, axis=axis, out=x) is x
    assert x.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="out has shape"):
        fht(want, axis=axis, out=np.empty(shape[::-1] + (1,)))


def test_norm_preserved():
    rng = np.random.default_rng(2)
    for n in (4, 64, 1024):
        x = rng.normal(size=(n, 3))
        assert abs(frobenius_norm(fht(x, axis=0)) - frobenius_norm(x)) < 1e-8


def test_first_row_is_scaled_column_means():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.normal(size=(64, 10)) + rng.normal(size=(1, 10))
        row = fht(w, axis=0)[0]
        np.testing.assert_allclose(row, np.sqrt(64) * w.mean(axis=0), atol=1e-10)


def test_incoherence_known_values():
    # identity: max entry 1, frobenius sqrt(n), mu = sqrt(n*n)/sqrt(n) = sqrt(n)
    n = 16
    assert abs(incoherence(np.eye(n)) - np.sqrt(n)) < 1e-12
    # constant matrix: perfectly spread, mu = 1
    assert abs(incoherence(np.ones((8, 4))) - 1.0) < 1e-12


def test_incoherence_zero_matrix_rejected():
    with pytest.raises(ValueError):
        incoherence(np.zeros((4, 4)))


def test_rotation_spreads_spiky_matrices():
    """A single spike is the worst case for grid quantization; the transform
    smears it across the column, dropping the incoherence below 1."""
    w = np.zeros((64, 4))
    w[17, 2] = 5.0
    assert incoherence_ratio(w) < 1.0


def test_rotation_concentrates_flat_matrices():
    # all-ones columns collapse onto the first row, the opposite direction
    w = np.ones((64, 4))
    assert incoherence_ratio(w) > 1.0
