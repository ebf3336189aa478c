import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant.quantizer import (
    Granularity,
    QuantParams,
    compute_params_absmax,
    dequantize,
    fake_quant,
    params_to_dict,
    quant_range,
    quantize,
    round_half_away,
)


def test_round_half_away_ties():
    x = np.array([[0.5, -0.5, 1.5, -1.5, 2.4, -2.6]])
    np.testing.assert_array_equal(
        round_half_away(x), [[1.0, -1.0, 2.0, -2.0, 2.0, -3.0]]
    )


def test_quant_range():
    assert quant_range(8, True) == (-127, 127)
    assert quant_range(8, False) == (-128, 127)
    assert quant_range(4, True) == (-7, 7)
    assert quant_range(16, False) == (-32768, 32767)


def test_symmetric_scale_known_value():
    x = np.array([[-2.54, 1.0]])
    p = compute_params_absmax(x, 8)
    np.testing.assert_allclose(p.scales, [2.54 / 127])
    assert p.zero_points[0] == 0


def test_symmetric_grid_preserves_extremes():
    x = np.array([[-10.0, 0.0, 10.0]])
    p = compute_params_absmax(x, 8)
    back = fake_quant(x, p)
    np.testing.assert_allclose(back[0, [0, 2]], [-10.0, 10.0])
    assert back[0, 1] == 0.0


def test_asymmetric_covers_shifted_range():
    """One-sided data wastes half of a symmetric grid; the asymmetric grid
    spends every step on [0, max] and roughly halves the step size."""
    x = np.array([[10.0, 11.0, 12.0]])
    sym = compute_params_absmax(x, 8, symmetric=True)
    asym = compute_params_absmax(x, 8, symmetric=False)
    back = fake_quant(x, asym)
    np.testing.assert_allclose(back, x, atol=asym.scales[0] / 2 + 1e-12)
    assert asym.scales[0] < 0.55 * sym.scales[0]


def test_asymmetric_zero_stays_exact():
    """The asymmetric range is widened to include 0, so 0.0 survives the
    round trip exactly even when calibration data was strictly positive."""
    p = compute_params_absmax(np.array([[10.0, 11.0, 12.0]]), 8, symmetric=False)
    assert fake_quant(np.zeros((1, 2)), p)[0, 0] == 0.0


def test_zero_tensor_sentinel():
    p = compute_params_absmax(np.zeros((2, 3)), 8)
    np.testing.assert_array_equal(p.scales, [1.0])
    assert np.array_equal(fake_quant(np.zeros((2, 3)), p), np.zeros((2, 3)))


def test_constant_nonzero_asymmetric_roundtrip():
    x = np.full((1, 4), 3.0)
    p = compute_params_absmax(x, 8, symmetric=False)
    back = fake_quant(x, p)
    np.testing.assert_allclose(back, x, atol=p.scales[0] / 2 + 1e-12)


def test_quantize_dequantize_roundtrip_bound():
    """Anything inside the covered range comes back within half a step."""
    rng = np.random.default_rng(0)
    for bits in (4, 8, 16):
        for symmetric in (True, False):
            x = rng.normal(size=(6, 12)) * 5.0
            p = compute_params_absmax(x, bits, symmetric=symmetric)
            err = np.abs(fake_quant(x, p) - x)
            assert err.max() <= p.scales.max() / 2 + 1e-12


def test_per_token_roundtrip_bound():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 16)) * np.logspace(-2, 2, 8)[:, None]
    p = compute_params_absmax(x, 8, Granularity.PER_TOKEN)
    err = np.abs(fake_quant(x, p) - x)
    per_row_bound = p.scales / 2 + 1e-12
    assert np.all(err.max(axis=1) <= per_row_bound)


def test_per_group_roundtrip_bound():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 20)) * 3.0
    p = compute_params_absmax(x, 8, Granularity.PER_GROUP, group_size=8)
    assert p.scales.shape == (4, 3)  # ceil(20/8) groups per row
    err = np.abs(fake_quant(x, p) - x)
    assert err.max() <= p.scales.max() / 2 + 1e-12


def test_finer_granularity_never_hurts_mse():
    """Per-token grids adapt to row magnitude, so on rows of very different
    scale they beat the single per-tensor grid."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 32))
    x[0] *= 100.0  # one loud row stretches the shared grid
    pt = compute_params_absmax(x, 8, Granularity.PER_TENSOR)
    tok = compute_params_absmax(x, 8, Granularity.PER_TOKEN)
    mse_pt = np.mean((fake_quant(x, pt) - x) ** 2)
    mse_tok = np.mean((fake_quant(x, tok) - x) ** 2)
    assert mse_tok < mse_pt


def test_quantize_monotone():
    rng = np.random.default_rng(4)
    x = np.sort(rng.normal(size=(1, 40)) * 2.0)
    p = compute_params_absmax(x, 4)
    q = quantize(x, p).values[0]
    assert np.all(np.diff(q) >= 0)


def test_codes_stay_in_range():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 9)) * 50
    for bits in (4, 8, 16):
        for symmetric in (True, False):
            p = compute_params_absmax(x, bits, symmetric=symmetric)
            q = quantize(x, p).values
            assert q.min() >= p.q_min and q.max() <= p.q_max


def test_params_validation():
    with pytest.raises(ValueError, match="bit width"):
        compute_params_absmax(np.ones((1, 1)), 3)
    with pytest.raises(ValueError, match="positive"):
        QuantParams(
            bits=8, symmetric=True, granularity=Granularity.PER_TENSOR,
            scales=np.array([0.0]), zero_points=np.array([0]),
        )
    with pytest.raises(ValueError, match="zero points"):
        QuantParams(
            bits=8, symmetric=True, granularity=Granularity.PER_TENSOR,
            scales=np.array([1.0]), zero_points=np.array([5]),
        )
    with pytest.raises(ValueError, match="group_size"):
        compute_params_absmax(np.ones((2, 4)), 8, Granularity.PER_GROUP)


def test_params_shape_mismatch_detected():
    p = compute_params_absmax(np.ones((3, 4)), 8, Granularity.PER_TOKEN)
    with pytest.raises(ValueError, match="slices"):
        quantize(np.ones((5, 4)), p)


def test_params_to_dict_writes_every_field():
    """The JSON of a grid holds its bits, symmetry and granularity and its
    scales and zero points as flat lists of floats and ints; a per-group
    grid adds group_size and scales_rows, which give the lists back their
    (rows, groups) shape."""
    x = np.random.default_rng(7).normal(size=(4, 16))
    for granularity, gs, shape in [
        (Granularity.PER_TENSOR, None, (1,)),
        (Granularity.PER_CHANNEL, None, (4,)),
        (Granularity.PER_GROUP, 4, (4, 4)),
    ]:
        p = compute_params_absmax(x, 8, granularity, symmetric=False, group_size=gs)
        d = json.loads(json.dumps(params_to_dict(p)))
        per_group = {"group_size": 4, "scales_rows": 4} if gs else {}
        assert set(d) == {"bits", "symmetric", "granularity", "scales", "zero_points", *per_group}
        assert (d["bits"], d["symmetric"], d["granularity"]) == (8, False, granularity.value)
        assert {k: d[k] for k in per_group} == per_group
        assert all(type(v) is float for v in d["scales"])
        assert all(type(v) is int for v in d["zero_points"])
        assert np.array_equal(np.reshape(d["scales"], shape), p.scales)
        assert np.array_equal(np.reshape(d["zero_points"], shape), p.zero_points)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_params_reject_non_finite_scales(bad):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        QuantParams(
            bits=8, symmetric=True, granularity=Granularity.PER_CHANNEL,
            scales=np.array([1.0, bad]), zero_points=np.array([0, 0]),
        )


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"bits": 3}, r"unsupported bit width 3, expected one of \(4, 8, 16\)"),
        ({"zero_points": [0]}, r"scales shape \(2,\) != zero_points shape \(1,\)"),
        ({"scales": [1.0, -0.5]}, "all scales must be finite and strictly positive"),
        ({"bits": 4, "zero_points": [0, 8]}, r"zero points outside \[-8, 7\]"),
        ({"bits": 4, "zero_points": [-9, 0]}, r"zero points outside \[-8, 7\]"),
        ({"symmetric": True, "zero_points": [0, 3]}, "symmetric mode requires all zero points to be 0"),
        ({"granularity": Granularity.PER_GROUP}, "PER_GROUP requires a positive group_size"),
        ({"granularity": Granularity.PER_GROUP, "scales": [[1.0, 1.0]], "zero_points": [[0, 0]],
          "group_size": 0}, "PER_GROUP requires a positive group_size"),
        ({"granularity": Granularity.PER_GROUP, "group_size": 4},
         r"PER_GROUP scales must be 2-D \(rows, n_groups\)"),
        ({"granularity": Granularity.PER_TENSOR}, r"PER_TENSOR expects a single scale, got shape \(2,\)"),
        ({"granularity": Granularity.PER_TOKEN, "scales": [[1.0, 1.0]], "zero_points": [[0, 0]]},
         "per_token scales must be 1-D per row"),
        ({"scales": 1.0, "zero_points": 0}, "per_channel scales must be 1-D per row"),
    ],
)
def test_params_reject_malformed_grid(fields, match):
    """Every grid, whether computed or built field by field, passes
    QuantParams' checks: a supported width, matching scale and zero-point
    shapes, positive scales, zero points on the grid (all 0 when
    symmetric), and a scale shape that fits its granularity."""
    good = {
        "bits": 8, "symmetric": False, "granularity": Granularity.PER_CHANNEL,
        "scales": [1.0, 0.5], "zero_points": [0, 0],
    }
    QuantParams(**good)
    with pytest.raises(ValueError, match=rf"^{match}$"):
        QuantParams(**{**good, **fields})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
    st.sampled_from([4, 8, 16]),
    st.booleans(),
)
def test_roundtrip_bound_property(values, bits, symmetric):
    x = np.array([values])
    p = compute_params_absmax(x, bits, symmetric=symmetric)
    err = np.abs(fake_quant(x, p) - x)
    assert err.max() <= p.scales.max() / 2 + 1e-9 * max(1.0, np.abs(x).max())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_quantize_idempotent_property(values):
    """Fake-quantizing twice is the same as once: grid points map to themselves."""
    x = np.array([values])
    p = compute_params_absmax(x, 8)
    once = fake_quant(x, p)
    twice = fake_quant(once, p)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def power_of_two_grid(rng, rows, cols, bits, symmetric, granularity, group_size):
    """A grid of power-of-two scales, so that x = (code + 0.5) * s is an
    exact tie, and zero points anywhere in range."""
    shape = {
        Granularity.PER_TENSOR: (1,),
        Granularity.PER_TOKEN: (rows,),
        Granularity.PER_CHANNEL: (rows,),
        Granularity.PER_GROUP: (rows, -(-cols // group_size)),
    }[granularity]
    q_min, q_max = quant_range(bits, symmetric)
    zeros = np.zeros(shape, np.int64) if symmetric else rng.integers(q_min, q_max + 1, shape)
    return QuantParams(
        bits, symmetric, granularity, 2.0 ** rng.integers(-6, 7, shape), zeros,
        group_size if granularity is Granularity.PER_GROUP else None,
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.integers(1, 23),
    bits=st.sampled_from([4, 8, 16]),
    symmetric=st.booleans(),
    granularity=st.sampled_from(list(Granularity)),
    group_size=st.integers(1, 8),
    grid=st.sampled_from(["ties", "absmax", "narrow"]),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fake_quant_is_the_quantize_dequantize_round_trip_bytewise(
    rows, cols, bits, symmetric, granularity, group_size, grid, fortran, seed
):
    """The fused chain gives the bytes of dequantize(quantize(x)), -0.0
    codes and .5 ties included, on every granularity (group sizes that
    leave a ragged last group too), on grids as wide as the data or
    narrower, and in either memory order."""
    rng = np.random.default_rng(seed)
    q_min, q_max = quant_range(bits, symmetric)
    if grid == "ties":
        p = power_of_two_grid(rng, rows, cols, bits, symmetric, granularity, group_size)
        if p.scales.ndim == 2:
            s = np.repeat(p.scales, group_size, axis=1)[:, :cols]
        else:
            s = p.scales.reshape(-1, 1)
        # whole codes past both ends of the grid, each plus 0, a tie, or a
        # fraction that rounds to a zero code (-0.0 from the negative ones)
        codes = rng.integers(2 * q_min, 2 * q_max + 1, (rows, cols)).astype(np.float64)
        codes[rng.random((rows, cols)) < 0.3] = 0.0
        frac = rng.choice([0.0, -0.0, 0.5, -0.5, 0.25, -0.25, -0.49], (rows, cols))
        x = (codes + frac) * s
    else:
        x = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4)
        x[rng.random((rows, cols)) < 0.2] = -0.0
        # a narrow grid covers only part of the data, so the rest clips
        cover = x if grid == "absmax" else x * 0.3
        p = compute_params_absmax(
            cover, bits, granularity, symmetric,
            group_size if granularity is Granularity.PER_GROUP else None,
        )
    if fortran:
        x = np.asfortranarray(x)
    assert fake_quant(x, p).tobytes() == dequantize(quantize(x, p)).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fake_quant_refuses_a_non_finite_input(bad):
    """Clipping would turn an inf into the grid's edge code, so fake_quant
    checks its input and names the row."""
    x = np.ones((3, 4))
    x[2, 1] = bad
    p = compute_params_absmax(np.ones((3, 4)), 8)
    with pytest.raises(ValueError, match="fake-quant input row 2 contains non-finite"):
        fake_quant(x, p)
