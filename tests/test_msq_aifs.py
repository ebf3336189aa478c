import base64
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant import fileio, msq_aifs
from mquant import model as model_module
from mquant.model import (
    ToyMllmConfig,
    build_toy_mllm,
    model_forward,
    model_from_dict,
    model_to_dict,
)
from mquant.msq_aifs import (
    ATTENTION_TILE_ROWS,
    TEXT,
    VISUAL,
    ModalityLayout,
    ScaleOpCounter,
    attention_forward,
    build_aifs_plan,
    build_attention_plan,
    calibrate_msq,
    layout_from_string,
    permuted_mask_oracle,
    quantize_dynamic_per_token,
    quantize_msq,
    rope_rotate,
    unified_causal_mask,
)
from mquant.numerics import (
    MASK_BLOCKED,
    MASK_FREE,
    as_tensor,
    check_mask,
    exp_rows,
    matmul,
    softmax_rows,
)
from mquant.quantizer import dequantize, fake_quant, quantize


def random_layout(rng, length):
    tags = rng.integers(0, 2, size=length)
    return ModalityLayout(tags)


def random_attn_weights(rng, d):
    ws = [rng.normal(0, d ** -0.5, (d, d)) for _ in range(4)]
    bs = [rng.normal(0, 0.01, d) for _ in range(4)]
    return ws, bs


def standard_causal_mask(length):
    """The definition of the natural-order causal mask: the lower triangle
    is free."""
    tril = np.tril(np.ones((length, length), dtype=bool))
    return np.where(tril, MASK_FREE, MASK_BLOCKED)


def conjugation_oracle(perm, length):
    """The definition of the reordered mask: the natural causal mask
    conjugated by perm, M'[i, j] = M[perm[i], perm[j]]."""
    return standard_causal_mask(length)[np.ix_(perm, perm)]


def plan_mask(plan):
    """The pack-wide additive mask a plan encodes: each group's band free
    but for its blocked tile, written into a tokens x tokens array that is
    blocked everywhere else."""
    out = np.full((plan.tokens, plan.tokens), MASK_BLOCKED)
    index = np.arange(plan.tokens)
    for rows, cols, start, blocked in plan.groups:
        if isinstance(rows, slice):
            rows, cols = [index[rows]], [index[cols]]
            blocked = None if blocked is None else blocked[None]
        for i, (r, c) in enumerate(zip(rows, cols)):
            tile = np.full((len(r), len(c)), MASK_FREE)
            if blocked is not None:
                tile[:, start : start + blocked.shape[-1]][blocked[i]] = MASK_BLOCKED
            out[np.ix_(r, c)] = tile
    return out


def aifs_attention(x, layout, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """The AIFS path written out: reorder visual-first, mask by the
    original order, rotate by original positions, restore the order."""
    perm = build_aifs_plan(layout.modality)
    out_r = attention_forward(
        x[perm], wq, bq, wk, bk, wv, bv, wo, bo,
        n_heads=n_heads,
        plan=build_attention_plan([len(layout)], perm),
        positions=perm,
    )
    return out_r[np.argsort(perm)]


# ===== layouts and plans =====


def test_layout_from_string():
    layout = layout_from_string("tvvt")
    np.testing.assert_array_equal(layout.modality, [0, 1, 1, 0])
    with pytest.raises(ValueError, match="'t' or 'v'"):
        layout_from_string("tvx")


def test_layout_validation():
    with pytest.raises(ValueError, match="at least one"):
        ModalityLayout(np.array([]))
    with pytest.raises(ValueError, match="0 .* or 1"):
        ModalityLayout(np.array([0, 2]))


def test_visual_spans():
    assert layout_from_string("tvvtvt").visual_spans() == [(1, 2), (4, 4)]
    assert layout_from_string("vvv").visual_spans() == [(0, 2)]
    assert layout_from_string("ttt").visual_spans() == []


def test_plan_tvvt():
    perm = build_aifs_plan(layout_from_string("tvvt").modality)
    np.testing.assert_array_equal(perm, [1, 2, 0, 3])


def test_plan_is_stable():
    rng = np.random.default_rng(0)
    for _ in range(20):
        layout = random_layout(rng, int(rng.integers(1, 20)))
        perm = build_aifs_plan(layout.modality)
        vis = perm[: layout.visual_count]
        txt = perm[layout.visual_count :]
        assert np.all(np.diff(vis) > 0) if len(vis) > 1 else True
        assert np.all(np.diff(txt) > 0) if len(txt) > 1 else True
        assert np.all(layout.modality[vis] == VISUAL)
        assert np.all(layout.modality[txt] == TEXT)


def test_all_text_plan_is_identity():
    perm = build_aifs_plan(layout_from_string("tttt").modality)
    np.testing.assert_array_equal(perm, [0, 1, 2, 3])


# ===== masks =====


def test_standard_causal_mask_small():
    """The plan of the natural order holds the lower-triangular mask."""
    free = plan_mask(build_attention_plan([3], np.arange(3))) == MASK_FREE
    np.testing.assert_array_equal(
        free, [[True, False, False], [True, True, False], [True, True, True]]
    )


def test_standard_causal_mask_equals_tril_definition_bitwise():
    """The position rule over the natural order is the causal mask."""
    for length in range(1, 301):
        tril = np.tril(np.ones((length, length), dtype=bool))
        want = np.where(tril, MASK_FREE, MASK_BLOCKED)
        got = permuted_mask_oracle(np.arange(length), length)
        assert got.dtype == np.float64 and got.shape == want.shape, length
        assert got.tobytes() == want.tobytes(), length


def test_unified_mask_empty_span_is_standard_causal():
    for length in (1, 2, 5, 9):
        got = unified_causal_mask(0, -1, length)
        assert np.array_equal(got, standard_causal_mask(length))


def test_unified_mask_hand_example():
    # 'tvvt': span [1, 2], reordered slots are (v1 v2 t0 t3).
    # Causality follows ORIGINAL positions: v1 sees t0 (slot 2) and itself,
    # v2 sees t0 and both visuals, t0 sees only itself, t3 sees everything.
    mask = unified_causal_mask(1, 2, 4)
    free = mask == MASK_FREE
    np.testing.assert_array_equal(
        free,
        [
            [True, False, True, False],
            [True, True, True, False],
            [False, False, True, False],
            [True, True, True, True],
        ],
    )


def test_unified_mask_matches_conjugation_all_single_spans():
    for length in range(1, 11):
        for m in range(length + 1):
            for n in range(m - 1, length):
                tags = np.zeros(length, dtype=np.int64)
                if n >= m:
                    tags[m : n + 1] = VISUAL
                perm = build_aifs_plan(tags)
                want = permuted_mask_oracle(perm, length)
                got = unified_causal_mask(m, n, length)
                assert np.array_equal(got, want), (length, m, n)


def test_unified_mask_matches_conjugation_on_long_sequences():
    rng = np.random.default_rng(11)
    length = 300
    for m, n in [(0, length - 1), (0, -1), (length, length - 1), (37, 201)] + [
        tuple(sorted(rng.integers(0, length, size=2))) for _ in range(6)
    ]:
        tags = np.zeros(length, dtype=np.int64)
        tags[m : n + 1] = VISUAL
        perm = build_aifs_plan(tags)
        want = permuted_mask_oracle(perm, length)
        assert np.array_equal(unified_causal_mask(m, n, length), want), (m, n)


@settings(max_examples=100, deadline=None)
@given(
    length=st.one_of(st.sampled_from([1, 2, 63, 64, 65, 300]), st.integers(1, 300)),
    seed=st.integers(0, 2**32 - 1),
)
def test_position_rule_equals_conjugation(length, seed):
    perm = np.random.default_rng(seed).permutation(length)
    got = permuted_mask_oracle(perm, length)
    want = conjugation_oracle(perm, length)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def forward_llm_plans(monkeypatch, modality, order, d_model=16):
    """The attention plans model_forward hands the LLM blocks of a small
    model for one sequence of these tags, with their rotary positions, run
    under order (a row_order context)."""
    cfg = ToyMllmConfig(d_model=d_model, n_heads=2, vision_blocks=1, llm_blocks=1, mlp_ratio=2)
    seen = []
    real = model_module.attention_forward

    def recording(*args, plan, positions=None, **kwargs):
        if positions is not None:
            seen.append((plan, positions))
        return real(*args, plan=plan, positions=positions, **kwargs)

    monkeypatch.setattr(model_module, "attention_forward", recording)
    rows = np.random.default_rng(0).uniform(-1.0, 1.0, size=(len(modality), d_model))
    with order:
        model_forward(build_toy_mllm(cfg), rows, modality)
    monkeypatch.undo()
    return seen


def test_llm_order_without_aifs_is_standard_causal(monkeypatch, row_order):
    rng = np.random.default_rng(12)
    for length in (1, 2, 63, 64, 65, 300):
        layout = random_layout(rng, length)
        ((plan, positions),) = forward_llm_plans(
            monkeypatch, layout.modality, row_order("natural")
        )
        np.testing.assert_array_equal(plan.perm, np.arange(length))
        np.testing.assert_array_equal(plan.inverse, np.arange(length))
        np.testing.assert_array_equal(positions, np.arange(length))
        assert plan_mask(plan).tobytes() == standard_causal_mask(length).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(
        st.one_of(st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(1, 130)),
        min_size=1,
        max_size=5,
    ),
    causal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_holds_each_samples_rule_mask_and_nothing_across(lengths, causal, seed):
    """The mask a plan encodes is the block diagonal of its samples' masks:
    the conjugated causal mask of each sample's positions, or all free
    without positions."""
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(n) for n in lengths]
    if causal:
        plan = build_attention_plan(lengths, np.concatenate(perms))
        masks = [conjugation_oracle(perm, n) for perm, n in zip(perms, lengths)]
    else:
        plan = build_attention_plan(lengths)
        masks = [np.full((n, n), MASK_FREE) for n in lengths]
    assert plan.tokens == sum(lengths)
    assert plan_mask(plan).tobytes() == block_diagonal(masks).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    lengths=st.lists(
        st.one_of(st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(1, 130)),
        min_size=1,
        max_size=5,
    ),
    kind=st.sampled_from(["causal", "unified", "permuted", "free"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_keeps_each_bands_blocked_entries_in_its_tile(lengths, kind, seed):
    """A group's blocked tile spans its band's columns from the first to the
    last one that holds a blocked entry, and marks exactly the blocked
    entries there; a band with none, and every free sample's band, carries
    no tile.  A group of one tile is addressed by slices."""
    rng = np.random.default_rng(seed)
    masks, plan, _ = pack_case(rng, kind, lengths)
    blocked = block_diagonal(masks) == MASK_BLOCKED
    index = np.arange(plan.tokens)
    for rows, cols, start, tile in plan.groups:
        if isinstance(rows, slice):
            rows, cols = index[rows][None], index[cols][None]
        else:
            assert rows.shape[0] > 1
        want = np.stack([blocked[np.ix_(r, c)] for r, c in zip(rows, cols)])
        hit = np.flatnonzero(want.any(axis=(0, 1)))
        if hit.size == 0:
            assert tile is None and start == 0
            continue
        assert kind != "free" and tile.dtype == np.bool_
        assert (start, start + tile.shape[-1]) == (hit[0], hit[-1] + 1)
        assert np.array_equal(tile.reshape(want.shape[:2] + (-1,)), want[..., hit[0] : hit[-1] + 1])


def test_attention_plan_must_fit_its_positions_and_input():
    with pytest.raises(ValueError, match="positions cover 3 rows, the samples 4"):
        build_attention_plan([2, 2], np.array([0, 1, 0]))
    # each sample's slice must be a permutation of that sample's positions
    for positions in ([0, 1, 0, 0], [1, 0, 2, 3], [0, 2, 1, 0]):
        with pytest.raises(ValueError, match="permutation"):
            build_attention_plan([2, 2], np.array(positions))


def test_mask_bounds_checked():
    with pytest.raises(ValueError, match="span start"):
        unified_causal_mask(-1, 0, 4)
    with pytest.raises(ValueError, match="span end"):
        unified_causal_mask(2, 0, 4)
    with pytest.raises(ValueError, match="span end"):
        unified_causal_mask(0, 4, 4)
    with pytest.raises(ValueError, match="permutation"):
        permuted_mask_oracle(np.array([0, 0, 1]), 3)
    with pytest.raises(ValueError, match="permutation"):
        permuted_mask_oracle(np.array([0, 2, 2]), 3)
    with pytest.raises(ValueError, match="permutation"):
        permuted_mask_oracle(np.arange(4), 3)


def test_every_mask_row_has_a_free_slot():
    rng = np.random.default_rng(1)
    for _ in range(30):
        perm = build_aifs_plan(random_layout(rng, int(rng.integers(1, 16))).modality)
        mask = permuted_mask_oracle(perm, len(perm))
        assert np.all((mask == MASK_FREE).any(axis=1))


# ===== rotary phases =====


def test_rope_position_zero_is_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 8))
    out = rope_rotate(x, np.zeros(3))
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_rope_single_pair_known_angle():
    # d=2 has one frequency, theta^0 = 1, so position p rotates by p radians
    x = np.array([[1.0, 0.0]])
    out = rope_rotate(x, np.array([2]))
    np.testing.assert_allclose(out, [[np.cos(2.0), np.sin(2.0)]], atol=1e-15)


def test_rope_preserves_row_norms():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 16))
    out = rope_rotate(x, np.arange(6) * 7)
    np.testing.assert_allclose(
        (out * out).sum(axis=1), (x * x).sum(axis=1), atol=1e-12
    )


def test_rope_scores_depend_on_relative_offset():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(1, 8))
    k = rng.normal(size=(1, 8))
    a = rope_rotate(q, [5]) @ rope_rotate(k, [3]).T
    b = rope_rotate(q, [12]) @ rope_rotate(k, [10]).T
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_rope_odd_dimension_rejected():
    with pytest.raises(ValueError, match="even"):
        rope_rotate(np.ones((2, 3)), [0, 1])


def test_remap_rope_conjugates_scores():
    """Rotating reordered q/k by their original positions gives exactly the
    permuted score matrix of the natural pass."""
    rng = np.random.default_rng(5)
    layout = layout_from_string("tvtvvt")
    perm = build_aifs_plan(layout.modality)
    q = rng.normal(size=(6, 8))
    k = rng.normal(size=(6, 8))
    qn = rope_rotate(q, np.arange(6))
    kn = rope_rotate(k, np.arange(6))
    natural = qn @ kn.T
    qr = rope_rotate(q[perm], perm)
    kr = rope_rotate(k[perm], perm)
    reordered = qr @ kr.T
    np.testing.assert_allclose(reordered, natural[np.ix_(perm, perm)], atol=1e-12)


# ===== attention equivalence =====


def test_aifs_attention_matches_natural_order():
    rng = np.random.default_rng(6)
    d = 16
    for trial in range(20):
        length = int(rng.integers(1, 12))
        layout = random_layout(rng, length)
        (wq, wk, wv, wo), (bq, bk, bv, bo) = random_attn_weights(rng, d)
        x = rng.normal(size=(length, d))
        want = attention_forward(
            x, wq, bq, wk, bk, wv, bv, wo, bo,
            n_heads=4, plan=build_attention_plan([length], np.arange(length)),
            positions=np.arange(length),
        )
        got = aifs_attention(x, layout, wq, bq, wk, bk, wv, bv, wo, bo, n_heads=4)
        np.testing.assert_allclose(got, want, atol=1e-10, err_msg=f"trial {trial}")


def test_aifs_attention_all_text_is_bit_identical():
    """All-text layouts reorder nothing, so the two paths must agree exactly,
    not just within tolerance."""
    rng = np.random.default_rng(7)
    d = 8
    (wq, wk, wv, wo), (bq, bk, bv, bo) = random_attn_weights(rng, d)
    x = rng.normal(size=(5, d))
    layout = layout_from_string("ttttt")
    want = attention_forward(
        x, wq, bq, wk, bk, wv, bv, wo, bo,
        n_heads=2, plan=build_attention_plan([5], np.arange(5)), positions=np.arange(5),
    )
    got = aifs_attention(x, layout, wq, bq, wk, bk, wv, bv, wo, bo, n_heads=2)
    assert np.array_equal(got, want)


def raw_b64(a):
    """A tensor container of a as base64, written without the writer's
    finiteness check, as a damaged or hand-made model file would hold it."""
    a = np.atleast_2d(a)
    header = fileio._HEADER.pack(fileio.MAGIC, fileio.FORMAT_VERSION, *a.shape)
    return base64.b64encode(header + a.astype("<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "where", ["x_nan", "x_inf", "wq", "wk", "wv", "bq", "bk", "bv", "huge_scores", "pack"]
)
def test_attention_rejects_non_finite_values(where):
    """attention_forward checks nothing itself, so a non-finite value that
    would reach attention fails at a boundary, by name, and without a numpy
    warning on the way: a sample row at the forward's entry, an attention
    weight or bias at model load, finite weights whose q.k products
    overflow at the forward's output, and a row of one pack member at the
    entry, by its row in the pack."""
    cfg = ToyMllmConfig(d_model=16, n_heads=4, vision_blocks=1, llm_blocks=1, mlp_ratio=2)
    model = build_toy_mllm(cfg)
    rng = np.random.default_rng(9)
    length = 70
    x = rng.normal(size=(length, 16)) * 0.5
    tags = np.zeros(length, dtype=np.int64)
    lengths = None
    if where == "x_nan":
        x[66, 3] = np.nan
        match = "sample row 66 contains non-finite"
    elif where == "x_inf":
        x[5, 0] = -np.inf
        match = "sample row 5 contains non-finite"
    elif where[0] in "wb":
        d = model_to_dict(model)
        key = f"llm.0.w{where[1]}.{where[0]}"
        bad = fileio.tensor_from_b64(d["tensors"][key])
        bad[0 if where[0] == "b" else 2, 7] = np.inf if where[0] == "w" else np.nan
        d["tensors"][key] = raw_b64(bad)
        with pytest.raises(ValueError, match=f"model file tensor {key}: .*non-finite"):
            model_from_dict(d)
        return
    elif where == "huge_scores":
        # finite inputs whose q.k products overflow
        model.llm_blocks[0].wq.w *= 1e160
        model.llm_blocks[0].wk.w *= 1e160
        match = "model output row .* contains non-finite"
    else:
        x[40, 3] = np.nan
        lengths = [30, length - 30]
        match = "sample row 40 contains non-finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
            model_forward(model, x, tags, lengths=lengths)


def rope_tables(d, positions, theta_base):
    """cos and sin of every (token, pair) angle of a d-wide head: pair t
    turns by position * theta_base^(-2t/d)."""
    freqs = theta_base ** (-2.0 * np.arange(d // 2) / d)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(ang), np.sin(ang)


def dense_attention_forward(
    x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads, mask, positions=None, theta_base=10000.0
):
    """Reference kernel: every head scores, masks and normalizes the whole
    tokens x tokens block, blocked entries included."""
    x = as_tensor(x)
    tokens, d = x.shape
    if d % n_heads != 0:
        raise ValueError(f"n_heads={n_heads} must divide d_model={d}")
    d_head = d // n_heads
    mask = as_tensor(mask)
    if mask.shape != (tokens, tokens):
        raise ValueError(f"mask shape {mask.shape} != ({tokens}, {tokens})")
    check_mask(mask)
    if positions is not None:
        c, s = rope_tables(d_head, positions, theta_base)
    q = matmul(x, wq) + bq
    k = matmul(x, wk) + bk
    v = matmul(x, wv) + bv
    out = np.empty_like(x)
    inv_sqrt = 1.0 / np.sqrt(d_head)
    for h in range(n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        if positions is not None:
            qh = msq_aifs._rotate_pairs(qh, c, s)
            kh = msq_aifs._rotate_pairs(kh, c, s)
        scores = matmul(qh, np.ascontiguousarray(kh.T))
        scores *= inv_sqrt
        scores += mask
        out[:, sl] = matmul(softmax_rows(scores), vh)
    return matmul(out, wo) + bo


def oracle_case(rng, kind, length):
    """One sample of one of the mask families the model uses: its mask by
    definition, and the positions the plan builds it from (None: free)."""
    if kind == "causal":
        return standard_causal_mask(length), np.arange(length)
    if kind == "unified":
        m = int(rng.integers(0, length + 1))
        n = int(rng.integers(m - 1, length))
        tags = np.full(length, TEXT)
        tags[m : n + 1] = VISUAL
        return unified_causal_mask(m, n, length), build_aifs_plan(tags)
    if kind == "permuted":
        perm = rng.permutation(length)
        return conjugation_oracle(perm, length), perm
    return np.zeros((length, length)), None


def pack_case(rng, kind, lengths):
    """Per-sample masks of one family, the plan built from the samples'
    positions, and their rotary positions (natural order when free)."""
    cases = [oracle_case(rng, kind, n) for n in lengths]
    orders = [np.arange(n) if order is None else order for (_, order), n in zip(cases, lengths)]
    plan = build_attention_plan(lengths, None if kind == "free" else np.concatenate(orders))
    return [mask for mask, _ in cases], plan, np.concatenate(orders)


@settings(max_examples=120, deadline=None)
@given(
    length=st.one_of(
        st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 191, 193, 300]),
        st.integers(1, 300),
    ),
    kind=st.sampled_from(["causal", "unified", "permuted", "free"]),
    rotary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_attention_matches_dense_oracle(length, kind, rotary, seed):
    """Skipping the columns a tile's mask blocks changes only the summation
    order: max |tiled - dense| <= 1e-12 * max |dense|."""
    rng = np.random.default_rng(seed)
    d, heads = 16, 4
    (wq, wk, wv, wo), (bq, bk, bv, bo) = random_attn_weights(rng, d)
    x = rng.normal(size=(length, d))
    (mask,), plan, positions = pack_case(rng, kind, [length])
    if not rotary:
        positions = None
    args = (x, wq, bq, wk, bk, wv, bv, wo, bo)
    got = attention_forward(*args, n_heads=heads, plan=plan, positions=positions)
    want = dense_attention_forward(*args, n_heads=heads, mask=mask, positions=positions)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def score_entries_per_head(monkeypatch, length, plan):
    """Score entries one attention call computes, per head, counted at
    exp_rows, which exponentiates every score entry once."""
    rng = np.random.default_rng(18)
    d, heads = 32, 2
    (wq, wk, wv, wo), (bq, bk, bv, bo) = random_attn_weights(rng, d)
    counted = []
    real = msq_aifs.exp_rows

    def counting(s, *args):
        counted.append(s.size)
        return real(s, *args)

    monkeypatch.setattr(msq_aifs, "exp_rows", counting)
    attention_forward(
        rng.normal(size=(length, d)), wq, bq, wk, bk, wv, bv, wo, bo,
        n_heads=heads, plan=plan, positions=np.arange(length),
    )
    return sum(counted) / heads


def test_causal_attention_skips_the_blocked_tiles(monkeypatch):
    """64-row tiles over a causal mask: tile t scores 64 * 64 (t + 1)
    entries, not 64 * L."""
    length = 512
    got = score_entries_per_head(
        monkeypatch, length, build_attention_plan([length], np.arange(length))
    )
    assert got == length * (length + 64) / 2


def test_aifs_forward_scores_what_natural_order_does(monkeypatch, row_order):
    """Text, then 768 visual tokens, L=1024: under AIFS the LLM blocks run
    visual-first but get the natural causal plan, so they score the same
    entries per head as natural order, not the wider bands of a plan built
    from the reordered positions."""
    length = 1024
    modality = np.array([TEXT] * 256 + [VISUAL] * 768)
    ((plan, positions),) = forward_llm_plans(monkeypatch, modality, row_order("visual_first"))
    ((natural, _),) = forward_llm_plans(monkeypatch, modality, row_order("natural"))
    np.testing.assert_array_equal(plan.perm, np.r_[256:length, 0:256])
    np.testing.assert_array_equal(positions, plan.perm)
    got = score_entries_per_head(monkeypatch, length, plan)
    assert got == score_entries_per_head(monkeypatch, length, natural)
    assert got == length * (length + 64) / 2


def test_free_attention_scores_every_entry_once(monkeypatch):
    length = 200
    got = score_entries_per_head(monkeypatch, length, build_attention_plan([length]))
    assert got == length * length


def block_diagonal(masks):
    """The pack-wide mask of per-sample masks: every cross-sample entry
    blocked."""
    total = sum(m.shape[0] for m in masks)
    out = np.full((total, total), MASK_BLOCKED)
    offset = 0
    for m in masks:
        n = m.shape[0]
        out[offset : offset + n, offset : offset + n] = m
        offset += n
    return out


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(
        st.one_of(st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(1, 130)),
        min_size=1,
        max_size=5,
    ),
    kind=st.sampled_from(["causal", "permuted", "free"]),
    rotary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_list_matches_block_diagonal_dense_oracle(lengths, kind, rotary, seed):
    """A plan over per-sample positions is the block-diagonal pack mask,
    without ever building it: max |packed - dense| <= 1e-12 * max |dense|."""
    rng = np.random.default_rng(seed)
    d, heads = 16, 4
    (wq, wk, wv, wo), (bq, bk, bv, bo) = random_attn_weights(rng, d)
    masks, plan, positions = pack_case(rng, kind, lengths)
    if not rotary:
        positions = None
    x = rng.normal(size=(sum(lengths), d))
    args = (x, wq, bq, wk, bk, wv, bv, wo, bo)
    got = attention_forward(*args, n_heads=heads, plan=plan, positions=positions)
    want = dense_attention_forward(
        *args, n_heads=heads, mask=block_diagonal(masks), positions=positions
    )
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_mask_list_scores_only_within_samples(monkeypatch):
    """Free samples of sizes 100, 70 and 30 score 100^2 + 70^2 + 30^2
    entries per head: no tile or band crosses a sample."""
    got = score_entries_per_head(monkeypatch, 200, build_attention_plan([100, 70, 30]))
    assert got == 100**2 + 70**2 + 30**2


def per_tile_attention_reference(
    x, wq, bq, wk, bk, wv, bv, wo, bo, n_heads, masks, positions=None, theta_base=10000.0
):
    """The per-head, per-tile kernel the stacked one replaced, kept as its
    bitwise reference: each sample's query rows in tiles of
    ATTENTION_TILE_ROWS, each over its column band, and one 2-D product,
    exp_rows over the tile's whole blocked mask, and P.V divided by the
    row sums per head and tile, with q prescaled as in the kernel."""
    x = as_tensor(x)
    tokens, d = x.shape
    d_head = d // n_heads
    tiles = []
    offset = 0
    for m in masks:
        n = m.shape[0]
        starts = np.arange(0, n, ATTENTION_TILE_ROWS)
        seen = np.logical_or.reduceat(m == MASK_FREE, starts)
        lo = seen.argmax(axis=1)
        hi = n - seen[:, ::-1].argmax(axis=1)
        for r0, c0, c1 in zip(starts, lo, hi):
            r1 = min(r0 + ATTENTION_TILE_ROWS, n)
            rows = slice(offset + r0, offset + r1)
            tiles.append((rows, slice(offset + c0, offset + c1), m[r0:r1, c0:c1]))
        offset += n
    q = matmul(x, wq) + bq
    k = matmul(x, wk) + bk
    v = matmul(x, wv) + bv
    if positions is not None:
        c, s = rope_tables(d_head, positions, theta_base)
        c, s = np.tile(c, n_heads), np.tile(s, n_heads)
        q = msq_aifs._rotate_pairs(q, c, s)
        k = msq_aifs._rotate_pairs(k, c, s)
    q *= 1.0 / np.sqrt(d_head)
    kt = np.ascontiguousarray(k.T)
    out = np.empty_like(x)
    for h in range(n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        qh, kth = np.ascontiguousarray(q[:, sl]), kt[sl]
        vh = np.ascontiguousarray(v[:, sl])
        for rows, cols, mask_tile in tiles:
            # a copied band: BLAS rounding follows the operands' layout
            scores = matmul(qh[rows], np.ascontiguousarray(kth[:, cols]))
            sums = exp_rows(scores, mask_tile == MASK_BLOCKED)
            out[rows, sl] = matmul(scores, vh[cols]) / sums
    return matmul(out, wo) + bo


@settings(max_examples=80, deadline=None)
@given(
    short=st.integers(1, ATTENTION_TILE_ROWS),
    repeats=st.integers(2, 4),
    others=st.lists(st.sampled_from([1, 64, 65, 130]), max_size=3),
    kind=st.sampled_from(["causal", "permuted", "free"]),
    heads=st.sampled_from([1, 2, 4]),
    rotary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_attention_equals_per_tile_reference_bitwise(
    short, repeats, others, kind, heads, rotary, seed
):
    """Samples of equal length up to ATTENTION_TILE_ROWS run stacked, and
    longer ones tile by tile, but every head and tile still goes through
    the same BLAS product and row reductions as in the per-tile
    reference, so the outputs agree bit for bit."""
    rng = np.random.default_rng(seed)
    lengths = [short] * repeats + others
    lengths = [lengths[i] for i in rng.permutation(len(lengths))]
    d = 32
    (wq, wk, wv, wo), (bq, bk, bv, bo) = random_attn_weights(rng, d)
    masks, plan, positions = pack_case(rng, kind, lengths)
    if not rotary:
        positions = None
    x = rng.normal(size=(sum(lengths), d))
    args = (x, wq, bq, wk, bk, wv, bv, wo, bo)
    got = attention_forward(*args, n_heads=heads, plan=plan, positions=positions)
    want = per_tile_attention_reference(
        *args, n_heads=heads, masks=masks, positions=positions
    )
    assert np.array_equal(got, want)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_one_row_tile_over_a_narrow_band_equals_the_reference_bitwise(heads):
    """Visual-first order of 'tt' + 63 'v': the 65th row is a tile of one
    row whose band is the two text slots, inside a taller pack.  numpy runs
    that product as gemv, whose rounding depends on the row stride of k."""
    rng = np.random.default_rng(19)
    d = 32
    (wq, wk, wv, wo), (bq, bk, bv, bo) = random_attn_weights(rng, d)
    perm = build_aifs_plan(layout_from_string("tt" + "v" * 63).modality)
    masks = [conjugation_oracle(perm, 65), standard_causal_mask(5)]
    plan = build_attention_plan([65, 5], np.concatenate([perm, np.arange(5)]))
    args = (rng.normal(size=(70, d)) * 10, wq, bq, wk, bk, wv, bv, wo, bo)
    for _ in range(20):
        got = attention_forward(*args, n_heads=heads, plan=plan)
        want = per_tile_attention_reference(*args, n_heads=heads, masks=masks)
        assert np.array_equal(got, want)
        args = (rng.normal(size=(70, d)) * 10, *args[1:])


# ===== modality-split calibration =====


def designed_stream(rng, count=6, length=10, d=4, v_amp=20.0, t_amp=0.5):
    samples = []
    for _ in range(count):
        layout = random_layout(rng, length)
        x = rng.uniform(-t_amp, t_amp, (length, d))
        vis = layout.modality == VISUAL
        x[vis] = rng.uniform(-v_amp, v_amp, (int(vis.sum()), d))
        samples.append((x, layout))
    return samples


def stream_ranges(samples):
    """Each modality's [lo, hi] over a stream of (x, layout) samples, the
    ranges calibration records at a point; a modality no row has has none."""
    x = np.vstack([x for x, _ in samples])
    tags = np.concatenate([layout.modality for _, layout in samples])
    return {
        key: [x[tags == tag].min(), x[tags == tag].max()]
        for key, tag in (("visual", VISUAL), ("text", TEXT))
        if (tags == tag).any()
    }


def test_calibrate_msq_separates_scales():
    rng = np.random.default_rng(8)
    samples = designed_stream(rng)
    params = calibrate_msq(stream_ranges(samples), bits=8)
    s_v, s_t = params.visual.scales[0], params.text.scales[0]
    assert s_v <= 20.0 / 127 + 1e-12
    assert s_t <= 0.5 / 127 + 1e-12
    # the scale gap is the whole point: more than an order of magnitude
    assert s_v / s_t > 10.0


def test_calibrate_msq_gives_an_absent_modality_the_sentinel():
    """A modality no calibration row had has no range, and gets the
    zero-range sentinel grid, silently: calibration warned once."""
    ranges = stream_ranges([(np.ones((3, 2)), layout_from_string("ttt"))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = calibrate_msq(ranges, bits=8)
    assert params.visual.scales[0] == 1.0 and params.visual.zero_points[0] == 0
    assert params.text.scales[0] == 1.0 / 127


def test_quantize_msq_counts_two_ops():
    rng = np.random.default_rng(10)
    samples = designed_stream(rng)
    params = calibrate_msq(stream_ranges(samples), bits=8)
    counter = ScaleOpCounter()
    x, layout = samples[0]
    vis = layout.modality == VISUAL
    quantize_msq(x, vis, params, counter)
    assert counter.scale_ops == 2
    quantize_msq(x, vis, params, counter)
    assert counter.scale_ops == 4


def test_quantize_msq_applies_segment_grids():
    rng = np.random.default_rng(11)
    samples = designed_stream(rng)
    params = calibrate_msq(stream_ranges(samples), bits=8)
    x, layout = samples[1]
    perm = build_aifs_plan(layout.modality)
    m = layout.visual_count
    xr = x[perm]
    out = quantize_msq(xr, np.arange(len(perm)) < m, params)
    np.testing.assert_array_equal(out[:m], fake_quant(xr[:m], params.visual))
    np.testing.assert_array_equal(out[m:], fake_quant(xr[m:], params.text))


def test_quantize_msq_mask_matches_prefix_form():
    """Scattered-mask quantization of the natural order must be the prefix
    quantization of the reordered tensor, mapped back."""
    rng = np.random.default_rng(12)
    samples = designed_stream(rng)
    params = calibrate_msq(stream_ranges(samples), bits=8)
    x, layout = samples[2]
    perm = build_aifs_plan(layout.modality)
    prefix_rows = np.arange(len(perm)) < layout.visual_count
    prefix = quantize_msq(x[perm], prefix_rows, params)[np.argsort(perm)]
    scattered = quantize_msq(x, layout.modality == VISUAL, params)
    assert np.array_equal(prefix, scattered)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 40),
    bits=st.sampled_from([4, 8, 16]),
    symmetric=st.booleans(),
    narrow=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantize_msq_is_each_segments_round_trip_bytewise(rows, bits, symmetric, narrow, seed):
    """On any row mask, not only a visual-first prefix, each row comes out
    as the quantize/dequantize round trip of its modality's grid, byte for
    byte: calibrated on its rows' range, or on a narrower one that clips."""
    rng = np.random.default_rng(seed)
    visual_rows = rng.random(rows) < rng.random()
    x = rng.normal(size=(rows, 8))
    x[visual_rows] *= 20.0
    x[rng.random((rows, 8)) < 0.1] = -0.0
    shrink = 0.4 if narrow else 1.0
    ranges = {
        key: [float(x[mask].min()) * shrink, float(x[mask].max()) * shrink]
        for key, mask in (("visual", visual_rows), ("text", ~visual_rows))
        if mask.any()
    }
    params = calibrate_msq(ranges, bits, symmetric)
    want = np.empty_like(x)
    for mask, grid in ((visual_rows, params.visual), (~visual_rows, params.text)):
        if mask.any():
            want[mask] = dequantize(quantize(x[mask], grid))
    assert quantize_msq(x, visual_rows, params).tobytes() == want.tobytes()


def test_quantize_msq_uniform_masks():
    rng = np.random.default_rng(13)
    params = calibrate_msq(stream_ranges(designed_stream(rng)), bits=8)
    x = rng.normal(size=(4, 4))
    out_all_text = quantize_msq(x, np.zeros(4, dtype=bool), params)
    np.testing.assert_array_equal(out_all_text, fake_quant(x, params.text))
    out_all_vis = quantize_msq(x, np.ones(4, dtype=bool), params)
    np.testing.assert_array_equal(out_all_vis, fake_quant(x, params.visual))


def test_dynamic_per_token_counts_length():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(9, 4))
    counter = ScaleOpCounter()
    out = quantize_dynamic_per_token(x, 8, counter=counter)
    assert counter.scale_ops == 9
    # row grids are independent: each row round-trips within its own step
    for i in range(9):
        step = np.abs(x[i]).max() / 127
        assert np.abs(out[i] - x[i]).max() <= step / 2 + 1e-12


def test_static_cost_is_length_free():
    rng = np.random.default_rng(15)
    params = calibrate_msq(stream_ranges(designed_stream(rng)), bits=8)
    for length in (1, 16, 128):
        counter = ScaleOpCounter()
        x = rng.normal(size=(length, 4))
        quantize_msq(x, np.arange(length) < 3, params, counter)
        assert counter.scale_ops == 2
