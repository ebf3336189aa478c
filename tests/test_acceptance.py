"""Acceptance suite: one test per user-facing guarantee of the toolkit.

Each test pins a whole-mechanism promise rather than a unit detail: the
reordered attention path is exact, the rotation stack is lossless, the
outlier split detects and reconstructs correctly, the modality-split grids
meet their cost model, and the shipped default pipeline reproduces its
frozen quality numbers.  Oracles here are written out independently even
where a library helper exists, so a test never validates a function
against itself.
"""

import copy
import time

import numpy as np

from mquant.hadamard import fht, walsh_hadamard
from mquant.model import (
    ToyMllmConfig,
    block_forward,
    build_toy_mllm,
    model_forward,
    norm_forward,
    vision_encode,
)
from mquant.msq_aifs import (
    ModalityLayout,
    TEXT,
    VISUAL,
    attention_forward,
    build_aifs_plan,
    build_attention_plan,
    calibrate_msq,
    quantize_msq,
    unified_causal_mask,
)
from mquant.norm_rewrite import preln_to_rmsnorm
from mquant.numerics import MASK_BLOCKED, MASK_FREE, matmul
from mquant.pipeline import (
    PipelineConfig,
    apply_lossless_stack,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
)
from mquant.quantizer import (
    Granularity,
    compute_params_absmax,
    fake_quant,
)
from mquant.rms import build_split_plan, detect_outliers, rms_forward

# Expected quality of the default pipeline (d_model 64, 2+2 blocks, 8
# calibration samples of length 16, seed 123), measured once on the first
# verified build and frozen.  A drift beyond the band means the numerical
# behavior of the pipeline changed, not that a threshold was mistuned.
FROZEN_W8A8_COSINE = 0.9963249738817371
FROZEN_W4A8_COSINE = 0.9615586495864614
FROZEN_BAND = 0.002


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


def _causal_mask(length: int) -> np.ndarray:
    """Definitional causal mask of the natural order: the lower triangle is
    free."""
    return np.where(np.tril(np.ones((length, length), dtype=bool)), MASK_FREE, MASK_BLOCKED)


def _span_perm(m: int, n: int, length: int) -> np.ndarray:
    """Definitional visual-first order for one visual span [m, n]: the span
    moves to the front, everything else keeps its relative order."""
    return np.array(
        list(range(m, n + 1)) + list(range(0, m)) + list(range(n + 1, length)),
        dtype=np.int64,
    )


def _ranges(pairs):
    """Each modality's [lo, hi] over (x, layout) pairs: what calibration
    records at a block input, and calibrate_msq derives its grids from."""
    x = np.vstack([x for x, _ in pairs])
    tags = np.concatenate([layout.modality for _, layout in pairs])
    return {
        key: [x[tags == tag].min(), x[tags == tag].max()]
        for key, tag in (("visual", VISUAL), ("text", TEXT))
    }


def _aifs_attention(x, layout, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """Visual-first reorder, mask of the original order, original rotary
    positions, then the rows restored to the original order."""
    perm = build_aifs_plan(layout.modality)
    out_r = attention_forward(
        x[perm], wq, bq, wk, bk, wv, bv, wo, bo,
        n_heads=n_heads,
        plan=build_attention_plan([len(layout)], perm),
        positions=perm,
    )
    return out_r[np.argsort(perm)]


def test_single_span_masks_match_conjugation_exhaustively():
    """Every single-span reordered mask, all lengths up to 32, equals the
    permutation-conjugated causal mask entrywise.  Empty spans included."""
    start = time.perf_counter()
    checked = 0
    for length in range(1, 33):
        base = _causal_mask(length)
        for m in range(0, length + 1):
            for n in range(m - 1, length):
                perm = _span_perm(m, n, length)
                oracle = base[np.ix_(perm, perm)]
                built = unified_causal_mask(m, n, length)
                assert np.array_equal(built, oracle), (m, n, length)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 6000
    assert elapsed < 5.0, f"mask sweep took {elapsed:.2f}s"


def test_reordered_attention_matches_natural_order_on_random_layouts():
    """200 random mixed layouts through a rotary attention layer: the
    reorder/unified-mask/original-phase path agrees with a naive causal
    pass to 1e-6 after restoring the original row order."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    d, heads = 16, 4
    worst = 0.0
    for _ in range(200):
        length = int(rng.integers(1, 33))
        tags = rng.integers(0, 2, size=length)
        layout = ModalityLayout(tags)
        x = rng.normal(size=(length, d))
        ws = [rng.normal(size=(d, d)) * 0.2 for _ in range(4)]
        bs = [rng.normal(size=d) * 0.05 for _ in range(4)]
        natural = attention_forward(
            x,
            ws[0], bs[0], ws[1], bs[1], ws[2], bs[2], ws[3], bs[3],
            n_heads=heads,
            plan=build_attention_plan([length], np.arange(length)),
            positions=np.arange(length),
        )
        reordered = _aifs_attention(
            x, layout,
            ws[0], bs[0], ws[1], bs[1], ws[2], bs[2], ws[3], bs[3],
            n_heads=heads,
        )
        worst = max(worst, float(np.abs(reordered - natural).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"max deviation {worst:.3e}"
    assert elapsed < 30.0, f"layout sweep took {elapsed:.2f}s"


def test_hadamard_transform_preserves_norms_and_matches_dense():
    """For every power-of-two size up to 256 the fast transform equals the
    dense matrix product to 1e-9 and preserves Frobenius norm to 1e-8."""
    rng = np.random.default_rng(11)
    n = 2
    while n <= 256:
        w = rng.normal(size=(n, 24))
        dense = matmul(walsh_hadamard(n), w)
        fast = fht(w, axis=0)
        assert np.abs(fast - dense).max() <= 1e-9
        ratio = np.linalg.norm(fast) / np.linalg.norm(w)
        assert abs(ratio - 1.0) <= 1e-8
        n *= 2


def test_first_rotated_row_is_scaled_column_means():
    """Row 0 of a rotated weight is sqrt(n) times the column means of the
    original, to 1e-8, on 100 random matrices of varying size and scale."""
    rng = np.random.default_rng(12)
    sizes = [2, 4, 8, 16, 32, 64, 128, 256]
    for trial in range(100):
        n = sizes[trial % len(sizes)]
        k = int(rng.integers(1, 40))
        w = rng.normal(size=(n, k)) * float(rng.uniform(0.01, 3.0))
        rotated = fht(w, axis=0)
        expected = np.sqrt(n) * w.mean(axis=0)
        assert np.abs(rotated[0] - expected).max() <= 1e-8


def test_outlier_detection_matches_brute_force():
    """Column detection agrees exactly with densely rotating the weight and
    comparing the first-row entry against each original column maximum, on
    1000 matrices: plain random, planted-positive, planted-negative."""

    def brute(w: np.ndarray) -> list:
        n = w.shape[0]
        rotated = matmul(walsh_hadamard(n), w)
        return [j for j in range(w.shape[1]) if rotated[0, j] > w[:, j].max()]

    rng = np.random.default_rng(13)
    sizes = [4, 8, 16, 32, 64]
    triggered = 0
    clean = 0
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        k = int(rng.integers(1, 13))
        w = rng.normal(size=(n, k)) * float(rng.uniform(0.005, 0.05))
        if trial % 5 == 3:
            w[:, : max(1, k // 2)] += 0.03  # planted positive column means
        elif trial % 5 == 4:
            w -= 0.05  # negative means never trigger
        expected = brute(w)
        assert detect_outliers(w) == expected, trial
        if expected:
            triggered += 1
        else:
            clean += 1
    # the corpus must exercise both outcomes, not just one
    assert triggered >= 150 and clean >= 150


def test_outlier_split_is_float_lossless_and_helps_low_bit_mse():
    """The split path reproduces the plain product exactly in float (1e-9),
    and under 4-bit weights with 8-bit activations it beats the unsplit
    per-channel grid on output MSE in at least 18 of 20 paired runs."""
    rng = np.random.default_rng(14)
    q = walsh_hadamard(16)
    for _ in range(100):
        w = rng.normal(0, 0.02, (64, 16))
        w[:, :8] += 0.03
        w_orig = matmul(w, q)  # output-rotated, the shape plans are built on
        w_rot = fht(w_orig, axis=0)
        plan = build_split_plan("t", w_rot, w_orig, bits=4)
        assert plan.triggered
        x = rng.normal(size=(8, 64))
        ref = matmul(x, w_rot)
        out = float_split_forward(x, plan, w_rot)
        assert np.abs(out - ref).max() <= 1e-9

    wins = 0
    for seed in range(20):
        srng = np.random.default_rng(seed)
        w = srng.normal(0, 0.02, (64, 16))
        w[:, :8] += 0.03
        w_orig = matmul(w, q)
        w_rot = fht(w_orig, axis=0)
        plan = build_split_plan("t", w_rot, w_orig, bits=4)
        # 256 evaluation rows: smaller draws leave the MSE estimate noisy
        # enough to flip a seed or two at the margin
        x = srng.normal(size=(256, 64))
        a_params = compute_params_absmax(x, 8, Granularity.PER_TENSOR)
        ref = matmul(x, w_rot)
        with_split = rms_forward(fake_quant(x, a_params), plan)
        p = compute_params_absmax(
            np.ascontiguousarray(w_rot.T), 4, Granularity.PER_CHANNEL
        )
        plain_w = np.ascontiguousarray(fake_quant(np.ascontiguousarray(w_rot.T), p).T)
        plain = matmul(fake_quant(x, a_params), plain_w)
        if np.mean((with_split - ref) ** 2) < np.mean((plain - ref) ** 2):
            wins += 1
    assert wins >= 18, f"split won only {wins}/20 paired runs"


def test_norm_rewrite_is_exact_and_centers_the_stream():
    """The rewritten vision encoder matches the original to 1e-6 on 100
    inputs, and afterwards every tensor entering a norm has row means
    within 1e-8 of zero, which is what makes the swap exact."""
    model = build_toy_mllm(ToyMllmConfig())
    rewritten = copy.deepcopy(model)
    preln_to_rmsnorm(rewritten)
    cfg = model.config
    rng = np.random.default_rng(15)
    for _ in range(100):
        rows = rng.uniform(-20.0, 10.0, size=(int(rng.integers(1, 9)), cfg.d_model))
        a = vision_encode(model, rows)
        b = vision_encode(rewritten, rows)
        assert np.abs(a - b).max() <= 1e-6

    rows = rng.uniform(-20.0, 10.0, size=(6, cfg.d_model))
    x = matmul(rows, rewritten.vision_embed.w) + rewritten.vision_embed.b
    plan = build_attention_plan([6])
    for i, blk in enumerate(rewritten.vision_blocks):
        assert np.abs(x.mean(axis=1)).max() <= 1e-8  # attention norm input
        h = norm_forward(blk.attn_norm, x)
        attn = attention_forward(
            h,
            blk.wq.w, blk.wq.b, blk.wk.w, blk.wk.b,
            blk.wv.w, blk.wv.b, blk.wo.w, blk.wo.b,
            n_heads=cfg.n_heads, plan=plan, positions=None,
        )
        assert np.abs((x + attn).mean(axis=1)).max() <= 1e-8  # mlp norm input
        x = block_forward(f"vision.{i}", blk, x, cfg.n_heads, plan, positions=None)
    assert np.abs(x.mean(axis=1)).max() <= 1e-8  # final norm input


def test_rewritten_and_rotated_model_matches_float_reference():
    """Norm rewrite plus both offline rotations leave the full forward pass
    within 1e-5 of the untouched model, end to end."""
    model = build_toy_mllm(ToyMllmConfig())
    transformed = apply_lossless_stack(model)
    for tensor, layout in generate_synthetic_samples(6, 12, seed=7):
        ref = model_forward(model, tensor, layout.modality)
        got = model_forward(transformed, tensor, layout.modality)
        assert np.abs(got - ref).max() <= 1e-5


def test_fake_quant_error_within_half_step():
    """|x - fake_quant(x)| <= s/2 + 1e-12 elementwise, with s the scale of
    the slice each element belongs to, across every bit width, both modes,
    and all four granularities."""

    def expand(p, rows, cols):
        if p.granularity is Granularity.PER_TENSOR:
            return np.full((rows, cols), p.scales[0])
        if p.granularity is Granularity.PER_GROUP:
            return np.repeat(p.scales, p.group_size, axis=1)[:, :cols]
        return np.repeat(p.scales[:, None], cols, axis=1)

    rng = np.random.default_rng(16)
    grans = [
        (Granularity.PER_TENSOR, None),
        (Granularity.PER_TOKEN, None),
        (Granularity.PER_CHANNEL, None),
        (Granularity.PER_GROUP, 4),
    ]
    for bits in (4, 8, 16):
        for symmetric in (True, False):
            for granularity, gs in grans:
                for _ in range(10):
                    rows, cols = int(rng.integers(1, 9)), int(rng.integers(2, 19))
                    x = rng.normal(size=(rows, cols))
                    x *= rng.uniform(0.01, 30.0, size=(rows, 1))  # uneven rows
                    p = compute_params_absmax(
                        x, bits, granularity, symmetric=symmetric, group_size=gs
                    )
                    err = np.abs(fake_quant(x, p) - x)
                    bound = expand(p, rows, cols) / 2 + 1e-12
                    assert np.all(err <= bound)


def test_modality_grids_never_worse_than_shared_grid_on_text():
    """Text-row reconstruction MSE under the per-modality static grids is
    at most the MSE under one grid for the whole tensor, on 50 seeded mixed
    tensors.  The text scale can only be finer than the shared one."""
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        length = 24
        tags = np.full(length, TEXT)
        tags[rng.permutation(length)[:12]] = VISUAL
        x = np.empty((length, 8))
        x[tags == VISUAL] = rng.uniform(-20.0, 10.0, size=(12, 8))
        x[tags == TEXT] = rng.uniform(-0.5, 0.5, size=(12, 8))
        layout = ModalityLayout(tags)
        msq = calibrate_msq(_ranges([(x, layout)]), bits=8)
        shared = compute_params_absmax(x, 8, Granularity.PER_TENSOR)
        text_rows = x[tags == TEXT]
        mse_msq = np.mean((fake_quant(text_rows, msq.text) - text_rows) ** 2)
        mse_shared = np.mean((fake_quant(text_rows, shared) - text_rows) ** 2)
        assert mse_msq <= mse_shared, seed


def test_static_scale_cost_is_two_per_block_and_dynamic_grows_with_length():
    """Per forward pass, the static modality-split path applies exactly 2
    activation scales per LLM block at any length; the per-token dynamic
    baseline applies exactly L per block.  Checked at L = 1, 16, 128."""
    mcfg = ToyMllmConfig(d_model=16, n_heads=2, vision_blocks=1, llm_blocks=2, mlp_ratio=2)
    pcfg = PipelineConfig(model=mcfg)
    samples = generate_synthetic_samples(6, 10, seed=42, d_model=16)
    qm = mquant_quantize(build_toy_mllm(mcfg), pcfg, samples=samples)
    blocks = mcfg.llm_blocks
    for length in (1, 16, 128):
        tensor, layout = generate_synthetic_samples(1, length, seed=length, d_model=16)[0]
        qm.forward(tensor, layout.modality)
        assert qm.counter.scale_ops == 2 * blocks
        qm.forward(tensor, layout.modality, dynamic=True)
        assert qm.counter.scale_ops == length * blocks


def test_padded_batch_members_match_their_unpadded_runs():
    """Members of a packed batch agree with their single-sequence runs on
    every position within 1e-8, through segment quantization and the
    attention layer.  The pack stacks each sample's visual-first rows, with
    one causal mask per sample and each sample's own rotary positions, and
    no padding."""
    rng = np.random.default_rng(17)
    d, heads = 16, 4
    ws = [rng.normal(size=(d, d)) * 0.2 for _ in range(4)]
    bs = [rng.normal(size=d) * 0.05 for _ in range(4)]
    layouts = [
        ModalityLayout(np.array([0, 1, 1, 0])),
        ModalityLayout(np.array([1, 0, 1, 0, 1, 1, 0])),
        ModalityLayout(np.array([0, 0, 1])),
    ]
    calib = []
    for layout in layouts:
        x = np.empty((len(layout), d))
        vis = layout.modality == VISUAL
        x[vis] = rng.uniform(-20.0, 10.0, size=(int(vis.sum()), d))
        x[~vis] = rng.uniform(-0.5, 0.5, size=(int((~vis).sum()), d))
        calib.append((x, layout))
    params = calibrate_msq(_ranges(calib), bits=8)

    perms = [build_aifs_plan(layout.modality) for layout in layouts]
    rows = [x[perm] for (x, _), perm in zip(calib, perms)]
    vis_rows = [layout.modality[perm] == VISUAL for layout, perm in zip(layouts, perms)]
    packed = attention_forward(
        quantize_msq(np.vstack(rows), np.concatenate(vis_rows), params),
        ws[0], bs[0], ws[1], bs[1], ws[2], bs[2], ws[3], bs[3],
        n_heads=heads,
        plan=build_attention_plan([len(perm) for perm in perms], np.concatenate(perms)),
        positions=np.concatenate(perms),
    )
    offset = 0
    for x_r, vis, perm in zip(rows, vis_rows, perms):
        alone = attention_forward(
            quantize_msq(x_r, vis, params),
            ws[0], bs[0], ws[1], bs[1], ws[2], bs[2], ws[3], bs[3],
            n_heads=heads,
            plan=build_attention_plan([len(perm)], perm),
            positions=perm,
        )
        assert np.abs(packed[offset : offset + len(perm)] - alone).max() <= 1e-8
        offset += len(perm)


def test_default_pipeline_quality_matches_frozen_values():
    """The shipped default configuration reproduces its recorded cosine
    similarity against the float model at 8-bit and 4-bit weights."""
    samples = generate_synthetic_samples(8, 16, seed=123)
    for bits_w, frozen in ((8, FROZEN_W8A8_COSINE), (4, FROZEN_W4A8_COSINE)):
        pcfg = PipelineConfig(model=ToyMllmConfig(), bits_w=bits_w, bits_a=8)
        qm = mquant_quantize(build_toy_mllm(pcfg.model), pcfg, samples=samples)
        report = evaluate(qm, samples)
        got = report["metrics"]["cosine_mean"]
        assert abs(got - frozen) <= FROZEN_BAND, (
            f"W{bits_w}A8 cosine mean {got:.10f} drifted from {frozen:.10f}"
        )
