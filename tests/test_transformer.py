"""Model-core tests: patch extraction, embedding, encoder, prediction
and gradient-flow patterns."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqatk import transformer as tf
from sqatk.autodiff import Tensor, layer_norm, linear
from sqatk.frontend import LogMelSpectrogram
from sqatk.quality import TASKS, QualityScores
from sqatk.training import Adam, make_sample, mse_loss, train_step

from memory import peak_traced_bytes
from model_fixtures import (cut_window, dense_scores, float64, grid_positions, in_memory, stack,
                            widen_max_duration)

HOP = 0.010


def make_spec(n_frames, n_mels=128, rng=None, fill=None):
    if rng is not None:
        values = rng.normal(-5.0, 2.0, size=(n_frames, n_mels))
    else:
        values = np.full((n_frames, n_mels), fill if fill is not None else -3.0)
    return LogMelSpectrogram(values, n_mels, HOP, 0.025)


# ------------------------------------------------------------ extraction


def test_patch_grid_full_scale(rng):
    config = tf.ModelConfig(embed_dim=64, n_heads=4, n_layers=0, max_duration_s=12.0)
    seq = tf.extract_patches(make_spec(1200, rng=rng), config)
    assert (tf.N_FREQ_PATCHES, config.n_time_patches) == (12, 119)
    assert seq.patches.shape == (12 * 119, 256)  # 1428 patches
    assert seq.valid.all()


def test_single_patch_case(rng):
    """A one-patch window holds one patch along time in each of the 12
    mel bands, and patch f is mel rows [10f, 10f + 16) of its 16 frames."""
    config = tf.ModelConfig(embed_dim=8, n_heads=2, n_layers=0, max_duration_s=0.16)
    assert config.max_frames == 16
    spec = make_spec(16, rng=rng)
    seq = tf.extract_patches(spec, config)
    assert (tf.N_FREQ_PATCHES, config.n_time_patches) == (12, 1)
    assert seq.patches.shape == (12, 256)
    assert seq.valid.all()
    for f in range(12):
        np.testing.assert_array_equal(seq.patches[f], spec.values[:, 10 * f : 10 * f + 16].T.reshape(-1))


def test_validity_against_brute_force(rng):
    config = tf.desk_config(max_duration_s=12.0)
    n_real = 600
    seq = tf.extract_patches(make_spec(n_real, rng=rng), config)
    n_f, n_t = tf.N_FREQ_PATCHES, config.n_time_patches
    # brute force: a patch is valid iff any covered frame is real
    for f in range(n_f):
        for t in range(n_t):
            start = t * tf.PATCH_STRIDE
            covered = range(start, start + tf.PATCH)
            expected = any(frame < n_real for frame in covered)
            assert seq.valid[f * n_t + t] == expected
    # patches straddling frame 599/600 stay valid, fully padded ones do not
    straddle_t = (n_real - 1) // tf.PATCH_STRIDE
    first_pad_t = -(-n_real // tf.PATCH_STRIDE)  # ceil
    assert seq.valid[straddle_t]
    assert not seq.valid[first_pad_t]


def test_padding_uses_log_floor():
    config = tf.desk_config(max_duration_s=1.0)
    seq = tf.extract_patches(make_spec(10, fill=0.0), config)
    n_t = config.n_time_patches
    assert not seq.valid[n_t - 1]
    np.testing.assert_array_equal(seq.patches[n_t - 1], tf.PAD_LOG_VALUE)


def test_long_clip_truncated(rng):
    config = tf.desk_config(max_duration_s=1.0)
    seq = tf.extract_patches(make_spec(500, rng=rng), config)
    assert seq.valid.all()
    assert (tf.N_FREQ_PATCHES, config.n_time_patches) == (12, (100 - 16) // 10 + 1)


def test_patch_too_narrow_rejected():
    """The config rejects a window below one patch, which gave numpy's
    negative-dimensions error at parameter init."""
    with pytest.raises(tf.ModelError, match="narrower"):
        tf.desk_config(max_duration_s=0.1)  # 10 frames < PATCH


@given(frames=st.integers(min_value=16, max_value=240))
def test_patch_count_matches_floor_formula(frames):
    config = tf.ModelConfig(embed_dim=8, n_heads=2, n_layers=0, max_duration_s=frames * HOP)
    seq = tf.extract_patches(make_spec(frames, fill=-1.0), config)
    expected_f = (128 - 16) // 10 + 1
    expected_t = (config.max_frames - 16) // 10 + 1
    # brute-force window enumeration
    assert expected_f == len(range(0, 128 - 16 + 1, 10)) == tf.N_FREQ_PATCHES
    assert expected_t == len(range(0, config.max_frames - 16 + 1, 10)) == config.n_time_patches
    assert seq.patches.shape == (expected_f * expected_t, 256) == (config.n_patches, 256)


# -------------------------------------------------------------- embedding


def test_embed_zero_patches_equals_positions():
    config = tf.desk_config(max_duration_s=0.5)
    params = tf.init_params(config, seed=3)
    n = config.n_patches
    tokens, mask = tf.embed_batch(np.zeros((1, n, 256)), params, config, grid_positions(config, 1))
    assert tokens.shape == (1, n + 1, config.embed_dim)
    assert mask.shape == (1, n + 1) and mask.all()
    pos = params["pos_grid"].data.reshape(n, config.embed_dim)
    np.testing.assert_array_equal(tokens.data[0, 1:], pos)
    np.testing.assert_array_equal(tokens.data[0, 0], params["pos_cls"].data)  # CLS init zeros


def test_embed_gathers_positions_of_packed_patches():
    config = tf.desk_config(max_duration_s=0.5)
    params = tf.init_params(config, seed=3)
    positions = np.array([[0, 5, 7], [2, 2, 0]])
    tokens, mask = tf.embed_batch(np.zeros((2, 3, 256)), params, config, positions)
    pos = params["pos_grid"].data.reshape(config.n_patches, config.embed_dim)
    np.testing.assert_array_equal(tokens.data[:, 1:], pos[positions])
    assert mask.shape == (2, 4) and mask.all()
    with pytest.raises(tf.ModelError, match="positions shape"):
        tf.embed_batch(np.zeros((2, 3, 256)), params, config, positions[:, :2])


def test_embed_full_scale_shape(rng):
    config = tf.ModelConfig(embed_dim=768, n_heads=12, n_layers=0, max_duration_s=12.0)
    params = tf.init_params(config, seed=0)
    seq = tf.extract_patches(make_spec(1200, rng=rng), config)
    tokens, mask = tf.embed_batch(seq.patches[None], params, config, grid_positions(config, 1))
    assert tokens.shape == (1, 1429, 768)
    assert mask.shape == (1, 1429)


def test_embed_shape_mismatch_rejected(rng):
    config = tf.desk_config(max_duration_s=0.5)
    params = tf.init_params(config, seed=0)
    bad = np.zeros((config.n_patches, 128))
    with pytest.raises(tf.ModelError, match="patch width"):
        tf.embed_batch(bad[None], params, config, grid_positions(config, 1))


# ---------------------------------------------------------------- encoder


def test_zero_layers_is_identity(rng):
    """With no blocks the CLS token passes through unchanged."""
    config = tf.desk_config(n_layers=0, max_duration_s=0.5)
    tokens = Tensor(rng.normal(size=(1, 7, config.embed_dim)))
    out = tf.encoder_forward(tokens, tf.init_params(config, 0), config)
    np.testing.assert_array_equal(out.data, tokens.data[:, 0])


def _encoder_all_tokens(tokens, params, config):
    """Every block over every token, then the CLS row: the stack whose
    last block the CLS-only one replaced, kept as its reference."""
    x = tokens
    for i in range(config.n_layers):
        pre = f"layer{i}_"
        h = layer_norm(x, params[pre + "ln1_gamma"], params[pre + "ln1_beta"])
        x = x + tf._attention(h, h, params, pre, config)
        h = layer_norm(x, params[pre + "ln2_gamma"], params[pre + "ln2_beta"])
        h = linear(h, params[pre + "mlp_w1"], params[pre + "mlp_b1"]).gelu()
        x = x + linear(h, params[pre + "mlp_w2"], params[pre + "mlp_b2"])
    return x[:, 0]


@pytest.mark.parametrize("frames", [(70,), (70, 61, 65)], ids=["one_clip", "mixed_batch"])
@pytest.mark.parametrize("packed", [False, True], ids=["dense", "packed"])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_cls_only_last_block_equals_full_token_stack(rng, n_layers, packed, frames):
    """CLS states within 1e-12 and every parameter gradient within 1e-12
    of the largest one, on prepared clips or on their whole grids, whose
    floor-padded patches are tokens too. The batch's clips of 61 to 70
    frames fill 7 time patches each, so their prepared patches stack.
    The bound is global, not per parameter: the key biases have an
    analytically zero gradient, so theirs is rounding noise."""
    config = tf.desk_config(n_layers=n_layers, max_duration_s=1.0)
    model = tf.SpectrogramTransformer(config, float64(tf.init_params(config, seed=12)))
    specs = [make_spec(n, rng=rng) for n in frames]
    if packed:
        patches, positions = stack([model.prepare(s.values) for s in specs])
        assert positions.shape == (len(frames), 7 * tf.N_FREQ_PATCHES)
    else:
        seqs = [tf.extract_patches(s, config) for s in specs]
        patches, positions = np.stack([s.patches for s in seqs]), grid_positions(config, len(seqs))
    labels = rng.uniform(1, 5, size=len(frames))

    def run(encoder):
        tokens, _ = tf.embed_batch(patches, model.params, config, positions)
        cls_state = encoder(tokens, model.params, config)
        preds = tf.head_outputs(cls_state, model.params, config)
        total = None
        for t in TASKS:
            loss = mse_loss(preds[t], labels, np.ones(len(frames), bool), len(frames))
            total = loss if total is None else total + loss
        leaf_grads = total.backward()
        return cls_state.data, {name: leaf_grads[p] for name, p in model.params.items()}

    cls_state, grads = run(tf.encoder_forward)
    ref_state, ref_grads = run(_encoder_all_tokens)
    assert cls_state.shape == (len(frames), config.embed_dim)
    assert np.abs(cls_state - ref_state).max() <= 1e-12
    largest = max(np.abs(g).max() for g in ref_grads.values())
    for name in grads:
        assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12 * largest, name


# ------------------------------------------------------------- prediction


def test_constant_heads_give_clipped_bias(rng):
    config = tf.desk_config(n_layers=1, max_duration_s=0.5)
    params = tf.init_params(config, seed=2)
    biases = {"mos": 3.5, "col": 0.0, "dis": 7.0, "loud": 1.7, "noi": -2.0}
    for task, b in biases.items():
        params[f"head_{task}_w"].data[:] = 0.0
        params[f"head_{task}_b"].data[:] = b
    scores = tf.SpectrogramTransformer(config, params).predict_scores(make_spec(40, rng=rng).values)
    assert scores.mos == 3.5
    assert scores.col == 1.0  # clipped up
    assert scores.dis == 5.0  # clipped down
    assert scores.loud == pytest.approx(1.7)
    assert scores.noi == 1.0
    assert all(scores.present(t) for t in TASKS)


def test_predict_deterministic(rng):
    config = tf.desk_config(max_duration_s=0.5)
    params = tf.init_params(config, seed=1)
    values = make_spec(45, rng=rng).values
    model = tf.SpectrogramTransformer(config, params)
    assert model.predict_scores(values) == model.predict_scores(values.copy())


def test_invalid_patch_content_is_ignored(rng):
    """prepare hands the forward a clip's valid patches and their grid
    positions alone, so no patch of padding becomes a token."""
    config = tf.desk_config(max_duration_s=1.0)
    model = tf.SpectrogramTransformer(config, seed=4)
    spec = make_spec(40, rng=rng)
    seq = tf.extract_patches(spec, config)
    assert not seq.valid.all()

    patches, positions = model.prepare(spec.values)
    assert patches.dtype == np.float32 and positions.shape == (1, seq.valid.sum())
    np.testing.assert_array_equal(patches[0], seq.patches[seq.valid].astype(np.float32))
    np.testing.assert_array_equal(positions[0], np.flatnonzero(seq.valid))


def test_permuting_valid_patches_changes_output(rng):
    config = tf.desk_config(max_duration_s=1.0)
    model = tf.SpectrogramTransformer(config, seed=4)
    patches, positions = model.prepare(make_spec(100, rng=rng).values)
    base = model.forward_batch((patches, positions))
    swapped = patches.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    other = model.forward_batch((swapped, positions))
    diffs = [abs(base[t].data[0] - other[t].data[0]) for t in TASKS]
    assert max(diffs) > 1e-8  # positional embeddings make order matter


@pytest.mark.parametrize("frames", [5, 100, 300, 400, 500], ids=lambda n: f"{n}_frames")
def test_packed_scores_equal_dense_scores(rng, frames):
    """Valid patches alone give the head outputs of the clip's whole grid
    in the window its patches fill, at the same grid positions: clips
    shorter than a patch, of 1 s and 3 s, exactly max_frames (4 s) and
    longer than the window."""
    config = tf.desk_config(max_duration_s=4.0)
    model = tf.SpectrogramTransformer(config, float64(tf.init_params(config, seed=8)))
    values = make_spec(frames, rng=rng).values
    cut, cut_params = cut_window(model.params, config, frames)
    seq = tf.extract_patches(LogMelSpectrogram(values, 128, HOP, 0.025), cut)
    assert seq.valid.all()
    dense = dense_scores(seq.patches[None], cut_params, cut)

    patches, positions = model.prepare(values)
    assert patches.shape[1] == cut.n_patches  # no padding at all
    packed = model.forward_batch((patches, positions))
    for t in TASKS:
        assert abs(packed[t].data[0] - dense[t].data[0]) <= 1e-12


def test_mixed_length_batch_equals_per_clip_scoring(rng):
    """Clips of 61 to 70 frames fill 7 time patches each, so their
    prepared patches stack into one batch, which scores each clip as a
    forward of its own does."""
    config = tf.desk_config(max_duration_s=2.0)
    model = tf.SpectrogramTransformer(config, float64(tf.init_params(config, seed=9)))
    inputs = [model.prepare(make_spec(n, rng=rng).values) for n in (61, 70, 66, 64)]
    batched = model.forward_batch(stack(inputs))
    for i, clip in enumerate(inputs):
        alone = model.forward_batch(clip)
        for t in TASKS:
            assert abs(batched[t].data[i] - alone[t].data[0]) <= 1e-12


def test_packed_batch_gradients_equal_dense(rng):
    """Clips sharing grid positions accumulate into the same pos_grid
    rows: the summed gradients of three clips' packed forwards equal
    those of their whole grids, each in the window it fills."""
    config = tf.desk_config(max_duration_s=1.0)
    params = float64(tf.init_params(config, seed=10))
    model = tf.SpectrogramTransformer(config, params)
    frames = (40, 100, 70)
    specs = [make_spec(n, rng=rng) for n in frames]
    labels = rng.uniform(1, 5, size=3)

    def grads(forward):
        total = None
        for i, spec in enumerate(specs):
            preds = forward(i, spec)
            for t in TASKS:
                loss = mse_loss(preds[t], labels[i : i + 1], np.ones(1, bool), 3)
                total = loss if total is None else total + loss
        leaf_grads = total.backward()
        return {name: leaf_grads[p] for name, p in params.items()}

    def dense(i, spec):
        cut, cut_params = cut_window(params, config, frames[i])
        return dense_scores(tf.extract_patches(spec, cut).patches[None], cut_params, cut)

    packed = grads(lambda i, spec: model.forward_batch(model.prepare(spec.values)))
    reference = grads(dense)
    for name in params:
        np.testing.assert_allclose(packed[name], reference[name], rtol=1e-9, atol=1e-12, err_msg=name)


# ---------------------------------------------------------- mask invariance


def test_mask_invariance_under_extended_padding(rng):
    """A clip scores the same in a 1.0 s and a 1.5 s window: the longer
    window adds only padding, which prepare never makes a token."""
    short_cfg = tf.desk_config(max_duration_s=1.0)
    long_cfg = tf.desk_config(max_duration_s=1.5)
    params_short = tf.init_params(short_cfg, seed=11)
    params_long = widen_max_duration(params_short, short_cfg, long_cfg, seed=99)
    dtype = params_short["proj_w"].data.dtype  # float32, the dtype a model computes in
    assert all(p.data.dtype == dtype for p in params_long.values())
    short = tf.SpectrogramTransformer(short_cfg, params_short)
    long = tf.SpectrogramTransformer(long_cfg, params_long)

    # content must end inside the patch coverage both grids share; a clip
    # reaching past n_time_short * stride would gain an extra valid patch
    # in the longer grid (real frames the short grid never covered)
    max_real = short_cfg.n_time_patches * tf.PATCH_STRIDE
    for trial in range(5):
        values = make_spec(int(rng.integers(30, max_real + 1)), rng=rng).values
        out_s = short.forward_batch(short.prepare(values))
        out_l = long.forward_batch(long.prepare(values))
        for t in TASKS:
            assert out_s[t].data.dtype == out_l[t].data.dtype == dtype
            assert abs(out_s[t].data[0] - out_l[t].data[0]) < 1e-5


# ------------------------------------------------------------ grad patterns


def test_head_gradients_do_not_leak(rng):
    config = tf.desk_config(max_duration_s=0.5)
    model = tf.SpectrogramTransformer(config, seed=6)
    model_params = model.params
    preds = model.forward_batch(model.prepare(make_spec(config.max_frames, rng=rng).values))
    target = np.array([2.0])
    mask = np.array([True])
    grads = mse_loss(preds["mos"], target, mask, 1).backward()

    assert np.abs(grads[model_params["head_mos_w"]]).max() > 0
    for other in ("col", "dis", "loud", "noi"):
        grad = grads.get(model_params[f"head_{other}_w"])
        assert grad is None or not grad.any()
    assert np.abs(grads[model_params["proj_w"]]).max() > 0  # backbone receives gradient


def test_all_parameters_receive_gradient_from_full_batch(rng):
    config = tf.desk_config(max_duration_s=0.5)
    model = tf.SpectrogramTransformer(config, seed=7)
    params = model.params
    specs = [make_spec(config.max_frames, rng=rng) for _ in range(3)]
    preds = model.forward_batch(stack([model.prepare(s.values) for s in specs]))
    total = None
    for t in TASKS:
        loss = mse_loss(preds[t], rng.uniform(1, 5, size=3), np.ones(3, bool), 3)
        total = loss if total is None else total + loss
    grads = total.backward()
    for name, p in params.items():
        assert p in grads and np.abs(grads[p]).max() > 0, f"{name} got no gradient"


def test_desk_training_step_peaks_below_28_token_arrays_per_layer():
    """One training step of the desk AST (8 clips of 2 s: N = 229 tokens,
    D = 64, H = 4, 2 layers, float32): preparing the clips' patches,
    forward, backward and ADAM peak below 28 (B,N,D) arrays per layer,
    25.0 MiB (measured 6.9 on two workers; 18.7 when the step ran the
    batch as one). A layer's (B,H,N,N) probabilities alone are N*H/D = 14.3
    such arrays; the step that kept them, and two arrays per linear
    layer, peaked at 43.0 MiB."""
    config = tf.desk_config()
    model = tf.SpectrogramTransformer(config, seed=0)
    rng = np.random.default_rng(1)
    samples = [
        make_sample(in_memory(rng.normal(-5.0, 2.0, size=(200, 128))),
                    QualityScores(**{t: float(rng.uniform(1.0, 5.0)) for t in TASKS}))
        for _ in range(8)
    ]
    n_tokens = config.n_patches + 1
    token_bytes = len(samples) * n_tokens * config.embed_dim * 4
    optimizer = Adam(model.params)

    peak, _ = peak_traced_bytes(lambda: train_step(model, optimizer, samples, 1e-3, 2))
    assert n_tokens == 229
    assert peak < 28 * config.n_layers * token_bytes, f"peak {peak / 2**20:.1f} MiB"
