"""CNN baseline tests: forward contract, shift tolerance, gradient
checks, and front-end sharing with the transformer path."""

import hashlib

import numpy as np
import pytest

from sqatk import cnn as cnn_mod
from sqatk import frontend as fe
from sqatk import transformer as tf
from sqatk.autodiff import Tensor, conv2d, linear, maxpool2d, no_grad
from sqatk.quality import TASKS, QualityScores, clip_score
from sqatk.training import Adam, make_sample, mse_loss, train_step

from gradcheck import full_cnn_check
from memory import peak_traced_bytes
from model_fixtures import desk_cnn_config, in_memory

SR = 48000


def test_config_head_width():
    config = cnn_mod.CnnConfig()
    assert config.reduced_mels == 8
    assert config.derived_head_input == 64 * 8


def test_config_stage_mismatch():
    with pytest.raises(tf.ModelError, match="per stage"):
        cnn_mod.CnnConfig(channels=(8, 16), pool=(2,))


@pytest.mark.parametrize("seconds", [0.1, 0.15])
def test_config_rejects_a_window_that_pools_time_away(seconds):
    """0.1 s is 10 frames, pooled 10 -> 5 -> 2 -> 1 -> 0; 0.15 s pools
    to 0 as well. 0.16 s keeps one frame."""
    with pytest.raises(tf.ModelError, match="time axis"):
        cnn_mod.CnnConfig(max_duration_s=seconds)
    cnn_mod.CnnConfig(max_duration_s=0.16)


@pytest.mark.parametrize("channels,pool", [((8, 0), (2, 2)), ((-1, 8), (2, 2)), ((8, 16), (2, 0))])
def test_config_rejects_a_stage_below_one(channels, pool):
    """An empty stage or a zero pool factor from a config file is a typed
    error, not an OverflowError or ZeroDivisionError traceback."""
    with pytest.raises(tf.ModelError, match="must be >= 1"):
        cnn_mod.CnnConfig(channels=channels, pool=pool)


def test_zero_params_give_clipped_bias(rng):
    config = desk_cnn_config()
    params = cnn_mod.ConvBaseline(config, seed=0).params
    for name, p in params.items():
        p.data[:] = 0.0
    params["head_mos_b"].data[:] = 2.25
    params["head_noi_b"].data[:] = -3.0
    values = rng.normal(-5, 2, size=(150, 128))
    scores = cnn_mod.ConvBaseline(config, params).predict_scores(values)
    assert scores.mos == pytest.approx(2.25)
    assert scores.noi == 1.0  # clipped up from -3
    assert scores.col == 1.0


def test_forward_finite_on_desk_input(rng):
    config = desk_cnn_config()
    params = cnn_mod.ConvBaseline(config, seed=1).params
    values = rng.normal(-5, 2, size=(1200, 128))  # longer than max: truncated
    scores = cnn_mod.ConvBaseline(config, params).predict_scores(values)
    for t in TASKS:
        v = scores.get(t)
        assert v is not None and np.isfinite(v) and 1.0 <= v <= 5.0


def test_forward_rejects_wrong_plane(rng):
    config = desk_cnn_config()
    params = cnn_mod.ConvBaseline(config, seed=1).params
    with pytest.raises(tf.ModelError, match="plane"):
        cnn_mod.cnn_forward_batch(rng.normal(size=(1, 1, 64, 10)), params, config)


def test_time_shift_by_pooling_period_barely_moves_features(rng):
    """Shifting a steady tone by one full pooling period (16 frames)
    leaves the global-average-pooled features nearly unchanged."""
    config = desk_cnn_config()
    params = cnn_mod.ConvBaseline(config, seed=0).params
    freq = 32 * SR / 2048  # exact FFT bin center
    shift = 16 * 480
    n_need = (config.max_frames - 1) * 480 + 1200
    t = np.arange(n_need + shift) / SR
    wave = 0.6 * np.sin(2 * np.pi * freq * t)
    spec_a = fe.log_mel_spectrogram(fe.AudioClip(wave[:n_need], SR)).values
    spec_b = fe.log_mel_spectrogram(fe.AudioClip(wave[shift : shift + n_need], SR)).values

    def features(values):
        from sqatk.autodiff import Tensor, conv2d, maxpool2d

        h = Tensor(tf.floor_pad(values, config)[None, None])
        for i, factor in enumerate(config.pool):
            h = conv2d(h, params[f"conv{i}_w"], params[f"conv{i}_b"]).relu()
            h = maxpool2d(h, factor)
        return (h.sum(axis=3) * (1.0 / h.shape[3])).data.reshape(-1)

    assert np.abs(features(spec_a) - features(spec_b)).max() < 1e-3


def test_gradients_against_finite_differences():
    assert full_cnn_check(seed=0) < 1e-3


def test_shared_front_end_feature_hashes(tmp_path, rng):
    """Both models read byte-identical feature files."""
    values = rng.normal(-5, 2, size=(120, 128))
    path = tmp_path / "clip.feat"
    fe.save_features(path, values)

    ast_model = tf.SpectrogramTransformer(tf.desk_config(max_duration_s=1.0), seed=0)
    cnn_model = cnn_mod.ConvBaseline(desk_cnn_config(max_duration_s=1.0), seed=0)

    loaded_for_ast = fe.load_features(path)
    loaded_for_cnn = fe.load_features(path)
    h1 = hashlib.sha256(loaded_for_ast.tobytes()).hexdigest()
    h2 = hashlib.sha256(loaded_for_cnn.tobytes()).hexdigest()
    assert h1 == h2
    # and both adapters accept the same matrix
    ast_model.prepare(loaded_for_ast)
    cnn_model.prepare(loaded_for_cnn)


def test_predict_scores_matches_cnn_forward(rng):
    config = desk_cnn_config(max_duration_s=1.0)
    model = cnn_mod.ConvBaseline(config, seed=3)
    values = rng.normal(-5, 2, size=(80, 128))
    scores = model.predict_scores(values)
    raw = cnn_mod.cnn_forward_batch(model.prepare(values)[None], model.params, config)
    for t in TASKS:
        assert scores.get(t) == clip_score(raw[t].data[0])


def test_identical_seeds_identical_checkpoints(tmp_path):
    from sqatk.checkpoint import load_checkpoint, save_checkpoint
    from sqatk.quality import QualityScores
    from sqatk.training import TrainConfig, fit, make_sample

    config = cnn_mod.CnnConfig(channels=(4, 8), pool=(2, 2), max_duration_s=0.3)

    def run(path):
        rng = np.random.default_rng(0)
        model = cnn_mod.ConvBaseline(config, seed=8)
        samples = [
            make_sample(
                in_memory(rng.normal(-5, 2, size=(25, 128))),
                QualityScores(**{t: float(rng.uniform(1, 5)) for t in TASKS}),
            )
            for _ in range(4)
        ]
        result = fit(model, samples, samples, TrainConfig(max_epochs=4, batch_size=4, seed=8),
                     path.with_suffix(".history.csv"))
        save_checkpoint(path, model.kind, model.config_echo(), result.params)

    run(tmp_path / "a.ckpt")
    run(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    kind, _, _ = load_checkpoint(tmp_path / "a.ckpt")
    assert kind == "cnn"


def _forward_relu_then_pool(x, params, config):
    """The stage order before pooling moved ahead of ReLU, kept as its
    reference."""
    h = Tensor(x)
    for i, factor in enumerate(config.pool):
        h = conv2d(h, params[f"conv{i}_w"], params[f"conv{i}_b"]).relu()
        h = maxpool2d(h, factor)
    batch = x.shape[0]
    feats = (h.sum(axis=3) * (1.0 / h.shape[3])).reshape((batch, config.derived_head_input))
    heads = {t: linear(feats, params[f"head_{t}_w"], params[f"head_{t}_b"]) for t in TASKS}
    return {t: raw.reshape((batch,)) for t, raw in heads.items()}


def test_pool_then_relu_is_bit_equal_to_relu_then_pool(rng):
    """Outputs and every parameter gradient are equal, on conv outputs
    with all-negative windows (channel 1), all-zero windows that tie
    after ReLU (channel 0) and constant windows over the padding."""
    config = cnn_mod.CnnConfig(channels=(4, 8), pool=(2, 2), max_duration_s=0.3)
    params = cnn_mod.ConvBaseline(config, seed=4).params
    params["conv0_w"].data[:2] = 0.0
    params["conv0_b"].data[:2] = (0.0, -1.0)
    clips = [rng.normal(-5, 2, size=(n, 128)) for n in (30, 12)]
    x = np.stack([tf.floor_pad(values, config)[None] for values in clips])
    with no_grad():
        first = maxpool2d(conv2d(Tensor(x), params["conv0_w"], params["conv0_b"]), 2).data
    assert (first[:, 0] == 0.0).all() and (first[:, 1] < 0.0).all()
    labels = rng.uniform(1, 5, size=2)

    def run(forward):
        preds = forward(x, params, config)
        total = None
        for t in TASKS:
            loss = mse_loss(preds[t], labels, np.ones(2, bool), 2)
            total = loss if total is None else total + loss
        leaf_grads = total.backward()
        # float64 x makes float64 gradients; in the float32 parameters'
        # dtype the two orders of db's sum round alike
        return [preds[t].data for t in TASKS], {name: leaf_grads[p].astype(p.data.dtype)
                                                for name, p in params.items()}

    preds, grads = run(cnn_mod.cnn_forward_batch)
    ref_preds, ref_grads = run(_forward_relu_then_pool)
    for got, ref in zip(preds, ref_preds):
        np.testing.assert_array_equal(got, ref)
    for name in grads:
        np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)


def test_raw_score_of_a_short_clip_depends_on_the_window():
    """Global average pooling averages over the padding too, so the same
    1 s clip scores differently in a 2 s and a 4 s window. This pins the
    behaviour; the CNN has no mask-invariance guarantee."""
    values = np.random.default_rng(0).normal(-5, 2, size=(100, 128))
    raw = []
    for seconds in (2.0, 4.0):
        model = cnn_mod.ConvBaseline(desk_cnn_config(max_duration_s=seconds), seed=0)
        with no_grad():
            raw.append(model.forward_batch(model.collate([model.prepare(values)]))["mos"].data[0])
    assert raw == [pytest.approx(-0.4954, abs=1e-4), pytest.approx(-0.5471, abs=1e-4)]


def _desk_cnn_batch(model, rng, batch=8):
    """batch full 2 s training samples for the desk CNN."""
    return [
        make_sample(in_memory(rng.normal(-5.0, 2.0, size=(200, 128))),
                    QualityScores(**{t: float(rng.uniform(1.0, 5.0)) for t in TASKS}))
        for _ in range(batch)
    ]


def _desk_cnn_step_peak() -> tuple[int, int]:
    """The traced peak of one desk CNN training step (8 clips of 2 s,
    float32, two workers): preparing the clips' planes, forward, backward and ADAM;
    and the bytes of the first layer's (8, 16, 128, 200) conv output."""
    config = desk_cnn_config()
    model = cnn_mod.ConvBaseline(config, seed=0)
    samples = _desk_cnn_batch(model, np.random.default_rng(1))
    conv0_bytes = len(samples) * config.channels[0] * 128 * config.max_frames * 4
    optimizer = Adam(model.params)

    peak, _ = peak_traced_bytes(lambda: train_step(model, optimizer, samples, 1e-3, 2))
    return peak, conv0_bytes


def test_desk_cnn_training_step_peaks_below_2_5_first_conv_outputs():
    """One training step of the desk CNN peaks below 2.5 of the first
    layer's conv outputs, 31.3 MiB (measured 13.0; 17.2 when the step ran
    the batch as one, 24.6 with a separate max-pool op, 27.7 when
    conv2d's backward built each tap's columns over the whole batch).
    The graph that kept every conv and pool
    output peaked at 54.6 MiB, 4.4 such arrays."""
    peak, conv0_bytes = _desk_cnn_step_peak()
    assert peak < 2.5 * conv0_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_desk_cnn_training_step_makes_no_full_resolution_conv_output():
    """The same step peaks below 1.6 of the first layer's conv outputs,
    20.0 MiB (measured 13.0; 17.2 when the step ran the batch as one):
    each conv2d pools a sample's output while it is in cache, so no
    stage makes its full-resolution conv output or that output's
    gradient. With conv2d at pool 1 and a separate
    maxpool2d, the step peaked at 24.6 MiB."""
    peak, conv0_bytes = _desk_cnn_step_peak()
    assert peak < 1.6 * conv0_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_recorded_cnn_forward_holds_no_conv_or_pool_output():
    """After a recorded desk CNN forward (8 clips of 2 s, float32) the
    graph holds each stage's ReLU output, which that ReLU's mask and the
    next conv's backward read, and each max-pool's uint8 map of winning
    slots: 7.07 MiB. The 64 KiB allowed beyond them, for the heads and
    the graph's nodes, is a third of the smallest pool output, so no
    conv or pool output is held; keeping them all held 34.0 MiB."""
    config = desk_cnn_config()
    model = cnn_mod.ConvBaseline(config, seed=0)
    x = model.collate([model.prepare(s.load()) for s in _desk_cnn_batch(model, np.random.default_rng(1))])
    batch, height, width = x.shape[0], 128, config.max_frames
    pooled_cells = []
    for channels, factor in zip(config.channels, config.pool):
        height, width = height // factor, width // factor
        pooled_cells.append(batch * channels * height * width)
    kept = sum(pooled_cells) * (4 + 1)  # float32 ReLU output and uint8 map per pooled cell
    slack = 64 * 2**10
    assert slack < min(pooled_cells) * 4

    def forward():
        out = cnn_mod.cnn_forward_batch(x, model.params, config)
        assert all(raw.requires_grad for raw in out.values())
        return out

    _, held = peak_traced_bytes(forward)
    assert held < kept + slack, f"held {held / 2**20:.2f} MiB of {kept / 2**20:.2f}"
