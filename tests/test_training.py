"""Trainer tests: masked MSE, ADAM, the patience controller, gradient
accumulation equivalence, and the fit loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqatk import transformer as tf
from sqatk.autodiff import Tensor
from sqatk.frontend import LogMelSpectrogram
from sqatk.quality import TASKS, QualityScores
from sqatk.training import (
    Adam,
    PatienceController,
    TrainConfig,
    TrainingError,
    fit,
    make_sample,
    mse_loss,
    predict_raw,
)

from model_fixtures import float64, in_memory

# ------------------------------------------------------------------- loss


def test_mse_zero_residual():
    pred = Tensor(np.array([1.0, 2.0, 3.0]))
    assert float(mse_loss(pred, np.array([1.0, 2.0, 3.0]), np.ones(3, bool)).data) == 0.0


def test_mse_hand_arithmetic():
    pred = Tensor(np.array([3.0, 3.0]))
    loss = mse_loss(pred, np.array([1.0, 5.0]), np.ones(2, bool))
    assert float(loss.data) == pytest.approx(4.0)


def test_mse_masked_hand_arithmetic():
    pred = Tensor(np.array([2.0, 9.0]))
    loss = mse_loss(pred, np.array([3.0, 0.0]), np.array([True, False]))
    assert float(loss.data) == pytest.approx(1.0)


def test_mse_all_masked_raises():
    with pytest.raises(TrainingError, match="at least one"):
        mse_loss(Tensor(np.zeros(2)), np.zeros(2), np.zeros(2, bool))


def test_mse_length_mismatch():
    with pytest.raises(TrainingError, match="mismatch"):
        mse_loss(Tensor(np.zeros(2)), np.zeros(3), np.ones(3, bool))


# ------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_params():
    p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    opt = Adam(p)
    p["w"].grad = np.zeros(2)
    opt.step(0.1)
    np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    # closed form: delta = -lr * g / (|g| + eps) ~= -lr * sign(g)
    g = np.array([0.5, -3.0, 1e-4])
    p = {"w": Tensor(np.zeros(3), requires_grad=True)}
    opt = Adam(p)
    p["w"].grad = g.copy()
    opt.step(0.01)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p["w"].data, expected, rtol=1e-12)
    assert np.all(np.sign(p["w"].data) == -np.sign(g))


def test_adam_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(3)
        p = {"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}
        opt = Adam(p)
        for step in range(25):
            loss = ((p["w"] @ Tensor(np.ones((3, 1)))) * (p["w"] @ Tensor(np.ones((3, 1))))).sum()
            opt.zero_grad()
            loss.backward()
            opt.step(1e-2)
        return p["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


# ------------------------------------------------------- five-task backward


def test_accumulated_task_gradients_equal_summed_loss(rng):
    config = tf.desk_config(n_layers=1, max_duration_s=0.4)
    spec = LogMelSpectrogram(rng.normal(-4, 2, size=(config.max_frames, 128)), 128, 0.010, 0.025)
    seq = tf.extract_patches(spec, config)
    patches, valid = seq.patches[None], seq.valid[None]
    labels = {t: rng.uniform(1, 5, size=1) for t in TASKS}
    mask = np.ones(1, bool)

    def grads_from(run):
        params = float64(tf.init_params(config, seed=9))
        run(params)
        return {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}

    def summed(params):
        preds = tf.forward_scores(patches, valid, params, config)
        total = None
        for t in TASKS:
            loss = mse_loss(preds[t], labels[t], mask)
            total = loss if total is None else total + loss
        total.backward()

    def per_task(params):
        # one backward per task loss, gradients accumulating in place
        preds = tf.forward_scores(patches, valid, params, config)
        for t in TASKS:
            mse_loss(preds[t], labels[t], mask).backward()

    a, b = grads_from(summed), grads_from(per_task)
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_allclose(a[name], b[name], atol=1e-9)


def test_head_loss_gradient_is_zero_for_other_heads(rng):
    config = tf.desk_config(n_layers=1, max_duration_s=0.4)
    params = tf.init_params(config, seed=10)
    spec = LogMelSpectrogram(rng.normal(-4, 2, size=(30, 128)), 128, 0.010, 0.025)
    seq = tf.extract_patches(spec, config)
    preds = tf.forward_scores(seq.patches[None], seq.valid[None], params, config)
    mse_loss(preds["col"], np.array([3.0]), np.ones(1, bool)).backward()
    for other in ("mos", "dis", "loud", "noi"):
        for suffix in ("w", "b"):
            grad = params[f"head_{other}_{suffix}"].grad
            assert grad is None or not grad.any()


# -------------------------------------------------------------- controller


def run_controller(monitors, es_patience=20, lr_patience=15):
    ctl = PatienceController(es_patience, lr_patience)
    halve_epochs, stop_epoch = [], None
    for epoch, m in enumerate(monitors, start=1):
        stop, halve = ctl.update(m, epoch)
        if halve:
            halve_epochs.append(epoch)
        if stop:
            stop_epoch = epoch
            break
    return stop_epoch, halve_epochs, ctl.best_epoch


def test_frozen_monitor_stops_after_patience():
    stop, halves, best = run_controller([0.5] * 100)
    assert stop == 21  # epoch 1 improves; 20 flat epochs then stop
    assert halves == [16]  # lr patience 15 expires at epoch 16
    assert best == 1


def test_strictly_improving_monitor_never_stops():
    stop, halves, _ = run_controller([i * 0.01 for i in range(1, 200)])
    assert stop is None
    assert halves == []


def test_improvement_resets_both_counters():
    monitors = [0.5] + [0.4] * 14 + [0.9] + [0.1] * 20
    stop, halves, best = run_controller(monitors)
    assert best == 16
    assert halves == [31]  # counter restarted at the epoch-16 improvement
    assert stop == 36


def test_lr_halves_repeatedly_with_long_plateau():
    stop, halves, _ = run_controller([1.0] + [0.0] * 50, es_patience=40, lr_patience=15)
    assert halves == [16, 31]  # third halving would land after the stop
    assert stop == 41


def test_equal_monitor_counts_as_no_improvement():
    stop, _, best = run_controller([0.7, 0.7, 0.7], es_patience=2, lr_patience=50)
    assert stop == 3
    assert best == 1


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=60))
def test_controller_is_pure_function_of_sequence(monitors):
    assert run_controller(monitors, 5, 3) == run_controller(monitors, 5, 3)


# --------------------------------------------------------------------- fit


class TinyModel:
    """One weight per task over a 1-D feature; fast fit-loop probe."""

    kind = "tiny"

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.params = {
            f"w_{t}": Tensor(rng.normal(size=(1, 1)), requires_grad=True) for t in TASKS
        }

    def prepare(self, value):
        return np.atleast_1d(value)

    def collate(self, inputs):
        return np.stack(inputs)

    def forward_batch(self, batch):
        x = Tensor(batch)
        return {t: (x @ self.params[f"w_{t}"]).reshape((batch.shape[0],)) for t in TASKS}


def tiny_samples(n, rng, slope=1.0):
    samples = []
    for _ in range(n):
        x = float(rng.uniform(0.5, 2.0))
        scores = QualityScores(**{t: float(np.clip(slope * x + 1.0, 1, 5)) for t in TASKS})
        samples.append(make_sample(in_memory(np.array([x])), scores))
    return samples


@pytest.mark.parametrize("field, value", [("learning_rate", float("nan")), ("learning_rate", float("inf")),
                                          ("learning_rate", 0.0), ("seed", -1)])
def test_config_rejects_a_rate_or_seed_that_cannot_train(field, value):
    """A NaN rate used to pass the positivity check, and a negative seed
    failed later inside numpy's default_rng."""
    with pytest.raises(TrainingError, match=field):
        TrainConfig(**{field: value})


def test_fit_zero_epochs_rejected():
    """The config rejects what fit cannot run; -3 used to say "max_epochs is 0"."""
    for epochs in (0, -3):
        with pytest.raises(TrainingError, match="max_epochs must be >= 1"):
            TrainConfig(max_epochs=epochs)


def test_fit_runs_and_returns_best(rng):
    model = TinyModel(seed=1)
    train = tiny_samples(12, rng)
    result = fit(model, train, train, TrainConfig(learning_rate=0.05, max_epochs=30, batch_size=4, seed=7))
    assert result.epochs_run <= 30
    assert result.best_epoch >= 1
    assert set(result.params) == set(model.params)
    losses = [rec.task_losses["mos"] for rec in result.history]
    assert losses[-1] < losses[0]


def test_fit_history_columns(tmp_path, rng):
    model = TinyModel(seed=2)
    train = tiny_samples(8, rng)
    path = tmp_path / "history.csv"
    fit(model, train, train, TrainConfig(learning_rate=0.05, max_epochs=3, batch_size=8), history_path=path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["epoch", "loss_mos", "loss_col", "loss_dis", "loss_loud", "loss_noi",
                      "val_pcc_mos", "val_rmse_mos", "lr", "monitor"]
    assert len(path.read_text().splitlines()) == 4


def test_fit_constant_predictions_record_worst_monitor(rng):
    # zero slope data with all-equal labels: validation PCC is undefined
    model = TinyModel(seed=3)
    for t in TASKS:
        model.params[f"w_{t}"].data[:] = 0.0
    samples = tiny_samples(6, rng, slope=0.0)
    result = fit(model, samples, samples, TrainConfig(learning_rate=1e-9, max_epochs=2, batch_size=6))
    assert result.history[0].monitor == -np.inf
    assert np.isnan(result.history[0].val_pcc_mos)
    assert result.epochs_run == 2  # training continued


def test_fit_same_seed_same_history(rng):
    def run():
        model = TinyModel(seed=4)
        train = tiny_samples(10, np.random.default_rng(0))
        result = fit(model, train, train, TrainConfig(learning_rate=0.03, max_epochs=8, batch_size=3, seed=11))
        return [(rec.epoch, rec.monitor, tuple(sorted(rec.task_losses.items()))) for rec in result.history]

    assert run() == run()


def test_missing_dimension_contributes_no_loss(rng):
    model = TinyModel(seed=5)
    scores = QualityScores(mos=3.0, col=None, dis=None, loud=None, noi=None)
    samples = [make_sample(in_memory(np.array([1.0])), scores),
               make_sample(in_memory(np.array([2.0])), QualityScores(mos=2.0))]
    result = fit(model, samples, samples, TrainConfig(learning_rate=0.01, max_epochs=2, batch_size=2))
    assert set(result.history[0].task_losses) == {"mos"}


def test_loss_trend_non_increasing_over_50_steps():
    """Over a 50-step full-batch window the loss must not end higher
    than it began, in at least 95% of seeded trials."""
    config = tf.desk_config(max_duration_s=0.3)
    passed = 0
    trials = 20
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        params = tf.init_params(config, seed=seed)
        specs = [rng.normal(-5, 2, size=(config.max_frames, 128)) for _ in range(6)]
        seqs = [tf.extract_patches(LogMelSpectrogram(s, 128, 0.010, 0.025), config) for s in specs]
        patches = np.stack([s.patches for s in seqs])
        valid = np.stack([s.valid for s in seqs])
        labels = {t: rng.uniform(1, 5, size=6) for t in TASKS}
        mask = np.ones(6, bool)
        opt = Adam(params)

        def total_loss():
            preds = tf.forward_scores(patches, valid, params, config)
            total = None
            for t in TASKS:
                loss = mse_loss(preds[t], labels[t], mask)
                total = loss if total is None else total + loss
            return total

        start = float(total_loss().data)
        for _ in range(50):
            opt.zero_grad()
            loss = total_loss()
            loss.backward()
            opt.step(1e-3)
        end = float(total_loss().data)
        if end <= start + 1e-12:
            passed += 1
    assert passed / trials >= 0.95


def test_training_step_after_predict_gets_gradients(rng):
    config = tf.desk_config(n_layers=1, max_duration_s=0.5)
    model = tf.SpectrogramTransformer(config, seed=12)
    clips = [rng.normal(-5, 2, size=(n, 128)) for n in (30, 45)]
    model.predict_scores(clips[0])
    samples = [
        make_sample(in_memory(v), QualityScores(**{t: label for t in TASKS}))
        for v, label in zip(clips, (2.0, 4.0))
    ]
    fit(model, samples, samples, TrainConfig(max_epochs=1, batch_size=2))
    for name, p in model.params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, f"{name} got no gradient"


def test_validation_scores_in_batches_match_one_batch(rng):
    config = tf.desk_config(n_layers=1, max_duration_s=0.5)
    model = tf.SpectrogramTransformer(config, float64(tf.init_params(config, seed=13)))
    loads = [in_memory(rng.normal(-5, 2, size=(n, 128))) for n in (20, 50, 35, 50, 8)]
    whole = predict_raw(model, loads, batch_size=len(loads))
    chunked = predict_raw(model, loads, batch_size=2)
    for t in TASKS:
        assert chunked[t].shape == (5,)
        np.testing.assert_allclose(chunked[t], whole[t], rtol=0, atol=1e-12)
