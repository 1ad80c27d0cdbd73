"""Trainer tests: masked MSE, ADAM, the patience controller, gradient
accumulation equivalence, and the fit loop."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqatk import cnn as cnn_mod
from sqatk import training
from sqatk import transformer as tf
from sqatk.autodiff import Tensor, linear
from sqatk.evaluation import pearson, rmse
from sqatk.frontend import LogMelSpectrogram
from sqatk.quality import TASKS, QualityScores
from sqatk.training import (
    Adam,
    PatienceController,
    Scorer,
    TrainConfig,
    TrainingError,
    _validation_mos,
    fit,
    make_sample,
    mse_loss,
    train_step,
)

from memory import peak_traced_bytes
from model_fixtures import desk_cnn_config, float64, in_memory

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


def _composed_mse(pred, target, mask):
    """The masked MSE as recorded ops, as mse_loss built it before it was
    one node: subtract the target, mask, square, sum and scale."""
    dtype = pred.data.dtype
    diff = (pred + Tensor(-np.where(mask, target, 0.0).astype(dtype))) * Tensor(mask.astype(dtype))
    return (diff * diff).sum() * (1.0 / int(mask.sum()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
def test_mse_loss_keeps_the_bits_of_the_composed_ops(dtype, shared):
    """mse_loss's value and pred's gradient equal the composed ops' bit
    for bit, under a partial mask with NaN targets where it is off. In
    the shared case the loss is scaled and pred feeds a second consumer,
    so the backward seed is not 1 and pred's gradient is a sum."""
    rng = np.random.default_rng(5)
    mask = rng.uniform(size=40) < 0.7
    target = np.where(mask, rng.uniform(1.0, 5.0, size=40), np.nan)
    pred = Tensor(rng.normal(3.0, 1.0, size=40).astype(dtype), requires_grad=True)
    probe = rng.normal(size=40)

    def run(loss_fn):
        loss = loss_fn(pred, target, mask)
        if shared:
            loss = loss * 0.3 + (pred * probe).sum()
        return loss.data, loss.backward()[pred]

    value, grad = run(mse_loss)
    ref_value, ref_grad = run(_composed_mse)
    assert value.dtype == grad.dtype == dtype
    assert value.tobytes() == ref_value.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    # masked-out entries get no loss gradient: only the probe's, if shared
    np.testing.assert_array_equal(grad[~mask], probe[~mask].astype(dtype) if shared else 0.0)


# ------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_params():
    """A zero gradient, given or missing from the map, moves nothing."""
    p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    opt = Adam(p)
    for grads in ({p["w"]: np.zeros(2)}, {}):
        opt.step(grads, 0.1)
        np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    # closed form: delta = -lr * g / (|g| + eps) ~= -lr * sign(g)
    g = np.array([0.5, -3.0, 1e-4])
    p = {"w": Tensor(np.zeros(3), requires_grad=True)}
    opt = Adam(p)
    opt.step({p["w"]: g}, 0.01)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p["w"].data, expected, rtol=1e-12)
    assert np.all(np.sign(p["w"].data) == -np.sign(g))


def test_adam_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(3)
        p = {"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}
        opt = Adam(p)
        for step in range(25):
            row_sums = linear(p["w"], Tensor(np.ones((3, 1))), Tensor(np.zeros(1)))
            loss = (row_sums * row_sums).sum()
            opt.step(loss.backward(), 1e-2)
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
        leaf_grads = run(params)
        return {k: leaf_grads.get(p, np.zeros_like(p.data)) for k, p in params.items()}

    def summed(params):
        preds = tf.forward_scores(patches, valid, params, config)
        total = None
        for t in TASKS:
            loss = mse_loss(preds[t], labels[t], mask)
            total = loss if total is None else total + loss
        return total.backward()

    def per_task(params):
        # one backward per task loss, their maps summed out of place
        preds = tf.forward_scores(patches, valid, params, config)
        total = {}
        for t in TASKS:
            for p, g in mse_loss(preds[t], labels[t], mask).backward().items():
                total[p] = total[p] + g if p in total else g
        return total

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
    grads = mse_loss(preds["col"], np.array([3.0]), np.ones(1, bool)).backward()
    for other in ("mos", "dis", "loud", "noi"):
        for suffix in ("w", "b"):
            grad = grads.get(params[f"head_{other}_{suffix}"])
            assert grad is None or not grad.any()


# -------------------------------------------------------------- controller


def run_controller(monitors):
    ctl = PatienceController()
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


def test_lr_halves_repeatedly_with_long_plateau(monkeypatch):
    """The LR counter restarts at each halving. At the protocol's patience
    counts the stop comes before a second halving, so the early-stop
    count is raised for this test only."""
    monkeypatch.setattr(TrainConfig, "early_stop_patience", 40)
    stop, halves, _ = run_controller([1.0] + [0.0] * 50)
    assert halves == [16, 31]  # third halving would land after the stop
    assert stop == 41


def test_equal_monitor_counts_as_no_improvement():
    stop, halves, best = run_controller([0.5, 0.7] + [0.7] * 30)
    assert best == 2
    assert halves == [17]
    assert stop == 22


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=60))
def test_controller_is_pure_function_of_sequence(monitors):
    assert run_controller(monitors) == run_controller(monitors)


# --------------------------------------------------------------------- fit


class TinyModel(Scorer):
    """One weight per task over a 1-D feature; fast fit-loop probe,
    validated through Scorer.predict_scores as the real models are."""

    kind = "tiny"

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        params = {f"w_{t}": Tensor(rng.normal(size=(1, 1)), requires_grad=True) for t in TASKS}
        super().__init__(SimpleNamespace(tasks=TASKS), params)

    def prepare(self, value):
        return np.atleast_1d(value)

    def collate(self, inputs):
        return np.stack(inputs)

    def forward_batch(self, batch):
        x, no_bias = Tensor(batch), Tensor(np.zeros(1))
        return {t: linear(x, self.params[f"w_{t}"], no_bias).reshape((batch.shape[0],)) for t in TASKS}


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
            opt.step(total_loss().backward(), 1e-3)
        end = float(total_loss().data)
        if end <= start + 1e-12:
            passed += 1
    assert passed / trials >= 0.95


def test_training_step_after_predict_gets_gradients(rng, monkeypatch):
    config = tf.desk_config(n_layers=1, max_duration_s=0.5)
    model = tf.SpectrogramTransformer(config, seed=12)
    clips = [rng.normal(-5, 2, size=(n, 128)) for n in (30, 45)]
    model.predict_scores(clips[0])
    samples = [
        make_sample(in_memory(v), QualityScores(**{t: label for t in TASKS}))
        for v, label in zip(clips, (2.0, 4.0))
    ]
    steps = []
    adam_step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, grads, lr: steps.append(grads) or adam_step(self, grads, lr))
    fit(model, samples, samples, TrainConfig(max_epochs=1, batch_size=2))
    (grads,) = steps
    for name, p in model.params.items():
        assert p in grads and np.abs(grads[p]).max() > 0, f"{name} got no gradient"


def test_fit_keeps_no_batchs_graph_into_the_next_batch():
    """fit over three desk-AST batches of 8 clips of 2 s peaks within
    1.15x of one train_step on one such batch: no batch's graph or
    gradient map lives on through the next batch's forward (measured
    20.7 against 19.2 MiB). When fit kept the last batch's loss, it
    peaked at 1.58x (30.4 MiB)."""
    config = tf.desk_config()
    rng = np.random.default_rng(1)
    samples = [make_sample(in_memory(rng.normal(-5.0, 2.0, size=(200, 128))),
                           QualityScores(**{t: float(rng.uniform(1.0, 5.0)) for t in TASKS}))
               for _ in range(24)]
    model = tf.SpectrogramTransformer(config, seed=0)
    optimizer = Adam(model.params)
    step_peak, _ = peak_traced_bytes(lambda: train_step(model, optimizer, samples[:8], 1e-3))
    model = tf.SpectrogramTransformer(config, seed=0)
    fit_peak, _ = peak_traced_bytes(
        lambda: fit(model, samples, samples[:4], TrainConfig(max_epochs=1, batch_size=8)))
    assert fit_peak < 1.15 * step_peak, f"fit {fit_peak / 2**20:.2f} MiB, step {step_peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("kind", ["ast", "cnn"])
def test_validation_reads_the_scores_predict_writes(rng, kind):
    """Validation's PCC and RMSE are those of the MOS that predict_scores,
    and so predict, gives each clip with a MOS label, bit for bit. A
    clip with no MOS label is not read. Scoring in padded batches of 8
    moved the AST's scores by rounding. Head biases of 3.0 put the
    untrained scores inside [1, 5]."""
    if kind == "ast":
        model = tf.SpectrogramTransformer(tf.desk_config(), seed=13)
    else:
        model = cnn_mod.ConvBaseline(desk_cnn_config(), seed=13)
    for t in TASKS:
        model.params[f"head_{t}_b"].data[:] = 3.0
    clips = [rng.normal(-5, 2, size=(n, 128)) for n in (200, 60, 150, 95, 30, 180, 120, 75)]
    labels = rng.uniform(1, 5, size=len(clips))
    samples = [make_sample(in_memory(v), QualityScores(mos=float(m))) for v, m in zip(clips, labels)]

    def unread():
        raise AssertionError("a clip with no MOS label was read")

    samples.insert(3, make_sample(unread, QualityScores(col=2.0)))

    pred = np.array([model.predict_scores(v).mos for v in clips])
    assert len(set(pred)) == len(clips) and 1 < pred.min() and pred.max() < 5
    pcc, err = pearson(pred, labels), rmse(pred, labels)
    assert _validation_mos(model, samples) == (pcc, err, pcc - err)


@pytest.mark.parametrize("batch_size", [1, 16])
def test_validation_memory_does_not_follow_batch_size(rng, monkeypatch, batch_size):
    """fit's validation over 16 desk-AST 2 s clips peaks under 4 MiB at
    any batch_size. Scored batch_size clips at a time, it peaked at 1.6
    MiB at batch 1 and 25.1 MiB at batch 16."""
    model = tf.SpectrogramTransformer(tf.desk_config(), seed=14)
    clips = [rng.normal(-5, 2, size=(model.config.max_frames, 128)) for _ in range(16)]
    samples = [make_sample(in_memory(v), QualityScores(mos=float(m)))
               for v, m in zip(clips, rng.uniform(1, 5, size=16))]
    validate, peaks = training._validation_mos, []

    def measured(model, val_samples):
        result = []
        peaks.append(peak_traced_bytes(lambda: result.append(validate(model, val_samples)))[0])
        return result[0]

    monkeypatch.setattr(training, "_validation_mos", measured)
    fit(model, samples[:2], samples, TrainConfig(max_epochs=1, batch_size=batch_size))
    assert len(peaks) == 1 and peaks[0] < 4 * 2**20, peaks
