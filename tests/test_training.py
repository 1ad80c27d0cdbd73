"""Trainer tests: masked MSE, ADAM, the patience controller, gradient
accumulation equivalence, and the fit loop."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqatk import cnn as cnn_mod
from sqatk import parallel, training
from sqatk import transformer as tf
from sqatk.autodiff import Tensor, linear
from sqatk.evaluation import pearson, rmse
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
from model_fixtures import desk_cnn_config, float64, in_memory, stack

# ------------------------------------------------------------------- loss


def test_mse_zero_residual():
    pred = Tensor(np.array([1.0, 2.0, 3.0]))
    assert float(mse_loss(pred, np.array([1.0, 2.0, 3.0]), np.ones(3, bool), 3).data) == 0.0


def test_mse_hand_arithmetic():
    pred = Tensor(np.array([3.0, 3.0]))
    loss = mse_loss(pred, np.array([1.0, 5.0]), np.ones(2, bool), 2)
    assert float(loss.data) == pytest.approx(4.0)


def test_mse_masked_hand_arithmetic():
    pred = Tensor(np.array([2.0, 9.0]))
    loss = mse_loss(pred, np.array([3.0, 0.0]), np.array([True, False]), 1)
    assert float(loss.data) == pytest.approx(1.0)
    # a shard of a batch with four labels divides by the batch's count
    shard_loss = mse_loss(pred, np.array([3.0, 0.0]), np.array([True, False]), 4)
    assert float(shard_loss.data) == pytest.approx(0.25)


def test_mse_all_masked_raises():
    with pytest.raises(TrainingError, match="at least one"):
        mse_loss(Tensor(np.zeros(2)), np.zeros(2), np.zeros(2, bool), 2)


def test_mse_length_mismatch():
    with pytest.raises(TrainingError, match="mismatch"):
        mse_loss(Tensor(np.zeros(2)), np.zeros(3), np.ones(3, bool), 3)


def _composed_mse(pred, target, mask, seed):
    """The masked MSE as mse_loss built it from recorded ops before it was
    one node, replayed in NumPy: the value and pred's gradient for the
    backward seed. Forward: add the negated target, mask, square, sum,
    scale. Backward, node by node: scale the seed, broadcast it over
    the sum, send g * diff to each operand of the square and add the
    two, then mask."""
    dtype = pred.dtype
    m = mask.astype(dtype)
    scale = 1.0 / int(mask.sum())
    diff = (pred + -np.where(mask, target, 0.0).astype(dtype)) * m
    value = (diff * diff).sum() * scale
    g = np.broadcast_to(seed * scale, pred.shape).copy()
    return value, (g * diff + g * diff) * m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
def test_mse_loss_keeps_the_bits_of_the_composed_ops(dtype, shared):
    """mse_loss's value and pred's gradient equal the composed ops' bit
    for bit, under a partial mask with NaN targets where it is off. In
    the shared case the loss is scaled and pred feeds a second consumer,
    so the backward seed is not 1 and pred's gradient is a sum; the
    gradient under that seed is also compared alone, as adding the
    second consumer's 2.0 rounds its last bits away."""
    rng = np.random.default_rng(5)
    mask = rng.uniform(size=40) < 0.7
    target = np.where(mask, rng.uniform(1.0, 5.0, size=40), np.nan)
    pred = Tensor(rng.normal(3.0, 1.0, size=40).astype(dtype), requires_grad=True)
    seed = np.ones((), dtype) * 0.3 if shared else np.ones((), dtype)

    loss = mse_loss(pred, target, mask, int(mask.sum()))
    value, grad = loss.data, loss.backward(seed)[pred]
    ref_value, ref_grad = _composed_mse(pred.data, target, mask, seed)
    assert value.dtype == grad.dtype == dtype
    assert value.tobytes() == ref_value.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    # masked-out entries get no loss gradient
    np.testing.assert_array_equal(grad[~mask], 0.0)
    if shared:
        total = loss * 0.3 + (pred * 2.0).sum()
        assert total.data.tobytes() == (ref_value * 0.3 + (pred.data * 2.0).sum()).tobytes()
        assert total.backward()[pred].tobytes() == (ref_grad + np.ones(40, dtype) * 2.0).tobytes()


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
            row_sums = linear(p["w"], Tensor(np.ones((3, 1))), Tensor(np.zeros(1))).reshape((4,))
            loss = mse_loss(row_sums, np.zeros(4), np.ones(4, bool), 4)
            opt.step(loss.backward(), 1e-2)
        return p["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


# ------------------------------------------------------- five-task backward


def test_accumulated_task_gradients_equal_summed_loss(rng):
    config = tf.desk_config(n_layers=1, max_duration_s=0.4)
    values = rng.normal(-4, 2, size=(config.max_frames, 128))
    labels = {t: rng.uniform(1, 5, size=1) for t in TASKS}
    mask = np.ones(1, bool)

    def grads_from(run):
        params = float64(tf.init_params(config, seed=9))
        leaf_grads = run(params)
        return {k: leaf_grads.get(p, np.zeros_like(p.data)) for k, p in params.items()}

    def forward(params):
        model = tf.SpectrogramTransformer(config, params)
        return model.forward_batch(model.prepare(values))

    def summed(params):
        preds = forward(params)
        total = None
        for t in TASKS:
            loss = mse_loss(preds[t], labels[t], mask, len(mask))
            total = loss if total is None else total + loss
        return total.backward()

    def per_task(params):
        # one backward per task loss, their maps summed out of place
        preds = forward(params)
        total = {}
        for t in TASKS:
            for p, g in mse_loss(preds[t], labels[t], mask, len(mask)).backward().items():
                total[p] = total[p] + g if p in total else g
        return total

    a, b = grads_from(summed), grads_from(per_task)
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_allclose(a[name], b[name], atol=1e-9)


def test_head_loss_gradient_is_zero_for_other_heads(rng):
    model = tf.SpectrogramTransformer(tf.desk_config(n_layers=1, max_duration_s=0.4), seed=10)
    params = model.params
    preds = model.forward_batch(model.prepare(rng.normal(-4, 2, size=(30, 128))))
    grads = mse_loss(preds["col"], np.array([3.0]), np.ones(1, bool), 1).backward()
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
        return np.atleast_1d(value)[None]

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


def test_fit_runs_and_returns_best(tmp_path, rng):
    model = TinyModel(seed=1)
    train = tiny_samples(12, rng)
    result = fit(model, train, train, TrainConfig(learning_rate=0.05, max_epochs=30, batch_size=4, seed=7),
                 tmp_path / "history.csv")
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


def test_fit_constant_predictions_record_worst_monitor(tmp_path, rng):
    # zero slope data with all-equal labels: validation PCC is undefined
    model = TinyModel(seed=3)
    for t in TASKS:
        model.params[f"w_{t}"].data[:] = 0.0
    samples = tiny_samples(6, rng, slope=0.0)
    result = fit(model, samples, samples, TrainConfig(learning_rate=1e-9, max_epochs=2, batch_size=6),
                 tmp_path / "history.csv")
    assert result.history[0].monitor == -np.inf
    assert np.isnan(result.history[0].val_pcc_mos)
    assert result.epochs_run == 2  # training continued


def test_fit_same_seed_same_history(tmp_path, rng):
    def run():
        model = TinyModel(seed=4)
        train = tiny_samples(10, np.random.default_rng(0))
        result = fit(model, train, train, TrainConfig(learning_rate=0.03, max_epochs=8, batch_size=3, seed=11),
                     tmp_path / "history.csv")
        return [(rec.epoch, rec.monitor, tuple(sorted(rec.task_losses.items()))) for rec in result.history]

    assert run() == run()


def test_missing_dimension_contributes_no_loss(tmp_path, rng):
    model = TinyModel(seed=5)
    scores = QualityScores(mos=3.0, col=None, dis=None, loud=None, noi=None)
    samples = [make_sample(in_memory(np.array([1.0])), scores),
               make_sample(in_memory(np.array([2.0])), QualityScores(mos=2.0))]
    result = fit(model, samples, samples, TrainConfig(learning_rate=0.01, max_epochs=2, batch_size=2),
                 tmp_path / "history.csv")
    assert set(result.history[0].task_losses) == {"mos"}


def test_loss_trend_non_increasing_over_50_steps():
    """Over a 50-step full-batch window the loss must not end higher
    than it began, in at least 95% of seeded trials."""
    config = tf.desk_config(max_duration_s=0.3)
    passed = 0
    trials = 20
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        model = tf.SpectrogramTransformer(config, seed=seed)
        params = model.params
        specs = [rng.normal(-5, 2, size=(config.max_frames, 128)) for _ in range(6)]
        batch = stack([model.prepare(s) for s in specs])
        labels = {t: rng.uniform(1, 5, size=6) for t in TASKS}
        mask = np.ones(6, bool)
        opt = Adam(params)

        def total_loss():
            preds = model.forward_batch(batch)
            total = None
            for t in TASKS:
                loss = mse_loss(preds[t], labels[t], mask, len(mask))
                total = loss if total is None else total + loss
            return total

        start = float(total_loss().data)
        for _ in range(50):
            opt.step(total_loss().backward(), 1e-3)
        end = float(total_loss().data)
        if end <= start + 1e-12:
            passed += 1
    assert passed / trials >= 0.95


def test_training_step_after_predict_gets_gradients(tmp_path, rng, monkeypatch):
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
    fit(model, samples, samples, TrainConfig(max_epochs=1, batch_size=2), tmp_path / "history.csv")
    (grads,) = steps
    for name, p in model.params.items():
        assert p in grads and np.abs(grads[p]).max() > 0, f"{name} got no gradient"


def _desk_samples(n, seed=1, frames=(200,)):
    """n samples of the given clip lengths in turn, every task labelled."""
    rng = np.random.default_rng(seed)
    return [make_sample(in_memory(rng.normal(-5.0, 2.0, size=(frames[i % len(frames)], 128))),
                        QualityScores(**{t: float(rng.uniform(1.0, 5.0)) for t in TASKS}))
            for i in range(n)]


def _desk_model(kind):
    if kind == "ast":
        return tf.SpectrogramTransformer(tf.desk_config(), seed=0)
    return cnn_mod.ConvBaseline(desk_cnn_config(), seed=0)


def test_fit_keeps_no_batchs_graph_into_the_next_batch(tmp_path):
    """fit over three desk-AST batches of 8 clips of 2 s peaks within
    1.15x of fit over one such batch: no batch's graph or gradient map
    lives on through the next batch's forward (measured 8.34 against
    8.33 MiB). Both fits hold ADAM's moments and the best parameters,
    which one train_step does not. When fit kept the last batch's loss,
    fit over three batches peaked at 1.58x one step."""
    samples = _desk_samples(24)

    def fit_peak(n):
        model = _desk_model("ast")
        config = TrainConfig(max_epochs=1, batch_size=8)
        return peak_traced_bytes(lambda: fit(model, samples[:n], samples[:4], config, tmp_path / "history.csv"))[0]

    one, three = fit_peak(8), fit_peak(24)
    assert three < 1.15 * one, f"fit over three batches {three / 2**20:.2f} MiB, one {one / 2**20:.2f} MiB"


@pytest.mark.parametrize("kind", ["ast", "cnn"])
def test_step_memory_follows_the_workers_not_the_batch(kind):
    """A train_step on two workers at batch 16 peaks within 1.15x of one
    at batch 8: a step holds the graphs and gradient maps of the clips in
    flight, not the batch's (desk AST 6.81 against 6.90 MiB, desk CNN
    13.00 against 12.96 MiB)."""
    samples = _desk_samples(16)

    def step_peak(batch):
        model = _desk_model(kind)
        optimizer = Adam(model.params)
        return peak_traced_bytes(lambda: train_step(model, optimizer, samples[:batch], 1e-3, 2))[0]

    eight, sixteen = step_peak(8), step_peak(16)
    assert sixteen < 1.15 * eight, f"batch 16 {sixteen / 2**20:.2f} MiB, batch 8 {eight / 2**20:.2f} MiB"


@pytest.mark.parametrize("kind", ["ast", "cnn"])
def test_sharded_gradients_match_one_whole_batch_backward(kind):
    """At one BLAS thread, the gradient map train_step hands ADAM (one
    backward per clip, each task's loss over the batch's label count,
    summed in clip order) matches one backward of the whole stacked
    batch's summed losses to float32 rounding. The clips differ in
    length; the AST's all fill the window's 19 time patches, so their
    patches stack, and the CNN's floor-padded planes stack whatever
    their length. Some tasks are unlabelled for some clips. Largest
    difference, over the largest gradient entry: 2.3e-7 (AST) and
    1.3e-7 (CNN)."""
    rng = np.random.default_rng(3)
    model = _desk_model(kind)
    frames = (200, 190, 185, 181, 200, 195) if kind == "ast" else (200, 120, 170, 60, 200, 90)
    clips = [rng.normal(-5.0, 2.0, size=(n, 128)) for n in frames]
    labels = [QualityScores(**{t: float(rng.uniform(1, 5)) for t in TASKS if t == "mos" or rng.uniform() < 0.6})
              for _ in clips]
    samples = [make_sample(in_memory(v), scores) for v, scores in zip(clips, labels)]
    optimizer, stepped = Adam(model.params), []
    optimizer.step = lambda grads, lr: stepped.append(grads)
    with parallel.one_blas_thread() as pinned:
        assert pinned
        train_step(model, optimizer, samples, 1e-3, 2)
        target = np.stack([s.labels for s in samples])
        mask = ~np.isnan(target)
        preds = model.forward_batch(stack([model.prepare(v) for v in clips]))
        whole = functools.reduce(Tensor.__add__, [
            mse_loss(preds[t], target[:, i], mask[:, i], int(mask[:, i].sum())) for i, t in enumerate(TASKS)
        ]).backward()
    (sharded,) = stepped
    assert mask.all(axis=0).sum() < len(TASKS) and sharded.keys() == whole.keys()
    scale = max(np.abs(g).max() for g in whole.values())
    worst = max(np.abs(sharded[p] - g).max() for p, g in whole.items()) / scale
    assert worst < 1e-5, worst


@pytest.mark.parametrize("kind", ["ast", "cnn"])
def test_fit_is_byte_equal_on_one_and_two_workers(tmp_path, monkeypatch, kind):
    """fit's parameters and history file are the same bytes whether the
    pool runs one worker or two: each shard's arithmetic does not depend
    on the thread it runs on, and its results are summed in clip order."""
    samples = _desk_samples(12, frames=(200, 140, 90))

    def run(workers):
        monkeypatch.setattr(parallel, "cores", lambda: workers)
        history = tmp_path / f"history{workers}.csv"
        result = fit(_desk_model(kind), samples[:9], samples[9:], TrainConfig(max_epochs=2, batch_size=4), history)
        return {k: v.tobytes() for k, v in result.params.items()}, history.read_bytes()

    one, two = run(1), run(2)
    assert one[0] == two[0]
    assert one[1] == two[1]


def test_fit_restores_the_blas_thread_count(tmp_path, monkeypatch):
    """fit runs its steps with OpenBLAS at one thread, and the count it
    found is back when fit returns and when a diverging run raises."""
    get, set_ = parallel._openblas_thread_calls()
    seen, real_step = [], training.train_step
    monkeypatch.setattr(training, "train_step", lambda *args: seen.append(get()) or real_step(*args))
    samples = tiny_samples(6, np.random.default_rng(0))
    previous = get()
    set_(3)
    try:
        fit(TinyModel(seed=1), samples, samples, TrainConfig(learning_rate=0.05, max_epochs=2, batch_size=3),
            tmp_path / "history.csv")
        assert get() == 3
        with pytest.raises(TrainingError, match="non-finite loss at epoch"):
            fit(TinyModel(seed=1), samples, samples, TrainConfig(learning_rate=1e300, max_epochs=2, batch_size=3),
                tmp_path / "history.csv")
        assert get() == 3
    finally:
        set_(previous)
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("kind", ["ast", "cnn"])
def test_validation_reads_the_scores_predict_writes(rng, kind):
    """Validation's PCC and RMSE are those of the MOS that predict_scores,
    and so predict, gives each clip with a MOS label, bit for bit. A
    clip with no MOS label is not read. Head biases of 3.0 put the
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
def test_validation_memory_does_not_follow_batch_size(tmp_path, rng, monkeypatch, batch_size):
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
    fit(model, samples[:2], samples, TrainConfig(max_epochs=1, batch_size=batch_size), tmp_path / "history.csv")
    assert len(peaks) == 1 and peaks[0] < 4 * 2**20, peaks
