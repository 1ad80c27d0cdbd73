"""Acceptance suite: one test per criterion, each enforcing its stated
tolerance and runtime budget. The terminal summary hook in conftest.py
prints one PASS/FAIL line per criterion."""

import time

import numpy as np
import pytest

from sqatk import cnn as cnn_mod
from sqatk import frontend as fe
from sqatk import transformer as tf
from sqatk.calibration import apply_calibration, fit_calibration
from sqatk.cli import main
from sqatk.evaluation import (
    EvalReport,
    UndefinedCorrelationError,
    pearson,
    render_report,
    rmse,
)
from sqatk.manifest import load_manifest
from sqatk.quality import SCORE_MAX, SCORE_MIN, TASKS
from sqatk.synth import generate_corpus
from sqatk.training import Adam, PatienceController, mse_loss

from gradcheck import run_suite
from model_fixtures import dense_scores, desk_cnn_config, widen_max_duration
from table_fixtures import ALL_TABLES, CNN_PCC
from test_frontend import naive_log_mel

SR = 48000


@pytest.fixture(scope="module")
def overfit_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    manifest = load_manifest(generate_corpus(root, n_clips=16, seed=0, duration_s=1.0))
    features, labels = [], np.zeros((16, 5))
    for i, entry in enumerate(manifest.entries):
        clip = fe.decode_wav(entry.audio)
        features.append(fe.log_mel_spectrogram(clip).values)
        labels[i] = [entry.scores.get(t) for t in TASKS]
    return features, labels


def overfit_full_batch(forward, params, labels, lr=3e-3, max_steps=500):
    """Full-batch ADAM until every task MSE < 0.02 and the largest
    prediction error < 0.29, or the step budget runs out."""
    optimizer = Adam(params)
    mask = np.ones(labels.shape[0], dtype=bool)
    for step in range(1, max_steps + 1):
        preds = forward()
        per_task = {}
        total = None
        for i, task in enumerate(TASKS):
            loss = mse_loss(preds[task], labels[:, i], mask, len(mask))
            per_task[task] = float(loss.data)
            total = loss if total is None else total + loss
        max_dev = max(np.abs(preds[t].data - labels[:, i]).max() for i, t in enumerate(TASKS))
        if max(per_task.values()) < 0.02 and max_dev < 0.29:
            return step, per_task, max_dev
        optimizer.step(total.backward(), lr)
    return max_steps, per_task, max_dev


# criterion 1: log-mel vs naive-DFT brute force, < 1e-6, < 10 s


def test_criterion_1_dsp_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(4):
        n = int(rng.integers(1200, int(0.2 * SR) + 1))
        samples = np.clip(0.4 * rng.standard_normal(n), -1.0, 1.0)
        fast = fe.log_mel_spectrogram(fe.AudioClip(samples, SR)).values
        slow = naive_log_mel(samples)
        worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.monotonic() - start
    print(f"criterion 1: max abs deviation {worst:.3e} (< 1e-6), {elapsed:.1f}s (< 10s)")
    assert worst < 1e-6
    assert elapsed < 10.0


# criterion 2: finite-difference gradient suite, < 1e-3, < 2 min


def test_criterion_2_gradient_suite():
    start = time.monotonic()
    results = run_suite(seed=0)
    elapsed = time.monotonic() - start
    worst = max(results.values())
    print(f"criterion 2: worst relative error {worst:.3e} (< 1e-3), {elapsed:.1f}s (< 120s)")
    assert {"linear", "softmax", "layer_norm", "gelu", "attention", "conv2d", "conv2d_pool",
            "maxpool", "desk_transformer"} <= set(results)
    for name, err in results.items():
        assert err < 1e-3, f"{name}: {err:.3e}"
    assert elapsed < 120.0


# criterion 3: overfit a 16-clip synthetic manifest, MSE < 0.05 in <= 500 steps


def test_criterion_3_overfit_transformer(overfit_corpus):
    features, labels = overfit_corpus
    start = time.monotonic()
    config = tf.desk_config(max_duration_s=1.0)  # embed 64, 2 layers
    params = tf.init_params(config, seed=0)
    dtype = params["proj_w"].data.dtype  # float32: cast the features as prepare does
    seqs = [tf.extract_patches(tf.LogMelSpectrogram(v.astype(dtype), 128, 0.010, 0.025), config)
            for v in features]
    patches = np.stack([s.patches for s in seqs])
    valid = np.stack([s.valid for s in seqs])

    steps, per_task, max_dev = overfit_full_batch(
        lambda: dense_scores(patches, valid, params, config), params, labels
    )
    elapsed = time.monotonic() - start
    print(
        f"criterion 3 (ast): {steps} steps, worst task MSE "
        f"{max(per_task.values()):.4f} (< 0.05), max dev {max_dev:.3f} (< 0.3), "
        f"{elapsed:.0f}s (< 600s)"
    )
    assert steps <= 500
    for task, mse in per_task.items():
        assert mse < 0.05, f"{task}: {mse}"
    assert max_dev < 0.3
    assert elapsed < 600.0


def test_criterion_3_overfit_cnn(overfit_corpus):
    features, labels = overfit_corpus
    start = time.monotonic()
    config = desk_cnn_config(max_duration_s=1.0)
    params = cnn_mod.ConvBaseline(config, seed=0).params
    dtype = params["conv0_w"].data.dtype  # float32: cast the features as prepare does
    planes = np.stack([tf.floor_pad(v.astype(dtype), config)[None] for v in features])

    steps, per_task, max_dev = overfit_full_batch(
        lambda: cnn_mod.cnn_forward_batch(planes, params, config), params, labels
    )
    elapsed = time.monotonic() - start
    print(
        f"criterion 3 (cnn): {steps} steps, worst task MSE "
        f"{max(per_task.values()):.4f} (< 0.05), max dev {max_dev:.3f} (< 0.3), "
        f"{elapsed:.0f}s (< 600s)"
    )
    assert steps <= 500
    for task, mse in per_task.items():
        assert mse < 0.05, f"{task}: {mse}"
    assert max_dev < 0.3
    assert elapsed < 600.0


# criterion 4: mask invariance for 20 random short clips, < 1e-5


def test_criterion_4_mask_invariance():
    short_cfg = tf.desk_config(max_duration_s=1.0)
    long_cfg = tf.desk_config(max_duration_s=1.5)
    params_short = tf.init_params(short_cfg, seed=21)
    params_long = widen_max_duration(params_short, short_cfg, long_cfg, seed=22)
    dtype = params_short["proj_w"].data.dtype  # float32, the dtype a model computes in
    rng = np.random.default_rng(23)
    # clip content must end inside the patch coverage shared by both grids
    max_frames = short_cfg.n_time_patches * tf.PATCH_STRIDE

    worst = 0.0
    for _ in range(20):
        frames = int(rng.integers(20, max_frames + 1))
        n_samples = (frames - 1) * 480 + 1200
        clip = fe.AudioClip(np.clip(0.4 * rng.standard_normal(n_samples), -1, 1), SR)
        spec = fe.log_mel_spectrogram(clip)
        seq_s = tf.extract_patches(spec, short_cfg)
        seq_l = tf.extract_patches(spec, long_cfg)
        out_s = dense_scores(seq_s.patches[None].astype(dtype), seq_s.valid[None], params_short, short_cfg)
        out_l = dense_scores(seq_l.patches[None].astype(dtype), seq_l.valid[None], params_long, long_cfg)
        for t in TASKS:
            assert out_s[t].data.dtype == out_l[t].data.dtype == dtype
            worst = max(worst, abs(float(out_s[t].data[0]) - float(out_l[t].data[0])))
    print(f"criterion 4: max head output change under extended padding {worst:.3e} (< 1e-5)")
    assert worst < 1e-5


# criterion 5: metric oracles on 1000 random pairs, < 1e-9


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-1, 1) * x
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        mx, my = sum(x) / n, sum(y) / n
        sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
        sxx = sum((a - mx) ** 2 for a in x)
        syy = sum((b - my) ** 2 for b in y)
        worst = max(worst, abs(pearson(x, y) - sxy / (sxx * syy) ** 0.5))
        worst = max(worst, abs(rmse(x, y) - (sum((a - b) ** 2 for a, b in zip(x, y)) / n) ** 0.5))
    print(f"criterion 5: max metric deviation from direct formulas {worst:.3e} (< 1e-9)")
    assert worst < 1e-9
    with pytest.raises(UndefinedCorrelationError):
        pearson(np.full(5, 1.5), np.arange(5.0))


# criterion 6: published table fixtures reproduce every Range entry +/- 0.01


def test_criterion_6_table_fixtures(pytestconfig):
    worst = 0.0
    for name, fx in sorted(ALL_TABLES.items()):
        report = EvalReport(metric=fx["metric"], reference=fx["reference"], rows=fx["rows"])
        computed = report.range_row()
        for dim, printed in fx["printed_range"].items():
            delta = abs(computed[dim] - printed)
            worst = max(worst, delta)
            assert delta <= 0.01, f"{name}/{dim}: {computed[dim]:.3f} vs printed {printed}"
    golden = (pytestconfig.rootpath / "tests" / "data" / "table2_pcc_golden.md").read_text()
    rendered = render_report(
        EvalReport(metric="PCC", reference=CNN_PCC["reference"], rows=CNN_PCC["rows"]), "markdown"
    )
    assert rendered == golden
    print(f"criterion 6: all 20 range entries within {worst:.3f} (<= 0.01); golden file byte-equal")


# criterion 7: calibration recovery, dominance, rank preservation


def test_criterion_7_calibration():
    pred = np.linspace(1.0, 5.0, 50)
    identity = fit_calibration(pred, pred.copy())
    id_err = np.abs(np.array(identity.coefficients) - (0.0, 1.0, 0.0, 0.0)).max()
    assert id_err < 1e-6

    dense = np.linspace(1.0, 5.0, 100)
    cubic = fit_calibration(dense, 0.5 + 0.8 * dense + 0.02 * dense**3)
    cubic_err = np.abs(np.array(cubic.coefficients) - (0.5, 0.8, 0.0, 0.02)).max()
    assert cubic_err < 1e-4

    rng = np.random.default_rng(41)
    rank_ok = 0
    for _ in range(100):
        x = np.sort(rng.uniform(1.0, 5.0, size=30)) + np.linspace(0, 1e-3, 30)
        subj = np.clip(
            rng.uniform(0.0, 0.6) + rng.uniform(0.2, 0.9) * x + rng.uniform(0.0, 0.04) * x**3,
            1.0, 5.0,
        )
        mapping = fit_calibration(x, subj)
        fitted = apply_calibration(mapping, x)
        # dominance: never worse than leaving scores uncalibrated
        assert rmse(mapping.poly(x), subj) <= rmse(x, subj) + 1e-12
        diffs = np.diff(fitted)
        interior = (fitted[:-1] > SCORE_MIN) & (fitted[1:] < SCORE_MAX)
        if (diffs >= -1e-12).all() and (diffs[interior] >= -1e-12).all():
            rank_ok += 1
    assert rank_ok == 100
    print(
        f"criterion 7: identity {id_err:.2e} (< 1e-6), cubic {cubic_err:.2e} (< 1e-4), "
        f"rank preserved {rank_ok}/100, RMSE dominance held"
    )


# criterion 8: training controller semantics on scripted sequences


def test_criterion_8_controller_semantics():
    ctl = PatienceController()
    halved_at, stopped_at = [], None
    for epoch in range(1, 200):
        stop, halve = ctl.update(0.5, epoch)  # frozen monitor from epoch 1
        if halve:
            halved_at.append(epoch)
        if stop:
            stopped_at = epoch
            break
    assert stopped_at == 21, "stop after exactly 20 non-improving epochs"
    assert halved_at == [16], "LR halves once patience 15 expires"

    ctl = PatienceController()
    for epoch in range(1, 100):
        stop, _ = ctl.update(float(epoch), epoch)
        assert not stop  # strict improvement never stops
    print("criterion 8: stop at epoch 21 with patience 20; LR halved at epoch 16 with patience 15")


# criterion 9: byte-identical end-to-end pipeline reruns


def run_pipeline(root, corpus_manifest):
    root.mkdir()
    config = root / "desk.cfg"
    config.write_text(
        "embed_dim=32\nn_layers=1\nn_heads=2\nmax_duration_s=1.0\n"
        "learning_rate=0.003\nmax_epochs=5\nbatch_size=100\nseed=13\n"
    )
    feats = root / "feats"
    ckpt = root / "model.ckpt"
    pred = root / "pred.csv"
    maps = root / "maps.csv"
    report = root / "report.md"
    calibrated = root / "calibrated.md"
    assert main(["featurize", "--manifest", str(corpus_manifest), "--out", str(feats),
                 "--jobs", "1"]) == 0
    assert main(["train", "--model", "ast", "--config", str(config),
                 "--manifest", str(corpus_manifest), "--features", str(feats),
                 "--out", str(ckpt)]) == 0
    assert main(["predict", "--ckpt", str(ckpt), "--manifest", str(corpus_manifest),
                 "--features", str(feats), "--out", str(pred), "--jobs", "1"]) == 0
    assert main(["evaluate", "--pred", str(pred), "--labels", str(corpus_manifest),
                 "--reference", "ENG", "--out", str(report)]) == 0
    assert main(["calibrate", "--pred", str(pred), "--labels", str(corpus_manifest),
                 "--dims", "mos,col,dis,loud,noi", "--out", str(maps)]) == 0
    assert main(["evaluate", "--pred", str(pred), "--labels", str(corpus_manifest),
                 "--calibration", str(maps), "--reference", "ENG", "--out", str(calibrated)]) == 0
    return pred.read_bytes(), report.read_bytes(), maps.read_bytes(), calibrated.read_bytes()


def test_criterion_9_pipeline_determinism(tmp_path):
    corpus = generate_corpus(
        tmp_path / "corpus", n_clips=8, seed=5, languages=("ENG", "DE"),
        duration_s=0.8, n_val=2,
    )
    pred_a, report_a, maps_a, calibrated_a = run_pipeline(tmp_path / "run_a", corpus)
    pred_b, report_b, maps_b, calibrated_b = run_pipeline(tmp_path / "run_b", corpus)
    assert pred_a == pred_b, "prediction CSVs must be byte-identical"
    assert report_a == report_b
    assert maps_a == maps_b, "calibration maps must be byte-identical"
    assert len(maps_a.decode().splitlines()) == 1 + 2 * 5  # a map per language and dim
    assert calibrated_a == calibrated_b
    assert calibrated_a != report_a
    print(f"criterion 9: two pipeline runs byte-identical ({len(pred_a)} bytes of predictions, "
          f"{len(maps_a)} bytes of calibration maps)")
