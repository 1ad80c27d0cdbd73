"""End-to-end CLI tests over a synthetic corpus: featurize, train,
predict, calibrate, evaluate, plus the error contract."""

import importlib.util
import re
import shutil
import struct
import threading
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from memory import peak_traced_bytes
from model_fixtures import in_memory
from sqatk import cli
from sqatk import frontend as fe
from sqatk.checkpoint import load_checkpoint, save_checkpoint
from sqatk.cli import build_model, load_config_file, load_model, main
from sqatk.cnn import CnnConfig
from sqatk.evaluation import parse_report, read_predictions
from sqatk.manifest import load_manifest, write_manifest
from sqatk.quality import TASKS, QualityScores
from sqatk.synth import generate_corpus, write_wav_pcm16
from sqatk import parallel, training
from sqatk.training import Adam, TrainConfig, make_sample, train_step
from sqatk.transformer import ModelConfig, SpectrogramTransformer, desk_config

DESK_CONFIG = """
# desk-scale transformer
embed_dim=32
n_layers=1
n_heads=2
max_duration_s=1.0
learning_rate=0.003
max_epochs=3
batch_size=100
seed=7
"""

CNN_CONFIG = """
channels=8,16
pool=2,2
max_duration_s=1.0
learning_rate=0.003
max_epochs=2
batch_size=100
seed=7
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(
        root, n_clips=10, seed=3, languages=("ENG", "DE"), duration_s=0.8, n_val=2, n_test=2
    )
    return manifest


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, corpus):
    """Featurize + train once; downstream commands reuse the artifacts."""
    work = tmp_path_factory.mktemp("work")
    config = work / "desk.cfg"
    config.write_text(DESK_CONFIG)
    assert main(["featurize", "--manifest", str(corpus), "--out", str(work / "feats")]) == 0
    assert (
        main([
            "train", "--model", "ast", "--config", str(config),
            "--manifest", str(corpus), "--features", str(work / "feats"),
            "--out", str(work / "ast.ckpt"),
        ])
        == 0
    )
    return work


def test_featurize_writes_one_file_per_clip(corpus, workdir):
    manifest = load_manifest(corpus)
    feats = sorted(p.name for p in (workdir / "feats").glob("*.feat"))
    assert len(feats) == len(manifest.entries)


def test_featurize_prints_corpus_summary(corpus, tmp_path, capsys):
    assert main(["featurize", "--manifest", str(corpus), "--out", str(tmp_path / "f")]) == 0
    out = capsys.readouterr().out
    assert "Language" in out and "ENG" in out and "DE" in out
    assert "warning" in out  # tiny corpus is below the 1000-sample threshold


def test_featurize_jobs_independent(corpus, tmp_path):
    assert main(["featurize", "--manifest", str(corpus), "--out", str(tmp_path / "f1")]) == 0
    assert main(["featurize", "--manifest", str(corpus), "--out", str(tmp_path / "f2"), "--jobs", "4"]) == 0
    for p1 in sorted((tmp_path / "f1").glob("*.feat")):
        p2 = tmp_path / "f2" / p1.name
        assert p1.read_bytes() == p2.read_bytes()


def test_train_writes_checkpoint_and_history(workdir):
    assert (workdir / "ast.ckpt").exists()
    history = (workdir / "ast.ckpt.history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,loss_mos")
    assert len(history) == 4  # header + 3 epochs


def test_predict_and_reports(corpus, workdir):
    pred = workdir / "pred.csv"
    assert (
        main([
            "predict", "--ckpt", str(workdir / "ast.ckpt"), "--manifest", str(corpus),
            "--features", str(workdir / "feats"), "--out", str(pred),
        ])
        == 0
    )
    rows = read_predictions(pred)
    assert len(rows) == 10
    assert all(1.0 <= r.pred.mos <= 5.0 for r in rows)

    report = workdir / "report.md"
    assert (
        main([
            "evaluate", "--pred", str(pred), "--labels", str(corpus),
            "--reference", "ENG", "--out", str(report),
        ])
        == 0
    )
    text = report.read_text()
    pcc_text, rmse_text = text.split("\n\n", 1)
    parsed = parse_report(pcc_text + "\n", "markdown")
    assert parsed["metric"] == "PCC"
    assert set(parsed["rows"]) == {"ENG", "DE"}


def test_predict_jobs_deterministic(corpus, workdir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["predict", "--ckpt", str(workdir / "ast.ckpt"), "--manifest", str(corpus),
            "--features", str(workdir / "feats")]
    assert main(base + ["--out", str(a), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(b), "--jobs", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind, config_text", [("ast", DESK_CONFIG), ("cnn", CNN_CONFIG)], ids=["ast", "cnn"])
def test_loaded_model_holds_the_saved_float32_values(corpus, workdir, tmp_path, monkeypatch, kind, config_text):
    """build_model gives float32 parameters; train writes the tensors of
    the epoch fit picked, bit for bit; load_model returns them bit for
    bit as float32 parameters. So the model that was validated is the
    model that predict scores with."""
    config = tmp_path / "model.cfg"
    config.write_text(config_text)
    fresh = build_model(kind, load_config_file(config), seed=7)
    assert all(p.data.dtype == np.float32 for p in fresh.params.values())

    results, real_fit = [], cli.fit

    def recording_fit(*args, **kwargs):
        results.append(real_fit(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "fit", recording_fit)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--model", kind, "--config", str(config), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(ckpt)]) == 0
    (result,) = results
    _, _, written = load_checkpoint(ckpt)
    loaded = load_model(ckpt)
    assert loaded.dtype == np.float32
    assert list(written) == list(loaded.params) == list(result.params) == list(fresh.params)
    for name, best in result.params.items():
        assert best.dtype == np.float32, name
        assert written[name].tobytes() == best.tobytes(), name
        assert loaded.params[name].data.tobytes() == best.tobytes(), name
    values = np.random.default_rng(0).normal(-5.0, 2.0, size=(60, 128))  # float64, as the front end gives
    raw, forward = [], loaded.forward_batch
    monkeypatch.setattr(loaded, "forward_batch", lambda batch: raw.append(forward(batch)) or raw[-1])
    loaded.predict_scores(values)
    assert len(raw) == 1 and all(scores.data.dtype == np.float32 for scores in raw[0].values())


@pytest.mark.parametrize("kind, config_text", [("ast", DESK_CONFIG), ("cnn", CNN_CONFIG)], ids=["ast", "cnn"])
def test_training_step_keeps_float32(tmp_path, monkeypatch, kind, config_text):
    """One train_step on a build_model model, from float64 features of
    mixed lengths as the front end gives them, with no dis label in the
    batch: every parameter and ADAM moment, and each task loss, stay
    float32. backward hands ADAM each gradient in its parameter's shape
    and dtype, as nothing casts it on the way, and none for the
    unlabeled head."""
    config = tmp_path / "model.cfg"
    config.write_text(config_text)
    model = build_model(kind, load_config_file(config), seed=7)
    rng = np.random.default_rng(1)
    samples = [
        make_sample(in_memory(rng.normal(-5.0, 2.0, size=(n, 128))),
                    QualityScores(**{t: float(rng.uniform(1.0, 5.0)) for t in TASKS if t != "dis"}))
        for n in (60, 100, 80)
    ]
    optimizer = Adam(model.params)
    losses, stepped, real_loss, real_step = [], [], training.mse_loss, optimizer.step
    monkeypatch.setattr(training, "mse_loss", lambda *args: losses.append(real_loss(*args)) or losses[-1])
    optimizer.step = lambda grads, lr: stepped.append(grads) or real_step(grads, lr)
    assert set(train_step(model, optimizer, samples, 1e-3, 2)) == set(TASKS) - {"dis"}
    (grads,) = stepped
    expected = {p: (p.shape, p.data.dtype) for name, p in model.params.items()
                if not name.startswith("head_dis_")}
    assert {p: (g.shape, g.dtype) for p, g in grads.items()} == expected
    assert len(losses) == 4 * len(samples) and all(loss.data.dtype == np.float32 for loss in losses)
    for name, p in model.params.items():
        assert p.data.dtype == np.float32, name
        assert optimizer.m[name].dtype == np.float32, name
        assert optimizer.v[name].dtype == np.float32, name


def test_train_without_a_defined_validation_monitor_is_a_typed_error(corpus, workdir, tmp_path, capsys):
    """Constant validation MOS labels leave the correlation undefined in
    every epoch: train writes the history, then fails with exit 1 and
    writes no checkpoint."""
    entries = [
        replace(e, scores=replace(e.scores, mos=3.0)) if e.split == "val" else e
        for e in load_manifest(corpus).entries
    ]
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, entries)
    config = tmp_path / "desk.cfg"
    config.write_text(DESK_CONFIG)
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", "--model", "ast", "--config", str(config), "--manifest", str(manifest),
                 "--features", str(workdir / "feats"), "--out", str(ckpt)])
    assert code == 1
    err = capsys.readouterr().err
    assert "no validation MOS correlation" in err and "3 epoch(s)" in err
    assert not ckpt.exists()
    history = (tmp_path / "model.ckpt.history.csv").read_text().splitlines()
    assert len(history) == 1 + 3
    assert all(line.endswith(",-inf") for line in history[1:])


@pytest.mark.parametrize("damage", ["missing", "reshaped"])
def test_checkpoint_without_a_model_tensor_is_a_typed_error(corpus, workdir, tmp_path, capsys, damage):
    kind, echo, tensors = load_checkpoint(workdir / "ast.ckpt")
    if damage == "missing":
        del tensors["layer0_wq"]
    else:
        tensors["layer0_wq"] = tensors["layer0_wq"].reshape(-1)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, kind, echo, tensors)
    assert main(["predict", "--ckpt", str(ckpt), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(tmp_path / "p.csv")]) == 1
    assert "layer0_wq" in capsys.readouterr().err


@pytest.mark.parametrize("damage, named", [("missing", "model.n_heads"), ("non_numeric", "'two'")])
def test_checkpoint_with_a_bad_model_config_echo_is_a_typed_error(corpus, workdir, tmp_path, capsys,
                                                                   damage, named):
    kind, echo, tensors = load_checkpoint(workdir / "ast.ckpt")
    if damage == "missing":
        del echo["model.n_heads"]
    else:
        echo["model.n_heads"] = "two"
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, kind, echo, tensors)
    assert main(["predict", "--ckpt", str(ckpt), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "p.csv").exists()


def _predict_exit(ckpt, corpus, workdir, out):
    return main(["predict", "--ckpt", str(ckpt), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(out)])


@pytest.mark.parametrize("kind", ["ast", "cnn"])
def test_checkpoint_of_the_earlier_format_predicts_the_same_bytes(corpus, workdir, tmp_path, kind):
    """Checkpoints written while the model configs held the front end's
    hop, the mel count, the CNN's kernel size and the AST's patch
    geometry and MLP ratio echo those settings at the one value today's
    models read; they load and score as today's checkpoints do."""
    ckpt = workdir / "ast.ckpt" if kind == "ast" else _cnn_checkpoint(tmp_path)
    _, echo, tensors = load_checkpoint(ckpt)
    earlier_keys = {"model.frame_hop_s": "0.01", "model.n_mels": "128"}
    if kind == "ast":
        earlier_keys.update({"model.patch_size": "16", "model.patch_stride_time": "10",
                             "model.patch_stride_freq": "10", "model.mlp_ratio": "4.0"})
    else:
        earlier_keys["model.kernel"] = "3"
    assert not earlier_keys.keys() & echo.keys()
    earlier = tmp_path / "earlier.ckpt"
    save_checkpoint(earlier, kind, {**echo, **earlier_keys}, tensors)
    assert _predict_exit(ckpt, corpus, workdir, tmp_path / "now.csv") == 0
    assert _predict_exit(earlier, corpus, workdir, tmp_path / "earlier.csv") == 0
    assert (tmp_path / "earlier.csv").read_bytes() == (tmp_path / "now.csv").read_bytes()


OTHER_GEOMETRY = [
    ("cnn", "model.frame_hop_s", "0.02"),
    ("cnn", "model.kernel", "5"),
    ("cnn", "model.n_mels", "64"),
    ("ast", "model.n_mels", "3"),
    ("ast", "model.patch_stride_time", "16"),
    ("ast", "model.mlp_ratio", "2.0"),
    ("ast", "model.mlp_ratio", "-1"),
    ("ast", "model.mlp_ratio", "1e300"),
]


@pytest.mark.parametrize("kind, key, value", OTHER_GEOMETRY, ids=[f"{k}-{v}" for _, k, v in OTHER_GEOMETRY])
def test_checkpoint_of_another_frame_geometry_is_a_typed_error(corpus, workdir, tmp_path, capsys, kind, key, value):
    """A checkpoint that echoes a hop, mel count, kernel, patch geometry
    or MLP ratio other than the one the models read was trained on
    another geometry, so predict fails it with one error naming the key
    rather than score it at today's geometry with exit 0."""
    _, echo, tensors = load_checkpoint(workdir / "ast.ckpt" if kind == "ast" else _cnn_checkpoint(tmp_path))
    ckpt = tmp_path / "other.ckpt"
    save_checkpoint(ckpt, kind, {**echo, key: value}, tensors)
    assert _predict_exit(ckpt, corpus, workdir, tmp_path / "p.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: {key}={value}, but") and err.count("\n") == 1
    assert not (tmp_path / "p.csv").exists()


def test_checkpoint_whose_dims_overflow_is_a_typed_error(corpus, workdir, tmp_path, capsys):
    """dims of 65536 x 4 overflow an int64 element count to 0; the count
    is a Python int, checked against the bytes left."""
    kind, echo, _ = load_checkpoint(workdir / "ast.ckpt")
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, kind, echo, {"huge": np.zeros((1, 1, 1, 1), dtype=np.float32)})
    raw = ckpt.read_bytes()
    small = struct.pack("<B4I", 4, 1, 1, 1, 1)
    assert raw.count(small) == 1
    ckpt.write_bytes(raw.replace(small, struct.pack("<B4I", 4, 65536, 65536, 65536, 65536)))
    assert _predict_exit(ckpt, corpus, workdir, tmp_path / "p.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: tensor 'huge' of shape (65536, 65536, 65536, 65536)")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("dims", [(1,) * 64 + (0,), (2**31, 2**31, 2**31, 0)],
                         ids=["over_64_dims", "zero_size_overflow"])
def test_checkpoint_shape_numpy_cannot_build_is_a_typed_error(corpus, workdir, tmp_path, capsys, dims):
    """A shape holding no data passes the overrun check, but NumPy cannot
    build one with over 64 dims, nor a zero-size one whose other dims
    overflow; reshape raised a bare ValueError."""
    kind, echo, _ = load_checkpoint(workdir / "ast.ckpt")
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, kind, echo, {"bad": np.zeros(1, dtype=np.float32)})
    raw = ckpt.read_bytes()
    tail = struct.pack("<BIf", 1, 1, 0.0)  # ndim, dims and data of the last tensor
    assert raw.endswith(tail)
    ckpt.write_bytes(raw[: -len(tail)] + struct.pack(f"<B{len(dims)}I", len(dims), *dims))
    assert _predict_exit(ckpt, corpus, workdir, tmp_path / "p.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: tensor 'bad' of shape {dims} cannot be built")
    assert err.count("\n") == 1
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_checkpoint_with_a_non_finite_weight_is_a_typed_error(corpus, workdir, tmp_path, capsys, value):
    """A NaN head weight scored nan and +inf scored 5.0, both with exit 0."""
    kind, echo, tensors = load_checkpoint(workdir / "ast.ckpt")
    tensors["head_mos_w"][3, 0] = value
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, kind, echo, tensors)
    assert _predict_exit(ckpt, corpus, workdir, tmp_path / "p.csv") == 1
    assert capsys.readouterr().err == f"error: {ckpt}: tensor 'head_mos_w' holds non-finite values\n"
    assert not (tmp_path / "p.csv").exists()


def _damaged_features(corpus, workdir, tmp_path, damage):
    """A copy of the workdir's caches in which the first train clip's cache
    is damaged; returns (cache directory, damaged file)."""
    feats = tmp_path / "feats"
    shutil.copytree(workdir / "feats", feats)
    bad = cli.feature_path(feats, load_manifest(corpus).split_entries("train")[0].sample_id)
    if damage == "deleted":
        bad.unlink()
    elif damage == "truncated":
        bad.write_bytes(bad.read_bytes()[:-4])
    elif damage == "no frames":
        bad.write_bytes(struct.pack("<II", 0, 128))
    elif damage == "64 mels":
        fe.save_features(bad, fe.load_features(bad)[:, :64])
    else:
        values = fe.load_features(bad).copy()
        values[3, 7] = float(damage)
        fe.save_features(bad, values)
    return feats, bad


def _cnn_checkpoint(tmp_path, **fill):
    """An untrained CNN_CONFIG checkpoint, each tensor named in fill set
    to its value."""
    config = tmp_path / "cnn.cfg"
    config.write_text(CNN_CONFIG)
    model = build_model("cnn", load_config_file(config))
    tensors = {name: p.data.copy() for name, p in model.params.items()}
    for name, value in fill.items():
        tensors[name][:] = value
    ckpt = tmp_path / "cnn.ckpt"
    save_checkpoint(ckpt, "cnn", model.config_echo(), tensors)
    return ckpt


def _exit_on_damaged_cache(corpus, workdir, tmp_path, command, damage):
    """Run command ("train", "predict-ast" or "predict-cnn") over the caches
    of _damaged_features; returns (exit code, damaged file, output path)."""
    feats, bad = _damaged_features(corpus, workdir, tmp_path, damage)
    out = tmp_path / "out"
    if command == "train":
        config = tmp_path / "desk.cfg"
        config.write_text(DESK_CONFIG)
        argv = ["train", "--model", "ast", "--config", str(config), "--manifest", str(corpus),
                "--features", str(feats), "--out", str(out)]
    else:
        ckpt = _cnn_checkpoint(tmp_path) if command == "predict-cnn" else workdir / "ast.ckpt"
        argv = ["predict", "--ckpt", str(ckpt), "--manifest", str(corpus),
                "--features", str(feats), "--out", str(out)]
    return main(argv), bad, out


@pytest.mark.parametrize("damage", ["nan", "inf"])
@pytest.mark.parametrize("command", ["predict-ast", "predict-cnn", "train"])
def test_cache_with_a_non_finite_value_is_a_typed_error(corpus, workdir, tmp_path, capsys, command, damage):
    """One NaN or inf in a cache made the CNN score nan on all five heads,
    written with exit 0. load_features rejects the file by name, whether
    predict reads it or train draws its batch, and nothing is written."""
    code, bad, out = _exit_on_damaged_cache(corpus, workdir, tmp_path, command, damage)
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: non-finite feature values\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict-ast", "predict-cnn", "train"])
def test_cache_with_no_frames_is_a_typed_error(corpus, workdir, tmp_path, capsys, command):
    """A cache whose header says (0, 128) was scored as a clip of pure
    padding, with exit 0. featurize never writes one, so the file is
    damaged: exit 1, the file named, nothing written."""
    code, bad, out = _exit_on_damaged_cache(corpus, workdir, tmp_path, command, "no frames")
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: feature file holds no frames\n"
    assert not out.exists() and not (tmp_path / "out.history.csv").exists()


@pytest.mark.parametrize("command", ["predict-ast", "predict-cnn", "train"])
def test_cache_of_another_mel_count_is_a_typed_error(corpus, workdir, tmp_path, capsys, command):
    """A 64-mel cache made predict print "spectrogram has 64 mel bins, the
    models read 128" with no path. load_features names the file, whether
    predict reads it or train draws its batch, and nothing is written."""
    code, bad, out = _exit_on_damaged_cache(corpus, workdir, tmp_path, command, "64 mels")
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: feature file has 64 mel bins, the models read 128\n"
    assert not out.exists() and not (tmp_path / "out.history.csv").exists()


@pytest.mark.parametrize("damage", ["deleted", "truncated"])
def test_cache_damaged_after_featurize_fails_train_by_name(corpus, workdir, tmp_path, capsys, damage):
    """A cache deleted after featurize fails train before fit, and one
    truncated fails when its batch is drawn: exit 1, the file named, and
    no checkpoint or history written."""
    feats, bad = _damaged_features(corpus, workdir, tmp_path, damage)
    config = tmp_path / "desk.cfg"
    config.write_text(DESK_CONFIG)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--model", "ast", "--config", str(config), "--manifest", str(corpus),
                 "--features", str(feats), "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err
    assert not ckpt.exists() and not (tmp_path / "model.ckpt.history.csv").exists()


@pytest.mark.parametrize("fault", ["val cache deleted", "no val MOS label"])
def test_train_fault_in_the_val_split_fails_before_the_first_step(
    corpus, workdir, tmp_path, capsys, monkeypatch, fault
):
    """A missing val cache was found when validation first read it, and
    a val split with no MOS label at the end of epoch 1, both after the
    epoch's optimizer steps. Both now fail before the first step."""
    steps = []
    adam_step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, grads, lr: steps.append(lr) or adam_step(self, grads, lr))
    feats = tmp_path / "feats"
    shutil.copytree(workdir / "feats", feats)
    manifest = tmp_path / "manifest.csv"
    entries = load_manifest(corpus).entries
    if fault == "val cache deleted":
        bad = cli.feature_path(feats, next(e for e in entries if e.split == "val").sample_id)
        bad.unlink()
        expected = f"error: {bad}: no such feature cache\n"
    else:
        entries = [replace(e, scores=replace(e.scores, mos=None)) if e.split == "val" else e
                   for e in entries]
        expected = "error: validation set has no MOS labels\n"
    write_manifest(manifest, entries)
    config = tmp_path / "desk.cfg"
    config.write_text(DESK_CONFIG.replace("batch_size=100", "batch_size=2"))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--model", "ast", "--config", str(config), "--manifest", str(manifest),
                 "--features", str(feats), "--out", str(ckpt)]) == 1
    assert capsys.readouterr().err == expected
    assert steps == []
    assert not ckpt.exists() and not (tmp_path / "model.ckpt.history.csv").exists()


def test_train_requires_a_feature_cache(corpus, tmp_path, capsys):
    """Without caches every epoch would decode and log-mel every clip again."""
    config = tmp_path / "desk.cfg"
    config.write_text(DESK_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", "ast", "--config", str(config), "--manifest", str(corpus),
              "--out", str(tmp_path / "x.ckpt")])
    assert exc.value.code != 0
    assert "--features" in capsys.readouterr().err


def test_predict_requires_a_feature_cache(corpus, workdir, tmp_path, capsys):
    """predict reads the caches train read: decoding the audio itself gave
    raw log-mel to a model trained on normalized caches, with exit 0."""
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--ckpt", str(workdir / "ast.ckpt"), "--manifest", str(corpus),
              "--out", str(tmp_path / "p.csv")])
    assert exc.value.code != 0
    assert "--features" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_cnn_checkpoint_with_huge_finite_weights_is_a_typed_error(corpus, workdir, tmp_path, capsys):
    """1e30 in the first two conv weights overflows float32 to inf and nan
    in the conv stages; the CNN scored nan with exit 0, and now stops at
    its pooled features as the AST stops at its encoder, with no NumPy
    overflow warning on the way."""
    ckpt = _cnn_checkpoint(tmp_path, conv0_w=1e30, conv1_w=1e30)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _predict_exit(ckpt, corpus, workdir, tmp_path / "p.csv") == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: non-finite pooled CNN features\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("kind", ["ast", "cnn"])
def test_head_output_that_overflows_is_a_typed_error(corpus, workdir, tmp_path, capsys, kind):
    """A MOS head weight of 3e38 overflows float32 in the head GEMM.
    predict printed NumPy's overflow and invalid-value warnings, wrote
    nan into pred_mos and exited 0; clip_score lets a NaN through."""
    heads = {f"head_{t}_b": 3.0 for t in TASKS}
    if kind == "cnn":
        ckpt = _cnn_checkpoint(tmp_path, head_mos_w=3e38, **heads)
    else:
        _, echo, tensors = load_checkpoint(workdir / "ast.ckpt")
        for name, value in {**heads, "head_mos_w": 3e38}.items():
            tensors[name][:] = value
        ckpt = tmp_path / "ast.ckpt"
        save_checkpoint(ckpt, "ast", echo, tensors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _predict_exit(ckpt, corpus, workdir, tmp_path / "p.csv") == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: non-finite head outputs\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("kind, config_text", [("ast", DESK_CONFIG), ("cnn", CNN_CONFIG)], ids=["ast", "cnn"])
def test_diverging_train_is_one_typed_error_without_numpy_warnings(corpus, workdir, tmp_path, capsys, monkeypatch,
                                                                    kind, config_text):
    """At learning_rate=1e10 the first step sends the weights to about
    1e10, and a later forward or loss overflows float32. train printed
    NumPy's overflow warnings before its typed error; now the finite
    checks stop it with the error alone, which names the epoch, and no
    checkpoint. Two workers run the shards on pool threads, which start
    at NumPy's default error state, also on a one-CPU host. The AST's
    error ("non-finite encoder activations") named no epoch."""
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    config = tmp_path / "diverge.cfg"
    config.write_text(config_text.replace("learning_rate=0.003", "learning_rate=1e10"))
    ckpt = tmp_path / "model.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--model", kind, "--config", str(config), "--manifest", str(corpus),
                     "--features", str(workdir / "feats"), "--out", str(ckpt)])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: non-finite [a-z ]+ at epoch \d+\n", err), err
    assert not ckpt.exists()


def test_train_where_blas_threads_cannot_be_set_runs_serially_with_one_note(corpus, workdir, tmp_path, capsys,
                                                                             monkeypatch):
    """Where NumPy's OpenBLAS offers no thread-count calls (here the
    lookup finds only libgfortran), train still trains, at the BLAS
    default on the calling thread alone, and says so once on stderr."""
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    monkeypatch.setattr(parallel, "_OPENBLAS_GLOB", "libgfortran-*.so*")
    assert parallel._openblas_thread_calls() is None
    threads, forward = set(), SpectrogramTransformer.forward_batch
    monkeypatch.setattr(SpectrogramTransformer, "forward_batch",
                        lambda self, batch: threads.add(threading.get_ident()) or forward(self, batch))
    config = tmp_path / "desk.cfg"
    config.write_text(DESK_CONFIG)
    capsys.readouterr()
    assert main(["train", "--model", "ast", "--config", str(config), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(tmp_path / "ast.ckpt")]) == 0
    assert capsys.readouterr().err == "note: cannot set the thread count of NumPy's BLAS; training on one thread\n"
    assert threads == {threading.get_ident()}
    assert (tmp_path / "ast.ckpt").is_file()


@pytest.mark.parametrize("head_mos_w, note", [
    (1e30, "note: 10 of 10 pred_mos scores clipped to [1, 5]\n"),
    (None, ""),
], ids=["huge-weight", "ordinary"])
def test_predict_notes_the_scores_it_clips(corpus, workdir, tmp_path, capsys, head_mos_w, note):
    """A 1e30 MOS head weight clipped every MOS score to 1 or 5 with exit
    0 and no sign; predict now says so on stderr, one note per task, and
    says nothing when no score sits at a bound. Head biases of 3.0 keep
    the other tasks' scores inside [1, 5]."""
    _, echo, tensors = load_checkpoint(workdir / "ast.ckpt")
    for task in TASKS:
        tensors[f"head_{task}_b"][:] = 3.0
    if head_mos_w is not None:
        tensors["head_mos_w"][:] = head_mos_w
    ckpt = tmp_path / "ast.ckpt"
    save_checkpoint(ckpt, "ast", echo, tensors)
    capsys.readouterr()
    assert _predict_exit(ckpt, corpus, workdir, tmp_path / "p.csv") == 0
    assert capsys.readouterr().err == note
    mos = {row.pred.mos for row in read_predictions(tmp_path / "p.csv")}
    assert (mos <= {1.0, 5.0}) == (head_mos_w is not None)


def test_built_samples_hold_no_prepared_input(tmp_path):
    """A sample holds its labels and its cache's loader; batches read and
    prepare their clips when drawn. So the samples of 4n clips hold less
    than one prepared 2 s clip (228 patches of 256 float32) more than
    those of n; preparing them all held 3n more clips of patches."""
    corpus = generate_corpus(tmp_path, n_clips=12, seed=4, duration_s=2.0)
    feats = tmp_path / "feats"
    assert main(["featurize", "--manifest", str(corpus), "--out", str(feats)]) == 0
    entries = load_manifest(corpus).entries
    model = SpectrogramTransformer(desk_config())
    prepared = model.prepare(fe.load_features(cli.feature_path(feats, entries[0].sample_id)))
    clip_bytes = sum(a.nbytes for a in prepared)
    assert clip_bytes >= 228 * 256 * 4

    _, held_n = peak_traced_bytes(lambda: cli.build_samples(entries[:3], feats))
    _, held_4n = peak_traced_bytes(lambda: cli.build_samples(entries, feats))
    assert held_4n - held_n < clip_bytes, f"{held_n} -> {held_4n} bytes"


@pytest.mark.parametrize("reader", ["manifest", "predictions", "calibration"])
def test_csv_that_is_not_utf8_is_a_typed_error(corpus, workdir, tmp_path, capsys, reader):
    """A 0xFF byte in each CSV the CLI reads, through the command that
    reads it: predict (manifest), calibrate (predictions) and evaluate
    (calibration map)."""
    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    maps = tmp_path / "maps.csv"
    maps.write_text("group,dim,a0,a1,a2,a3,domain_lo,domain_hi\nENG,mos,0.0,1.0,0.0,0.0,1.0,5.0\n")
    bad = {"manifest": tmp_path / "manifest.csv", "predictions": pred, "calibration": maps}[reader]
    source = corpus if reader == "manifest" else bad
    bad.write_bytes(source.read_bytes() + b"caf\xff\n")
    argv = {
        "manifest": ["predict", "--ckpt", str(workdir / "ast.ckpt"), "--manifest", str(bad),
                     "--features", str(workdir / "feats"), "--out", str(tmp_path / "p.csv")],
        "predictions": ["calibrate", "--pred", str(pred), "--labels", str(corpus),
                        "--out", str(tmp_path / "m.csv")],
        "calibration": ["evaluate", "--pred", str(pred), "--labels", str(corpus),
                        "--calibration", str(maps), "--out", "-"],
    }[reader]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not utf-8 text")


def test_calibrate_then_evaluate(corpus, workdir, tmp_path):
    pred = tmp_path / "pred.csv"
    assert (
        main([
            "predict", "--ckpt", str(workdir / "ast.ckpt"), "--manifest", str(corpus),
            "--features", str(workdir / "feats"), "--out", str(pred),
        ])
        == 0
    )
    maps = tmp_path / "maps.csv"
    assert (
        main([
            "calibrate", "--pred", str(pred), "--labels", str(corpus),
            "--group", "language", "--out", str(maps),
        ])
        == 0
    )
    lines = maps.read_text().splitlines()
    assert lines[0] == "group,dim,a0,a1,a2,a3,domain_lo,domain_hi"
    assert len(lines) == 3  # ENG and DE maps for mos

    out = tmp_path / "calibrated.md"
    assert (
        main([
            "evaluate", "--pred", str(pred), "--labels", str(corpus),
            "--calibration", str(maps), "--reference", "ENG", "--out", str(out),
        ])
        == 0
    )
    assert "PCC" in out.read_text()


def test_cnn_train_checkpoint_echoes_protocol(corpus, workdir, tmp_path):
    from sqatk.checkpoint import load_checkpoint

    config = tmp_path / "cnn.cfg"
    config.write_text(CNN_CONFIG)
    ckpt = tmp_path / "cnn.ckpt"
    assert (
        main([
            "train", "--model", "cnn", "--config", str(config),
            "--manifest", str(corpus), "--features", str(workdir / "feats"),
            "--out", str(ckpt),
        ])
        == 0
    )
    kind, echo, _ = load_checkpoint(ckpt)
    assert kind == "cnn"
    assert echo["train.learning_rate"] == "0.003"
    assert echo["train.batch_size"] == "100"


def test_cnn_default_protocol_echo(corpus, workdir, tmp_path):
    # One stage: the untrained MOS outputs already fall inside [1, 5], so
    # the one epoch at the default learning rate has a defined validation
    # correlation and train picks it. Deeper desk CNNs start near 0, where
    # every clipped prediction is 1 and train rightly writes no checkpoint.
    config = tmp_path / "cnn_default.cfg"
    config.write_text("channels=8\npool=2\nmax_duration_s=1.0\nmax_epochs=1\n")
    ckpt = tmp_path / "cnn_default.ckpt"
    assert (
        main([
            "train", "--model", "cnn", "--config", str(config), "--manifest", str(corpus),
            "--features", str(workdir / "feats"), "--out", str(ckpt),
        ])
        == 0
    )
    from sqatk.checkpoint import load_checkpoint

    _, echo, _ = load_checkpoint(ckpt)
    # protocol defaults: lr 0.001, batch 100; the patience counts are constants
    assert echo["train.learning_rate"] == "0.001"
    assert echo["train.batch_size"] == "100"
    assert echo["train.max_epochs"] == "1"
    assert echo["train.best_epoch"] == "1"


def test_train_zero_epochs_fails(corpus, workdir, tmp_path, capsys):
    """-3 epochs used to report "max_epochs is 0"."""
    config = tmp_path / "zero.cfg"
    for epochs in (0, -3):
        config.write_text(DESK_CONFIG.replace("max_epochs=3", f"max_epochs={epochs}"))
        code = main([
            "train", "--model", "ast", "--config", str(config), "--manifest", str(corpus),
            "--features", str(workdir / "feats"), "--out", str(tmp_path / "x.ckpt"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: max_epochs must be >= 1\n"
        assert not (tmp_path / "x.ckpt").exists()


def test_cnn_window_that_pools_time_away_is_a_typed_error(corpus, workdir, tmp_path, capsys):
    """0.1 s is 10 frames, which the four default pools take to 0: train
    exits 1 with a typed error, not a traceback, and writes nothing."""
    config = tmp_path / "short.cfg"
    config.write_text("max_duration_s=0.1\nmax_epochs=1\n")
    ckpt = tmp_path / "short.ckpt"
    code = main([
        "train", "--model", "cnn", "--config", str(config), "--manifest", str(corpus),
        "--features", str(workdir / "feats"), "--out", str(ckpt),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pooling collapses the time axis")
    assert "Traceback" not in err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("ast", "n_heads", "0"),
        ("ast", "embed_dim", "0"),
        ("ast", "max_duration_s", "nan"),
        ("cnn", "max_duration_s", "nan"),
        ("ast", "max_duration_s", "inf"),
        ("cnn", "max_duration_s", "inf"),
        ("ast", "max_duration_s", "1e12"),
        ("cnn", "max_duration_s", "1e12"),
        ("ast", "max_duration_s", "1e17"),
        ("cnn", "max_duration_s", "1e17"),
        ("cnn", "channels", "8,4611686018427387904"),
        ("ast", "n_layers", "1000000000"),
    ],
)
def test_config_value_that_breaks_the_model_is_a_typed_error(corpus, workdir, tmp_path, capsys, kind, key, value):
    """Each value raised ZeroDivisionError, ValueError, OverflowError,
    MemoryError or numpy's negative-dimensions error, from a --config file
    in train and from a checkpoint echo in predict. Both exit 1. The
    1e12 s window's arrays take over 2**47 bytes, more than any address
    space holds, so their allocation fails at once; NumPy cannot shape
    those of 1e17 s at all. A billion layers' parameter spec took hours
    to build; their count now fails against the machine's memory."""
    base = DESK_CONFIG if kind == "ast" else CNN_CONFIG
    config = tmp_path / "bad.cfg"
    config.write_text(base + f"{key}={value}\n")
    ckpt = tmp_path / "bad.ckpt"
    assert main(["train", "--model", kind, "--config", str(config), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not ckpt.exists()

    config.write_text(base)
    model = build_model(kind, load_config_file(config))
    echo = {**model.config_echo(), f"model.{key}": value}
    save_checkpoint(ckpt, kind, echo, {name: p.data for name, p in model.params.items()})
    assert main(["predict", "--ckpt", str(ckpt), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(tmp_path / "p.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "p.csv").exists()


def test_config_file_that_is_not_utf8_is_a_typed_error(corpus, workdir, tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(DESK_CONFIG.encode() + b"# caf\xe9\n")
    code = main(["train", "--model", "ast", "--config", str(config), "--manifest", str(corpus),
                 "--features", str(workdir / "feats"), "--out", str(tmp_path / "x.ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: config is not utf-8 text")
    assert not (tmp_path / "x.ckpt").exists()


def test_config_file_names_its_bad_line(tmp_path):
    config = tmp_path / "words.cfg"
    config.write_text("embed_dim=32\njust words\n")
    with pytest.raises(cli.CliError, match=f"{config}: line 2: expected key=value"):
        load_config_file(config)


def test_unknown_config_key_is_rejected(corpus, workdir, tmp_path, capsys):
    """A misspelt key used to train silently at the default; the keys of
    the other model kind stay accepted, so one file serves both."""
    config = tmp_path / "typo.cfg"
    ckpt = tmp_path / "x.ckpt"
    train = ["train", "--model", "cnn", "--config", str(config), "--manifest", str(corpus),
             "--features", str(workdir / "feats"), "--out", str(ckpt)]
    config.write_text(CNN_CONFIG + "learning_rat=0.1\n")
    assert main(train) == 1
    assert capsys.readouterr().err == f"error: {config}: unknown config key(s) learning_rat\n"
    assert not ckpt.exists()
    config.write_text(CNN_CONFIG + "embed_dim=64\nn_layers=2\nn_heads=4\n")
    assert main(train) == 0
    for key in ("n_mels", "patch_size", "patch_stride_time", "patch_stride_freq", "mlp_ratio",
                "early_stop_patience", "lr_patience"):  # settings that became constants
        config.write_text(f"{key}=1\n")
        with pytest.raises(cli.CliError, match=f"unknown config key\\(s\\) {key}$"):
            load_config_file(config)


def test_readme_lists_every_config_field():
    """README's "Config files" section names exactly the fields of the
    config dataclasses."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n\n", 2)[1]
    listed = {
        label: sorted(re.findall(r"`(\w+)`", part))
        for label, part in re.findall(r"(Transformer|CNN|Training) keys:\s+(.*?)\.(?:\s|$)", section, re.S)
    }
    assert listed == {
        label: sorted(f.name for f in fields(cls))
        for label, cls in (("Transformer", ModelConfig), ("CNN", CnnConfig), ("Training", TrainConfig))
    }
    assert set(re.findall(r"`(\w+)`", section)) == cli._CONFIG_KEYS


def test_unreadable_input_fails_cleanly(tmp_path, capsys):
    code = main(["predict", "--ckpt", str(tmp_path / "missing.ckpt"),
                 "--manifest", str(tmp_path / "missing.csv"), "--features", str(tmp_path / "feats"),
                 "--out", str(tmp_path / "o.csv")])
    assert code != 0
    assert "error:" in capsys.readouterr().err


def test_output_path_that_is_a_directory_fails_cleanly(corpus, workdir, tmp_path, capsys):
    code = main([
        "predict", "--ckpt", str(workdir / "ast.ckpt"), "--manifest", str(corpus),
        "--features", str(workdir / "feats"), "--out", str(tmp_path),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_help_lists_exactly_the_pipeline_subcommands(capsys):
    """The CLI runs the pipeline's five stages and nothing else; the
    gradient checker lives with the tests, not in the package."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    choices = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1)
    assert choices.split(",") == ["featurize", "train", "predict", "calibrate", "evaluate"]
    assert importlib.util.find_spec("sqatk.gradcheck") is None


@pytest.mark.parametrize("command, jobs", [("featurize", "0"), ("predict", "0"), ("predict", "-2")])
def test_jobs_below_one_is_a_typed_error(corpus, workdir, tmp_path, capsys, command, jobs):
    """--jobs 0 and below used to run serially without a word; they exit
    1 with one error line, and write nothing."""
    out = tmp_path / "out"
    argv = {"featurize": ["featurize", "--manifest", str(corpus), "--out", str(out)],
            "predict": ["predict", "--ckpt", str(workdir / "ast.ckpt"), "--manifest", str(corpus),
                        "--features", str(workdir / "feats"), "--out", str(out)]}[command]
    assert main(argv + ["--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--bogus"])
    assert exc.value.code != 0


def test_featurize_normalize_writes_stats(corpus, tmp_path):
    out = tmp_path / "norm"
    assert main(["featurize", "--manifest", str(corpus), "--out", str(out), "--normalize"]) == 0
    stats = (out / "normalization.txt").read_text()
    assert stats.startswith("mean=")


@pytest.fixture(scope="module")
def long_clips(tmp_path_factory):
    """Manifests of two and of eight 12 s clips, the two a prefix of the eight."""
    root = tmp_path_factory.mktemp("long")
    eight = generate_corpus(root, n_clips=8, seed=2, duration_s=12.0)
    two = root / "two.csv"
    write_manifest(two, load_manifest(eight).entries[:2])
    return two, eight


@pytest.mark.parametrize("flags", [[], ["--normalize"], ["--normalize", "--jobs", "2"]])
def test_featurize_memory_does_not_grow_with_the_corpus(long_clips, tmp_path, capsys, flags):
    """featurize writes each clip's cache before it computes the next (or
    spills it, with --normalize), so eight 12 s clips peak within less
    than one clip's 1.2 MB float64 log-mel of two; keeping them all
    peaked 6 MiB higher."""
    two, eight = long_clips

    def featurize(manifest, out):
        return lambda: main(["featurize", "--manifest", str(manifest), "--out", str(tmp_path / out)] + flags)

    featurize(two, "warm")()  # first-call caches, such as the mel filterbank's
    peak_two, _ = peak_traced_bytes(featurize(two, "two"))
    peak_eight, _ = peak_traced_bytes(featurize(eight, "eight"))
    capsys.readouterr()
    assert len(list((tmp_path / "eight").glob("*.feat"))) == 8
    assert peak_eight < peak_two + 2**20, f"{peak_two / 2**20:.1f} -> {peak_eight / 2**20:.1f} MiB"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_featurize_normalize_writes_the_bytes_of_the_whole_corpus_in_memory(corpus, tmp_path, jobs):
    """Spilling each clip's float64 log-mel and normalizing it in a
    second pass gives the caches and statistics of normalizing the
    whole corpus held in memory, byte for byte, and leaves no scratch
    file behind."""
    out = tmp_path / "norm"
    assert main(["featurize", "--manifest", str(corpus), "--out", str(out), "--normalize", "--jobs", jobs]) == 0
    entries = load_manifest(corpus).entries
    values = [fe.log_mel_spectrogram(fe.decode_wav(e.audio)).values for e in entries]
    mean, std = fe.corpus_normalization(fe.feature_moments(v) for v in values)
    assert (out / "normalization.txt").read_text() == f"mean={mean!r}\nstd={std!r}\n"
    expected = tmp_path / "expected.feat"
    for entry, v in zip(entries, values):
        fe.save_features(expected, (v - mean) / std)
        assert (out / f"{entry.sample_id}.feat").read_bytes() == expected.read_bytes()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{e.sample_id}.feat" for e in entries] + ["normalization.txt"]
    )


def test_featurize_normalize_removes_its_spills_when_a_clip_fails(corpus, tmp_path, capsys):
    """A clip at the wrong rate fails pass 1 after earlier clips were
    spilled: exit 1, and no scratch directory or statistics remain."""
    entries = load_manifest(corpus).entries[:3]
    bad = tmp_path / "bad.wav"
    write_wav_pcm16(bad, np.zeros(44100), sample_rate=44100)
    manifest = tmp_path / "bad.csv"
    write_manifest(manifest, entries + [replace(entries[0], sample_id="bad", audio=bad)])
    out = tmp_path / "norm"
    assert main(["featurize", "--manifest", str(manifest), "--out", str(out), "--normalize"]) == 1
    assert "44100 Hz" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("field", ["audio", "sample_id"])
def test_manifest_with_a_nul_byte_is_a_typed_error(corpus, tmp_path, capsys, field):
    """A NUL in a row's audio path raised a bare ValueError from resolve()
    as the manifest loaded, and one in its sample_id did as featurize
    wrote that clip's cache."""
    entries = load_manifest(corpus).entries
    manifest = tmp_path / "nul.csv"
    write_manifest(manifest, entries[:2])
    raw = manifest.read_bytes()
    name = entries[1].sample_id.encode() + (b".wav" if field == "audio" else b",")
    assert raw.count(name) == 1
    manifest.write_bytes(raw.replace(name, name[:2] + b"\0" + name[2:]))
    assert main(["featurize", "--manifest", str(manifest), "--out", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: holds a NUL byte, so it is not a manifest\n"
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("sample_id", ["../escaped", "sub/name", "..\\escaped", ".."])
def test_sample_id_that_is_not_a_file_name_is_a_typed_error(corpus, tmp_path, capsys, sample_id):
    """featurize writes <out>/<sample_id>.feat, so an id of ../escaped
    wrote its cache beside --out, not in it."""
    entries = load_manifest(corpus).entries
    manifest = tmp_path / "ids.csv"
    write_manifest(manifest, [entries[0], replace(entries[1], sample_id=sample_id)])
    out = tmp_path / "out" / "feats"
    assert main(["featurize", "--manifest", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {manifest}: 1 bad row(s):\n  line 4: sample_id {sample_id!r} is not a plain file name\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [manifest]


@pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["plain", "normalize"])
def test_featurize_of_a_clip_shorter_than_one_window_names_the_wav(corpus, tmp_path, capsys, flags):
    """The front end's error named no file: "clip of 100 samples shorter
    than one 1200-sample window"."""
    short = tmp_path / "short.wav"
    write_wav_pcm16(short, np.zeros(100))
    entries = load_manifest(corpus).entries
    manifest = tmp_path / "short.csv"
    write_manifest(manifest, [entries[0], replace(entries[1], audio=short)])
    assert main(["featurize", "--manifest", str(manifest), "--out", str(tmp_path / "f"), *flags]) == 1
    assert capsys.readouterr().err == f"error: {short}: clip of 100 samples shorter than one 1200-sample window\n"


@pytest.mark.filterwarnings("error")
def test_featurize_of_a_signalling_nan_sample_names_the_wav_and_warns_of_nothing(corpus, tmp_path, capsys):
    """The float32 cast of a signalling NaN printed NumPy's "invalid value
    encountered in cast" before the error line, which had no file name."""
    from test_frontend import float32_wav

    raw = float32_wav(np.zeros(2400))
    bad = tmp_path / "snan.wav"
    bad.write_bytes(raw[:44] + struct.pack("<I", 0x7F800001) + raw[48:])  # the first sample
    manifest = tmp_path / "snan.csv"
    write_manifest(manifest, [replace(load_manifest(corpus).entries[0], audio=bad)])
    assert main(["featurize", "--manifest", str(manifest), "--out", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: clip contains non-finite samples\n"


def test_evaluate_reproduces_published_range_row(tmp_path, capsys):
    """A sample-level fixture whose per-cell correlations equal the
    published per-language grid must reproduce its printed Range row."""
    from sqatk.evaluation import PredictionRow, write_predictions
    from sqatk.manifest import ManifestEntry, write_manifest
    from sqatk.quality import QualityScores
    from table_fixtures import CNN_PCC
    from test_evaluation import correlated_pair

    rng = np.random.default_rng(77)
    rows, entries = [], []
    for lang, cells in CNN_PCC["rows"].items():
        per_dim = {dim: correlated_pair(r, 40, rng) for dim, r in cells.items()}
        for i in range(40):
            sid = f"{lang.lower()}{i:03d}"
            pred = QualityScores(**{d: float(per_dim[d][0][i]) for d in cells})
            label = QualityScores(**{d: float(per_dim[d][1][i]) for d in cells})
            rows.append(PredictionRow(sid, lang, "subjective", pred, label))
            entries.append(
                ManifestEntry(sid, tmp_path / f"{sid}.wav", lang, "c0", "test",
                              "subjective", label)
            )
    pred_csv = tmp_path / "fixture_pred.csv"
    labels_csv = tmp_path / "fixture_labels.csv"
    write_predictions(pred_csv, rows)
    write_manifest(labels_csv, entries)

    assert main(["evaluate", "--pred", str(pred_csv), "--labels", str(labels_csv),
                 "--reference", "ENG", "--format", "csv", "--out", "-"]) == 0
    out = capsys.readouterr().out
    pcc_table = out.split("\n\n")[0]
    range_line = [l for l in pcc_table.splitlines() if l.startswith("Range")][0]
    assert range_line == "Range,0.18,0.12,0.26,0.16,0.29"


def _exact_predictions(corpus, path):
    """Predictions CSV whose predictions equal the manifest labels."""
    from sqatk.evaluation import PredictionRow, write_predictions

    rows = [
        PredictionRow(e.sample_id, e.language, e.provenance, e.scores, e.scores)
        for e in load_manifest(corpus).entries
    ]
    write_predictions(path, rows)
    return path


@pytest.mark.parametrize(
    "mutate",
    [
        lambda row: row.split(",")[0],  # short row
        lambda row: row.replace(row.split(",")[3], "abc", 1),  # non-numeric pred_mos
        lambda row: ",".join(row.split(",")[:6] + ["nan"] + row.split(",")[7:]),  # pred_mos
        lambda row: ",".join(row.split(",")[:6] + ["-inf"] + row.split(",")[7:]),
    ],
    ids=["short_row", "non_numeric", "nan", "inf"],
)
def test_bad_prediction_row_is_a_typed_error(corpus, tmp_path, capsys, mutate):
    """A NaN or infinite prediction made calibrate's least squares raise
    LinAlgError, a traceback."""
    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    lines = pred.read_text().splitlines()
    lines[2] = mutate(lines[2])
    pred.write_text("\n".join(lines) + "\n")
    code = main(["calibrate", "--pred", str(pred), "--labels", str(corpus), "--out", str(tmp_path / "m.csv")])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    ["ENG,mos,0.0,1.0,0.0", "ENG,mos,0.0,one,0.0,0.0,1.0,5.0"],
    ids=["column_count", "non_numeric"],
)
def test_bad_calibration_map_is_a_typed_error(corpus, tmp_path, capsys, row):
    maps = tmp_path / "maps.csv"
    maps.write_text(f"group,dim,a0,a1,a2,a3,domain_lo,domain_hi\n{row}\n")
    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    code = main(["evaluate", "--pred", str(pred), "--labels", str(corpus),
                 "--calibration", str(maps), "--out", "-"])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "calibrate"])
def test_predictions_that_repeat_a_sample_id_are_a_typed_error(corpus, tmp_path, capsys, command):
    """A repeated row was evaluated twice (evaluate printed one sample
    more than the file holds) and fit twice by calibrate."""
    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    lines = pred.read_text().splitlines()
    pred.write_text("\n".join(lines + lines[-1:]) + "\n")
    sample_id = lines[-1].split(",")[0]
    out = tmp_path / "out.csv"
    code = main([command, "--pred", str(pred), "--labels", str(corpus), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {pred}: line {len(lines) + 1}: duplicate sample_id {sample_id!r}, "
                   f"first on line {len(lines)}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "calibrate"])
def test_prediction_outside_the_score_range_is_a_typed_error(corpus, tmp_path, capsys, command):
    """pred_mos = 1e200 made evaluate die in round_half_away with
    decimal.InvalidOperation, and calibrate warn of an overflow and
    then report a rank-deficient system. predict writes only clipped
    scores, so the reader takes only [1, 5]."""
    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    lines = pred.read_text().splitlines()
    fields = lines[2].split(",")
    fields[6] = "1e200"  # pred_mos
    lines[2] = ",".join(fields)
    pred.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    code = main([command, "--pred", str(pred), "--labels", str(corpus), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {pred}: line 3: score '1e200' is not in [1, 5]"]
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, named",
    [
        (["DE,mos,0.0,inf,0.0,0.0,1.0,5.0"], "line 2: a1 = inf is not finite"),
        (["DE,mos,nan,1.0,0.0,0.0,1.0,5.0"], "line 2: a0 = nan is not finite"),
        (["DE,mos,0.0,1.0,0.0,0.0,1.0,-inf"], "line 2: domain_hi = -inf is not finite"),
        (["DE,mos,0.0,1.0,0.0,0.0,5.0,1.0"], "line 2: domain_lo 5.0 is above domain_hi 1.0"),
        (["DE,mos,0.0,1.0,0.0,1e308,1.0,5.0"],
         "line 2: |a0| + 5|a1| + 25|a2| + 125|a3| overflows, so the map cannot be applied to scores in [1, 5]"),
        (["DE,mos,0.0,1.0,0.0,0.0,1.0,5.0", "ENG,mos,0.0,1.0,0.0,0.0,1.0,5.0", "DE,mos,1.0,0.5,0.0,0.0,1.0,5.0"],
         "line 4: a second map for DE/mos, first on line 2"),
    ],
    ids=["inf_a1", "nan_a0", "inf_domain", "reversed_domain", "huge_a3", "repeated_map"],
)
def test_calibration_map_that_cannot_be_applied_as_written_is_a_typed_error(corpus, tmp_path, capsys, rows, named):
    """An infinite slope clipped every DE MOS to 5 with exit 0, a NaN
    ended in an error about a PCC cell, a reversed domain loaded, a
    finite a3 of 1e308 overflowed in the cubic with NumPy's warning and
    clipped every DE MOS to 5 with exit 0, and a second map for one
    (group, dim) silently replaced the first."""
    maps = tmp_path / "maps.csv"
    maps.write_text("group,dim,a0,a1,a2,a3,domain_lo,domain_hi\n" + "".join(f"{row}\n" for row in rows))
    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    out = tmp_path / "report.md"
    code = main(["evaluate", "--pred", str(pred), "--labels", str(corpus),
                 "--calibration", str(maps), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {maps}: {named}"]
    assert not out.exists()


def test_evaluate_provenance_keeps_only_its_rows(corpus, tmp_path, capsys):
    """subjective and objective each evaluate their own rows; a filter
    that leaves none is an error."""
    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    entries = load_manifest(corpus).entries
    objective = {e.sample_id for e in entries[::3]}  # 4 of 10, so the two filters keep different counts
    labels = tmp_path / "labels.csv"
    write_manifest(labels, [replace(e, provenance="objective") if e.sample_id in objective else e
                            for e in entries])
    out = tmp_path / "report.md"
    evaluate = ["evaluate", "--pred", str(pred), "--out", str(out), "--provenance"]
    for provenance, count in (("subjective", len(entries) - len(objective)), ("objective", len(objective)),
                              ("both", len(entries))):
        assert main(evaluate + [provenance, "--labels", str(labels)]) == 0
        assert capsys.readouterr().out == f"evaluated {count} samples -> {out}\n"

    out.unlink()
    assert main(evaluate + ["objective", "--labels", str(corpus)]) == 1
    assert capsys.readouterr().err == "error: no samples left to evaluate\n"
    assert not out.exists()


def test_evaluate_warns_once_about_every_unmapped_labeled_pair(corpus, tmp_path, capsys):
    from sqatk.quality import TASKS

    pred = _exact_predictions(corpus, tmp_path / "pred.csv")
    labeled = {
        (e.language, dim) for e in load_manifest(corpus).entries for dim in TASKS if e.scores.present(dim)
    }
    assert ("ENG", "mos") in labeled and len(labeled) > 1
    maps = tmp_path / "maps.csv"
    header = "group,dim,a0,a1,a2,a3,domain_lo,domain_hi\n"
    maps.write_text(header + "ENG,mos,0.0,1.0,0.0,0.0,1.0,5.0\n")
    args = ["evaluate", "--pred", str(pred), "--labels", str(corpus),
            "--calibration", str(maps), "--out", "-"]
    assert main(args) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    named = {tuple(pair.split("/")) for pair in
             warnings[0].split("no calibration map for ")[1].split(";")[0].split(", ")}
    assert named == labeled - {("ENG", "mos")}

    maps.write_text(header + "".join(f"{lang},{dim},0.0,1.0,0.0,0.0,1.0,5.0\n" for lang, dim in sorted(labeled)))
    assert main(args) == 0
    assert "warning" not in capsys.readouterr().err


def test_prediction_with_an_empty_field_is_left_out_of_its_cell(corpus, tmp_path, capsys):
    """A hand-edited predictions CSV with an empty pred_col for clips whose
    col is labelled: calibrate counts those clips out of the cell, evaluate
    scores the cell without them, and the unmapped-cell warning names only
    cells that have pairs (it named DE/col, whose every pred_col is empty)."""
    from sqatk.evaluation import PredictionRow, pearson, rmse, write_predictions

    entries = load_manifest(corpus).entries
    eng_rows = [e.sample_id for e in entries if e.language == "ENG"]
    blank = set(eng_rows[:2]) | {e.sample_id for e in entries if e.language == "DE"}
    rows = []
    for i, e in enumerate(entries):
        shifted = {d: min(max(e.scores.get(d) + 0.1 * (i % 4) - 0.15, 1.0), 5.0) for d in TASKS}
        if e.sample_id in blank:
            shifted["col"] = None
        rows.append(PredictionRow(e.sample_id, e.language, e.provenance, QualityScores(**shifted), e.scores))
    pred = tmp_path / "pred.csv"
    write_predictions(pred, rows)
    assert all(",," in line for line in pred.read_text().splitlines() if line.split(",")[0] in blank)

    maps = tmp_path / "maps.csv"
    assert main(["calibrate", "--pred", str(pred), "--labels", str(corpus), "--dims", "mos,col",
                 "--out", str(maps)]) == 1
    assert capsys.readouterr().err == "error: group 'DE' dim 'col': 0 labeled samples, need >= 4\n"
    assert not maps.exists()

    assert main(["evaluate", "--pred", str(pred), "--labels", str(corpus), "--format", "csv",
                 "--out", "-"]) == 0
    pcc, err = (parse_report(table, "csv") for table in capsys.readouterr().out.split("\n\n"))
    kept = [(r.pred.col, r.label.col) for r in read_predictions(pred) if r.language == "ENG" and r.pred.col]
    assert len(kept) == len(eng_rows) - 2
    assert pcc["rows"]["ENG"]["col"] == pytest.approx(pearson(*zip(*kept)), abs=5e-4)
    assert err["rows"]["ENG"]["col"] == pytest.approx(rmse(*zip(*kept)), abs=5e-4)
    assert pcc["rows"]["DE"]["col"] is None and err["rows"]["DE"]["col"] is None

    maps.write_text("group,dim,a0,a1,a2,a3,domain_lo,domain_hi\nENG,mos,0.0,1.0,0.0,0.0,1.0,5.0\n")
    assert main(["evaluate", "--pred", str(pred), "--labels", str(corpus), "--calibration", str(maps),
                 "--out", "-"]) == 0
    (warning,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    named = warning.split("no calibration map for ")[1].split(";")[0].split(", ")
    assert named == sorted(f"{lang}/{dim}" for lang in ("DE", "ENG") for dim in TASKS
                           if (lang, dim) not in {("ENG", "mos"), ("DE", "col")})
