"""The names the benchmark reaches into src by, checked without running it.

bench/tracer.py wraps each (owner, attr) of its WRAPPED table through
owner.__dict__, and bench/*.py import sqatk names directly, so a src
refactor that moves or renames one of them breaks only the traced bench
run, and so do a flag or config key that bench/workloads.py passes.
These tests read bench/ and change nothing in it; the one that runs
run.py's valid_token_share, which computes from the front end's
geometry itself, does so on a three-clip corpus.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sqatk import cli
from sqatk import cnn as cnn_mod
from sqatk import frontend as fe
from sqatk.autodiff import conv2d, no_grad
from sqatk.cnn import CnnConfig, ConvBaseline
from sqatk.manifest import load_manifest
from sqatk.synth import generate_corpus
from sqatk.transformer import SpectrogramTransformer, desk_config, embed_batch

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(monkeypatch, stem: str):
    """bench/<stem>.py as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_sqatk_import_in_bench_resolves():
    """Each `from sqatk... import name` and `import sqatk...` in bench/*.py."""
    checked, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqatk":
                module = importlib.import_module(node.module)
                names = [alias.name for alias in node.names]
                missing += [f"{path.name}: {node.module}.{n}" for n in names if not hasattr(module, n)]
                checked += len(names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "sqatk":
                        importlib.import_module(alias.name)
                        checked += 1
    assert checked > 0 and missing == []


def test_every_wrapped_name_is_in_its_owners_own_dict(monkeypatch):
    wrapped = _load_bench(monkeypatch, "tracer").WRAPPED
    assert wrapped
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in wrapped if attr not in vars(owner)]
    assert missing == []


def test_every_bench_stage_argv_parses_and_every_config_key_is_accepted(tmp_path, monkeypatch):
    """A CLI flag or config key that the bench passes and src drops makes
    every bench run exit 2 or 1; here it fails without running one."""
    workloads = _load_bench(monkeypatch, "workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS.values():
        prepared = workloads.Prepared(manifest=tmp_path / "manifest.csv", config=tmp_path / "model.cfg",
                                      checkpoint=tmp_path / "score.ckpt")
        stages = workloads.stage_argv(workload, prepared, tmp_path / "it")
        assert [stage for stage, _ in stages] == list(workload.stages)
        for stage, argv in stages:
            assert parser.parse_args(argv).command == stage
        prepared.config.write_text(workload.config_text())
        assert cli.load_config_file(prepared.config)  # raises CliError on an unknown key


def test_the_clip_length_the_tracer_adds_up_is_an_audio_clip_property():
    """tracer.py's frontend.audio_s count reads each decoded clip's duration_s."""
    assert fe.AudioClip(np.zeros(480), 48000).duration_s == 0.01


def test_the_bench_valid_token_share_is_the_share_src_scores(tmp_path, monkeypatch):
    """run.py counts a clip's valid tokens from FrontendConfig(), frame_count,
    LogMelSpectrogram and extract_patches alone; the count must be what
    SpectrogramTransformer.prepare keeps of the clip's log-mel. The 0.5 s
    clips pad a 1 s window, so not every token is valid."""
    manifest = generate_corpus(tmp_path / "corpus", n_clips=3, seed=5, duration_s=0.5)
    workload = SimpleNamespace(max_duration_s=1.0)
    share = _load_bench(monkeypatch, "run").valid_token_share(workload, manifest)

    model = SpectrogramTransformer(desk_config(max_duration_s=workload.max_duration_s))
    valid = total = 0
    for entry in load_manifest(manifest).entries:
        values = fe.log_mel_spectrogram(fe.decode_wav(entry.audio)).values
        valid += 1 + model.prepare(values)[1].shape[1]
        total += 1 + model.config.n_patches
    assert valid < total
    assert share == valid / total


def test_the_embedding_mask_the_tracer_counts_covers_every_token_of_a_prepared_clip(monkeypatch):
    """tracer.py's _count_tokens reads embed_batch's second result, its
    size as the tokens and its sum as the valid ones. On a prepared clip
    it is a (1, P + 1) all-True bool array: the CLS token and each of
    the clip's P valid patches."""
    model = SpectrogramTransformer(desk_config(max_duration_s=1.0))
    patches, positions = model.prepare(np.random.default_rng(0).normal(-5.0, 2.0, size=(50, 128)))
    _, mask = embed_batch(patches, model.params, model.config, positions)
    n_tokens = positions.shape[1] + 1
    assert n_tokens - 1 < model.config.n_patches  # the clip does not fill the window
    assert mask.dtype == bool and mask.shape == (1, n_tokens) and mask.all()
    counts = Counter()
    _load_bench(monkeypatch, "tracer")._count_tokens(counts, (None, mask), (), {})
    assert counts == {"transformer.tokens": n_tokens, "transformer.valid_tokens": n_tokens}


def test_every_cnn_stage_calls_conv2d_through_the_cnn_modules_globals(monkeypatch):
    """tracer.py's cnn.conv span wraps sqatk.cnn.conv2d, and pooling runs
    inside that call, so the span covers every stage's conv and pool only
    if cnn_forward_batch looks conv2d up in its module's globals once per
    stage, recorded and under no_grad alike."""
    config = CnnConfig(channels=(4, 8, 8), pool=(2, 2, 1), max_duration_s=0.4)
    model = ConvBaseline(config, seed=0)
    x = np.concatenate([model.prepare(np.random.default_rng(0).normal(-5.0, 2.0, size=(40, 128)))] * 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("pool"))
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(cnn_mod, "conv2d", counting)
    recorded = cnn_mod.cnn_forward_batch(x, model.params, config)
    assert all(raw.requires_grad for raw in recorded.values())
    assert calls == list(config.pool)
    calls.clear()
    with no_grad():
        scored = cnn_mod.cnn_forward_batch(x, model.params, config)
    assert calls == list(config.pool)
    for task, raw in scored.items():
        np.testing.assert_array_equal(raw.data, recorded[task].data)


# Spans a model kind never runs: the other model's layers, and cnn.pool,
# which wraps maxpool2d while the CNN pools inside conv2d.
_AST_SPANS = {"transformer.prepare_s", "transformer.embed_s", "transformer.encoder_s"}
_CNN_SPANS = {"cnn.prepare_s", "cnn.conv_s"}
_EXPECTED_ZERO = {"ast": _CNN_SPANS | {"cnn.pool_s"}, "cnn": _AST_SPANS | {"cnn.pool_s"}}


@pytest.mark.parametrize("kind, config_text", [
    ("ast", "embed_dim=16\nn_layers=1\nn_heads=2\nlearning_rate=0.03\n"),
    ("cnn", "channels=4,8\npool=2,2\nlearning_rate=0.01\n"),
], ids=["ast", "cnn"])
def test_a_traced_toy_run_times_every_span_its_model_runs(tmp_path, monkeypatch, kind, config_text):
    """bench/tracer.py over featurize, train, predict, calibrate and
    evaluate --calibration of six 0.5 s clips: every time metric is above
    0 except the spans the kind never runs, which read exactly 0. The
    CNN's heads read 0 s when cnn.py bound head_outputs at import. Eight
    epochs at batch 1 move the heads off the clip at 1, so validation and
    calibrate see scores that vary."""
    tracer_mod = _load_bench(monkeypatch, "tracer")
    manifest = generate_corpus(tmp_path / "corpus", n_clips=6, seed=2, duration_s=0.5, n_val=2)
    config = tmp_path / "model.cfg"
    config.write_text(config_text + "max_duration_s=0.5\nmax_epochs=8\nbatch_size=1\n")
    feats, ckpt, pred, maps = (tmp_path / name for name in ("feats", "model.ckpt", "pred.csv", "maps.csv"))
    stages = [
        ("featurize", ["featurize", "--manifest", str(manifest), "--out", str(feats)]),
        ("train", ["train", "--model", kind, "--config", str(config), "--manifest", str(manifest),
                   "--features", str(feats), "--out", str(ckpt)]),
        ("predict", ["predict", "--ckpt", str(ckpt), "--manifest", str(manifest), "--features", str(feats),
                     "--out", str(pred)]),
        ("calibrate", ["calibrate", "--pred", str(pred), "--labels", str(manifest), "--out", str(maps)]),
        ("evaluate", ["evaluate", "--pred", str(pred), "--labels", str(manifest), "--calibration", str(maps),
                      "--out", str(tmp_path / "report.md")]),
    ]
    with tracer_mod.Tracer() as tracer:
        for stage, argv in stages:
            with tracer.stage(stage):
                assert cli.main(argv) == 0, stage
    metrics = tracer.layer_metrics()
    zero = _EXPECTED_ZERO[kind]
    assert zero < set(tracer_mod.TIME_METRICS)
    assert {name: metrics[name] for name in zero} == dict.fromkeys(zero, 0.0)
    assert [name for name in tracer_mod.TIME_METRICS if name not in zero and not metrics[name] > 0] == []
