"""Batch command-line entry points wiring the pipeline together:
featurize, train, predict, calibrate, evaluate.

Exit code 0 on success, nonzero with a diagnostic on stderr otherwise.
Output files are written to a temp file and renamed, so failures never
leave a partial file; featurize keeps the caches it finished before a
clip failed.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import evaluation as ev
from . import frontend as fe
from . import training as tr
from .atomic import atomic_write
from .autodiff import Tensor
from .checkpoint import (CheckpointError, decode_config, echo_config, encode_config, load_checkpoint,
                         parse_config, save_checkpoint)
from .cnn import KERNEL, ConvBaseline, CnnConfig
from .manifest import Manifest, ManifestError, format_summary, load_manifest, summarize
from .parallel import thread_map
from .quality import SCORE_MAX, SCORE_MIN, TASKS
from .training import TrainConfig, TrainingError, fit, make_sample
from .transformer import MLP_RATIO, PATCH, PATCH_STRIDE, ModelConfig, ModelError, SpectrogramTransformer


class CliError(Exception):
    pass


# ------------------------------------------------------------- utilities


# Checkpoint kind -> (adapter, its config class).
_MODEL_KINDS = {"ast": (SpectrogramTransformer, ModelConfig), "cnn": (ConvBaseline, CnnConfig)}
_CONFIG_KEYS = {f.name for cls in (ModelConfig, CnnConfig, TrainConfig) for f in fields(cls)}
# Echo keys of checkpoints written while the hop, the CNN's kernel, the mel
# count and the AST's patch geometry and MLP width were settings, with the
# one value today's models read.
_EARLIER_ECHO = {"model.frame_hop_s": fe.FrontendConfig.frame_hop_s, "model.kernel": KERNEL,
                 "model.n_mels": fe.FrontendConfig.n_mels, "model.patch_size": PATCH,
                 "model.patch_stride_time": PATCH_STRIDE, "model.patch_stride_freq": PATCH_STRIDE,
                 "model.mlp_ratio": MLP_RATIO}


def load_config_file(path) -> dict[str, str]:
    """Flat key=value text config; '#' starts a comment line. Every key
    is a field of ModelConfig, CnnConfig or TrainConfig, so one file can
    serve both model kinds."""
    config = decode_config(Path(path).read_bytes(), path, CliError)
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    return config


def build_model(kind: str, config: dict[str, str], seed: int = 0):
    adapter, config_class = _MODEL_KINDS[kind]
    return adapter(config_class(**parse_config(config_class, config, error=CliError)), seed=seed)


def build_train_config(kind: str, config: dict[str, str]) -> TrainConfig:
    picked = parse_config(TrainConfig, config, error=CliError)
    if kind == "ast":
        picked.setdefault("learning_rate", 1e-6)
    return TrainConfig(**picked)


def feature_path(features_dir: Path, sample_id: str) -> Path:
    return features_dir / f"{sample_id}.feat"


def build_samples(entries, features_dir: Path) -> list[tr.TrainSample]:
    """One sample per entry: its labels and a loader of its feature cache,
    which fit reads each time the entry's batch is drawn. Every cache
    must exist now, so a missing one fails before the first step."""
    samples = []
    for entry in entries:
        path = feature_path(features_dir, entry.sample_id)
        if not path.is_file():
            raise CliError(f"{path}: no such feature cache")
        samples.append(make_sample(partial(fe.load_features, path), entry.scores))
    return samples


# ------------------------------------------------------------ subcommands


def cmd_featurize(args) -> int:
    """Write each clip's cache as soon as it is computed, so memory holds
    one clip per job, not the corpus. --normalize needs the corpus sums
    first: pass 1 adds each clip to them and spills its float64 log-mel
    to a scratch directory under --out; pass 2 normalizes each spill into
    its cache and deletes it. The scratch directory goes away also when
    a clip fails."""
    manifest = load_manifest(args.manifest)
    print(format_summary(summarize(manifest)), end="")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def log_mel(entry):
        clip = fe.decode_wav(entry.audio)
        try:
            return fe.log_mel_spectrogram(clip).values
        except fe.FeatureError as exc:
            raise type(exc)(f"{entry.audio}: {exc}") from exc

    def save(entry, values):
        fe.save_features(feature_path(out_dir, entry.sample_id), values)

    if not args.normalize:
        list(thread_map(args.jobs, lambda entry: save(entry, log_mel(entry)), manifest.entries))
    else:
        spill_dir = Path(tempfile.mkdtemp(prefix=".spill-", dir=out_dir))
        try:

            def spill(entry):
                values = log_mel(entry)
                np.save(spill_dir / f"{entry.sample_id}.npy", values)
                return fe.feature_moments(values)

            def normalize(entry):
                path = spill_dir / f"{entry.sample_id}.npy"
                save(entry, (np.load(path) - mean) / std)
                path.unlink()

            mean, std = fe.corpus_normalization(thread_map(args.jobs, spill, manifest.entries))
            list(thread_map(args.jobs, normalize, manifest.entries))
        finally:
            shutil.rmtree(spill_dir, ignore_errors=True)
        atomic_write(out_dir / "normalization.txt", encode_config({"mean": repr(mean), "std": repr(std)}))

    print(f"featurized {len(manifest.entries)} clips -> {out_dir}")
    return 0


def cmd_train(args) -> int:
    config = load_config_file(args.config) if args.config else {}
    train_config = build_train_config(args.model, config)
    model = build_model(args.model, config, seed=train_config.seed)

    manifest = load_manifest(args.manifest, require_audio=False)
    features_dir = Path(args.features)
    train_entries = manifest.split_entries("train")
    if not train_entries:
        raise CliError("manifest has no train-split entries")
    val_entries = manifest.split_entries("val")
    if not val_entries:
        print("note: manifest has no val split; validating on the training set")
        val_entries = train_entries

    train_samples = build_samples(train_entries, features_dir)
    val_samples = build_samples(val_entries, features_dir)

    history_path = Path(args.history) if args.history else Path(str(args.out) + ".history.csv")
    result = fit(model, train_samples, val_samples, train_config, history_path=history_path)
    if result.best_epoch == 0:
        raise TrainingError(
            f"no validation MOS correlation was defined in any of {result.epochs_run} epoch(s), "
            f"so no epoch can be picked; history -> {history_path}, no checkpoint written"
        )

    echo = {**model.config_echo(), **echo_config(train_config, "train."),
            "train.best_epoch": str(result.best_epoch)}
    save_checkpoint(args.out, model.kind, echo, result.params)
    print(
        f"trained {model.kind}: {result.epochs_run} epochs, "
        f"best epoch {result.best_epoch} (monitor {result.best_monitor:.4f}) -> {args.out}"
    )
    return 0


def load_model(path):
    """The checkpoint's model, holding its float32 tensors as parameters."""
    kind, echo, tensors = load_checkpoint(path)
    if kind not in _MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")
    adapter, config_class = _MODEL_KINDS[kind]
    missing = [f"model.{f.name}" for f in fields(config_class) if f"model.{f.name}" not in echo]
    if missing:
        raise CheckpointError(f"{path}: model config echo has no {', '.join(missing)} key")
    for key, value in _EARLIER_ECHO.items():
        try:
            same = key not in echo or float(echo[key]) == value
        except ValueError:
            same = False
        if not same:
            raise CheckpointError(f"{path}: {key}={echo[key]}, but the models read only {key}={value}")
    config = config_class(**parse_config(config_class, echo, "model."))
    params = {}
    for name, (shape, _) in adapter.param_spec(config).items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(f"tensor {name!r} shape {tensors[name].shape} != expected {shape}")
        if not np.isfinite(tensors[name]).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        params[name] = Tensor(tensors[name], requires_grad=True)
    return adapter(config, params=params)


def cmd_predict(args) -> int:
    model = load_model(args.ckpt)
    manifest = load_manifest(args.manifest, require_audio=False)
    features_dir = Path(args.features)

    def score(entry):
        pred = model.predict_scores(fe.load_features(feature_path(features_dir, entry.sample_id)))
        return ev.PredictionRow(entry.sample_id, entry.language, entry.provenance, pred, entry.scores)

    rows = list(thread_map(args.jobs, score, manifest.entries))
    ev.write_predictions(args.out, rows)
    for task in TASKS:
        scores = [row.pred.get(task) for row in rows if row.pred.present(task)]
        clipped = sum(value in (SCORE_MIN, SCORE_MAX) for value in scores)
        if clipped:
            print(f"note: {clipped} of {len(scores)} pred_{task} scores clipped to "
                  f"[{SCORE_MIN:g}, {SCORE_MAX:g}]", file=sys.stderr)
    print(f"predicted {len(rows)} clips -> {args.out}")
    return 0


def _join_labels(rows: list[ev.PredictionRow], labels_manifest: Manifest) -> list[ev.PredictionRow]:
    by_id = {e.sample_id: e for e in labels_manifest.entries}
    joined = []
    for row in rows:
        entry = by_id.get(row.sample_id)
        if entry is None:
            raise CliError(f"prediction {row.sample_id!r} not present in the labels manifest")
        joined.append(
            ev.PredictionRow(row.sample_id, entry.language, entry.provenance, row.pred, entry.scores)
        )
    return joined


def cmd_calibrate(args) -> int:
    rows = _join_labels(ev.read_predictions(args.pred), load_manifest(args.labels, require_audio=False))
    dims = [d.strip() for d in args.dims.split(",")]
    for dim in dims:
        if dim not in TASKS:
            raise CliError(f"unknown dimension {dim!r}; choose from {TASKS}")

    maps: dict[tuple[str, str], cal.CalibrationMap] = {}
    for (group, dim), (pred, subj) in ev.paired(rows, dims).items():
        if len(pred) < 4:
            raise CliError(f"group {group!r} dim {dim!r}: {len(pred)} labeled samples, need >= 4")
        maps[(group, dim)] = cal.fit_calibration(pred, subj)

    cal.save_calibration_maps(args.out, maps)
    print(f"fit {len(maps)} calibration map(s) -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    rows = _join_labels(ev.read_predictions(args.pred), load_manifest(args.labels, require_audio=False))
    if args.provenance != "both":
        rows = [r for r in rows if r.provenance == args.provenance]
    if not rows:
        raise CliError("no samples left to evaluate")

    pairs = ev.paired(rows, ev.DIM_ORDER)
    if args.calibration:
        maps = cal.load_calibration_maps(args.calibration)
        unmapped = sorted(key for key, (pred, _) in pairs.items() if len(pred) and key not in maps)
        if unmapped:
            names = ", ".join(f"{language}/{dim}" for language, dim in unmapped)
            print(f"warning: no calibration map for {names}; left uncalibrated", file=sys.stderr)
        pairs = {key: (cal.apply_calibration(maps[key], pred) if key in maps else pred, label)
                 for key, (pred, label) in pairs.items()}

    pcc_report, rmse_report = ev.evaluate(pairs, reference=args.reference)
    text = ev.render_report(pcc_report, args.format) + "\n" + ev.render_report(rmse_report, args.format)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        atomic_write(args.out, text)
        print(f"evaluated {len(rows)} samples -> {args.out}")
    return 0


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqatk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="compute log-mel feature caches for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for .feat files")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--normalize", action="store_true", help="apply corpus mean/var normalization")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a scorer on the manifest's train/val splits")
    p.add_argument("--model", choices=("ast", "cnn"), required=True)
    p.add_argument("--config", help="key=value text config (model + training keys)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--features", required=True, help="feature cache directory from `featurize`")
    p.add_argument("--history", help="training history CSV (default: <out>.history.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score every clip in a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.add_argument("--features", required=True, help="feature cache directory from `featurize`")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("calibrate", help="fit per-group cubic score calibration")
    p.add_argument("--pred", required=True)
    p.add_argument("--labels", required=True, help="labels manifest")
    p.add_argument("--group", choices=("language",), default="language")
    p.add_argument("--dims", default="mos", help="comma-separated dimensions (default: mos)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="per-language PCC/RMSE tables with range rows")
    p.add_argument("--pred", required=True)
    p.add_argument("--labels", required=True, help="labels manifest")
    p.add_argument("--calibration", help="calibration map file from `calibrate`")
    p.add_argument("--reference", default="ENG")
    p.add_argument("--provenance", choices=("subjective", "objective", "both"), default="both")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", required=True, help="report path, or - for stdout")
    p.set_defaults(func=cmd_evaluate)

    return parser


# The errors main reports as one "error:" line with exit code 1.
ERRORS = (CliError, ManifestError, ModelError, TrainingError, CheckpointError, cal.CalibrationError,
          ev.MetricError, fe.AudioError, fe.FeatureError, OSError, MemoryError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise CliError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
