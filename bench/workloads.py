"""Benchmark workloads: seeded corpus synthesis, set-up, and the argv of
each CLI stage. README.md in this directory says why each workload exists."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sqatk.checkpoint import save_checkpoint
from sqatk.manifest import load_manifest, write_manifest
from sqatk.synth import generate_corpus
from sqatk.transformer import SpectrogramTransformer, desk_config, init_params

REFERENCE = "ENG"
MODEL_SEED = 0
# The scoring checkpoint is the seed-0 init with every head bias at 3.0. The
# untrained heads output -0.7 to 0.05, which would clip every score to 1.0;
# with the bias, scores lie inside [1, 5] and vary between clips.
SCORE_HEAD_BIAS = 3.0
ALL_DIMS = ("mos", "col", "dis", "loud", "noi")
# The training workloads calibrate MOS, the CLI's default. A 3-epoch model
# keeps the epoch with the best MOS monitor, and there another head can sit
# clipped at 1 or 5 for a whole language (cnn seed 205: col); calibrate
# rejects such constant predictions by design.
TRAINED_DIMS = ("mos",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str  # "ast" or "cnn"
    train: bool  # False: score with a checkpoint written at set-up
    durations: tuple[float, ...]  # one generate_corpus call per duration
    languages: tuple[str, ...]
    clips_per_duration: int
    n_val: int  # per generate_corpus call
    n_test: int  # per generate_corpus call
    max_duration_s: float
    calibrate_dims: tuple[str, ...]
    max_epochs: int = 0

    @property
    def n_clips(self) -> int:
        return self.clips_per_duration * len(self.durations)

    @property
    def n_train(self) -> int:
        return (self.clips_per_duration - self.n_val - self.n_test) * len(self.durations)

    @property
    def audio_s(self) -> float:
        return self.clips_per_duration * float(sum(self.durations))

    @property
    def stages(self) -> tuple[str, ...]:
        if self.train:
            return ("featurize", "train", "predict", "calibrate", "evaluate")
        return ("featurize", "predict", "calibrate", "evaluate")

    def config_text(self) -> str:
        # Batch 8 gives 3 steps per epoch on 24 train clips; at batch 16 the
        # 3-epoch CNN leaves whole language groups clipped at 1 or 5 on some seeds.
        return (
            f"embed_dim=64\nn_layers=2\nn_heads=4\nmax_duration_s={self.max_duration_s!r}\n"
            f"learning_rate=0.003\nmax_epochs={self.max_epochs}\nbatch_size=8\nseed={MODEL_SEED}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="score_mixed_12s",
            why=(
                "scores mixed 1-12 s clips in the 12 s window: about half of the tokens are "
                "padding and attention dominates, so padding-drop and no-grad paths show here"
            ),
            model="ast",
            train=False,
            durations=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0),
            languages=("ENG", "DE"),
            clips_per_duration=2,
            n_val=0,
            n_test=2,
            max_duration_s=12.0,
            calibrate_dims=ALL_DIMS,
        ),
        Workload(
            name="ast_train_2s",
            why=(
                "trains the desk AST on full 2 s clips: dense matmul and softmax forward and "
                "backward plus ADAM, with every token valid so padding work changes nothing"
            ),
            model="ast",
            train=True,
            durations=(2.0,),
            languages=("ENG", "DE", "FR"),
            clips_per_duration=42,
            n_val=6,
            n_test=12,
            max_duration_s=2.0,
            calibrate_dims=TRAINED_DIMS,
            max_epochs=3,
        ),
        Workload(
            name="cnn_train_2s",
            why=(
                "trains the CNN baseline on the same corpus: im2col conv2d and max-pool "
                "dominate and no transformer code runs, separating model from loop changes"
            ),
            model="cnn",
            train=True,
            durations=(2.0,),
            languages=("ENG", "DE", "FR"),
            clips_per_duration=42,
            n_val=6,
            n_test=12,
            max_duration_s=2.0,
            calibrate_dims=TRAINED_DIMS,
            max_epochs=3,
        ),
    )
}


@dataclass(frozen=True)
class Prepared:
    """Files written by set-up, shared by every pipeline iteration."""

    manifest: Path
    config: Path | None  # training config of a training workload
    checkpoint: Path | None  # checkpoint of a scoring workload


def setup(workload: Workload, seed: int, out_dir: Path) -> Prepared:
    """Synthesize the corpus from `seed`, merge it into one manifest, and
    write the training config (or, for scoring, the checkpoint)."""
    out_dir.mkdir(parents=True)
    entries = []
    for k, duration in enumerate(workload.durations):
        corpus_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        shift = k % len(workload.languages)  # rotate, so one clip per duration still mixes languages
        part = generate_corpus(
            out_dir / f"d{k}",
            n_clips=workload.clips_per_duration,
            seed=corpus_seed,
            languages=workload.languages[shift:] + workload.languages[:shift],
            duration_s=duration,
            n_val=workload.n_val,
            n_test=workload.n_test,
        )
        for entry in load_manifest(part).entries:
            entries.append(dataclasses.replace(entry, sample_id=f"d{k}_{entry.sample_id}"))
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, entries)

    if workload.train:
        config = out_dir / "model.cfg"
        config.write_text(workload.config_text())
        return Prepared(manifest=manifest, config=config, checkpoint=None)

    checkpoint = out_dir / "score.ckpt"
    model_config = desk_config(max_duration_s=workload.max_duration_s)
    params = init_params(model_config, seed=MODEL_SEED)
    tensors = {name: p.data for name, p in params.items()}
    for task in model_config.tasks:
        tensors[f"head_{task}_b"] = np.full((1,), SCORE_HEAD_BIAS)
    echo = SpectrogramTransformer(model_config, params=params).config_echo()
    save_checkpoint(checkpoint, "ast", echo, tensors)
    return Prepared(manifest=manifest, config=None, checkpoint=checkpoint)


def stage_argv(workload: Workload, prepared: Prepared, it: Path) -> list[tuple[str, list[str]]]:
    """(stage, argv) for one pipeline iteration writing under `it`."""
    m = str(prepared.manifest)
    feats, pred, maps = str(it / "feats"), str(it / "pred.csv"), str(it / "maps.csv")
    ckpt = str(it / "model.ckpt") if workload.train else str(prepared.checkpoint)
    argv = {
        # Training runs on normalized features: on the raw log floor the
        # 3-epoch CNN swings between all-1 and all-5 scores.
        "featurize": ["featurize", "--manifest", m, "--out", feats, "--jobs", "1"]
        + (["--normalize"] if workload.train else []),
        "train": [
            "train", "--model", workload.model, "--config", str(prepared.config),
            "--manifest", m, "--features", feats, "--out", ckpt,
        ],
        "predict": [
            "predict", "--ckpt", ckpt, "--manifest", m, "--features", feats,
            "--out", pred, "--jobs", "1",
        ],
        "calibrate": [
            "calibrate", "--pred", pred, "--labels", m, "--group", "language",
            "--dims", ",".join(workload.calibrate_dims), "--out", maps,
        ],
        "evaluate": [
            "evaluate", "--pred", pred, "--labels", m, "--calibration", maps,
            "--reference", REFERENCE, "--out", str(it / "report.md"),
        ],
    }
    return [(stage, argv[stage]) for stage in workload.stages]
