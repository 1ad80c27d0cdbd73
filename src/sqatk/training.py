"""Training loop: masked per-task MSE, ADAM, early stopping on the
validation monitor (MOS PCC minus MOS RMSE), and learning-rate patience
with halving. The shuffle permutation for each epoch is derived from
(seed, epoch) only, so runs are reproducible batch for batch.

A sample holds its labels and a loader of its clip's (frames, mels)
features, not the model's prepared input. train_step is the one code
that trains on a batch, and it treats each clip as a shard: the shard
loads its clip when the batch is drawn, prepares it as the batch of one
that forward_batch scores, divides each task's squared error by the
whole batch's label count for that task, and backpropagates alone. The
shards run on parallel.thread_map's pool, their gradient maps and
losses are summed in clip order, and ADAM steps once. So a step holds
the graphs of as many clips as there are workers, not batch_size, no
batch's graph outlives it, and its result does not depend on the
worker count.
fit runs cores() workers with NumPy's OpenBLAS pinned to one thread,
or one worker at the BLAS default where the count cannot be set.
Validation scores each clip alone through Scorer.predict_scores, as
predict does, on the calling thread: its forwards are a small share of
train's work, and bench/tracer.py's one span stack sees them in order.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import parallel
from .atomic import write_csv
from .autodiff import Tensor, init_from_spec, no_grad
from .checkpoint import echo_config
from .evaluation import UndefinedCorrelationError, pearson, rmse
from .quality import TASKS, QualityScores, clip_score


class TrainingError(ValueError):
    pass


class ModelError(ValueError):
    pass


class NonFiniteError(ModelError):
    """Non-finite activations, a divergence signal."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    max_epochs: int = 500
    batch_size: int = 100
    seed: int = 0
    early_stop_patience: ClassVar[int] = 20
    lr_patience: ClassVar[int] = 15
    lr_factor: ClassVar[float] = 0.5
    lr_floor: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise TrainingError("learning_rate must be positive and finite")
        if self.max_epochs < 1:
            raise TrainingError("max_epochs must be >= 1")
        if self.seed < 0:
            raise TrainingError("seed must be >= 0")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")


def mse_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray, count: int) -> Tensor:
    """Squared error over masked-in entries only, summed and divided by
    count, as one recorded node with the arithmetic of the composed ops,
    bit for bit. The mask's own count gives the mean over pred;
    train_step passes the task's label count over the whole batch, of
    which pred holds one clip."""
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise TrainingError(
            f"length mismatch: pred {pred.shape}, target {target.shape}, mask {mask.shape}"
        )
    if not mask.any():
        raise TrainingError("mse_loss needs at least one masked-in entry")
    dtype = pred.data.dtype
    m = mask.astype(dtype)
    scale = 1.0 / int(count)  # a Python float, which keeps pred's dtype
    diff = (pred.data - np.where(mask, target, 0.0).astype(dtype)) * m

    def backward(g):
        d = (g * scale) * diff
        return ((d + d) * m,)

    return pred._make((diff * diff).sum() * scale, (pred,), backward)


class Adam:
    """Standard ADAM with bias correction."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, grads: dict[Tensor, np.ndarray], lr: float) -> None:
        """One update from grads, a map like Tensor.backward returns; a
        parameter missing from it takes a zero gradient."""
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads.get(p, 0.0)
            m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class PatienceController:
    """Early-stop and LR-patience bookkeeping, at TrainConfig's patience
    counts, as a pure function of the monitor sequence. Improvement means
    strictly greater than the best."""

    def __init__(self):
        self.best = -np.inf
        self.best_epoch = 0
        self._since_improve = 0
        self._since_lr = 0

    def update(self, monitor: float, epoch: int) -> tuple[bool, bool]:
        """Feed one epoch's monitor value; returns (stop, halve_lr)."""
        if monitor > self.best:
            self.best = monitor
            self.best_epoch = epoch
            self._since_improve = 0
            self._since_lr = 0
            return False, False
        self._since_improve += 1
        self._since_lr += 1
        halve = False
        if self._since_lr >= TrainConfig.lr_patience:
            halve = True
            self._since_lr = 0
        return self._since_improve >= TrainConfig.early_stop_patience, halve


Loader = Callable[[], np.ndarray]  # returns one clip's (frames, mels) features


@dataclass
class TrainSample:
    load: Loader  # called each time the clip's batch is drawn
    labels: np.ndarray  # (5,) float, NaN where absent


def make_sample(load: Loader, scores) -> TrainSample:
    labels = np.array(
        [scores.get(t) if scores.present(t) else np.nan for t in TASKS], dtype=np.float64
    )
    return TrainSample(load=load, labels=labels)


@dataclass
class EpochRecord:
    epoch: int
    task_losses: dict[str, float]
    val_pcc_mos: float
    val_rmse_mos: float
    lr: float
    monitor: float


@dataclass
class FitResult:
    params: dict[str, np.ndarray]
    best_epoch: int
    best_monitor: float
    history: list[EpochRecord] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def _shard_step(model, counts: dict[str, int], sample: TrainSample):
    """One clip of a batch: load and prepare it, run the forward at batch
    1, and backpropagate the sum of its labelled tasks' losses, each
    divided by counts[task], the batch's label count for that task.
    Returns the clip's loss per task and its leaf-gradient map. A pool
    thread starts at NumPy's default error state, so the shard sets its
    own: overflow warnings are off, as the finite checks stop a
    divergence, typed."""
    with np.errstate(over="ignore", invalid="ignore"):
        preds = model.forward_batch(model.prepare(sample.load()))
        losses = {task: mse_loss(preds[task], sample.labels[i : i + 1], np.ones(1, bool), counts[task])
                  for i, task in enumerate(TASKS) if not np.isnan(sample.labels[i])}
        if not losses:
            return {}, {}
        total = functools.reduce(Tensor.__add__, losses.values())
        if not np.isfinite(total.data):
            raise TrainingError("non-finite loss")
        return {task: float(loss.data) for task, loss in losses.items()}, total.backward()


def train_step(model, optimizer: Adam, samples: list[TrainSample], lr: float, workers: int) -> dict[str, float]:
    """Run each clip of the batch as a shard on `workers` threads, sum
    their losses and gradient maps in clip order, out of place, and take
    one ADAM step. Returns each labelled task's batch loss, or {} with
    no step."""
    labelled = ~np.isnan(np.stack([s.labels for s in samples]))
    counts = dict(zip(TASKS, labelled.sum(axis=0).tolist()))
    losses = {task: 0.0 for task in TASKS if counts[task]}
    grads: dict[Tensor, np.ndarray] = {}
    for shard_losses, shard_grads in parallel.thread_map(
            workers, functools.partial(_shard_step, model, counts), samples):
        for task, value in shard_losses.items():
            losses[task] += value
        for p, g in shard_grads.items():
            grads[p] = grads[p] + g if p in grads else g
    if losses:
        optimizer.step(grads, lr)
    return losses


class Scorer:
    """Construction, clip scoring and the config echo shared by the model
    adapters, which provide kind, param_spec, prepare and forward_batch.
    prepare turns one clip's (frames, mels) features into the batch of
    one that forward_batch scores; it casts them to dtype once, so the
    model computes in its parameters' dtype: float32, whether freshly
    initialised for training or loaded from a checkpoint."""

    def __init__(self, config, params: dict[str, Tensor] | None = None, seed: int = 0):
        self.config = config
        self.params = params if params is not None else init_from_spec(self.param_spec(config), seed)

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self.params.values())).data.dtype

    def predict_scores(self, values: np.ndarray) -> QualityScores:
        """Score one (frames, mels) feature matrix under no_grad, clipped
        to [1, 5]; an overflow is left to the finite checks, as in train_step."""
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            raw = self.forward_batch(self.prepare(values))
        return QualityScores(**{t: clip_score(raw[t].data[0]) for t in self.config.tasks})

    def config_echo(self) -> dict[str, str]:
        """The checkpoint's model.* echo: the kind and every config field."""
        return {"model.kind": self.kind, **echo_config(self.config, "model.")}


def _validation_mos(model, samples: list[TrainSample]) -> tuple[float, float, float]:
    """The MOS predict would write for each sample with a MOS label, vs
    that label; returns (pcc, rmse, monitor). An undefined correlation
    is recorded as the worst monitor value."""
    mos_idx = TASKS.index("mos")
    labeled = [s for s in samples if not np.isnan(s.labels[mos_idx])]
    pred = np.array([model.predict_scores(s.load()).mos for s in labeled])
    ref = np.array([s.labels[mos_idx] for s in labeled])
    err = rmse(pred, ref)
    try:
        pcc = pearson(pred, ref)
    except UndefinedCorrelationError:
        return float("nan"), err, -np.inf
    return pcc, err, pcc - err


def fit(
    model,
    train_samples: list[TrainSample],
    val_samples: list[TrainSample],
    config: TrainConfig,
    history_path,
) -> FitResult:
    """Train until early stopping or max_epochs; returns the checkpoint
    with the best validation monitor and the per-epoch history, which
    it also writes to history_path. If no epoch had a defined monitor,
    best_epoch is 0 and params are the initial ones. A divergence is
    raised with its epoch. OpenBLAS runs at one thread until fit returns
    or raises; where that cannot be set, fit says so on stderr and
    trains on one worker."""
    if not train_samples or not val_samples:
        raise TrainingError("training and validation sets must be non-empty")
    if all(np.isnan(s.labels[TASKS.index("mos")]) for s in val_samples):
        raise TrainingError("validation set has no MOS labels")

    optimizer = Adam(model.params)
    controller = PatienceController()
    lr = config.learning_rate
    history: list[EpochRecord] = []
    best_params = {k: p.data.copy() for k, p in model.params.items()}
    n = len(train_samples)

    with parallel.one_blas_thread() as pinned:
        if not pinned:
            print("note: cannot set the thread count of NumPy's BLAS; training on one thread", file=sys.stderr)
        workers = parallel.cores() if pinned else 1
        for epoch in range(1, config.max_epochs + 1):
            perm = np.random.default_rng([config.seed, epoch]).permutation(n)
            sums: dict[str, float] = {}
            counts: dict[str, int] = {}
            try:
                for start in range(0, n, config.batch_size):
                    chunk = [train_samples[i] for i in perm[start : start + config.batch_size]]
                    for task, value in train_step(model, optimizer, chunk, lr, workers).items():
                        sums[task] = sums.get(task, 0.0) + value
                        counts[task] = counts.get(task, 0) + 1
                pcc, err, monitor = _validation_mos(model, val_samples)
            except (TrainingError, NonFiniteError) as exc:
                raise type(exc)(f"{exc} at epoch {epoch}") from None

            history.append(
                EpochRecord(
                    epoch=epoch,
                    task_losses={t: sums[t] / counts[t] for t in sums},
                    val_pcc_mos=pcc,
                    val_rmse_mos=err,
                    lr=lr,
                    monitor=monitor,
                )
            )
            stop, halve = controller.update(monitor, epoch)
            if controller.best_epoch == epoch:
                best_params = {k: p.data.copy() for k, p in model.params.items()}
            if halve:
                lr = max(lr * config.lr_factor, config.lr_floor)
            if stop:
                break

    write_history(history_path, history)
    return FitResult(params=best_params, best_epoch=controller.best_epoch, best_monitor=controller.best,
                     history=history)


def write_history(path, history: list[EpochRecord]) -> None:
    header = ["epoch"] + [f"loss_{t}" for t in TASKS] + ["val_pcc_mos", "val_rmse_mos", "lr", "monitor"]
    write_csv(path, header, (
        [rec.epoch]
        + [f"{rec.task_losses[t]:.10g}" if t in rec.task_losses else "" for t in TASKS]
        + [f"{v:.10g}" for v in (rec.val_pcc_mos, rec.val_rmse_mos, rec.lr, rec.monitor)]
        for rec in history
    ))
