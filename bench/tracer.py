"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each sqatk module at the names
their callers look them up, records one span (name, start, end, parent)
per call in memory, and restores the originals on exit. Nothing in the
program itself is changed. Per-layer times are self times: a span's
duration minus the durations of its child spans, so the self times of
all spans in a stage add up to the stage's wall time.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

import sqatk.autodiff
import sqatk.calibration
import sqatk.cli
import sqatk.cnn
import sqatk.evaluation
import sqatk.frontend
import sqatk.training
import sqatk.transformer

MIB = 1024.0 * 1024.0
STAGES = ("featurize", "train", "predict", "calibrate", "evaluate")


# Count hooks: (counts, result, args, kwargs) -> None, run after the span ends.


def _count_audio(counts, clip, args, kwargs):
    counts["frontend.audio_s"] += clip.duration_s


def _count_cache_write(counts, result, args, kwargs):
    counts["frontend.cache_bytes_written"] += 8 + 4 * args[1].size


def _count_cache_read(counts, values, args, kwargs):
    counts["frontend.cache_bytes_read"] += 8 + 4 * values.size


def _count_tokens(counts, result, args, kwargs):
    mask = result[1]
    counts["transformer.tokens"] += mask.size
    counts["transformer.valid_tokens"] += int(mask.sum())


def _count_checkpoint(counts, result, args, kwargs):
    counts["checkpoint.bytes"] += os.path.getsize(args[0])


def _count_one(key):
    def count(counts, result, args, kwargs):
        counts[key] += 1

    return count


def _count_epochs(counts, result, args, kwargs):
    counts["training.epochs"] += result.epochs_run


# (owner, attribute, span name or None, count hook or None). Owners are the
# objects the callers read the attribute from: `sqatk.cli` for names it
# imports directly, the defining module for names the CLI reads through a
# module alias (`fe.decode_wav`), and the class for methods.
WRAPPED = (
    (sqatk.cli, "load_manifest", "manifest.load", None),
    (sqatk.frontend, "decode_wav", "frontend.decode", _count_audio),
    (sqatk.frontend, "log_mel_spectrogram", "frontend.log_mel", None),
    (sqatk.frontend, "save_features", "frontend.cache_write", _count_cache_write),
    (sqatk.frontend, "load_features", "frontend.cache_read", _count_cache_read),
    (sqatk.transformer.SpectrogramTransformer, "prepare", "transformer.prepare", None),
    (sqatk.transformer, "embed_batch", "transformer.embed", _count_tokens),
    (sqatk.transformer, "encoder_forward", "transformer.encoder", None),
    (sqatk.transformer, "head_outputs", "transformer.heads", None),
    (sqatk.cnn.ConvBaseline, "prepare", "cnn.prepare", None),
    (sqatk.cnn, "conv2d", "cnn.conv", None),
    (sqatk.cnn, "maxpool2d", "cnn.pool", None),
    (sqatk.transformer.SpectrogramTransformer, "forward_batch", "training.forward", None),
    (sqatk.cnn.ConvBaseline, "forward_batch", "training.forward", None),
    (sqatk.autodiff.Tensor, "backward", "autodiff.backward", None),
    (sqatk.training.Adam, "step", "training.optimizer", _count_one("training.steps")),
    (sqatk.cli, "fit", None, _count_epochs),
    (sqatk.cli, "save_checkpoint", "checkpoint.save", _count_checkpoint),
    (sqatk.cli, "load_checkpoint", "checkpoint.load", _count_checkpoint),
    (sqatk.calibration, "fit_calibration", "calibration.fit", _count_one("calibration.maps")),
    (sqatk.calibration, "apply_calibration", "calibration.apply", None),
    (sqatk.evaluation, "evaluate", "evaluation.evaluate", None),
    (sqatk.evaluation, "render_report", "evaluation.render", None),
    (sqatk.evaluation, "read_predictions", "evaluation.predictions_io", None),
    (sqatk.evaluation, "write_predictions", "evaluation.predictions_io", None),
)

# Layer time metrics in report order; each is the summed self time of the
# spans of that name. training.forward spans are split into _train and _val.
TIME_METRICS = tuple(f"cli.{s}_s" for s in STAGES) + (
    "manifest.load_s",
    "frontend.decode_s",
    "frontend.log_mel_s",
    "frontend.cache_write_s",
    "frontend.cache_read_s",
    "transformer.prepare_s",
    "transformer.embed_s",
    "transformer.encoder_s",
    "transformer.heads_s",
    "cnn.prepare_s",
    "cnn.conv_s",
    "cnn.pool_s",
    "training.forward_train_s",
    "training.forward_val_s",
    "autodiff.backward_s",
    "training.optimizer_s",
    "checkpoint.save_s",
    "checkpoint.load_s",
    "calibration.fit_s",
    "calibration.apply_s",
    "evaluation.evaluate_s",
    "evaluation.render_s",
    "evaluation.predictions_io_s",
)
COUNT_METRICS = (
    "frontend.audio_s",
    "frontend.cache_bytes_written",
    "frontend.cache_bytes_read",
    "transformer.tokens",
    "transformer.valid_token_frac",
    "training.steps",
    "training.epochs",
    "checkpoint.bytes",
    "calibration.maps",
)
ALLOC_METRICS = tuple(f"cli.{s}.peak_alloc_mib" for s in STAGES)


class Tracer:
    """Collects spans and counts for one traced pipeline iteration."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.peak_alloc_mib: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, self.spans[index][1], time.perf_counter(), parent)

    @contextmanager
    def stage(self, name: str):
        """Span for one CLI stage, with the tracemalloc peak reset for it."""
        tracemalloc.reset_peak()
        with self.span(f"cli.{name}"):
            yield
        self.peak_alloc_mib[name] = tracemalloc.get_traced_memory()[1] / MIB

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None or (name == "training.forward" and not tracer._in_stage("cli.train")):
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, result, args, kwargs)
            return result

        return wrapper

    def _in_stage(self, stage: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0] == stage

    def __enter__(self):
        for owner, attr, name, count in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def named_spans(self) -> list[tuple[str, float, float, int]]:
        """Spans with each training.forward renamed to _train or _val: a
        forward pass is a training pass iff a backward pass follows it
        before the next forward pass."""
        out = list(self.spans)
        pending = None
        for i, (name, *_rest) in enumerate(out):
            if name == "training.forward":
                if pending is not None:
                    out[pending] = ("training.forward_val",) + out[pending][1:]
                pending = i
            elif name == "autodiff.backward" and pending is not None:
                out[pending] = ("training.forward_train",) + out[pending][1:]
                pending = None
        if pending is not None:
            out[pending] = ("training.forward_val",) + out[pending][1:]
        return out

    def layer_metrics(self) -> dict[str, float]:
        spans = self.named_spans()
        child_time = defaultdict(float)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(spans):
            self_time[name + "_s"] += (end - start) - child_time[i]

        metrics = {key: self_time.get(key, 0.0) for key in TIME_METRICS}
        for key in COUNT_METRICS:
            metrics[key] = float(self.counts.get(key, 0))
        tokens = self.counts.get("transformer.tokens", 0)
        metrics["transformer.valid_token_frac"] = (
            self.counts["transformer.valid_tokens"] / tokens if tokens else 0.0
        )
        for stage in STAGES:
            metrics[f"cli.{stage}.peak_alloc_mib"] = self.peak_alloc_mib.get(stage, 0.0)
        return metrics

    def pipeline_s(self) -> float:
        return float(sum(end - start for _n, start, end, parent in self.spans if parent < 0))

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.named_spans()
        ]
