"""Compact convolutional baseline over the same log-mel features.

Four conv(3x3) + max-pool + ReLU stages, global average pooling over
time, and the same five affine heads as the transformer. Max pooling
and ReLU commute, so each stage pools before its ReLU, inside conv2d,
one sample at a time. This is a stand-in architecture for
training-protocol experiments; it is not a reproduction of any
published CNN scorer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transformer
# maxpool2d is not called here; bench/tracer.py wraps sqatk.cnn.maxpool2d.
from .autodiff import ParamSpec, Tensor, conv2d, maxpool2d  # noqa: F401
from .frontend import FrontendConfig
from .training import Scorer
from .transformer import ModelError, NonFiniteError, Window, check_shapes, floor_pad, head_spec

KERNEL = 3  # 3x3 convolutions; conv2d pads one cell, so each stage keeps its plane


@dataclass(frozen=True)
class CnnConfig(Window):
    channels: tuple[int, ...] = (16, 32, 64, 64)
    pool: tuple[int, ...] = (2, 2, 2, 2)

    def __post_init__(self):
        super().__post_init__()
        if len(self.channels) != len(self.pool):
            raise ModelError("channels and pool must have one entry per stage")
        if min(self.channels + self.pool, default=1) < 1:
            raise ModelError("channel counts and pool factors must be >= 1")
        if self.reduced_mels < 1:
            raise ModelError("pooling collapses the mel axis to nothing")
        if self._pooled(self.max_frames) < 1:
            raise ModelError(
                f"pooling collapses the time axis of max_duration_s {self.max_duration_s} "
                f"({self.max_frames} frames) to nothing"
            )
        check_shapes(cnn_param_spec(self))

    def _pooled(self, size: int) -> int:
        for p in self.pool:
            size //= p
        return size

    @property
    def reduced_mels(self) -> int:
        return self._pooled(FrontendConfig.n_mels)

    @property
    def derived_head_input(self) -> int:
        return self.channels[-1] * self.reduced_mels


def cnn_param_spec(config: CnnConfig) -> ParamSpec:
    """Every parameter's shape and init, in init order: uniform conv and
    head weights, zero biases."""
    spec: ParamSpec = {}
    in_ch = 1
    for i, out_ch in enumerate(config.channels):
        spec[f"conv{i}_w"] = ((out_ch, in_ch, KERNEL, KERNEL), in_ch * KERNEL**2)
        spec[f"conv{i}_b"] = ((out_ch,), "zeros")
        in_ch = out_ch
    return {**spec, **head_spec(config.derived_head_input, config.tasks)}


def cnn_forward_batch(
    x: np.ndarray, params: dict[str, Tensor], config: CnnConfig
) -> dict[str, Tensor]:
    """(B, 1, mels, max_frames) input to raw per-task scores."""
    if x.shape[2:] != (FrontendConfig.n_mels, config.max_frames):
        raise ModelError(f"input plane {x.shape[2:]} != ({FrontendConfig.n_mels}, {config.max_frames})")
    h = Tensor(x)
    for i, factor in enumerate(config.pool):
        # ReLU on 1/factor**2 of the cells
        h = conv2d(h, params[f"conv{i}_w"], params[f"conv{i}_b"], pool=factor).relu()
    pooled = h.sum(axis=3) * (1.0 / h.shape[3])  # global average over time
    if not np.isfinite(pooled.data).all():
        raise NonFiniteError("non-finite pooled CNN features")
    # looked up on the module at each call, so bench/tracer.py's transformer.heads span sees it
    return transformer.head_outputs(pooled.reshape((x.shape[0], config.derived_head_input)), params, config)


class ConvBaseline(Scorer):
    """Training-loop adapter mirroring SpectrogramTransformer's surface."""

    kind = "cnn"
    param_spec = staticmethod(cnn_param_spec)

    def prepare(self, values: np.ndarray) -> np.ndarray:
        """(frames, mels) features -> the floor-padded (1, 1, mels, max_frames) plane."""
        return floor_pad(np.asarray(values, dtype=self.dtype), self.config)[None, None]

    def forward_batch(self, batch: np.ndarray) -> dict[str, Tensor]:
        return cnn_forward_batch(batch, self.params, self.config)
