"""Model helpers that only tests need.

float64 gives freshly initialised (float32) parameters in float64, for
tests that compare two code paths far below float32's resolution.
in_memory is a sample loader for features built in memory.
widen_max_duration carries a transformer's parameters to a longer
window, for the window-invariance tests, and cut_window cuts them to
the window a clip's patches fill. desk_cnn_config is the default CNN in
a 2 s window. stack joins prepared clips of equal patch counts into one
batch. grid_positions and dense_scores run the transformer on clips
that carry their whole patch grid, as the reference for the packed
valid patches it scores.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from sqatk import cnn as cnn_mod
from sqatk import transformer as tf
from sqatk.autodiff import Tensor
from sqatk.frontend import FrontendConfig


def float64(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """float64 copies of params, each a fresh leaf that requires grad."""
    return {k: Tensor(p.data.astype(np.float64), requires_grad=True) for k, p in params.items()}


def in_memory(values: np.ndarray):
    """A sample loader that returns values, as load_features returns a cache's."""
    return lambda: values


def desk_cnn_config(**overrides) -> cnn_mod.CnnConfig:
    """The default CNN stages in a 2 s window, with overrides."""
    return cnn_mod.CnnConfig(**{"max_duration_s": 2.0, **overrides})


def widen_max_duration(
    params: dict[str, Tensor], old: tf.ModelConfig, new: tf.ModelConfig, seed: int = 0
) -> dict[str, Tensor]:
    """Carry parameters to a config with a longer max duration: the
    positional grid keeps existing (freq, time) entries and appends
    freshly initialised columns for the new time positions. Every
    parameter, the fresh columns included, keeps params' dtype."""
    if new.n_time_patches < old.n_time_patches:
        raise tf.ModelError("target config must extend the time axis only")
    dtype = params["pos_grid"].data.dtype
    out = {}
    for name, fresh in tf.init_params(new, seed).items():
        if name == "pos_grid":
            data = fresh.data.astype(dtype)
            data[:, : old.n_time_patches, :] = params["pos_grid"].data
        else:
            data = params[name].data.copy()
        out[name] = Tensor(data, requires_grad=True)
    return out


def cut_window(params: dict[str, Tensor], config: tf.ModelConfig,
               n_frames: int) -> tuple[tf.ModelConfig, dict[str, Tensor]]:
    """The config whose window ends with the last patch of config's that
    covers one of a clip's n_frames real frames, so every patch of the
    clip's grid in it is valid, and params for it: the same leaves, but
    pos_grid's time columns past the window are cut off by a recorded
    slice, so gradients still reach the whole grid."""
    n_time = min(-(-n_frames // tf.PATCH_STRIDE), config.n_time_patches)
    frames = tf.PATCH + (n_time - 1) * tf.PATCH_STRIDE
    cut = dataclasses.replace(config, max_duration_s=frames * FrontendConfig.frame_hop_s)
    assert cut.n_time_patches == n_time
    return cut, {**params, "pos_grid": params["pos_grid"][:, :n_time]}


def stack(inputs):
    """One batch of prepared clips with equal patch counts: prepare's
    arrays, or tuples of arrays, joined along their batch axis of one."""
    if isinstance(inputs[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*inputs))
    return np.concatenate(inputs)


def grid_positions(config: tf.ModelConfig, batch: int) -> np.ndarray:
    """Every clip's patch i at grid position i: a batch of whole grids."""
    return np.broadcast_to(np.arange(config.n_patches), (batch, config.n_patches))


def dense_scores(patches: np.ndarray, params: dict[str, Tensor], config: tf.ModelConfig) -> dict[str, Tensor]:
    """Raw scores of (B, n_patches, patch^2) whole grids in grid order:
    every patch is a token, padding or not."""
    positions = grid_positions(config, len(patches))
    return tf.SpectrogramTransformer(config, params).forward_batch((patches, positions))
