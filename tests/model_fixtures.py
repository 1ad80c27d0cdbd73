"""Model helpers that only tests need.

float64 gives freshly initialised (float32) parameters in float64, for
tests that compare two code paths far below float32's resolution.
in_memory is a sample loader for features built in memory.
widen_max_duration carries a transformer's parameters to a longer
window, for the mask-invariance tests. desk_cnn_config is the default
CNN in a 2 s window.
"""

from __future__ import annotations

import numpy as np

from sqatk import cnn as cnn_mod
from sqatk import transformer as tf
from sqatk.autodiff import Tensor


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
