"""Spectrogram transformer scorer: 16x16 patches 10 apart on both axes
of the log-mel plane, a CLS token, learned positional embeddings, pre-norm
encoder blocks, and five affine heads (mos, col, dis, loud, noi) reading
the CLS state. A forward scores the patches of one clip that carry real
frames; a patch of padding alone never becomes a token. Since nothing
else reads the encoder's output, its last block computes only the CLS
state: the CLS token is its one query, over every key.

Positional embeddings are stored as a (freq, time) grid plus a CLS
vector, so a model configured for a longer maximum duration extends the
grid along time without disturbing the positions of existing patches.
Shapes below use B=batch, P=patches, N=P+1 tokens, D=embed dim.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .autodiff import ParamSpec, Tensor, attention, concat, init_from_spec, layer_norm, linear
from .frontend import FrontendConfig, LogMelSpectrogram
from .quality import TASKS
from .training import ModelError, NonFiniteError, Scorer

PAD_LOG_VALUE = math.log(FrontendConfig.log_floor)
PATCH = 16  # square patches, in mel bins and frames
PATCH_STRIDE = 10  # on both axes, so neighbouring patches overlap
N_FREQ_PATCHES = (FrontendConfig.n_mels - PATCH) // PATCH_STRIDE + 1  # 12
MLP_RATIO = 4  # each block's MLP is MLP_RATIO * embed_dim wide
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _count(spec: ParamSpec) -> int:
    return sum(math.prod(shape) for shape, _ in spec.values())


def check_shapes(spec: ParamSpec) -> None:
    """Reject a shape whose float64 array NumPy cannot shape. The element
    count is a Python int, so a huge config cannot wrap to a small one."""
    for name, (shape, _) in spec.items():
        if 8 * math.prod(shape) > np.iinfo(np.intp).max:
            raise ModelError(f"{name} of shape {shape} is too large for NumPy to build")


@dataclass(frozen=True)
class Window:
    """The (FrontendConfig.n_mels, max_frames) log-mel plane a model
    reads, in frames of the front end's hop; both model configs extend it."""

    max_duration_s: float = 12.0
    tasks: ClassVar[tuple[str, ...]] = TASKS

    def __post_init__(self):
        if not 0 < self.max_duration_s / FrontendConfig.frame_hop_s < math.inf:
            raise ModelError("max_duration_s must be positive and finite")
        check_shapes({"input plane": ((FrontendConfig.n_mels, self.max_frames), None)})

    @property
    def max_frames(self) -> int:
        return int(round(self.max_duration_s / FrontendConfig.frame_hop_s))


@dataclass(frozen=True)
class ModelConfig(Window):
    embed_dim: int = 768
    n_layers: int = 12
    n_heads: int = 12

    def __post_init__(self):
        super().__post_init__()
        if self.embed_dim < 1:
            raise ModelError("embed_dim must be >= 1")
        if self.n_heads < 1:
            raise ModelError("n_heads must be >= 1")
        if self.embed_dim % self.n_heads:
            raise ModelError("embed_dim must be divisible by n_heads")
        if self.max_frames < PATCH:
            raise ModelError("spectrogram narrower than one patch")
        if self.n_layers < 0:
            raise ModelError("n_layers must be >= 0")
        # Every layer has the shapes of the first, so a one-layer spec
        # checks them all, and the count never builds n_layers entries.
        one_layer = param_spec(self, n_layers=1)
        check_shapes(one_layer)
        base = _count(param_spec(self, n_layers=0))
        n_bytes = 4 * (base + self.n_layers * (_count(one_layer) - base))
        if n_bytes > PHYSICAL_MEMORY:
            raise ModelError(f"n_layers={self.n_layers} needs {n_bytes / 2**30:.3g} GiB of float32 parameters, "
                             f"more than this machine's {PHYSICAL_MEMORY / 2**30:.3g} GiB of memory")

    @property
    def n_time_patches(self) -> int:
        return (self.max_frames - PATCH) // PATCH_STRIDE + 1

    @property
    def n_patches(self) -> int:
        return N_FREQ_PATCHES * self.n_time_patches


def floor_pad(values: np.ndarray, config) -> np.ndarray:
    """(frames, mels) features -> the (mels, max_frames) plane, cut or
    padded along time with the log floor, in the features' dtype. The
    mel count is load_features' to check."""
    n_real = min(values.shape[0], config.max_frames)
    padded = np.full((FrontendConfig.n_mels, config.max_frames), PAD_LOG_VALUE, dtype=values.dtype)
    padded[:, :n_real] = values[:n_real].T
    return padded


def desk_config(**overrides) -> ModelConfig:
    """Small configuration for tests and quick experiments."""
    base = dict(embed_dim=64, n_layers=2, n_heads=4, max_duration_s=2.0)
    base.update(overrides)
    return ModelConfig(**base)


@dataclass
class PatchSequence:
    """Flattened overlapping patches plus per-patch validity flags."""

    patches: np.ndarray  # (P, PATCH**2)
    valid: np.ndarray  # (P,) bool; False iff the patch is entirely padding


def extract_patches(spec: LogMelSpectrogram, config: ModelConfig) -> PatchSequence:
    """Cut the spectrogram into overlapping patches in (freq, time) order.

    The time axis is floor-padded (or cut) to exactly config.max_frames
    before patching. Patch i = f * n_time + t covers mel rows
    [f*PATCH_STRIDE, f*PATCH_STRIDE+PATCH) and frames [t*PATCH_STRIDE,
    t*PATCH_STRIDE+PATCH); it is invalid iff every frame it covers is
    padding.
    """
    padded = floor_pad(spec.values, config)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (PATCH, PATCH))[::PATCH_STRIDE, ::PATCH_STRIDE]
    n_f, n_t = windows.shape[:2]
    patches = np.ascontiguousarray(windows).reshape(n_f * n_t, PATCH**2)

    time_starts = np.arange(n_t) * PATCH_STRIDE
    valid = np.tile(time_starts < min(spec.n_frames, config.max_frames), n_f)
    return PatchSequence(patches=patches, valid=valid)


# ------------------------------------------------------------- parameters


def param_spec(config: ModelConfig, n_layers: int | None = None) -> ParamSpec:
    """Every parameter's shape and init, in init order: uniform weights,
    positions and heads; zero biases and CLS token; unit layer-norm
    scales. n_layers, if given, replaces config.n_layers."""
    d = config.embed_dim
    p2 = PATCH**2
    hidden = MLP_RATIO * d
    spec: ParamSpec = {
        "proj_w": ((p2, d), p2),
        "proj_b": ((d,), "zeros"),
        "cls": ((d,), "zeros"),
        "pos_cls": ((d,), d),
        "pos_grid": ((N_FREQ_PATCHES, config.n_time_patches, d), d),
    }
    for i in range(config.n_layers if n_layers is None else n_layers):
        pre = f"layer{i}_"
        spec[pre + "ln1_gamma"] = ((d,), "ones")
        spec[pre + "ln1_beta"] = ((d,), "zeros")
        for name in ("wq", "wk", "wv", "wo"):
            spec[pre + name] = ((d, d), d)
        for name in ("bq", "bk", "bv", "bo"):
            spec[pre + name] = ((d,), "zeros")
        spec[pre + "ln2_gamma"] = ((d,), "ones")
        spec[pre + "ln2_beta"] = ((d,), "zeros")
        spec[pre + "mlp_w1"] = ((d, hidden), d)
        spec[pre + "mlp_b1"] = ((hidden,), "zeros")
        spec[pre + "mlp_w2"] = ((hidden, d), hidden)
        spec[pre + "mlp_b2"] = ((d,), "zeros")
    return {**spec, **head_spec(d, config.tasks)}


def head_spec(width: int, tasks) -> ParamSpec:
    """One affine head per task over width features: uniform weight, zero bias."""
    spec: ParamSpec = {}
    for task in tasks:
        spec[f"head_{task}_w"] = ((width, 1), width)
        spec[f"head_{task}_b"] = ((1,), "zeros")
    return spec


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Deterministic float32 init of param_spec(config) from seed."""
    return init_from_spec(param_spec(config), seed)


# ----------------------------------------------------------------- forward


def embed_batch(
    patches: np.ndarray, params: dict[str, Tensor], config: ModelConfig, positions: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Project patches, prepend CLS, add positions. Returns (B,N,D) tokens
    and a (B,N) all-True mask, which bench/tracer.py counts tokens from.

    positions[b, i] is the flat (freq, time) grid index of patch i of
    clip b, so a clip can carry only its valid patches; a clip that
    carries the full grid passes arange(config.n_patches)."""
    batch, n_patches, patch_dim = patches.shape
    if patch_dim != params["proj_w"].shape[0]:
        raise ModelError(
            f"patch width {patch_dim} does not match projection input {params['proj_w'].shape[0]}"
        )
    if positions.shape != (batch, n_patches):
        raise ModelError(f"positions shape {positions.shape} != patches {(batch, n_patches)}")
    d = config.embed_dim

    x = linear(Tensor(patches), params["proj_w"], params["proj_b"])
    x = x + params["pos_grid"].reshape((config.n_patches, d))[positions]
    cls_tok = (params["cls"] + params["pos_cls"]).reshape((1, 1, d)).broadcast_to((batch, 1, d))
    tokens = concat([cls_tok, x], axis=1)
    return tokens, np.ones(tokens.shape[:2], dtype=bool)


def _attention(queries: Tensor, tokens: Tensor, params, prefix: str, config: ModelConfig) -> Tensor:
    """Multi-head attention of (B,Nq,D) query tokens over (B,N,D) key and
    value tokens."""
    batch, _, d = tokens.shape
    n_queries = queries.shape[1]
    heads = config.n_heads
    dh = d // heads

    def split(t):  # (B,n,D) -> (B,H,n,dh)
        return t.reshape((batch, t.shape[1], heads, dh)).transpose((0, 2, 1, 3))

    q = split(linear(queries, params[prefix + "wq"], params[prefix + "bq"]))
    k = split(linear(tokens, params[prefix + "wk"], params[prefix + "bk"]))
    v = split(linear(tokens, params[prefix + "wv"], params[prefix + "bv"]))

    ctx = attention(q, k, v).transpose((0, 2, 1, 3)).reshape((batch, n_queries, d))
    return linear(ctx, params[prefix + "wo"], params[prefix + "bo"])


def encoder_forward(tokens: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    """Pre-norm transformer stack over (B,N,D) tokens, returning the (B,D)
    CLS state the heads read. Every token is a key.

    Nothing after the stack reads any other token, so the last block
    runs its queries, output projection, residual, LN2 and MLP on the
    CLS token alone; its LN1, keys and values still cover every token,
    which leaves the CLS state unchanged. n_layers == 0 returns the CLS
    token as given."""
    x = tokens
    for i in range(config.n_layers):
        pre = f"layer{i}_"
        h = layer_norm(x, params[pre + "ln1_gamma"], params[pre + "ln1_beta"])
        queries = h
        if i == config.n_layers - 1:
            x, queries = x[:, :1], h[:, :1]
        x = x + _attention(queries, h, params, pre, config)
        h = layer_norm(x, params[pre + "ln2_gamma"], params[pre + "ln2_beta"])
        h = linear(h, params[pre + "mlp_w1"], params[pre + "mlp_b1"]).gelu()
        x = x + linear(h, params[pre + "mlp_w2"], params[pre + "mlp_b2"])

    cls_state = x[:, 0]
    if not np.isfinite(cls_state.data).all():
        raise NonFiniteError("non-finite encoder activations")
    return cls_state


def head_outputs(cls_state: Tensor, params: dict[str, Tensor], config: ModelConfig) -> dict[str, Tensor]:
    """Apply the five independent affine heads to (B,D) features: the
    transformer's CLS states or the CNN's pooled features. A raw score
    that overflows to inf or NaN raises NonFiniteError, not a nan score."""
    batch = cls_state.shape[0]
    out = {}
    for task in config.tasks:
        out[task] = linear(cls_state, params[f"head_{task}_w"], params[f"head_{task}_b"]).reshape((batch,))
    if not all(np.isfinite(score.data).all() for score in out.values()):
        raise NonFiniteError("non-finite head outputs")
    return out


# ------------------------------------------------------------ model facade


class SpectrogramTransformer(Scorer):
    """Bundles config + parameters and adapts them to the training loop.

    Only valid patches enter the encoder, so padding never reaches the
    CLS state and a longer window leaves every score unchanged."""

    kind = "ast"
    param_spec = staticmethod(param_spec)

    def prepare(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Turn a (frames, mels) feature matrix into the clip's valid
        patches, in the parameters' dtype, and their flat grid positions,
        each with a batch axis of one."""
        values = np.asarray(values, dtype=self.dtype)
        fc = FrontendConfig
        spec = LogMelSpectrogram(values, values.shape[1], fc.frame_hop_s, fc.frame_len_s)
        seq = extract_patches(spec, self.config)
        return seq.patches[seq.valid][None], np.flatnonzero(seq.valid)[None]

    def forward_batch(self, batch) -> dict[str, Tensor]:
        """(patches, positions) of equal-length clips, as prepare returns
        one, to raw per-task scores, unclipped so training gradients are
        unimpeded."""
        patches, positions = batch
        tokens, _ = embed_batch(patches, self.params, self.config, positions)
        return head_outputs(encoder_forward(tokens, self.params, self.config), self.params, self.config)
