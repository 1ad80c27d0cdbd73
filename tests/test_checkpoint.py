"""Checkpoint container format tests."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqatk.checkpoint import (
    MAGIC,
    CheckpointError,
    decode_config,
    echo_config,
    encode_config,
    load_checkpoint,
    parse_config,
    save_checkpoint,
)
from sqatk.cli import ERRORS, load_model
from sqatk.cnn import CnnConfig, ConvBaseline
from sqatk.training import TrainConfig
from sqatk.transformer import ModelConfig, SpectrogramTransformer, desk_config


def test_roundtrip(tmp_path, rng):
    tensors = {
        "w": rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64),
        "b": np.zeros(7),
        "scalarish": np.array(2.5),
    }
    echo = {"model.kind": "ast", "train.seed": "3"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "ast", echo, tensors)
    kind, config, loaded = load_checkpoint(path)
    assert kind == "ast"
    assert config == echo
    assert set(loaded) == set(tensors)
    for name in tensors:
        np.testing.assert_allclose(loaded[name], tensors[name], atol=1e-6)
    assert path.read_bytes()[:8] == MAGIC


def test_float32_quantization_is_stable(tmp_path, rng):
    tensors = {"w": rng.normal(size=(5,))}
    path1, path2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(path1, "cnn", {}, tensors)
    _, _, loaded = load_checkpoint(path1)
    save_checkpoint(path2, "cnn", {}, loaded)  # second save of loaded values
    assert path1.read_bytes() == path2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 10)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file(tmp_path, rng):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "ast", {"k": "v"}, {"w": rng.normal(size=(4, 4))})
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_config_codec():
    echo = {"b": "2", "a": "x=y"}
    assert decode_config(encode_config(echo).encode(), "echo") == echo
    with pytest.raises(CheckpointError, match="echo: line 2: expected key=value"):
        decode_config(b"# comment\njust words\n", "echo")


# The on-disk echo of each default config. A renamed, added or removed
# field changes the checkpoint format and must change these strings too.
AST_ECHO = (
    "model.embed_dim=768\nmodel.kind=ast\nmodel.max_duration_s=12.0\n"
    "model.mlp_ratio=4.0\nmodel.n_heads=12\nmodel.n_layers=12\nmodel.n_mels=128\n"
    "model.patch_size=16\nmodel.patch_stride_freq=10\nmodel.patch_stride_time=10\n"
)
CNN_ECHO = (
    "model.channels=16,32,64,64\nmodel.kind=cnn\n"
    "model.max_duration_s=12.0\nmodel.n_mels=128\nmodel.pool=2,2,2,2\n"
)
# The same echoes in the earlier format, whose model configs also held
# the front end's hop and the CNN's kernel size.
EARLIER_AST_ECHO = AST_ECHO.replace("model.kind", "model.frame_hop_s=0.01\nmodel.kind")
EARLIER_CNN_ECHO = CNN_ECHO.replace("model.kind", "model.frame_hop_s=0.01\nmodel.kernel=3\nmodel.kind")
TRAIN_ECHO = (
    "train.batch_size=100\ntrain.early_stop_patience=20\ntrain.learning_rate=0.001\n"
    "train.lr_patience=15\ntrain.max_epochs=500\ntrain.seed=0\n"
)


@pytest.mark.parametrize(
    "adapter, config_class, text",
    [(SpectrogramTransformer, ModelConfig, AST_ECHO), (ConvBaseline, CnnConfig, CNN_ECHO)],
    ids=["ast", "cnn"],
)
def test_default_model_echo_is_pinned_and_parses_back(adapter, config_class, text):
    echo = adapter(config_class(), params={}).config_echo()
    assert encode_config(echo) == text
    assert config_class(**parse_config(config_class, echo, "model.")) == config_class()


@pytest.mark.parametrize("config_class, text", [(ModelConfig, EARLIER_AST_ECHO), (CnnConfig, EARLIER_CNN_ECHO)],
                         ids=["ast", "cnn"])
def test_echo_of_the_earlier_format_parses_to_the_same_config(config_class, text):
    echo = decode_config(text.encode(), "echo")
    assert config_class(**parse_config(config_class, echo, "model.")) == config_class()


def test_default_train_echo_is_pinned_and_parses_back():
    echo = echo_config(TrainConfig(), "train.")
    assert encode_config(echo) == TRAIN_ECHO
    assert TrainConfig(**parse_config(TrainConfig, echo, "train.")) == TrainConfig()


def test_parse_config_converts_to_the_field_types():
    parsed = parse_config(CnnConfig, {"channels": "8, 16", "pool": "2,2", "max_duration_s": "1",
                                      "n_mels": "64"})
    assert parsed == {"channels": (8, 16), "n_mels": 64, "pool": (2, 2), "max_duration_s": 1.0}
    assert type(parsed["max_duration_s"]) is float
    with pytest.raises(CheckpointError, match="config key n_mels: .*'64.0'"):
        parse_config(CnnConfig, {"n_mels": "64.0"})


@pytest.mark.parametrize(
    "find, named",
    [(b"ast", "unknown checkpoint kind"), (b"model.", "not utf-8"), (b"proj_w", "missing tensor 'proj_w'")],
    ids=["kind", "echo", "tensor_name"],
)
def test_undecodable_text_is_a_checkpoint_error(tmp_path, find, named):
    """A non-ascii kind byte, or a non-utf-8 echo or tensor-name byte, is
    a typed error when the model loads, not a UnicodeDecodeError."""
    model = SpectrogramTransformer(desk_config(embed_dim=8, n_heads=2, n_layers=0, max_duration_s=0.3))
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, model.kind, model.config_echo(), {k: p.data for k, p in model.params.items()})
    raw = path.read_bytes()
    at = raw.index(find)
    path.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
    with pytest.raises(CheckpointError, match=named):
        load_model(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of a one-layer AST checkpoint of 3.5 kB, about a quarter
    of them headers and config echo rather than weights."""
    model = SpectrogramTransformer(desk_config(embed_dim=2, n_heads=1, n_layers=1, max_duration_s=0.3))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(path, model.kind, model.config_echo(), {k: p.data for k, p in model.params.items()})
    raw = path.read_bytes()
    assert raw.endswith(struct.pack("<BIf", 1, 1, 0.0))  # the zero bias the examples below replace
    return raw


# An edit replaces n bytes, back bytes from the end of the file (modulo its
# length + 1), with the given bytes.
_BACK = st.integers(0, 1 << 16)
_BYTE = st.binary(min_size=1, max_size=1)
_EDIT = st.one_of(
    st.tuples(_BACK, st.just(1), _BYTE),  # overwrite
    st.tuples(_BACK, st.just(0), _BYTE),  # insert
    st.tuples(_BACK, st.just(1), st.just(b"")),  # delete
    st.tuples(_BACK, st.just(1 << 16), st.just(b"")),  # truncate
)
# The last tensor, head_noi_b, ends the file with ndim 1, dims (1,) and one
# float: 9 bytes. These put a shape NumPy cannot build in their place.
_OVER_64_DIMS = (9, 9, struct.pack("<B65I", 65, *[1] * 64, 0))
_ZERO_SIZE_OVERFLOW = (9, 9, struct.pack("<B4I", 4, 2**31, 2**31, 2**31, 0))


@settings(max_examples=300)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
@example(edits=[_OVER_64_DIMS])
@example(edits=[_ZERO_SIZE_OVERFLOW])
def test_damaged_checkpoint_loads_or_fails_with_an_error_main_reports(tiny_checkpoint, tmp_path_factory,
                                                                      edits):
    """One to three byte overwrites, insertions, deletions or truncations
    give a model or one of the errors cli.main turns into exit code 1,
    never another exception."""
    raw = tiny_checkpoint
    for back, n, insert in edits:
        at = len(raw) - back % (len(raw) + 1)
        raw = raw[:at] + insert + raw[at + n :]
    path = tmp_path_factory.getbasetemp() / "damaged.ckpt"
    path.write_bytes(raw)
    try:
        load_model(path)
    except ERRORS:
        pass
