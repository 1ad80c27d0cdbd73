"""Property tests of the text readers the CLI takes input through: a
manifest, a predictions CSV, a calibration map file and a config file,
each damaged, either loads or raises one of the errors cli.main turns
into exit code 1, never another exception."""

import math
from pathlib import Path

from hypothesis import example, given, settings

from damage import damaged
from sqatk.calibration import CalibrationMap, load_calibration_maps, save_calibration_maps
from sqatk.checkpoint import parse_config
from sqatk.cli import ERRORS, CliError, load_config_file
from sqatk.cnn import CnnConfig
from sqatk.evaluation import PredictionRow, read_predictions, write_predictions
from sqatk.manifest import PROVENANCES, SPLITS, ManifestEntry, load_manifest, write_manifest
from sqatk.quality import QualityScores
from sqatk.training import TrainConfig
from sqatk.transformer import ModelConfig

_SCORES = QualityScores(mos=3.5, col=2.0, loud=4.25, noi=1.0)
_ROWS = [
    ("s1", "ENG", "subjective", QualityScores(mos=2.123456, dis=4.5), _SCORES),
    ("s2", "DE", "objective", _SCORES, QualityScores()),
]


def _file_bytes(tmp_path_factory, name: str, write) -> bytes:
    path = tmp_path_factory.getbasetemp() / name
    write(path)
    return path.read_bytes()


def _damaged_file(tmp_path_factory, name: str, raw: bytes) -> Path:
    path = tmp_path_factory.getbasetemp() / f"damaged-{name}"
    path.write_bytes(raw)
    return path


# Two rows each, short enough that edits often reach the header.
_MANIFEST = (
    "# manifest-v1\n"
    "sample_id,audio,language,condition,split,provenance,mos,col,dis,loud,noi\r\n"
    "s1,s1.wav,ENG,snr5_d0,train,subjective,3.5,2,,4.25,1\r\n"
    "s2,s2.wav,DE,snr30_d2,val,objective,,,,,\r\n"
).encode()
_PREDICTIONS = (
    "sample_id,language,provenance,pred_col,pred_dis,pred_loud,pred_mos,pred_noi,"
    "label_col,label_dis,label_loud,label_mos,label_noi\r\n"
    "s1,ENG,subjective,,4.500000,,2.123456,,2,,4.25,3.5,1\r\n"
    "s2,DE,objective,2.000000,,4.250000,3.500000,1.000000,,,,,\r\n"
).encode()
_MAPS = (
    "group,dim,a0,a1,a2,a3,domain_lo,domain_hi\r\n"
    "DE,mos,0.25,1.0,-0.5,0.125,1.5,4.5\r\n"
    "ENG,mos,0.0,1.0,0.0,0.0,1.0,5.0\r\n"
).encode()
# Keys of all three config classes.
_CONFIG = (
    "# desk\n"
    "embed_dim=32\nn_layers=2\nn_heads=2\nmlp_ratio=4.0\npatch_size=16\nmax_duration_s=1.0\nn_mels=128\n"
    "channels=8,16\npool=2,2\n"
    "learning_rate=0.003\nmax_epochs=3\nbatch_size=100\nseed=7\n"
).encode()


def test_the_undamaged_files_are_what_the_writers_write(tmp_path_factory):
    """The valid inputs below are the writers' own bytes, so each test
    damages a file the pipeline can make."""
    base = tmp_path_factory.getbasetemp()
    entries = [ManifestEntry(sid, base / f"{sid}.wav", lang, cond, split, prov, scores)
               for sid, lang, cond, split, prov, scores in [
                   ("s1", "ENG", "snr5_d0", "train", "subjective", _SCORES),
                   ("s2", "DE", "snr30_d2", "val", "objective", QualityScores())]]
    assert _file_bytes(tmp_path_factory, "m.csv", lambda p: write_manifest(p, entries)) == _MANIFEST
    rows = [PredictionRow(*row) for row in _ROWS]
    assert _file_bytes(tmp_path_factory, "p.csv", lambda p: write_predictions(p, rows)) == _PREDICTIONS
    maps = {("ENG", "mos"): CalibrationMap((0.0, 1.0, 0.0, 0.0), (1.0, 5.0)),
            ("DE", "mos"): CalibrationMap((0.25, 1.0, -0.5, 0.125), (1.5, 4.5))}
    assert _file_bytes(tmp_path_factory, "c.csv", lambda p: save_calibration_maps(p, maps)) == _MAPS


@settings(max_examples=300)
@given(raw=damaged(_MANIFEST))
@example(raw=_MANIFEST.replace(b"s1.wav", b"s1\x00.wav"))  # no OS call takes a NUL in a path
def test_damaged_manifest_loads_or_fails_with_an_error_main_reports(tmp_path_factory, raw):
    try:
        manifest = load_manifest(_damaged_file(tmp_path_factory, "manifest.csv", raw), require_audio=False)
    except ERRORS:
        return
    for entry in manifest.entries:
        assert entry.split in SPLITS and entry.provenance in PROVENANCES
        assert all(v is None or 1.0 <= v <= 5.0 for v in entry.scores.as_dict().values())
    assert len({e.sample_id for e in manifest.entries}) == len(manifest.entries)


@settings(max_examples=300)
@given(raw=damaged(_PREDICTIONS))
@example(raw=_PREDICTIONS.replace(b"2.123456", b"nan"))
def test_damaged_predictions_load_or_fail_with_an_error_main_reports(tmp_path_factory, raw):
    try:
        rows = read_predictions(_damaged_file(tmp_path_factory, "predictions.csv", raw))
    except ERRORS:
        return
    for row in rows:
        assert all(v is None or math.isfinite(v) for s in (row.pred, row.label) for v in s.as_dict().values())


@settings(max_examples=300)
@given(raw=damaged(_MAPS))
def test_damaged_calibration_maps_load_or_fail_with_an_error_main_reports(tmp_path_factory, raw):
    try:
        load_calibration_maps(_damaged_file(tmp_path_factory, "maps.csv", raw))
    except ERRORS:
        pass


@settings(max_examples=300)
@given(raw=damaged(_CONFIG))
@example(raw=_CONFIG.replace(b"n_layers=2", b"n_layers=1000000000"))
def test_damaged_config_builds_its_configs_or_fails_with_an_error_main_reports(tmp_path_factory, raw):
    """The configs train builds, without the model: a damaged embed_dim
    can ask for gigabytes of parameters."""
    try:
        config = load_config_file(_damaged_file(tmp_path_factory, "model.cfg", raw))
        for cls in (ModelConfig, CnnConfig, TrainConfig):
            cls(**parse_config(cls, config, error=CliError))
    except ERRORS:
        pass
