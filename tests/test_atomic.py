"""The one atomic writer, and every artifact writer routed through it."""

import io
import os

import numpy as np
import pytest

from sqatk import atomic
from sqatk.calibration import CalibrationMap, save_calibration_maps
from sqatk.checkpoint import save_checkpoint
from sqatk.evaluation import PredictionRow, write_predictions
from sqatk.frontend import save_features
from sqatk.manifest import ManifestEntry, write_manifest
from sqatk.quality import QualityScores
from sqatk.training import EpochRecord, write_history

EARLIER = b"earlier contents\n"


class _FailingFile(io.BytesIO):
    """Takes half of what it is given, then raises."""

    def write(self, data):
        super().write(data[: len(data) // 2])
        raise OSError("disk full")


def _fail_write(monkeypatch):
    def fdopen(fd, *args, **kwargs):
        os.close(fd)
        return _FailingFile()

    monkeypatch.setattr(os, "fdopen", fdopen)


def _fail_rename(monkeypatch):
    def replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("data", ["new text\r\n", b"\x00new bytes"], ids=["text", "bytes"])
@pytest.mark.parametrize("fail", [_fail_write, _fail_rename], ids=["write", "rename"])
def test_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path, monkeypatch, data, fail):
    path = tmp_path / "artifact.csv"
    path.write_bytes(EARLIER)
    fail(monkeypatch)
    with pytest.raises(OSError):
        atomic.atomic_write(path, data)
    monkeypatch.undo()
    assert path.read_bytes() == EARLIER
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.csv"]


def test_text_is_utf8_without_newline_translation(tmp_path):
    path = tmp_path / "a.txt"
    atomic.atomic_write(path, "a,b\r\nc\né")
    assert path.read_bytes() == b"a,b\r\nc\n\xc3\xa9"
    atomic.atomic_write(path, b"\x01\x02")
    assert path.read_bytes() == b"\x01\x02"


def _write_each_artifact(tmp_path):
    scores = QualityScores(mos=3.0)
    yield tmp_path / "m.csv", lambda p: write_manifest(
        p, [ManifestEntry("s1", tmp_path / "s1.wav", "ENG", "c0", "test", "subjective", scores)]
    )
    yield tmp_path / "pred.csv", lambda p: write_predictions(
        p, [PredictionRow("s1", "ENG", "subjective", scores, scores)]
    )
    yield tmp_path / "maps.csv", lambda p: save_calibration_maps(
        p, {("ENG", "mos"): CalibrationMap((0.0, 1.0, 0.0, 0.0), (1.0, 5.0))}
    )
    yield tmp_path / "x.ckpt", lambda p: save_checkpoint(p, "ast", {}, {"w": np.ones((2, 2))})
    yield tmp_path / "x.feat", lambda p: save_features(p, np.zeros((3, 4)))
    yield tmp_path / "h.csv", lambda p: write_history(
        p, [EpochRecord(1, {"mos": 0.5}, 0.1, 0.2, 1e-3, -0.1)]
    )


def test_every_artifact_writer_is_atomic(tmp_path, monkeypatch):
    for path, write in _write_each_artifact(tmp_path):
        path.write_bytes(EARLIER)
        _fail_rename(monkeypatch)
        with pytest.raises(OSError):
            write(path)
        monkeypatch.undo()
        assert path.read_bytes() == EARLIER, path.name
        write(path)
        assert path.read_bytes() != EARLIER, path.name
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_artifacts_get_the_mode_the_umask_allows(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        for path, write in _write_each_artifact(tmp_path):
            write(path)
            assert path.stat().st_mode & 0o777 == mode, path.name
    finally:
        os.umask(previous)
