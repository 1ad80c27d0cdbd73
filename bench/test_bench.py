"""Smoke test of the benchmark itself, at toy size.

Run from the repository root with `python -m pytest bench -q`.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._bootstrap()

import sqatk.autodiff  # noqa: E402
import sqatk.cli  # noqa: E402
import sqatk.frontend  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def toy(name: str):
    """A few-second version of a workload with the same stages."""
    workload = WORKLOADS[name]
    if workload.train:
        return dataclasses.replace(workload, clips_per_duration=30, n_val=6, n_test=6)
    return dataclasses.replace(workload, durations=(1.0, 2.0, 3.0, 4.0) * 2, max_duration_s=4.0)


def _check_line(line: dict, metrics) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in metrics]
    for m in metrics:
        assert line["metrics"][m.name]["unit"] == m.unit
        assert isinstance(line["metrics"][m.name]["value"], float)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_workload_reports_every_metric(name, tmp_path, capsys):
    workload = toy(name)
    originals = (sqatk.cli.load_manifest, sqatk.autodiff.Tensor.__dict__["backward"])
    result = run.measure(workload, seed=0, seconds=0, trace=True, work=tmp_path)
    assert (sqatk.cli.load_manifest, sqatk.autodiff.Tensor.__dict__["backward"]) == originals

    assert result["failures"] == []
    _check_line(run.report(result, trace=False), run.END_TO_END)
    _check_line(run.report(result, trace=True), run.per_layer_metrics())
    printed = capsys.readouterr().out
    for m in run.END_TO_END + run.REPORTED + run.per_layer_metrics():
        assert f"{m.name} " in printed and f"({m.better} is better)" in printed

    metrics, layers = result["metrics"], result["layers"]
    assert metrics["ops_failed_frac"] == 0.0
    assert ("train_clips_per_s" in metrics) == workload.train
    assert ("test_pcc_mos" in metrics) == workload.train
    assert layers["calibration.maps"] == len(workload.languages) * len(workload.calibrate_dims)
    assert layers["frontend.audio_s"] == pytest.approx(workload.audio_s, rel=1e-3)
    assert layers["cli.predict_s"] > 0.0 and layers["cli.predict.peak_alloc_mib"] > 0.0
    if workload.model == "ast":
        assert layers["transformer.valid_token_frac"] == pytest.approx(
            result["record"]["valid_token_share"]
        )
        assert layers["cnn.conv_s"] == 0.0
    else:
        assert layers["cnn.conv_s"] > 0.0 and layers["transformer.tokens"] == 0.0
    if workload.train:
        assert layers["training.epochs"] == workload.max_epochs
        assert layers["training.forward_train_s"] > 0.0 and layers["training.forward_val_s"] > 0.0
    assert result["spans"] and {"name", "start", "end", "parent"} == set(result["spans"][0])


def test_corrupt_feature_file_is_counted_not_raised(tmp_path, monkeypatch):
    workload = toy("ast_train_2s")
    save_features = sqatk.frontend.save_features
    corrupt = []  # the file name of the first clip featurized, in every cache

    def save_first_clip_corrupt(path, values):
        save_features(path, values)
        if not corrupt:
            corrupt.append(Path(path).name)
        if Path(path).name == corrupt[0]:
            Path(path).write_bytes(b"\x07\x00")

    monkeypatch.setattr(sqatk.frontend, "save_features", save_first_clip_corrupt)
    result = run.measure(workload, seed=0, seconds=0, trace=False, work=tmp_path)
    line = run.report(result, trace=False)
    assert line["correct"] is False and line["failed"] > 0
    assert result["metrics"]["ops_failed_frac"] == line["failed"] / line["attempted"]
    assert any(f.startswith("stage predict returned 1") for f in result["failures"])


def test_spec_matches_checked_in_benchmark_json(tmp_path):
    spec = tmp_path / "BENCHMARK.json"
    run.write_spec(spec)
    assert json.loads(spec.read_text()) == json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ast_train_2s", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
