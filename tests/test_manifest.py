"""Manifest schema, validation, summaries, and the synthetic corpus."""

import numpy as np
import pytest

from sqatk import frontend as fe
from sqatk.manifest import (
    COLUMNS,
    Manifest,
    ManifestEntry,
    ManifestError,
    format_summary,
    load_manifest,
    summarize,
    write_manifest,
    VERSION_TAG,
)
from sqatk.quality import QualityScores
from sqatk.synth import generate_corpus

HEADER = ",".join(COLUMNS)


def write_rows(path, rows, tag=True):
    lines = ([VERSION_TAG] if tag else []) + [HEADER] + rows
    path.write_text("\n".join(lines) + "\n")


def test_empty_manifest(tmp_path):
    path = tmp_path / "m.csv"
    write_rows(path, [])
    manifest = load_manifest(path)
    assert manifest.entries == []


def test_three_row_fixture_in_order(tmp_path):
    wav = tmp_path / "a.wav"
    wav.write_bytes(b"")
    rows = [
        f"s1,a.wav,ENG,c1,train,subjective,3.5,2.0,,4.0,1.5",
        f"s2,a.wav,DE,c2,val,objective,2.25,,,,",
        f"s3,a.wav,FR,c1,test,subjective,,,,,",
    ]
    path = tmp_path / "m.csv"
    write_rows(path, rows)
    manifest = load_manifest(path)
    assert [e.sample_id for e in manifest.entries] == ["s1", "s2", "s3"]
    assert manifest.entries[0].scores == QualityScores(mos=3.5, col=2.0, dis=None, loud=4.0, noi=1.5)
    assert manifest.entries[1].split == "val"
    assert manifest.entries[1].provenance == "objective"
    assert manifest.entries[2].scores == QualityScores()
    assert [e.language for e in manifest.entries] == ["ENG", "DE", "FR"]


def test_out_of_range_label_names_row(tmp_path):
    wav = tmp_path / "a.wav"
    wav.write_bytes(b"")
    path = tmp_path / "m.csv"
    write_rows(path, ["s1,a.wav,ENG,c1,train,subjective,6.0,,,,"])
    with pytest.raises(ManifestError, match=r"line 3.*mos label 6\.0"):
        load_manifest(path)


def test_duplicate_ids_rejected(tmp_path):
    wav = tmp_path / "a.wav"
    wav.write_bytes(b"")
    path = tmp_path / "m.csv"
    write_rows(path, [
        "s1,a.wav,ENG,c1,train,subjective,3.0,,,,",
        "s1,a.wav,ENG,c1,train,subjective,3.0,,,,",
    ])
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_missing_header_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("sample_id,audio\n")
    with pytest.raises(ManifestError, match="header"):
        load_manifest(path)


def test_unknown_version_tag(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# manifest-v99\n" + HEADER + "\n")
    with pytest.raises(ManifestError, match="version"):
        load_manifest(path)


def test_missing_audio_flagged_unless_disabled(tmp_path):
    path = tmp_path / "m.csv"
    write_rows(path, ["s1,gone.wav,ENG,c1,train,subjective,3.0,,,,"])
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(path)
    manifest = load_manifest(path, require_audio=False)
    assert len(manifest.entries) == 1


def test_splits_partition_entries(tmp_path):
    wav = tmp_path / "a.wav"
    wav.write_bytes(b"")
    rows = [f"s{i},a.wav,ENG,c1,{split},subjective,3.0,,,," for i, split in
            enumerate(["train", "train", "val", "test"])]
    path = tmp_path / "m.csv"
    write_rows(path, rows)
    manifest = load_manifest(path)
    parts = [manifest.split_entries(s) for s in ("train", "val", "test")]
    assert [len(p) for p in parts] == [2, 1, 1]
    ids = [e.sample_id for part in parts for e in part]
    assert sorted(ids) == sorted(e.sample_id for e in manifest.entries)


def make_entries(language, n, conditions, start=0):
    return [
        ManifestEntry(
            sample_id=f"{language}{start + i}",
            audio=f"{language}{start + i}.wav",
            language=language,
            condition=f"c{i % conditions}",
            split="test",
            provenance="subjective",
            scores=QualityScores(mos=3.0),
        )
        for i in range(n)
    ]


def test_summary_matches_published_corpus_row():
    # NL: 1035 samples over 59 conditions
    manifest = Manifest(entries=make_entries("NL", 1035, 59) + make_entries("DE", 1200, 10, 5000))
    rows = summarize(manifest)
    nl = next(r for r in rows if r.language == "NL")
    assert (nl.samples, nl.conditions) == (1035, 59)
    assert rows[0].language == "DE"  # sorted by count descending


def test_low_sample_warning_threshold():
    at_threshold = summarize(Manifest(entries=make_entries("SE", 1000, 3)))[0]
    below = summarize(Manifest(entries=make_entries("SE", 999, 3)))[0]
    assert not at_threshold.below_threshold
    assert below.below_threshold
    text = format_summary([below])
    assert "warning" in text and "999" in text


def test_single_language_summary():
    rows = summarize(Manifest(entries=make_entries("MAN", 5, 2)))
    assert len(rows) == 1


def test_write_then_load_roundtrip(tmp_path):
    wav = tmp_path / "x.wav"
    wav.write_bytes(b"")
    entries = [
        ManifestEntry("s1", tmp_path / "x.wav", "ENG", "c1", "train", "subjective",
                      QualityScores(mos=3.25, col=None, dis=1.0, loud=None, noi=5.0)),
    ]
    path = tmp_path / "m.csv"
    write_manifest(path, entries)
    assert path.read_text().startswith(VERSION_TAG)
    manifest = load_manifest(path)
    assert manifest.entries[0].scores == entries[0].scores
    assert manifest.entries[0].audio == wav


# -------------------------------------------------------- synthetic corpus


def test_generate_corpus_is_loadable_and_deterministic(tmp_path):
    m1 = generate_corpus(tmp_path / "c1", n_clips=6, seed=5, languages=("ENG", "DE"), n_val=2)
    m2 = generate_corpus(tmp_path / "c2", n_clips=6, seed=5, languages=("ENG", "DE"), n_val=2)
    man1 = load_manifest(m1)
    man2 = load_manifest(m2)
    assert len(man1.entries) == 6
    assert [e.language for e in man1.entries] == ["ENG", "DE"] * 3
    assert len(man1.split_entries("val")) == 2
    assert [e.scores for e in man1.entries] == [e.scores for e in man2.entries]
    # wav bytes identical across same-seed runs
    for e1, e2 in zip(man1.entries, man2.entries):
        assert e1.audio.read_bytes() == e2.audio.read_bytes()


def test_generated_clips_decode_and_featurize(tmp_path):
    manifest = load_manifest(generate_corpus(tmp_path, n_clips=2, seed=1))
    for entry in manifest.entries:
        clip = fe.decode_wav(entry.audio)
        assert clip.sample_rate == 48000
        spec = fe.log_mel_spectrogram(clip)
        assert np.isfinite(spec.values).all()
