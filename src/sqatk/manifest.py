"""Corpus manifest: CSV schema binding audio files to language,
condition, split and the five optional quality labels.

Schema (version tag "# manifest-v1" on the first line, then a header):
sample_id,audio,language,condition,split,provenance,mos,col,dis,loud,noi
Label fields may be empty (absent); present labels must lie in [1, 5].
Audio paths are resolved relative to the manifest file.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

from .atomic import read_text, write_csv
from .quality import TASKS, QualityScores

VERSION_TAG = "# manifest-v1"
COLUMNS = ("sample_id", "audio", "language", "condition", "split", "provenance") + TASKS
SPLITS = ("train", "val", "test")
PROVENANCES = ("subjective", "objective")
LOW_SAMPLE_THRESHOLD = 1000


class ManifestError(ValueError):
    pass


@dataclass
class ManifestEntry:
    sample_id: str
    audio: Path
    language: str
    condition: str
    split: str
    provenance: str
    scores: QualityScores


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    path: Path | None = None

    def split_entries(self, split: str) -> list[ManifestEntry]:
        if split not in SPLITS:
            raise ManifestError(f"unknown split {split!r}")
        return [e for e in self.entries if e.split == split]


def _parse_label(raw: str, name: str) -> float | None:
    if raw == "":
        return None
    value = float(raw)
    if not (1.0 <= value <= 5.0):
        raise ValueError(f"{name} label {value} outside [1, 5]")
    return value


def load_manifest(path, require_audio: bool = True) -> Manifest:
    """Parse and validate a manifest CSV.

    All row problems are collected and raised together as one
    ManifestError naming the offending line numbers.
    """
    path = Path(path)
    with io.StringIO(read_text(path, ManifestError), newline="") as fh:
        first = fh.readline()
        line_offset = 1
        if first.startswith("#"):
            if first.strip() != VERSION_TAG:
                raise ManifestError(f"{path}: unknown manifest version tag {first.strip()!r}")
            header_line = fh.readline()
            line_offset = 2
        else:
            header_line = first
        header = next(csv.reader([header_line])) if header_line.strip() else []
        if tuple(header) != COLUMNS:
            missing = set(COLUMNS) - set(header)
            raise ManifestError(
                f"{path}: bad header; missing columns {sorted(missing)}" if missing
                else f"{path}: header column order must be {','.join(COLUMNS)}"
            )
        reader = csv.reader(fh)
        entries: list[ManifestEntry] = []
        problems: list[str] = []
        seen_ids: set[str] = set()
        for row_i, row in enumerate(reader):
            line_no = line_offset + 1 + row_i
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(COLUMNS):
                problems.append(f"line {line_no}: expected {len(COLUMNS)} fields, got {len(row)}")
                continue
            rec = dict(zip(COLUMNS, row))
            row_problems = []
            if not rec["sample_id"]:
                row_problems.append("empty sample_id")
            elif rec["sample_id"] in seen_ids:
                row_problems.append(f"duplicate sample_id {rec['sample_id']!r}")
            if rec["split"] not in SPLITS:
                row_problems.append(f"split {rec['split']!r} not in {SPLITS}")
            if rec["provenance"] not in PROVENANCES:
                row_problems.append(f"provenance {rec['provenance']!r} not in {PROVENANCES}")
            labels = {}
            for task in TASKS:
                try:
                    labels[task] = _parse_label(rec[task], task)
                except ValueError as exc:
                    row_problems.append(str(exc))
            audio = (path.parent / rec["audio"]).resolve()
            if require_audio and not audio.is_file():
                row_problems.append(f"audio file not found: {rec['audio']}")
            if row_problems:
                problems.append(f"line {line_no}: " + "; ".join(row_problems))
                continue
            seen_ids.add(rec["sample_id"])
            entries.append(
                ManifestEntry(
                    sample_id=rec["sample_id"],
                    audio=audio,
                    language=rec["language"],
                    condition=rec["condition"],
                    split=rec["split"],
                    provenance=rec["provenance"],
                    scores=QualityScores(**labels),
                )
            )
    if problems:
        raise ManifestError(f"{path}: {len(problems)} bad row(s):\n  " + "\n  ".join(problems))
    return Manifest(entries=entries, path=path)


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    path = Path(path)

    def row(e):
        audio = e.audio
        try:
            audio = Path(audio).resolve().relative_to(path.parent.resolve())
        except ValueError:
            pass
        return [e.sample_id, str(audio), e.language, e.condition, e.split, e.provenance] + [
            "" if e.scores.get(t) is None else f"{e.scores.get(t):g}" for t in TASKS
        ]

    write_csv(path, COLUMNS, map(row, entries), preamble=VERSION_TAG)


@dataclass
class LanguageSummary:
    language: str
    samples: int
    conditions: int

    @property
    def below_threshold(self) -> bool:
        return self.samples < LOW_SAMPLE_THRESHOLD


def summarize(manifest: Manifest) -> list[LanguageSummary]:
    """Per-language sample and distinct-condition counts, largest first."""
    by_lang: dict[str, list[ManifestEntry]] = {}
    for e in manifest.entries:
        by_lang.setdefault(e.language, []).append(e)
    rows = [
        LanguageSummary(lang, len(group), len({e.condition for e in group}))
        for lang, group in by_lang.items()
    ]
    return sorted(rows, key=lambda r: (-r.samples, r.language))


def format_summary(rows: list[LanguageSummary]) -> str:
    lines = [f"{'Language':<10} {'Samples':>8} {'Conditions':>11}"]
    for r in rows:
        warn = f"  (warning: below {LOW_SAMPLE_THRESHOLD}-sample threshold)" if r.below_threshold else ""
        lines.append(f"{r.language:<10} {r.samples:>8} {r.conditions:>11}{warn}")
    return "\n".join(lines) + "\n"
