"""Cross-lingual evaluation: PCC and RMSE per language and dimension,
with a Range row (max minus min over the non-reference languages).

Rendered tables use the fixed column order Col, Dis, Loud, MOS, Noi,
put the reference language first, sort the remaining languages by
descending MOS value, show cells to 3 decimals and the range to 2,
rounding half away from zero at display time only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .atomic import read_csv, write_csv
from .quality import SCORE_MAX, SCORE_MIN, TASK_DISPLAY, QualityScores

DIM_ORDER = ("col", "dis", "loud", "mos", "noi")


class MetricError(ValueError):
    pass


class UndefinedCorrelationError(MetricError):
    """Raised when a correlation is requested for a constant vector."""


def _vectors(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float64 vectors of one length."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise MetricError(f"need equal-length vectors, got {x.shape} and {y.shape}")
    return x, y


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _vectors(x, y)
    if len(x) < 2:
        raise MetricError("pearson needs at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a constant vector")
    return float((dx * dy).sum() / denom)


def rmse(x, y) -> float:
    """Root mean square error between two aligned vectors."""
    x, y = _vectors(x, y)
    if len(x) < 1:
        raise MetricError("rmse needs at least 1 sample")
    return float(np.sqrt(((x - y) ** 2).mean()))


def round_half_away(value: float, decimals: int) -> float:
    """Round half away from zero on the decimal representation."""
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass
class EvalReport:
    """One metric's per-language grid. rows maps language to a dict over
    DIM_ORDER with float cells or None for absent."""

    metric: str  # "PCC" or "RMSE"
    reference: str
    rows: dict[str, dict[str, float | None]] = field(default_factory=dict)

    def __post_init__(self):
        if self.metric not in ("PCC", "RMSE"):
            raise MetricError(f"unknown metric {self.metric!r}")
        for lang, cells in self.rows.items():
            for dim, value in cells.items():
                if value is None:
                    continue
                if self.metric == "PCC" and not (-1.0 - 1e-9 <= value <= 1.0 + 1e-9):
                    raise MetricError(f"PCC cell {lang}/{dim} = {value} outside [-1, 1]")
                if self.metric == "RMSE" and value < 0:
                    raise MetricError(f"RMSE cell {lang}/{dim} = {value} negative")

    def non_reference_languages(self) -> list[str]:
        return [lang for lang in self.rows if lang != self.reference]

    def range_row(self) -> dict[str, float | None]:
        """Per-dimension max minus min over the non-reference languages."""
        out: dict[str, float | None] = {}
        for dim in DIM_ORDER:
            values = [
                self.rows[lang][dim]
                for lang in self.non_reference_languages()
                if self.rows[lang].get(dim) is not None
            ]
            out[dim] = (max(values) - min(values)) if values else None
        return out


@dataclass
class PredictionRow:
    sample_id: str
    language: str
    provenance: str
    pred: QualityScores
    label: QualityScores


Pairs = dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]


def paired(rows: list[PredictionRow], dims) -> Pairs:
    """(language, dim) -> the float64 (pred, label) vectors of the rows of
    that language that hold both values, in row order. Keys run over the
    sorted languages of rows and, within one, over dims as given; a cell
    no row fills has empty vectors."""
    groups: dict[str, list[PredictionRow]] = {}
    for row in rows:
        groups.setdefault(row.language, []).append(row)
    pairs: Pairs = {}
    for language, members in sorted(groups.items()):
        for dim in dims:
            both = [r for r in members if r.pred.present(dim) and r.label.present(dim)]
            pairs[(language, dim)] = (np.array([r.pred.get(dim) for r in both], dtype=np.float64),
                                      np.array([r.label.get(dim) for r in both], dtype=np.float64))
    return pairs


def evaluate(pairs: Pairs, reference: str = "ENG") -> tuple[EvalReport, EvalReport]:
    """PCC and RMSE per (language, dim) cell of paired's output.

    An empty cell is absent. PCC cells need at least 2 pairs and a
    non-constant pair of vectors; cells that cannot be computed are
    absent. Each cell's pairs are sorted by label, then prediction, so
    the result does not depend on the rows' order.
    """
    pcc_rows: dict[str, dict[str, float | None]] = {}
    rmse_rows: dict[str, dict[str, float | None]] = {}
    for (lang, dim), (pred, label) in pairs.items():
        pcc_cells = pcc_rows.setdefault(lang, {})
        rmse_cells = rmse_rows.setdefault(lang, {})
        pcc_cells[dim] = rmse_cells[dim] = None
        if len(pred):
            order = np.lexsort((pred, label))
            pred, label = pred[order], label[order]
            rmse_cells[dim] = rmse(pred, label)
            if len(pred) >= 2:
                try:
                    pcc_cells[dim] = pearson(pred, label)
                except UndefinedCorrelationError:
                    pass

    return (
        EvalReport(metric="PCC", reference=reference, rows=pcc_rows),
        EvalReport(metric="RMSE", reference=reference, rows=rmse_rows),
    )


# ------------------------------------------------------------- rendering


def _fmt(value: float | None, decimals: int) -> str:
    if value is None:
        return ""
    return f"{round_half_away(value, decimals):.{decimals}f}"


def _ordered_languages(report: EvalReport) -> list[str]:
    """Reference first, then descending MOS value (absent sorts last),
    ties broken by language name for determinism."""
    others = report.non_reference_languages()
    def key(lang):
        mos = report.rows[lang].get("mos")
        return (-(mos if mos is not None else -np.inf), lang)
    ordered = sorted(others, key=key)
    head = [report.reference] if report.reference in report.rows else []
    return head + ordered


def render_report(report: EvalReport, format: str = "markdown") -> str:
    header = [report.metric] + [TASK_DISPLAY[d] for d in DIM_ORDER]
    body: list[list[str]] = []
    for lang in _ordered_languages(report):
        body.append([lang] + [_fmt(report.rows[lang].get(d), 3) for d in DIM_ORDER])
    if report.non_reference_languages():
        rng = report.range_row()
        body.append(["Range"] + [_fmt(rng[d], 2) for d in DIM_ORDER])

    if format == "csv":
        lines = [",".join(header)] + [",".join(row) for row in body]
        return "\n".join(lines) + "\n"
    if format == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        for row in body:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    raise MetricError(f"unknown render format {format!r}")


# The predictions/labels CSV: sample_id, language, provenance, then the
# five pred_* and five label_* columns; an empty field means absent.
_PREDICTION_COLUMNS = (
    ["sample_id", "language", "provenance"]
    + [f"pred_{d}" for d in DIM_ORDER]
    + [f"label_{d}" for d in DIM_ORDER]
)


def write_predictions(path, rows: list[PredictionRow]) -> None:
    write_csv(path, _PREDICTION_COLUMNS, (
        [row.sample_id, row.language, row.provenance]
        + ["" if row.pred.get(d) is None else f"{row.pred.get(d):.6f}" for d in DIM_ORDER]
        + ["" if row.label.get(d) is None else f"{row.label.get(d):g}" for d in DIM_ORDER]
        for row in rows
    ))


def _score(text: str) -> float | None:
    """An empty field is absent. predict writes only clipped scores and
    a manifest holds its labels in [1, 5], so any other value is an
    error: the metrics and calibration assume the reporting scale."""
    value = float(text) if text else None
    if value is not None and not SCORE_MIN <= value <= SCORE_MAX:
        raise ValueError(f"score {text!r} is not in [{SCORE_MIN:g}, {SCORE_MAX:g}]")
    return value


def read_predictions(path) -> list[PredictionRow]:
    rows: list[PredictionRow] = []
    first_line: dict[str, int] = {}
    n = len(DIM_ORDER)
    for line_no, rec in read_csv(path, _PREDICTION_COLUMNS, "predictions", MetricError):
        sample_id, language, provenance, *scores = rec
        first = first_line.setdefault(sample_id, line_no)
        if first != line_no:
            raise MetricError(f"{path}: line {line_no}: duplicate sample_id {sample_id!r}, first on line {first}")
        try:
            pred, label = (
                QualityScores(**{d: _score(v) for d, v in zip(DIM_ORDER, fields)})
                for fields in (scores[:n], scores[n:])
            )
        except ValueError as exc:
            raise MetricError(f"{path}: line {line_no}: {exc}") from exc
        rows.append(PredictionRow(sample_id, language, provenance, pred, label))
    return rows


def parse_report(text: str, format: str = "markdown") -> dict:
    """Inverse of render_report at rendered precision. Returns a dict
    with keys metric, rows (language -> dim -> float | None) and range."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if format == "markdown":
        cells_per_line = []
        for ln in lines:
            parts = [c.strip() for c in ln.strip().strip("|").split("|")]
            if all(set(p) <= {"-", " ", ":"} and p for p in parts):
                continue  # separator row
            cells_per_line.append(parts)
    elif format == "csv":
        cells_per_line = [ln.split(",") for ln in lines]
    else:
        raise MetricError(f"unknown render format {format!r}")

    header = cells_per_line[0]
    metric = header[0]
    rows: dict[str, dict[str, float | None]] = {}
    range_values: dict[str, float | None] | None = None
    for parts in cells_per_line[1:]:
        label = parts[0]
        values = {
            dim: (float(cell) if cell != "" else None)
            for dim, cell in zip(DIM_ORDER, parts[1:])
        }
        if label == "Range":
            range_values = values
        else:
            rows[label] = values
    return {"metric": metric, "rows": rows, "range": range_values}
