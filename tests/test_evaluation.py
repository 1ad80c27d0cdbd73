"""Evaluation harness tests: metric oracles, report assembly, range
rows against the published grids, rendering and parsing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqatk.evaluation import (
    DIM_ORDER,
    EvalReport,
    MetricError,
    PredictionRow,
    UndefinedCorrelationError,
    evaluate,
    paired,
    parse_report,
    pearson,
    read_predictions,
    render_report,
    rmse,
    round_half_away,
    write_predictions,
)
from sqatk.quality import QualityScores

from table_fixtures import ALL_TABLES, CNN_PCC

# ---------------------------------------------------------------- metrics


def test_pearson_perfect_linear():
    x = np.array([1.0, 2.0, 3.0, 7.0])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    x = np.array([0.5, 1.5, 2.5])
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_constant_raises():
    with pytest.raises(UndefinedCorrelationError):
        pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


def test_pearson_needs_two_samples():
    with pytest.raises(MetricError):
        pearson([1.0], [2.0])


def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.0, 5.0], [5.0, 1.0]) == pytest.approx(4.0)


def test_rmse_homogeneous():
    x = np.array([1.0, 2.0, 4.0])
    y = np.array([2.0, 1.0, 5.0])
    assert rmse(3 * x, 3 * y) == pytest.approx(3 * rmse(x, y), rel=1e-12)


def test_rmse_length_mismatch():
    with pytest.raises(MetricError):
        rmse([1.0], [1.0, 2.0])


@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_pearson_affine_invariant(a, b):
    rng = np.random.default_rng(42)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    base = pearson(x, y)
    assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-12)
    assert pearson(x, a * y + b) == pytest.approx(base, abs=1e-12)


def test_metric_oracle_agreement(rng):
    """Direct-formula recomputation (plain Python loops) as the oracle."""
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.3 * x
        mx = sum(x) / n
        my = sum(y) / n
        sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
        sxx = sum((a - mx) ** 2 for a in x)
        syy = sum((b - my) ** 2 for b in y)
        assert abs(pearson(x, y) - sxy / (sxx * syy) ** 0.5) < 1e-9
        assert abs(rmse(x, y) - (sum((a - b) ** 2 for a, b in zip(x, y)) / n) ** 0.5) < 1e-9


# ------------------------------------------------------------ range rows


def report_from_fixture(fx) -> EvalReport:
    return EvalReport(metric=fx["metric"], reference=fx["reference"], rows=fx["rows"])


@pytest.mark.parametrize("name", sorted(ALL_TABLES))
def test_published_range_rows(name):
    fx = ALL_TABLES[name]
    computed = report_from_fixture(fx).range_row()
    for dim, printed in fx["printed_range"].items():
        assert computed[dim] == pytest.approx(printed, abs=0.01), (name, dim)


def test_table2_noise_range_value():
    report = report_from_fixture(CNN_PCC)
    assert report.range_row()["noi"] == pytest.approx(0.29, abs=0.005)
    assert report.range_row()["mos"] == pytest.approx(0.162, abs=1e-12)


def test_identical_cells_give_zero_range():
    rows = {lang: {d: 0.5 for d in DIM_ORDER} for lang in ("ENG", "DE", "FR")}
    report = EvalReport(metric="PCC", reference="ENG", rows=rows)
    assert all(v == 0.0 for v in report.range_row().values())


def test_report_validates_cells():
    with pytest.raises(MetricError, match="outside"):
        EvalReport(metric="PCC", reference="ENG", rows={"DE": {"mos": 1.5}})
    with pytest.raises(MetricError, match="negative"):
        EvalReport(metric="RMSE", reference="ENG", rows={"DE": {"mos": -0.1}})


# -------------------------------------------------------------- evaluate


def correlated_pair(r, n, rng, mean=3.0, spread=0.6):
    """Vectors with sample correlation exactly r, values inside [1, 5]."""
    x = rng.normal(size=n)
    x -= x.mean()
    e1 = x / np.linalg.norm(x)
    z = rng.normal(size=n)
    z -= z.mean()
    z -= (z @ e1) * e1
    e2 = z / np.linalg.norm(z)
    pred = mean + spread * np.sqrt(n) * e1 / np.abs(e1 * np.sqrt(n)).max() * 0.5
    mix = r * e1 + np.sqrt(max(0.0, 1 - r * r)) * e2
    label = mean + spread * np.sqrt(n) * mix / np.abs(mix * np.sqrt(n)).max() * 0.5
    return np.clip(pred, 1, 5), np.clip(label, 1, 5)


def _evaluate(preds, labels, langs, reference="ENG"):
    """evaluate over the pairs of rows holding these scores, as the
    evaluate command runs it."""
    rows = [PredictionRow(f"s{i}", lang, "subjective", pred, label)
            for i, (pred, label, lang) in enumerate(zip(preds, labels, langs))]
    return evaluate(paired(rows, DIM_ORDER), reference=reference)


def build_eval_inputs(rng):
    langs, preds, labels = [], [], []
    targets = {"ENG": 0.9, "DE": 0.7, "MAN": 0.8}
    for lang, r in targets.items():
        p, l = correlated_pair(r, 30, rng)
        for pv, lv in zip(p, l):
            langs.append(lang)
            preds.append(QualityScores(mos=pv, col=pv, dis=pv, loud=pv, noi=pv))
            labels.append(QualityScores(mos=lv, col=lv, dis=lv, loud=lv, noi=lv))
    return preds, labels, langs


def test_evaluate_reproduces_target_correlations(rng):
    preds, labels, langs = build_eval_inputs(rng)
    pcc, err = _evaluate(preds, labels, langs)
    assert pcc.rows["ENG"]["mos"] == pytest.approx(0.9, abs=1e-9)
    assert pcc.rows["DE"]["mos"] == pytest.approx(0.7, abs=1e-9)
    assert err.rows["DE"]["mos"] >= 0


def test_evaluate_permutation_invariant(rng):
    preds, labels, langs = build_eval_inputs(rng)
    pcc_a, rmse_a = _evaluate(preds, labels, langs)
    perm = rng.permutation(len(preds))
    pcc_b, rmse_b = _evaluate([preds[i] for i in perm], [labels[i] for i in perm], [langs[i] for i in perm])
    assert pcc_a.rows == pcc_b.rows
    assert rmse_a.rows == rmse_b.rows


def test_evaluate_absent_dimension_cells(rng):
    preds = [QualityScores(mos=float(v)) for v in (2.0, 3.0, 4.0)]
    labels = [
        QualityScores(mos=2.1),
        QualityScores(mos=3.2),
        QualityScores(mos=3.9, col=2.0),
    ]
    pcc, err = _evaluate(preds, labels, ["DE"] * 3)
    assert pcc.rows["DE"]["col"] is None  # one labeled sample: no PCC
    assert err.rows["DE"]["col"] is None  # prediction absent for col
    assert pcc.rows["DE"]["mos"] is not None
    assert pcc.range_row()["col"] is None


def test_evaluate_constant_cell_is_absent():
    preds = [QualityScores(mos=3.0), QualityScores(mos=3.0)]
    labels = [QualityScores(mos=2.0), QualityScores(mos=4.0)]
    pcc, err = _evaluate(preds, labels, ["DE", "DE"])
    assert pcc.rows["DE"]["mos"] is None
    assert err.rows["DE"]["mos"] == pytest.approx(np.sqrt((1 + 1) / 2))


def test_paired_keeps_the_rows_holding_both_values_in_row_order():
    """Keys run over the sorted languages, then the dims as given; a cell
    takes the rows that hold a prediction and a label, in row order, and
    a cell no row fills has empty vectors."""
    rows = [
        PredictionRow("a", "MAN", "subjective", QualityScores(mos=4.0, col=2.0), QualityScores(mos=3.5)),
        PredictionRow("b", "DE", "subjective", QualityScores(mos=2.0), QualityScores(mos=1.5, col=3.0)),
        PredictionRow("c", "MAN", "objective", QualityScores(mos=1.0), QualityScores(mos=2.5, col=4.0)),
        PredictionRow("d", "MAN", "subjective", QualityScores(mos=3.0, col=5.0), QualityScores(col=1.0)),
    ]
    pairs = paired(rows, ["mos", "col"])
    assert list(pairs) == [("DE", "mos"), ("DE", "col"), ("MAN", "mos"), ("MAN", "col")]
    expected = {("DE", "mos"): ([2.0], [1.5]), ("DE", "col"): ([], []),
                ("MAN", "mos"): ([4.0, 1.0], [3.5, 2.5]), ("MAN", "col"): ([5.0], [1.0])}
    for key, (pred, label) in pairs.items():
        assert pred.dtype == label.dtype == np.float64
        assert (pred.tolist(), label.tolist()) == expected[key]


def test_evaluate_cells_are_those_of_the_pairs_sorted_as_tuples(rng):
    """Each cell's pairs are ordered as sorted((label, pred)) orders them,
    ties in the label broken by the prediction, so every PCC and RMSE is
    the tuple-sorted reference's bit for bit."""
    label = rng.integers(2, 10, size=60) / 2.0  # 1.0 .. 4.5 in halves: many ties
    pred = np.round(rng.uniform(1.0, 5.0, size=60), 1)
    pairs = {("DE", "mos"): (pred, label)}
    pcc, err = evaluate(pairs)
    ref_label, ref_pred = (np.array(v) for v in zip(*sorted(zip(label.tolist(), pred.tolist()))))
    assert pcc.rows["DE"]["mos"] == pearson(ref_pred, ref_label)
    assert err.rows["DE"]["mos"] == rmse(ref_pred, ref_label)


# ------------------------------------------------------------- rendering


def test_round_half_away():
    assert round_half_away(0.177, 2) == 0.18
    assert round_half_away(0.125, 2) == 0.13
    assert round_half_away(-0.125, 2) == -0.13
    assert round_half_away(0.1849999, 3) == 0.185


def test_render_reference_first_then_mos_descending():
    report = report_from_fixture(CNN_PCC)
    text = render_report(report, "csv")
    order = [line.split(",")[0] for line in text.strip().splitlines()[1:]]
    assert order == ["ENG", "MAN", "FR", "DE", "NL", "SE", "Range"]


def test_render_reference_only_no_range_row():
    report = EvalReport(metric="PCC", reference="ENG",
                        rows={"ENG": {d: 0.5 for d in DIM_ORDER}})
    text = render_report(report, "markdown")
    assert "Range" not in text
    assert "ENG" in text


def test_roundtrip_markdown_and_csv():
    report = report_from_fixture(CNN_PCC)
    for fmt in ("markdown", "csv"):
        parsed = parse_report(render_report(report, fmt), fmt)
        assert parsed["metric"] == "PCC"
        for lang, cells in report.rows.items():
            for dim, value in cells.items():
                assert parsed["rows"][lang][dim] == round_half_away(value, 3)
        rng_row = report.range_row()
        for dim in DIM_ORDER:
            assert parsed["range"][dim] == round_half_away(rng_row[dim], 2)


def test_table2_markdown_matches_golden(pytestconfig):
    golden = pytestconfig.rootpath / "tests" / "data" / "table2_pcc_golden.md"
    rendered = render_report(report_from_fixture(CNN_PCC), "markdown")
    assert rendered == golden.read_text()


# --------------------------------------------------------- predictions CSV


def test_predictions_roundtrip(tmp_path):
    rows = [
        PredictionRow("a", "ENG", "subjective",
                      QualityScores(mos=3.25, col=2.0, dis=4.0, loud=3.0, noi=2.5),
                      QualityScores(mos=3.5)),
        PredictionRow("b", "DE", "objective",
                      QualityScores(mos=1.0, col=1.0, dis=1.0, loud=1.0, noi=1.0),
                      QualityScores()),
    ]
    path = tmp_path / "pred.csv"
    write_predictions(path, rows)
    loaded = read_predictions(path)
    assert [r.sample_id for r in loaded] == ["a", "b"]
    assert loaded[0].pred.mos == pytest.approx(3.25)
    assert loaded[0].label.mos == pytest.approx(3.5)
    assert loaded[0].label.col is None
    assert loaded[1].provenance == "objective"


def test_predictions_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(MetricError, match="header"):
        read_predictions(path)
