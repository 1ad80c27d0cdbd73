"""Calibration tests: least-squares recovery, monotonicity enforcement,
RMSE dominance, rank preservation, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqatk.calibration import (
    CalibrationError,
    CalibrationMap,
    apply_calibration,
    fit_calibration,
    load_calibration_maps,
    save_calibration_maps,
)
from sqatk.evaluation import rmse


def test_identity_recovery():
    pred = np.linspace(1.0, 5.0, 50)
    mapping = fit_calibration(pred, pred.copy())
    np.testing.assert_allclose(mapping.coefficients, (0.0, 1.0, 0.0, 0.0), atol=1e-6)
    assert mapping.fit_domain == (1.0, 5.0)


def test_monotone_cubic_recovery():
    pred = np.linspace(1.0, 5.0, 100)
    subj = 0.5 + 0.8 * pred + 0.02 * pred**3
    mapping = fit_calibration(pred, subj)
    np.testing.assert_allclose(mapping.coefficients, (0.5, 0.8, 0.0, 0.02), atol=1e-4)


def test_fit_rmse_dominates_identity():
    rng = np.random.default_rng(0)
    pred = rng.uniform(1.0, 5.0, size=80)
    subj = np.clip(0.7 * pred + 0.9 + rng.normal(0, 0.2, size=80), 1, 5)
    mapping = fit_calibration(pred, subj)
    if mapping.is_monotone():  # unconstrained fit kept
        fitted = mapping.poly(pred)
        assert rmse(fitted, subj) <= rmse(pred, subj) + 1e-12


def test_affine_target_recovers_exactly():
    pred = np.linspace(1.2, 4.5, 60)
    subj = 0.9 * pred + 0.3  # image inside [1, 5]
    mapping = fit_calibration(pred, subj)
    assert rmse(apply_calibration(mapping, pred), subj) < 1e-9


def test_apply_identity_map():
    mapping = CalibrationMap((0.0, 1.0, 0.0, 0.0), (1.0, 5.0))
    np.testing.assert_array_equal(apply_calibration(mapping, [2.0, 3.5]), [2.0, 3.5])


def test_apply_clips_to_range():
    mapping = CalibrationMap((6.0, 0.0, 0.0, 0.0), (1.0, 5.0))
    np.testing.assert_array_equal(apply_calibration(mapping, [1.0, 2.0, 9.0]), [5.0, 5.0, 5.0])


def test_strictly_monotone_map_preserves_order():
    mapping = CalibrationMap((0.5, 0.8, 0.0, 0.02), (1.0, 5.0))
    x = np.array([1.2, 2.0, 2.7, 3.9, 4.8])
    y = apply_calibration(mapping, x)
    assert (np.diff(y) > 0).all()


def test_non_monotone_data_falls_back_to_monotone():
    # strongly non-monotone relation: unconstrained cubic would wiggle
    pred = np.linspace(1.0, 5.0, 40)
    subj = 3.0 + 1.5 * np.sin(2.5 * pred)
    mapping = fit_calibration(pred, subj)
    assert mapping.is_monotone()


def test_anticorrelated_data_yields_constant():
    pred = np.linspace(1.0, 5.0, 30)
    subj = 6.0 - pred
    mapping = fit_calibration(pred, subj)
    assert mapping.is_monotone()
    a0, a1, a2, a3 = mapping.coefficients
    assert (a1, a2, a3) == (0.0, 0.0, 0.0)
    assert a0 == pytest.approx(subj.mean())
    # the constant still beats the identity on this data
    assert rmse(apply_calibration(mapping, pred), subj) <= rmse(pred, subj)


def test_too_few_points_rejected():
    with pytest.raises(CalibrationError, match="4 points"):
        fit_calibration(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))


def test_constant_predictions_rejected():
    with pytest.raises(CalibrationError, match="constant"):
        fit_calibration(np.full(10, 2.5), np.linspace(1, 5, 10))


@given(st.integers(min_value=0, max_value=10_000))
def test_rank_preservation_random_monotone_fits(seed):
    rng = np.random.default_rng(seed)
    pred = np.sort(rng.uniform(1.0, 5.0, size=25))
    pred += np.linspace(0, 1e-3, 25)  # ensure distinct
    c1 = rng.uniform(0.2, 0.9)
    c3 = rng.uniform(0.0, 0.05)
    subj = np.clip(0.3 + c1 * pred + c3 * pred**3, 1.0, 5.0)
    mapping = fit_calibration(pred, subj)
    assert mapping.is_monotone()
    out = apply_calibration(mapping, pred)
    diffs = np.diff(out)
    assert (diffs >= -1e-12).all()
    lo, hi = mapping.clip_range
    interior = (out[:-1] > lo + 1e-12) & (out[1:] < hi - 1e-12)
    # ties allowed only at the clip boundaries
    assert (diffs[interior] > -1e-12).all()


def test_serialization_roundtrip(tmp_path):
    maps = {
        ("DE", "mos"): CalibrationMap((0.1, 0.9, -0.01, 0.002), (1.1, 4.9)),
        ("FR", "mos"): CalibrationMap((0.0, 1.0, 0.0, 0.0), (1.0, 5.0)),
    }
    path = tmp_path / "maps.csv"
    save_calibration_maps(path, maps)
    loaded = load_calibration_maps(path)
    assert loaded.keys() == maps.keys()
    for key in maps:
        assert loaded[key].coefficients == maps[key].coefficients  # repr roundtrip is exact
        assert loaded[key].fit_domain == maps[key].fit_domain


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2\n")
    with pytest.raises(CalibrationError, match="header"):
        load_calibration_maps(path)


def test_narrow_prediction_span_fits():
    """Predictions spanning about 0.02 around 3 once made the normal
    equations singular (45 of these 600 fits raised)."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = 3.0 + 0.012 * rng.uniform(-1.0, 1.0, size=8)
            y = np.clip(rng.normal(3.0, 1.0, size=8), 1.0, 5.0)
            mapping = fit_calibration(x, y)
            assert np.isfinite(mapping.coefficients).all() and mapping.is_monotone()
            assert rmse(mapping.poly(x), y) <= rmse(np.full(8, y.mean()), y) + 1e-9


def test_narrow_span_affine_target_recovers():
    x = np.linspace(2.988, 3.012, 8)
    subj = 2.0 + 50.0 * (x - 3.0)
    assert rmse(fit_calibration(x, subj).poly(x), subj) < 1e-9


def test_too_few_distinct_predictions_rejected():
    with pytest.raises(CalibrationError, match="rank-deficient"):
        fit_calibration([1.0, 1.0, 2.0, 2.0, 3.0, 3.0], [1.0, 2.0, 2.0, 3.0, 3.0, 4.0])
