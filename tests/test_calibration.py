"""Calibration tests: least-squares recovery, monotonicity enforcement,
RMSE dominance, rank preservation, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from memory import peak_traced_bytes

from sqatk.calibration import (
    MONOTONE_GRID_POINTS,
    SHRINK_STEPS,
    CalibrationError,
    CalibrationMap,
    _fit_poly,
    apply_calibration,
    fit_calibration,
    load_calibration_maps,
    save_calibration_maps,
)
from sqatk.evaluation import rmse
from sqatk.quality import SCORE_MAX, SCORE_MIN


def _monotone_on(coeffs, domain) -> bool:
    """Derivative >= 0 on an evenly spaced grid over the domain."""
    _, a1, a2, a3 = coeffs
    grid = np.linspace(domain[0], domain[1], MONOTONE_GRID_POINTS)
    deriv = a1 + 2.0 * a2 * grid + 3.0 * a3 * grid * grid
    return bool((deriv >= -1e-12).all())


def _is_monotone(mapping: CalibrationMap) -> bool:
    return _monotone_on(mapping.coefficients, mapping.fit_domain)


def _fit_one_step_at_a_time(pred, subj) -> CalibrationMap:
    """fit_calibration as first written: one shrink step per pass, its
    candidate cast to floats and tested on a fresh grid."""
    domain = (float(pred.min()), float(pred.max()))
    full = _fit_poly(pred, subj, 3)
    if _monotone_on(full, domain):
        return CalibrationMap(tuple(float(c) for c in full), domain)
    base = _fit_poly(pred, subj, 1)
    shift = _fit_poly(pred, full[2] * pred**2 + full[3] * pred**3, 1)
    for s in np.linspace(1.0, 0.0, SHRINK_STEPS)[1:]:
        a0, a1 = base - s * shift
        candidate = (float(a0), float(a1), float(s * full[2]), float(s * full[3]))
        if _monotone_on(candidate, domain):
            return CalibrationMap(candidate, domain)
    return CalibrationMap((float(subj.mean()), 0.0, 0.0, 0.0), domain)


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
    if _is_monotone(mapping):  # unconstrained fit kept
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
    assert _is_monotone(mapping)


def test_anticorrelated_data_yields_constant():
    pred = np.linspace(1.0, 5.0, 30)
    subj = 6.0 - pred
    mapping = fit_calibration(pred, subj)
    assert _is_monotone(mapping)
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
    assert _is_monotone(mapping)
    out = apply_calibration(mapping, pred)
    diffs = np.diff(out)
    assert (diffs >= -1e-12).all()
    interior = (out[:-1] > SCORE_MIN + 1e-12) & (out[1:] < SCORE_MAX - 1e-12)
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
            assert np.isfinite(mapping.coefficients).all() and _is_monotone(mapping)
            assert rmse(mapping.poly(x), y) <= rmse(np.full(8, y.mean()), y) + 1e-9


def test_narrow_span_affine_target_recovers():
    x = np.linspace(2.988, 3.012, 8)
    subj = 2.0 + 50.0 * (x - 3.0)
    assert rmse(fit_calibration(x, subj).poly(x), subj) < 1e-9


def test_too_few_distinct_predictions_rejected():
    with pytest.raises(CalibrationError, match="rank-deficient"):
        fit_calibration([1.0, 1.0, 2.0, 2.0, 3.0, 3.0], [1.0, 2.0, 2.0, 3.0, 3.0, 4.0])


def test_the_shrink_scan_picks_the_map_of_one_step_at_a_time():
    """The shrink scan over the one grid gives, bit for bit, the map of
    testing each step on a grid of its own, on unconstrained, shrunk
    and constant fits alike."""
    rng = np.random.default_rng(5)
    kinds = {"kept": 0, "shrunk": 0, "constant": 0}
    for i in range(300):
        n = int(rng.integers(4, 60))
        pred = rng.normal(3.0, rng.uniform(0.01, 1.5), size=n)
        if i % 3 == 0:
            subj = rng.uniform(1.0, 5.0, size=n)
        elif i % 3 == 1:
            subj = np.clip(3.0 - 0.5 * (pred - 3.0) + rng.normal(0.0, 0.5, n), 1.0, 5.0)
        else:
            subj = np.clip(3.0 + rng.normal() * (pred - 3.0) ** 3 + rng.normal(0.0, 0.3, n), 1.0, 5.0)
        mapping = fit_calibration(pred, subj)
        assert repr(mapping) == repr(_fit_one_step_at_a_time(pred, subj))  # signed zeros too
        full = tuple(float(c) for c in _fit_poly(pred, subj, 3))
        if mapping.coefficients == full:
            kinds["kept"] += 1
        elif mapping.coefficients[1:] == (0.0, 0.0, 0.0):
            kinds["constant"] += 1
        else:
            kinds["shrunk"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_a_shrunk_fit_holds_one_candidate_at_a_time():
    """A fit that shrinks tests one step's 1001-point derivative at a
    time and stops at the first monotone step: it traces 0.03 MiB;
    all 200 steps at once, in (200, 1001) arrays, traced 4.66 MiB."""
    pred = np.linspace(1.0, 5.0, 60)
    subj = 3.0 + 0.8 * (pred - 3.0) - 0.1 * (pred - 3.0) ** 3
    mapping = fit_calibration(pred, subj)
    assert 0.0 < mapping.coefficients[3] / _fit_poly(pred, subj, 3)[3] < 1.0  # shrunk, not constant
    peak, _ = peak_traced_bytes(lambda: fit_calibration(pred, subj))
    assert peak < 0.25 * 2**20, f"peak {peak / 2**20:.2f} MiB"
