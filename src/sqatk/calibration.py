"""Third-order polynomial score calibration with a monotonicity guard.

A cubic y = a0 + a1*x + a2*x^2 + a3*x^3 is fit by least squares on the
abscissa centred and scaled onto [-1, 1], then mapped back to raw
coefficients, so predictions spanning a narrow range stay solvable. If the
unconstrained fit is not monotone non-decreasing over the fitted
prediction range, the quadratic and cubic coefficients are shrunk
toward zero on a fixed grid, refitting intercept and slope at each
step, and the first monotone candidate wins; the final fallback is the
constant map at the mean rating. Applied outputs are clipped to [1, 5].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic import read_csv, write_csv
from .quality import SCORE_MAX, SCORE_MIN

MONOTONE_GRID_POINTS = 1001
SHRINK_STEPS = 201


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class CalibrationMap:
    coefficients: tuple[float, float, float, float]  # a0, a1, a2, a3
    fit_domain: tuple[float, float]

    def poly(self, x: np.ndarray) -> np.ndarray:
        a0, a1, a2, a3 = self.coefficients
        x = np.asarray(x, dtype=np.float64)
        return a0 + x * (a1 + x * (a2 + x * a3))


def _monotone(a1, a2, a3, grid: np.ndarray) -> np.ndarray:
    """Whether the derivative a1 + 2*a2*x + 3*a3*x^2 is >= 0 at every
    grid point; one answer per row when the coefficients are (k, 1)
    columns of candidates."""
    deriv = a1 + 2.0 * a2 * grid + 3.0 * a3 * grid * grid
    return (deriv >= -1e-12).all(axis=-1)


def _fit_poly(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares polynomial coefficients (a0, a1, ...) in raw x.

    The Vandermonde system is built on u = (x - centre) / half_span in
    [-1, 1] and solved with lstsq; the raw coefficients follow from
    expanding each u^k in powers of x."""
    centre = 0.5 * (float(x.max()) + float(x.min()))
    half = 0.5 * (float(x.max()) - float(x.min()))
    design = np.vander((x - centre) / half, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank <= degree:
        raise CalibrationError(
            f"rank-deficient calibration system: rank {rank} for {degree + 1} coefficients"
        )
    raw = np.zeros(degree + 1)
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            raw[j] += c * math.comb(k, j) * (-centre) ** (k - j) / half**k
    return raw


def fit_calibration(pred, subj) -> CalibrationMap:
    """Least-squares cubic from predictions to subjective scores."""
    pred = np.asarray(pred, dtype=np.float64)
    subj = np.asarray(subj, dtype=np.float64)
    if pred.shape != subj.shape or pred.ndim != 1:
        raise CalibrationError("pred and subj must be equal-length vectors")
    if len(pred) < 4:
        raise CalibrationError(f"need at least 4 points, got {len(pred)}")
    if float(pred.std()) < 1e-9:
        raise CalibrationError("predictions are (nearly) constant; cannot calibrate")

    domain = (float(pred.min()), float(pred.max()))
    grid = np.linspace(domain[0], domain[1], MONOTONE_GRID_POINTS)
    full = _fit_poly(pred, subj, 3)
    if _monotone(full[1], full[2], full[3], grid):
        return CalibrationMap(tuple(float(c) for c in full), domain)

    # The intercept and slope refit is linear in its target, so refitting
    # subj minus the shrunk cubic terms gives base - s * shift. Every
    # shrink step is tested at once, one candidate per row.
    base = _fit_poly(pred, subj, 1)
    shift = _fit_poly(pred, full[2] * pred**2 + full[3] * pred**3, 1)
    s = np.linspace(1.0, 0.0, SHRINK_STEPS)[1:, None]
    lines = base - s * shift
    a2, a3 = s * full[2], s * full[3]
    ok = _monotone(lines[:, 1:], a2, a3, grid)
    if ok.any():
        i = int(ok.argmax())
        return CalibrationMap(
            (float(lines[i, 0]), float(lines[i, 1]), float(a2[i, 0]), float(a3[i, 0])), domain
        )

    # Even the plain linear fit slopes downward: fall back to a constant.
    return CalibrationMap((float(subj.mean()), 0.0, 0.0, 0.0), domain)


def apply_calibration(mapping: CalibrationMap, pred) -> np.ndarray:
    """Evaluate the polynomial per element, then clip to the score range."""
    return np.clip(mapping.poly(pred), SCORE_MIN, SCORE_MAX)


# ------------------------------------------------------------ persistence
#
# Text format, one mapping per line: group key, dimension, the four
# coefficients at full precision, then the fit domain bounds.

_HEADER = ["group", "dim", "a0", "a1", "a2", "a3", "domain_lo", "domain_hi"]


def save_calibration_maps(path, maps: dict[tuple[str, str], CalibrationMap]) -> None:
    write_csv(path, _HEADER, (
        [group, dim, *map(repr, mapping.coefficients + mapping.fit_domain)]
        for (group, dim), mapping in sorted(maps.items())
    ))


def load_calibration_maps(path) -> dict[tuple[str, str], CalibrationMap]:
    """The maps of a file save_calibration_maps wrote. A number that is
    not finite, coefficients whose cubic could overflow at a score in
    [1, 5], a domain_lo above domain_hi, or a second map for one
    (group, dim) raises CalibrationError naming the file and line."""
    maps: dict[tuple[str, str], CalibrationMap] = {}
    first_line: dict[tuple[str, str], int] = {}
    for line_no, (group, dim, *fields) in read_csv(path, _HEADER, "calibration", CalibrationError):
        where = f"{path}: line {line_no}"
        try:
            numbers = [float(v) for v in fields]
        except ValueError as exc:
            raise CalibrationError(f"{where}: {exc}") from exc
        for name, value in zip(_HEADER[2:], numbers):
            if not math.isfinite(value):
                raise CalibrationError(f"{where}: {name} = {value} is not finite")
        a0, a1, a2, a3, lo, hi = numbers
        if not math.isfinite(abs(a0) + 5 * abs(a1) + 25 * abs(a2) + 125 * abs(a3)):
            raise CalibrationError(f"{where}: |a0| + 5|a1| + 25|a2| + 125|a3| overflows, "
                                   f"so the map cannot be applied to scores in [1, 5]")
        if lo > hi:
            raise CalibrationError(f"{where}: domain_lo {lo!r} is above domain_hi {hi!r}")
        first = first_line.setdefault((group, dim), line_no)
        if first != line_no:
            raise CalibrationError(f"{where}: a second map for {group}/{dim}, first on line {first}")
        maps[(group, dim)] = CalibrationMap((a0, a1, a2, a3), (lo, hi))
    return maps
