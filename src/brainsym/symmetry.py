"""Bilateral symmetry axis estimation.

The axis is a low-degree polynomial x(y) fitted to per-row midpoints of
the brain foreground mask (a plain bool array), through least-squares
normal equations solved with Cramer's rule (n <= 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .edges import EIGHT_CONNECTED
from .errors import GeometryError, ParameterError, SingularSystemError
from .imaging import GrayImage, round_half_away


@dataclass(frozen=True)
class MidpointSample:
    """Midpoint of a mask row: column (xl + xr)/2 with span xr - xl."""

    y: int
    x_mid: float
    span: int


@dataclass(frozen=True)
class SymmetryAxis:
    """Polynomial axis x(y) = sum(coeffs[i] * y**i), degree 1 or 2."""

    degree: int
    coeffs: tuple[float, ...]

    def at(self, y):
        """Evaluate x(y); accepts scalars or arrays."""
        result = 0.0
        for c in reversed(self.coeffs):
            result = result * np.asarray(y, dtype=np.float64) + c
        return result


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Small dense system A x = b with n <= 3."""

    n: int
    matrix: np.ndarray
    rhs: np.ndarray


def brain_mask(img: GrayImage) -> np.ndarray:
    """Bool foreground mask: Otsu threshold, then the largest 8-connected blob.

    The threshold t maximizes the between-class variance of the split
    {v < t} / {v >= t} over the 256-bin histogram; ties pick the smallest t.
    """
    pixels = img.pixels
    hist = np.bincount(pixels.ravel(), minlength=256).astype(np.float64)
    total = pixels.size
    levels = np.arange(256, dtype=np.float64)
    cum_n = np.cumsum(hist)
    cum_s = np.cumsum(hist * levels)
    n0 = cum_n[:255]          # counts below t for t = 1..255
    s0 = cum_s[:255]
    n1 = total - n0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = s0 / n0
        mu1 = (cum_s[255] - s0) / n1
        between = n0 * n1 * (mu0 - mu1) ** 2
    between[(n0 == 0) | (n1 == 0)] = 0.0
    if between.max() <= 0.0:
        raise GeometryError("no foreground separable")
    threshold = 1 + int(np.argmax(between))
    mask = pixels >= threshold
    labels, count = ndimage.label(mask, structure=EIGHT_CONNECTED)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    sizes[0] = 0
    return labels == int(np.argmax(sizes))


def row_midpoints(
    mask: np.ndarray,
    min_span: int,
    require_mid_on_mask: bool = False,
) -> list[MidpointSample]:
    """Per-row midpoints of the horizontal extent of a bool mask.

    Rows whose span (rightmost minus leftmost foreground column) falls
    below min_span are dropped. With require_mid_on_mask, rows whose
    midpoint pixel is not itself foreground are dropped too; the
    detection pipeline enables this to reject rows where the extent
    straddles disjoint lobes.
    """
    samples = []
    for y in range(mask.shape[0]):
        cols = np.nonzero(mask[y])[0]
        if cols.size == 0:
            continue
        xl = int(cols[0])
        xr = int(cols[-1])
        span = xr - xl
        if span < min_span:
            continue
        x_mid = (xl + xr) / 2.0
        if require_mid_on_mask and not mask[y, int(round_half_away(x_mid))]:
            continue
        samples.append(MidpointSample(y, x_mid, span))
    return samples


def _normal_equations(ys: np.ndarray, xs: np.ndarray, degree: int) -> LinearSystem:
    """Least-squares normal equations for x(y) of the given degree:
    M[j][k] = sum(y**(j+k)), rhs[j] = sum(x * y**j)."""
    n = degree + 1
    powers = [np.sum(ys ** p) for p in range(2 * n - 1)]
    matrix = np.array([[powers[j + k] for k in range(n)] for j in range(n)])
    rhs = np.array([np.sum(xs * ys ** j) for j in range(n)])
    return LinearSystem(n, matrix, rhs)


def _split_samples(samples: list[MidpointSample], degree: int) -> tuple[np.ndarray, np.ndarray]:
    if degree not in (1, 2):
        raise ParameterError(f"axis degree must be 1 or 2, got {degree}")
    if len(samples) < degree + 1:
        raise GeometryError(
            f"need at least {degree + 1} midpoint samples for degree {degree}, got {len(samples)}"
        )
    ys = np.array([s.y for s in samples], dtype=np.float64)
    xs = np.array([s.x_mid for s in samples], dtype=np.float64)
    return ys, xs


def _det(a: np.ndarray, n: int) -> float:
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def solve_cramer(system: LinearSystem) -> np.ndarray:
    """Solve A x = b by determinant ratios (direct expansion, n <= 3)."""
    n = system.n
    if n < 1 or n > 3:
        raise ParameterError(f"Cramer solver handles n in 1..3, got {n}")
    a = np.asarray(system.matrix, dtype=np.float64).reshape(n, n)
    b = np.asarray(system.rhs, dtype=np.float64).reshape(n)
    det = _det(a, n)
    scale = max(1.0, float(np.abs(a).max()) ** n)
    if abs(det) <= 1e-12 * scale:
        raise SingularSystemError("singular system: degenerate midpoint geometry")
    solution = np.empty(n)
    for i in range(n):
        ai = a.copy()
        ai[:, i] = b
        solution[i] = _det(ai, n) / det
    return solution


def fit_axis_lsm(samples: list[MidpointSample], degree: int) -> SymmetryAxis:
    """Least-squares polynomial fit of the midpoints, solved by Cramer.

    The normal equations are formed in a centered and scaled row
    coordinate t = (y - mean) / spread. Raw row indices would push the
    degree-2 moment matrix into the solver's relative-singularity guard
    on tall images; the transform solves the identical least-squares
    problem at condition numbers near 1, and the coefficients are
    expanded back to the raw row basis exactly.
    """
    ys, xs = _split_samples(samples, degree)
    center = float(np.mean(ys))
    spread = float(np.max(np.abs(ys - center)))
    if spread == 0.0:
        spread = 1.0
    ts = (ys - center) / spread
    coeffs = solve_cramer(_normal_equations(ts, xs, degree))
    if degree == 1:
        a0, a1 = coeffs
        raw = (a0 - a1 * center / spread, a1 / spread)
    else:
        a0, a1, a2 = coeffs
        raw = (
            a0 - a1 * center / spread + a2 * center * center / (spread * spread),
            a1 / spread - 2.0 * a2 * center / (spread * spread),
            a2 / (spread * spread),
        )
    return SymmetryAxis(degree, tuple(float(c) for c in raw))


def residual_rms(axis: SymmetryAxis, samples: list[MidpointSample]) -> float:
    """Root-mean-square residual of the samples against the axis."""
    if not samples:
        raise ParameterError("residual_rms needs at least one sample")
    ys = np.array([s.y for s in samples], dtype=np.float64)
    xs = np.array([s.x_mid for s in samples], dtype=np.float64)
    res = xs - axis.at(ys)
    return float(np.sqrt(np.mean(res * res)))


def reflect_x(axis: SymmetryAxis, x, y):
    """Mirror a column about the axis within its row: x' = 2 x_axis(y) - x."""
    return 2.0 * axis.at(y) - np.asarray(x, dtype=np.float64)
