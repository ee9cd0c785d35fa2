"""Bilateral symmetry axis estimation.

The axis is a low-degree polynomial x(y) fitted to per-row midpoints of
the brain foreground mask (a plain bool array), through least-squares
normal equations solved with Cramer's rule (n <= 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import ndimage

from .edges import EIGHT_CONNECTED
from .errors import GeometryError, ParameterError, SingularSystemError
from .imaging import _BLOCK_ROWS, GrayImage, round_half_away


@dataclass(frozen=True)
class SymmetryAxis:
    """Polynomial axis x(y) = sum(coeffs[i] * y**i), degree 1 or 2."""

    degree: int
    coeffs: tuple[float, ...]

    def at(self, y):
        """Evaluate x(y) by Horner's rule; accepts scalars or arrays."""
        return polyval(np.asarray(y, dtype=np.float64), self.coeffs)


def brain_mask(img: GrayImage) -> np.ndarray:
    """Bool foreground mask: Otsu threshold, then the largest 8-connected blob.

    The threshold t maximizes the between-class variance of the split
    {v < t} / {v >= t} over the 256-bin histogram; ties pick the smallest t.
    """
    pixels = img.pixels
    # bincount copies its input to intp, so it counts one block of rows at a time
    hist = np.zeros(256, dtype=np.intp)
    for y0 in range(0, pixels.shape[0], _BLOCK_ROWS):
        hist += np.bincount(pixels[y0:y0 + _BLOCK_ROWS].ravel(), minlength=256)
    hist = hist.astype(np.float64)
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
    if count == 1:  # the only label is 1, so labels == 1 is the mask itself
        return mask
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    sizes[0] = 0
    return labels == int(np.argmax(sizes))


def row_midpoints(
    mask: np.ndarray,
    min_span: int,
    require_mid_on_mask: bool = False,
) -> np.ndarray:
    """Per-row midpoints of the horizontal extent of a bool mask, as an
    (n, 2) float64 array of (y, x_mid) rows, x_mid = (xl + xr) / 2.

    Rows with no foreground, or whose span xr - xl (rightmost minus
    leftmost foreground column) falls below min_span, are dropped. With
    require_mid_on_mask, rows whose midpoint pixel is not itself
    foreground are dropped too; the detection pipeline enables this to
    reject rows where the extent straddles disjoint lobes.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[1] == 0:      # argmax needs at least one column
        return np.empty((0, 2))
    ys = np.arange(mask.shape[0])
    xl = np.argmax(mask, axis=1)
    xr = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
    keep = mask[ys, xl] & (xr - xl >= min_span)
    ys, x_mid = ys[keep], (xl[keep] + xr[keep]) / 2.0
    if require_mid_on_mask:
        on_mask = mask[ys, round_half_away(x_mid).astype(np.intp)]
        ys, x_mid = ys[on_mask], x_mid[on_mask]
    return np.column_stack((ys, x_mid))


def _sample_columns(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The y and x_mid columns of an (n, 2) midpoint array."""
    if not isinstance(samples, np.ndarray) or samples.ndim != 2 or samples.shape[1] != 2:
        raise ParameterError("midpoint samples must be an (n, 2) array of (y, x_mid) rows")
    return samples[:, 0].astype(np.float64), samples[:, 1].astype(np.float64)


def _normal_equations(ys: np.ndarray, xs: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares normal equations for x(y) of the given degree, as
    (matrix, rhs): M[j][k] = sum(y**(j+k)), rhs[j] = sum(x * y**j)."""
    n = degree + 1
    powers = [np.sum(ys ** p) for p in range(2 * n - 1)]
    matrix = np.array([[powers[j + k] for k in range(n)] for j in range(n)])
    rhs = np.array([np.sum(xs * ys ** j) for j in range(n)])
    return matrix, rhs


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


def solve_cramer(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = b by determinant ratios (direct expansion, n <= 3).

    n is the length of rhs; matrix must be n x n. Entries must be finite,
    and small enough that n! m**n, m the largest absolute entry of matrix
    and rhs, does not overflow.
    """
    a = np.asarray(matrix, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    n = b.shape[0] if b.ndim == 1 else 0
    if n < 1 or n > 3:
        raise ParameterError(f"Cramer solver handles 1-D rhs of length 1..3, got shape {b.shape}")
    if a.shape != (n, n):
        raise ParameterError(f"Cramer matrix must be {n}x{n}, got shape {a.shape}")
    # every determinant taken, and every partial product and sum in _det,
    # is at most n! m**n in size; a NaN m fails the compare too
    m = float(np.abs(np.concatenate((a.ravel(), b))).max())
    if not math.prod([m] * n, start=math.factorial(n)) < math.inf:
        raise ParameterError(f"Cramer system needs finite entries and a finite n! m**n, "
                             f"m the largest absolute entry; got m = {m:g}")
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


def fit_axis_lsm(samples: np.ndarray, degree: int) -> SymmetryAxis:
    """Least-squares polynomial fit of (n, 2) (y, x_mid) midpoints,
    solved by Cramer.

    The normal equations are formed in a centered and scaled row
    coordinate t = (y - mean) / spread. Raw row indices would push the
    degree-2 moment matrix into the solver's relative-singularity guard
    on tall images; the transform solves the identical least-squares
    problem at condition numbers near 1, and the coefficients are
    expanded back to the raw row basis exactly.
    """
    if degree not in (1, 2):
        raise ParameterError(f"axis degree must be 1 or 2, got {degree}")
    ys, xs = _sample_columns(samples)
    if ys.size < degree + 1:
        raise GeometryError(
            f"need at least {degree + 1} midpoint samples for degree {degree}, got {ys.size}"
        )
    center = float(np.mean(ys))
    spread = float(np.max(np.abs(ys - center)))
    if spread * spread == 0.0:  # the expansion below divides by it
        spread = 1.0
    ts = (ys - center) / spread
    # a line is the parabola with a2 = 0
    a0, a1, a2 = (*solve_cramer(*_normal_equations(ts, xs, degree)), 0.0)[:3]
    raw = (
        a0 - a1 * center / spread + a2 * center * center / (spread * spread),
        a1 / spread - 2.0 * a2 * center / (spread * spread),
        a2 / (spread * spread),
    )
    return SymmetryAxis(degree, tuple(float(c) for c in raw[:degree + 1]))


def residual_rms(axis: SymmetryAxis, samples: np.ndarray) -> float:
    """Root-mean-square residual of (n, 2) (y, x_mid) samples against the axis."""
    ys, xs = _sample_columns(samples)
    if ys.size == 0:
        raise ParameterError("residual_rms needs at least one sample")
    res = xs - axis.at(ys)
    return float(np.sqrt(np.mean(res * res)))


def reflect_x(axis: SymmetryAxis, x, y):
    """Mirror a column about the axis within its row: x' = 2 x_axis(y) - x."""
    return 2.0 * axis.at(y) - np.asarray(x, dtype=np.float64)
