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

from ._runs import label_mask, run_pixels
from .errors import GeometryError, ParameterError, SingularSystemError, _require_int
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
    The blobs are labeled from the thresholded mask's row runs (see
    _runs); of equal-size largest blobs the one whose first pixel comes
    first in raster order is kept. The other blobs' runs are cleared from
    the mask, so the work follows the run count and the cleared pixels.
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
    starts, lengths, first = label_mask(mask)
    # argmax takes the first of equal sizes, the blob whose first run comes first
    largest = np.argmax(np.bincount(first, weights=lengths))
    drop = first != largest
    mask.ravel()[run_pixels(starts[drop], lengths[drop], mask.shape[1])] = False
    return mask


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
    min_span = _require_int("min_span", min_span)
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


def _det(a: list[list[float]]) -> float:
    """Determinant of a square nested list of floats, by Laplace
    expansion along the first row down to 1x1 minors.

    For n = 2 and 3 this forms the textbook products and adds them in
    the textbook order: a00 a11 - a01 a10, and a00 M0 - a01 M1 + a02 M2
    with the 2x2 minors Mj. Each sum is a plain left fold from -0.0, the
    identity of IEEE addition, so a zero determinant keeps its sign (a
    start of 0 would turn -0.0 into 0.0); the builtin sum() compensates
    its rounding from Python 3.12 on and would not give these bits. A
    k x k minor is at most k! m**k in size, m the largest absolute
    entry, so every product a0j Mj and every partial sum is at most
    n! m**n: the bound solve_cramer checks.
    """
    if len(a) == 1:
        return a[0][0]
    d = -0.0
    for j in range(len(a)):
        d += (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
    return d


def solve_cramer(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = b by determinant ratios (direct expansion, n <= 3).

    n is the length of rhs; matrix must be n x n. Entries must be finite,
    and small enough that n! m**n, m the largest absolute entry of matrix
    and rhs, does not overflow. Every determinant is one Laplace
    expansion (_det) on the entries as nested lists of Python floats.
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
    rows = a.tolist()
    det = _det(rows)
    scale = max(1.0, float(np.abs(a).max()) ** n)
    if abs(det) <= 1e-12 * scale:
        raise SingularSystemError("singular system: degenerate midpoint geometry")
    # x_i = det(A with column i replaced by b) / det(A)
    return np.array([_det([r[:i] + [c] + r[i + 1:] for r, c in zip(rows, b.tolist())]) / det
                     for i in range(n)])


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
    degree = _require_int("degree", degree)
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
    # a spread whose square is subnormal can overflow the expansion
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (
            a0 - a1 * center / spread + a2 * center * center / (spread * spread),
            a1 / spread - 2.0 * a2 * center / (spread * spread),
            a2 / (spread * spread),
        )
    coeffs = tuple(float(c) for c in raw[:degree + 1])
    if not all(map(math.isfinite, coeffs)):
        raise GeometryError(f"axis coefficients are not finite for sample rows spanning {spread:g}")
    return SymmetryAxis(degree, coeffs)


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
