"""Gradient operators and the Canny edge detector.

Kernels are applied as correlations on reflected borders, in float64,
with no clamping. Orientation angles live in (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ParameterError
from .imaging import GrayImage, smooth_raster

OPERATORS = ("sobel", "prewitt", "roberts")

EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True, eq=False)
class GradientField:
    """Per-pixel gradient components, magnitude and orientation (radians)."""

    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray
    orientation: np.ndarray


@dataclass(frozen=True, eq=False)
class EdgeMap:
    """Binary edge raster, the result of canny() and threshold_edges().

    Masks further down the pipeline are plain bool arrays.
    """

    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mask", np.ascontiguousarray(self.mask, dtype=bool))

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def gradient_raster(values: np.ndarray, operator: str) -> GradientField:
    """Gradient of a float raster; see gradient() for the uint8 wrapper."""
    a = np.asarray(values, dtype=np.float64)
    if operator in ("sobel", "prewitt"):
        side = 2.0 if operator == "sobel" else 1.0
        p = np.pad(a, 1, mode="reflect")
        # central differences of [1, side, 1] sums (the 3x3 additions, in order), one sum at a time
        sums = p[:-2] + side * p[1:-1]
        sums += p[2:]
        gx = sums[:, 2:] - sums[:, :-2]
        sums = p[:, :-2] + side * p[:, 1:-1]
        sums += p[:, 2:]
        gy = sums[2:] - sums[:-2]
        del sums
    elif operator == "roberts":
        p = np.pad(a, ((0, 1), (0, 1)), mode="reflect")
        gx = p[:-1, :-1] - p[1:, 1:]
        gy = p[:-1, 1:] - p[1:, :-1]
    else:
        raise ParameterError(f"unknown operator {operator!r}; valid: {', '.join(OPERATORS)}")
    magnitude = np.hypot(gx, gy)
    orientation = np.arctan2(gy, gx)
    orientation[orientation == -np.pi] = np.pi
    return GradientField(gx, gy, magnitude, orientation)


def gradient(img: GrayImage, operator: str) -> GradientField:
    """Apply sobel, prewitt or roberts to an 8-bit image.

    Sobel gx is [[-1,0,1],[-2,0,2],[-1,0,1]] and gy its transpose; prewitt
    uses unit side weights; roberts is the diagonal 2x2 pair anchored at
    the top-left pixel.
    """
    if operator not in OPERATORS:
        raise ParameterError(f"unknown operator {operator!r}; valid: {', '.join(OPERATORS)}")
    min_side = 2 if operator == "roberts" else 3
    if img.height < min_side or img.width < min_side:
        raise ParameterError(
            f"{operator} needs at least {min_side}x{min_side} pixels, "
            f"got {img.width}x{img.height}"
        )
    return gradient_raster(img.pixels, operator)


def _direction_bins(orientation: np.ndarray) -> np.ndarray:
    """Quantize gradient directions to 4 bins: 0=0deg, 1=45, 2=90, 3=135.

    The angle a in degrees is folded onto [0, 180] and the bin is the
    number of the bounds 22.5, 67.5, 112.5 and 157.5 that a exceeds,
    modulo 4. Boundary angles go to the lower bin (22.5deg itself counts
    as bin 0), and (157.5, 180] wraps to bin 0.

    The fold gives the same bin as the plain ``a % 180.0`` for every a in
    (-180, 180] degrees, the orientation range. For -180 < a < 0 numpy's
    float remainder is fmod(a, 180), which is a itself, plus the divisor:
    fl(a + 180), the very sum taken here. For 0 <= a < 180 both leave a
    as it is. They part only at a = 180, which % maps to 0 and this keeps
    at 180, at a = -180 (np.degrees of an angle just above -pi), where
    both give 0, and at a = -0.0, which % maps to +0.0; all of these land
    in bin 0, 180 because it exceeds all four bounds and 4 & 3 = 0.
    """
    a = np.degrees(orientation)
    np.add(a, 180.0, out=a, where=a < 0)
    bins = (a > 22.5).view(np.int8)
    for bound in (67.5, 112.5, 157.5):
        bins += (a > bound).view(np.int8)
    bins &= 3
    return bins


# rows per block in nonmax_suppress: bounds its intp index arrays
_NMS_BLOCK_ROWS = 64


def nonmax_suppress(field: GradientField) -> np.ndarray:
    """Keep pixels whose magnitude is >= both neighbors along the
    quantized gradient direction.

    Exact-tie plateau pairs would survive twice under >=; of such a pair
    only the lexicographically smallest (y, x) pixel is kept, so plateau
    edges stay one pixel thin.

    Both neighbors are read by one gather from the zero-padded magnitude:
    in a padded row of width W the forward neighbor of bin 0, 1, 2, 3
    (east, south-east, south, south-west) is 1, W+1, W, W-1 flat elements
    on, and the backward one (west, north-west, north, north-east) as many
    back. The gather copies the very values a per-bin selection picks, so
    the comparisons and the output are the same. The backward neighbor
    always precedes the pixel in (y, x) order, so the tie rule reads the
    padded survivors at that same backward index. Rows go in blocks of
    _NMS_BLOCK_ROWS: a block's survivors are stored before its tie lookup,
    which reads only its own rows and the row above.
    """
    mag = field.magnitude
    h, w = mag.shape
    bins = _direction_bins(field.orientation)
    width = w + 2
    steps = np.array([1, width + 1, width, width - 1], dtype=np.intp)
    pm = np.pad(mag, 1, mode="constant", constant_values=0.0).ravel()
    ps = np.zeros((h + 2, width), dtype=bool)
    cols = np.arange(1, w + 1, dtype=np.intp)
    out = np.empty((h, w), dtype=bool)
    for y0 in range(0, h, _NMS_BLOCK_ROWS):
        y1 = min(y0 + _NMS_BLOCK_ROWS, h)
        m = mag[y0:y1]
        step = steps[bins[y0:y1]]
        centre = np.arange(y0 + 1, y1 + 1, dtype=np.intp)[:, None] * width + cols
        back = centre - step
        bwd = pm[back]
        survivors = (m >= pm[centre + step]) & (m >= bwd)
        ps[y0 + 1:y1 + 1, 1:w + 1] = survivors
        out[y0:y1] = survivors & ~(ps.ravel()[back] & (m == bwd))
    return out


def canny(img: GrayImage, sigma: float, low_frac: float, high_frac: float) -> EdgeMap:
    """Canny detector: float-domain Gaussian smoothing, Sobel gradients,
    4-bin non-maximum suppression, double threshold and hysteresis.

    Thresholds are fractions of the per-image maximum gradient magnitude,
    ordered 0 < low_frac < high_frac < 1. Hysteresis keeps strong pixels
    plus weak pixels 8-connected to a strong one.
    """
    if not (0.0 < low_frac < high_frac < 1.0):
        raise ParameterError(
            f"thresholds must satisfy 0 < low < high < 1, got low={low_frac} high={high_frac}"
        )
    smoothed = smooth_raster(img.pixels, sigma)
    field = gradient_raster(smoothed, "sobel")
    survivors = nonmax_suppress(field)
    max_mag = float(field.magnitude.max())
    if max_mag == 0.0:
        return EdgeMap(np.zeros(img.pixels.shape, dtype=bool))
    low = low_frac * max_mag
    high = high_frac * max_mag
    weak = survivors & (field.magnitude >= low)
    strong = weak & (field.magnitude >= high)
    labels, count = ndimage.label(weak, structure=EIGHT_CONNECTED)
    keep = np.zeros(count + 1, dtype=bool)
    keep[labels[strong]] = True
    edges = np.zeros_like(weak)
    edges[weak] = keep[labels[weak]]  # weak pixels only: keep[labels] casts all to intp
    return EdgeMap(edges)


def threshold_edges(field: GradientField, frac: float) -> EdgeMap:
    """Mark pixels with magnitude >= frac * max magnitude.

    An all-zero field yields an empty map.
    """
    if not (0.0 < frac <= 1.0):
        raise ParameterError(f"frac must satisfy 0 < frac <= 1, got {frac}")
    max_mag = float(field.magnitude.max())
    if max_mag == 0.0:
        return EdgeMap(np.zeros(field.magnitude.shape, dtype=bool))
    return EdgeMap(field.magnitude >= frac * max_mag)
