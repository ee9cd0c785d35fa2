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
    """Binary edge raster; doubles as a generic pixel mask elsewhere."""

    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mask", np.ascontiguousarray(self.mask, dtype=bool))

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def _shifted(padded: np.ndarray, dy: int, dx: int, shape: tuple[int, int]) -> np.ndarray:
    h, w = shape
    return padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]


def gradient_raster(values: np.ndarray, operator: str) -> GradientField:
    """Gradient of a float raster; see gradient() for the uint8 wrapper."""
    a = np.asarray(values, dtype=np.float64)
    if operator in ("sobel", "prewitt"):
        side = 2.0 if operator == "sobel" else 1.0
        p = np.pad(a, 1, mode="reflect")

        def s(dy, dx):
            return _shifted(p, dy, dx, a.shape)

        gx = (s(-1, 1) + side * s(0, 1) + s(1, 1)) - (s(-1, -1) + side * s(0, -1) + s(1, -1))
        gy = (s(1, -1) + side * s(1, 0) + s(1, 1)) - (s(-1, -1) + side * s(-1, 0) + s(-1, 1))
    elif operator == "roberts":
        p = np.pad(a, ((0, 1), (0, 1)), mode="reflect")
        gx = p[:-1, :-1] - p[1:, 1:]
        gy = p[:-1, 1:] - p[1:, :-1]
    else:
        raise ParameterError(f"unknown operator {operator!r}; valid: {', '.join(OPERATORS)}")
    magnitude = np.hypot(gx, gy)
    orientation = np.arctan2(gy, gx)
    orientation = np.where(orientation == -np.pi, np.pi, orientation)
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

    Boundary angles go to the lower bin (22.5deg itself counts as bin 0).
    """
    a = np.degrees(orientation) % 180.0
    bins = np.full(a.shape, 3, dtype=np.int8)
    bins[(a <= 22.5) | (a > 157.5)] = 0
    bins[(a > 22.5) & (a <= 67.5)] = 1
    bins[(a > 67.5) & (a <= 112.5)] = 2
    return bins


def nonmax_suppress(field: GradientField) -> np.ndarray:
    """Keep pixels whose magnitude is >= both neighbors along the
    quantized gradient direction.

    Exact-tie plateau pairs would survive twice under >=; of such a pair
    only the lexicographically smallest (y, x) pixel is kept, so plateau
    edges stay one pixel thin.
    """
    mag = field.magnitude
    bins = _direction_bins(field.orientation)
    pm = np.pad(mag, 1, mode="constant", constant_values=0.0)
    shape = mag.shape
    east = _shifted(pm, 0, 1, shape)
    west = _shifted(pm, 0, -1, shape)
    south = _shifted(pm, 1, 0, shape)
    north = _shifted(pm, -1, 0, shape)
    se = _shifted(pm, 1, 1, shape)
    nw = _shifted(pm, -1, -1, shape)
    sw = _shifted(pm, 1, -1, shape)
    ne = _shifted(pm, -1, 1, shape)

    choices = [bins == 0, bins == 1, bins == 2, bins == 3]
    fwd = np.select(choices, [east, se, south, sw])
    bwd = np.select(choices, [west, nw, north, ne])
    survivors = (mag >= fwd) & (mag >= bwd)

    # tie rule: suppress a survivor whose lexicographically-preceding
    # direction neighbor (the backward one in every bin) is a tied survivor
    ps = np.pad(survivors, 1, mode="constant", constant_values=False)
    prev_surv = np.select(
        choices,
        [
            _shifted(ps, 0, -1, shape),
            _shifted(ps, -1, -1, shape),
            _shifted(ps, -1, 0, shape),
            _shifted(ps, -1, 1, shape),
        ],
        default=False,
    )
    suppressed = survivors & prev_surv & (mag == bwd)
    return survivors & ~suppressed


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
    if not strong.any():
        return EdgeMap(np.zeros(img.pixels.shape, dtype=bool))
    labels, _ = ndimage.label(weak, structure=EIGHT_CONNECTED)
    keep = np.unique(labels[strong])
    return EdgeMap(np.isin(labels, keep) & weak)


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


def count_edges(edge_map: EdgeMap) -> int:
    """Number of marked pixels."""
    return edge_map.count
