"""Gradient operators and the Canny edge detector.

Kernels are applied as correlations on reflected borders, in float64,
with no clamping. Orientation angles live in (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ParameterError
from .imaging import GrayImage, _block_rows, _smooth_blocks

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


def _sobel(p: np.ndarray, side: float, gx: np.ndarray, gy: np.ndarray) -> None:
    """gx and gy, into the given h x w arrays, of the raster that p
    reflect-pads by 1: central differences of [1, side, 1] sums, each sum
    taken as (p[-1] + side * p[0]) + p[+1], one sum at a time.

    p is C-contiguous with h + 2 rows and w + 2 or more columns; columns
    past w + 1 are ignored. The sums run on p's flat buffer, so each is one
    contiguous pass; a sum that reads across a row end is never used.
    """
    h, w = gx.shape
    stride = p.shape[1]
    f = p.ravel()
    sums, prod = np.empty(f.size), np.empty(f.size)
    size = h * stride
    np.multiply(f[stride:stride + size], side, out=prod[:size])
    np.add(f[:size], prod[:size], out=sums[:size])
    sums[:size] += f[2 * stride:]
    rows = sums[:size].reshape(h, stride)
    np.subtract(rows[:, 2:w + 2], rows[:, :w], out=gx)
    size = f.size - 2
    np.multiply(f[1:-1], side, out=prod[:size])
    np.add(f[:-2], prod[:size], out=sums[:size])
    sums[:size] += f[2:]
    rows = sums.reshape(h + 2, stride)
    np.subtract(rows[2:, :w], rows[:-2, :w], out=gy)


def _components(values: np.ndarray, operator: str) -> tuple[np.ndarray, np.ndarray]:
    """The gx and gy rasters of gradient_raster, as C-contiguous float64."""
    a = np.asarray(values, dtype=np.float64)
    if operator in ("sobel", "prewitt"):
        gx, gy = np.empty(a.shape), np.empty(a.shape)
        _sobel(np.pad(a, 1, mode="reflect"), 2.0 if operator == "sobel" else 1.0, gx, gy)
        return gx, gy
    if operator == "roberts":
        p = np.pad(a, ((0, 1), (0, 1)), mode="reflect")
        return p[:-1, :-1] - p[1:, 1:], p[:-1, 1:] - p[1:, :-1]
    raise ParameterError(f"unknown operator {operator!r}; valid: {', '.join(OPERATORS)}")


def _orientation(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """arctan2(gy, gx) with -pi folded to pi, so angles lie in (-pi, pi]."""
    orientation = np.arctan2(gy, gx)
    orientation[orientation == -np.pi] = np.pi
    return orientation


def gradient_raster(values: np.ndarray, operator: str) -> GradientField:
    """Gradient of a float raster; see gradient() for the uint8 wrapper."""
    gx, gy = _components(values, operator)
    return GradientField(gx, gy, np.hypot(gx, gy), _orientation(gx, gy))


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


def _suppress(centre, m, bins, width, padded, survived):
    """Non-maximum suppression with the (y, x) tie rule at the flat indices
    `centre` of a raster zero-padded by 1, `width` columns wide.

    `m` and `bins` are the magnitudes and direction bins at `centre`, and
    `padded` is the flat padded magnitude raster, 0 on the padding. In a
    padded row the forward neighbor of bin 0, 1, 2, 3 (east, south-east,
    south, south-west) is 1, width+1, width, width-1 flat elements on, and
    the backward one (west, north-west, north, north-east) as many back.
    The backward neighbor always precedes the pixel in (y, x) order, so
    the tie rule reads the flat bool `survived` at that index. Survivors
    are stored there before the lookup; each call must come after the
    calls for every earlier pixel whose survival it can read.
    """
    step = np.array([1, width + 1, width, width - 1], dtype=np.intp)[bins]
    back = centre - step
    bwd = padded.take(back)
    kept = (m >= padded.take(centre + step)) & (m >= bwd)
    survived[centre] = kept
    return kept & ~(survived[back] & (m == bwd))


def nonmax_suppress(field: GradientField) -> np.ndarray:
    """Keep pixels whose magnitude is >= both neighbors along the
    quantized gradient direction.

    Exact-tie plateau pairs would survive twice under >=; of such a pair
    only the lexicographically smallest (y, x) pixel is kept, so plateau
    edges stay one pixel thin.

    Both neighbors are read by one gather from the zero-padded magnitude
    (see _suppress), which copies the very values a per-bin selection
    picks. Rows go in blocks of _block_rows(width), in order, which bounds
    the intp index arrays; a block's tie lookup reads survivors of its own
    rows and the row above.
    """
    mag = field.magnitude
    h, w = mag.shape
    bins = _direction_bins(field.orientation)
    width = w + 2
    pm = np.pad(mag, 1, mode="constant", constant_values=0.0).ravel()
    survived = np.zeros(pm.size, dtype=bool)
    cols = np.arange(1, w + 1, dtype=np.intp)
    out = np.empty((h, w), dtype=bool)
    step = _block_rows(w)
    for y0 in range(0, h, step):
        y1 = min(y0 + step, h)
        centre = np.arange(y0 + 1, y1 + 1, dtype=np.intp)[:, None] * width + cols
        out[y0:y1] = _suppress(centre, mag[y0:y1], bins[y0:y1], width, pm, survived)
    return out


def _hypot_where(gx, gy, s, bound):
    """Flat indices and magnitudes of the pixels with s >= bound * (1 - 1e-9),
    or of every pixel when bound < 1e-300. With bound = low_frac**2 * max(s)
    this keeps the pixel of largest magnitude and every pixel whose
    magnitude reaches low_frac times that; see canny() for why."""
    if bound >= 1e-300:
        idx = np.flatnonzero(s >= bound * (1.0 - 1e-9))
    else:
        idx = np.arange(s.size)
    return idx, np.hypot(gx.take(idx), gy.take(idx))


def canny(img: GrayImage, sigma: float, low_frac: float, high_frac: float) -> EdgeMap:
    """Canny detector: float-domain Gaussian smoothing, Sobel gradients,
    4-bin non-maximum suppression, double threshold and hysteresis.

    Thresholds are fractions of the per-image maximum gradient magnitude,
    ordered 0 < low_frac < high_frac < 1. Hysteresis keeps strong pixels
    plus weak pixels 8-connected to a strong one.

    The output is that of smooth_raster, gradient_raster, nonmax_suppress
    and the two thresholds on the full frame, but no full-frame float
    raster comes before the NMS: the full-frame arrays are the NMS
    candidate raster, the edge mask and the hysteresis labels. The
    smoothing, the Sobel sums and s = gx*gx + gy*gy run together in
    smooth_raster's row blocks, into block-sized buffers, each block
    smoothed with one reflected row above and below, as the same
    elementwise operations in the same order, so every value is the
    full-frame one; the smoothing sums its taps in kernel order and calls
    no BLAS, so no value depends on the CPU's BLAS kernel.

    Only pixels with magnitude >= low can be weak, so hypot, arctan2, the
    direction bins and the NMS run on candidates. Each block keeps, by
    _hypot_where, the pixels with s >= B_k (1 - 1e-9), or every pixel
    while B_k < 1e-300, for B_k = low_frac**2 * M_k and M_k the largest s
    of the blocks so far; for those it takes the flat index, hypot and
    direction bin. The full-frame pass with the final bound B =
    low_frac**2 * max(s) would keep the pixel of largest hypot, so max_mag
    is its magnitude, and every pixel reaching low, which an exact re-check
    keeps. The blocks keep all of those, and that re-check alone leaves
    exactly them:
    - M_k is at most the final maximum M, and rounded multiplication is
      monotone, so B_k (1 - 1e-9) <= B (1 - 1e-9), and every pixel the
      full-frame pass keeps is kept by its block.
    - A pixel that its block kept but the full-frame pass would not has
      s < B (1 - 1e-9), so, as below, its hypot is under low: the re-check
      drops it, and it cannot be the pixel of largest hypot, so no final
      filter on s is needed.
    - If B is under 1e-300, so is every B_k, and every pixel is kept.
    - The largest of the blocks' maxima is max(s), with no rounding.
    hypot and arctan2 run on contiguous gathered copies, and an elementwise
    loop gives each element the same result wherever it sits, so every
    value equals the full-frame one bit for bit. NMS reads neighbors from a
    zero-padded raster of the kept magnitudes, built once the block buffers
    are freed: any other pixel has hypot < low <= m, so like 0 it can
    neither beat nor tie a candidate (if low is 0, no pixel is left out).

    Why the guard keeps every pixel that matters. Let u = 2**-53, r the
    exact sqrt(gx**2 + gy**2) and e <= 8u the relative error of hypot (4
    ulps; libm's is within 1). The rounded squares and sum lose at most a
    relative 3u, plus an absolute 2**-1073 where a square or the sum is
    subnormal or 0. The pixel of largest hypot has r**2 >= (1 - 4e) times
    that of the pixel of largest s, so its s >= max(s) (1 - 4e - 6u) -
    2**-1072, and B <= max(s) as low_frac**2 < 1 rounds to at most 1. A
    pixel with hypot >= low has s >= low**2 (1 - 2e - 4u) - 2**-1073, and
    low**2 >= B (1 - 2e - 8u) - 2**-1073: low is low_frac times, rounded,
    a hypot at least (1 - e) times the largest r, whose square is at least
    max(s) (1 - 3u) - 2**-1073, and B is rounded twice. Both s are then
    >= B (1 - 4e - 12u) - 2**-1072. The guarded bound is at most
    B (1 - 1e-9 + 2u) once rounded, and 1e-9 exceeds 4e + 14u <= 46u by
    over 10**5. While B >= 1e-300 the slack, over 1e-310, also exceeds
    2**-1072 < 2e-323 by over 10**12. Below that, as when low_frac is
    tiny, s and B can be subnormal or 0, so every pixel is taken. Nothing
    overflows: smoothing keeps a uint8 image in [0, 255], so |gx|, |gy|
    <= 1020.
    """
    if not (0.0 < low_frac < high_frac < 1.0):
        raise ParameterError(
            f"thresholds must satisfy 0 < low < high < 1, got low={low_frac} high={high_frac}"
        )
    h, w = img.pixels.shape
    step = min(_block_rows(w), h)
    gx_buf, gy_buf, s_buf = np.empty((step, w)), np.empty((step, w)), np.empty((step, w))
    top = 0.0
    parts = []
    for y0, y1, block in _smooth_blocks(img.pixels, sigma, pad=1):
        gx, gy, s = gx_buf[:y1 - y0], gy_buf[:y1 - y0], s_buf[:y1 - y0]
        _sobel(block, 2.0, gx, gy)
        np.multiply(gx, gx, out=s)
        np.add(s, gy * gy, out=s)
        top = max(top, float(s.max()))
        i, m = _hypot_where(gx, gy, s, low_frac * low_frac * top)
        parts.append((i + y0 * w, m, _direction_bins(_orientation(gx.take(i), gy.take(i)))))
    # freed before the NMS, whose peak would otherwise hold them too
    del gx_buf, gy_buf, s_buf, gx, gy, s, block, i
    idx, m, bins = (np.concatenate(p) for p in zip(*parts))
    del parts
    max_mag = float(m.max())
    if max_mag == 0.0:
        return EdgeMap(np.zeros((h, w), dtype=bool))
    reach = m >= low_frac * max_mag
    idx, m, bins = idx[reach], m[reach], bins[reach]
    # pixel y * w + x sits at (y + 1) * (w + 2) + x + 1 in the padded raster
    centre = idx + 2 * (idx // w) + (w + 3)
    padded = np.zeros((h + 2) * (w + 2))
    padded[centre] = m
    kept = _suppress(centre, m, bins, w + 2, padded, np.zeros(padded.size, dtype=bool))
    weak, strong = idx[kept], idx[kept & (m >= high_frac * max_mag)]
    mask = np.zeros(h * w, dtype=bool)
    mask[weak] = True
    labels, count = ndimage.label(mask.reshape(h, w), structure=EIGHT_CONNECTED)
    labels = labels.ravel()
    keep = np.zeros(count + 1, dtype=bool)
    keep[labels[strong]] = True
    mask[weak] = keep[labels[weak]]
    return EdgeMap(mask.reshape(h, w))


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
