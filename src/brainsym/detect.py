"""Mirror-asymmetry scoring and tumor-candidate extraction.

Edge pixels whose mirror image (across the fitted axis) also lands on an
edge are treated as anatomy and suppressed; unmatched edge pixels are
kept, closed into blobs and measured. Every mask after Canny's EdgeMap
(unmatched edges, the closed map) is a plain bool array. Reported areas
are 2-D quantities of a single slice (pixels and mm^2); no volume is
estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .edges import EIGHT_CONNECTED, EdgeMap, canny
from .errors import BrainsymError, ParameterError, PipelineError
from .imaging import (
    GrayImage,
    RgbImage,
    _gaussian_radius,
    contrast_stretch,
    gaussian_smooth,
    median_filter,
    round_half_away,
)
from .symmetry import SymmetryAxis, brain_mask, fit_axis_lsm, reflect_x, row_midpoints

VERDICT_FOUND = "found"
VERDICT_NOT_FOUND = "not-found"
NOT_FOUND_MESSAGE = "Possible tumor area are not found"

# overlay palette, fixed so outputs are byte-stable
AXIS_COLOR = (0, 255, 0)
REGION_COLOR = (255, 0, 0)
BBOX_COLOR = (0, 0, 255)


@dataclass(frozen=True)
class Region:
    """One 8-connected candidate blob with exact geometry."""

    pixels: frozenset
    area_px: int
    bbox: tuple[int, int, int, int]      # xmin, ymin, xmax, ymax
    centroid: tuple[float, float]        # fractional (x, y)


@dataclass(frozen=True, eq=False)
class DetectionResult:
    width: int
    height: int
    axis: SymmetryAxis
    regions: list[Region]
    total_area_px: int
    total_area_mm2: float
    verdict: str
    message: str | None
    edge_count: int


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the detection pipeline, with its default."""

    sigma: float = 1.0
    median_window: int = 3          # 0 skips the median stage
    contrast: bool = True
    canny_low: float = 0.10
    canny_high: float = 0.20
    axis_degree: int = 1
    min_span_frac: float = 0.10     # of image width
    mirror_tol: int = 2             # Chebyshev pixels
    closing_radius: int = 2
    min_area: int | None = None     # None: ceil(w*h/2621)
    pixel_spacing: float = 1.0      # mm per pixel

    def __post_init__(self):
        _gaussian_radius(self.sigma)
        if self.median_window != 0 and (self.median_window < 3 or self.median_window % 2 == 0):
            raise ParameterError(f"median_window must be 0 or odd >= 3, got {self.median_window}")
        if not (0.0 < self.canny_low < self.canny_high < 1.0):
            raise ParameterError(
                f"canny thresholds must satisfy 0 < low < high < 1, "
                f"got low={self.canny_low} high={self.canny_high}"
            )
        if self.axis_degree not in (1, 2):
            raise ParameterError(f"axis_degree must be 1 or 2, got {self.axis_degree}")
        if not (0.0 <= self.min_span_frac <= 1.0):
            raise ParameterError(f"min_span_frac must lie in [0, 1], got {self.min_span_frac}")
        if self.mirror_tol < 0:
            raise ParameterError(f"mirror_tol must be >= 0, got {self.mirror_tol}")
        if self.closing_radius < 0:
            raise ParameterError(f"closing_radius must be >= 0, got {self.closing_radius}")
        if self.min_area is not None and self.min_area < 1:
            raise ParameterError(f"min_area must be >= 1, got {self.min_area}")
        if not 0 < self.pixel_spacing < math.inf:
            raise ParameterError(f"pixel_spacing must be finite and > 0, got {self.pixel_spacing}")


def auto_min_area(width: int, height: int) -> int:
    """Area floor scaled with raster size (25-ish pixels at 256x256)."""
    return math.ceil(width * height / 2621)


def _bbox(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """Rows y0:y1 and columns x0:x1 of the smallest box holding every set
    pixel, as (y0, y1, x0, x1); None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def asymmetry_map(edges: EdgeMap, axis: SymmetryAxis, tol: int) -> np.ndarray:
    """Bool mask of the edge pixels with nothing edged within Chebyshev
    distance tol of their mirror position (rounded half away).

    A mirror column landing outside the raster counts as unmatched. The
    match test is a lookup in the edge pixels' flat indices, which
    np.flatnonzero gives sorted: a row offset dy matches a mirror (y, m)
    when some index lies in [r w + max(m - tol, 0), r w + min(m + tol,
    w - 1)] with r = y + dy on the raster, which two binary searches
    decide. That is exactly the (2 tol + 1)^2 window test. Offsets are
    tried nearest first (0, -1, 1, ...), and a pixel leaves the search
    once matched, so the cost follows the edge count, not the raster.
    tol is clamped to max(height, width): the window then holds the
    pixel's whole row, so every mirror on the raster matches at dy = 0.
    """
    if tol < 0:
        raise ParameterError(f"tol must be >= 0, got {tol}")
    mask = edges.mask
    height, width = mask.shape
    unmatched = np.zeros((height, width), dtype=bool)
    flat = np.flatnonzero(mask)
    ys, xs = np.divmod(flat, width)
    mirror = round_half_away(reflect_x(axis, xs, ys)).astype(np.int64)
    in_bounds = (mirror >= 0) & (mirror < width)
    tol = min(tol, max(height, width))
    pending = np.flatnonzero(in_bounds)
    rows = ys[pending]
    lo = np.maximum(mirror[pending] - tol, 0)
    hi = np.minimum(mirror[pending] + tol, width - 1)
    for dy in sorted(range(-tol, tol + 1), key=abs):     # 0, -1, 1, -2, ...
        if pending.size == 0:
            break
        r = rows + dy
        base = r * width
        hit = ((r >= 0) & (r < height)
               & (np.searchsorted(flat, base + hi, "right") > np.searchsorted(flat, base + lo, "left")))
        miss = ~hit
        pending, rows, lo, hi = pending[miss], rows[miss], lo[miss], hi[miss]
    unmatched.flat[flat[~in_bounds]] = True
    unmatched.flat[flat[pending]] = True
    return unmatched


def close_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological closing of a bool mask with a (2 radius + 1)^2 square
    element, as on an unbounded plane, so border blobs close as they
    would away from the border; radius 0 returns a copy.

    Only the mask's bounding box is filtered, padded by radius with
    False, and written into a zeroed raster. That is exact: a pixel
    outside the box lies on the far edge of some square that misses the
    box, so it is never closed; a pixel inside reads the dilation within
    the box +- radius, which is the padded frame, and the mask is empty
    outside the box. ndimage.grey_closing with a plain size runs the
    dilation and erosion as separable running max/min filters (van Herk
    1992; Gil & Werman 1993), O(1) per pixel whatever the radius, with
    False outside the frame. The radius is clamped to max(height,
    width): the closing of a mask that fits in the raster no longer
    changes beyond that, and the clamp bounds the padded frame.
    """
    if radius < 0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    radius = min(radius, max(mask.shape))
    closed = np.zeros(mask.shape, dtype=bool)
    box = _bbox(mask)
    if box is None:
        return closed
    y0, y1, x0, x1 = box
    work = np.pad(mask[y0:y1, x0:x1], radius, mode="constant", constant_values=False)
    work = ndimage.grey_closing(work, size=2 * radius + 1, mode="constant")
    closed[y0:y1, x0:x1] = work[radius:radius + y1 - y0, radius:radius + x1 - x0]
    return closed


def connected_components(mask: np.ndarray, min_area: int) -> list[Region]:
    """8-connected foreground components with area >= min_area.

    Sorted by area descending, ties by (ymin, xmin). Only the mask's
    bounding box is labeled; a crop keeps raster-scan order, so labels
    come out in the same order as on the whole raster. value_indices
    gives the labels in ascending order, each one's pixels in raster
    order.
    """
    if min_area < 1:
        raise ParameterError(f"min_area must be >= 1, got {min_area}")
    m = np.asarray(mask, dtype=bool)
    box = _bbox(m)
    if box is None:
        return []
    y0, y1, x0, x1 = box
    crop = m[y0:y1, x0:x1]
    labels, _ = ndimage.label(crop, structure=EIGHT_CONNECTED)
    regions = []
    for ys, xs in ndimage.value_indices(labels, ignore_value=0).values():
        if ys.size >= min_area:
            ry, rx = ys + y0, xs + x0
            regions.append(
                Region(
                    pixels=frozenset(zip(rx.tolist(), ry.tolist())),
                    area_px=int(ys.size),
                    bbox=(int(rx.min()), int(ry.min()), int(rx.max()), int(ry.max())),
                    centroid=(float(rx.mean()), float(ry.mean())),
                )
            )
    regions.sort(key=lambda r: (-r.area_px, r.bbox[1], r.bbox[0]))
    return regions


def measure(regions: list[Region], pixel_spacing: float) -> tuple[int, float]:
    """Total candidate area in pixels and mm^2 (spacing is mm per pixel).

    A total that is not finite (an overflowing or infinite spacing) is a
    ParameterError, so no report ever holds NaN or Infinity.
    """
    if not pixel_spacing > 0:
        raise ParameterError(f"pixel_spacing must be > 0, got {pixel_spacing}")
    total_px = sum(r.area_px for r in regions)
    total_mm2 = total_px * pixel_spacing * pixel_spacing
    if not math.isfinite(total_mm2):
        raise ParameterError(
            f"total area of {total_px} px at pixel_spacing {pixel_spacing} is not finite")
    return total_px, total_mm2


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except BrainsymError as exc:
        raise PipelineError(name, str(exc)) from exc


def preprocess(img: GrayImage, config: PipelineConfig) -> GrayImage:
    """Smooth, optionally median-filter, optionally contrast-stretch."""
    work = _stage("smooth", gaussian_smooth, img, config.sigma)
    if config.median_window:
        work = _stage("median", median_filter, work, config.median_window)
    if config.contrast:
        work = _stage("contrast", contrast_stretch, work)
    return work


def fit_image_axis(pre: GrayImage, config: PipelineConfig) -> SymmetryAxis:
    """Brain mask, row midpoints and the polynomial fit, on a
    preprocessed image."""
    mask = _stage("brain_mask", brain_mask, pre)
    min_span = max(1, int(round_half_away(config.min_span_frac * pre.width)))
    samples = _stage("midpoints", row_midpoints, mask, min_span, True)
    return _stage("fit_axis", fit_axis_lsm, samples, config.axis_degree)


def detect_pipeline(img: GrayImage, config: PipelineConfig | None = None) -> DetectionResult:
    """Run the whole detector on one grayscale image.

    Stage failures surface as PipelineError naming the stage. The verdict
    is not-found exactly when no candidate region survives, in which case
    the result carries the standard message text.
    """
    config = config or PipelineConfig()
    pre = preprocess(img, config)
    edge_map = _stage("canny", canny, pre, config.sigma, config.canny_low, config.canny_high)
    axis = fit_image_axis(pre, config)
    unmatched = _stage("asymmetry", asymmetry_map, edge_map, axis, config.mirror_tol)
    closed = _stage("closing", close_mask, unmatched, config.closing_radius)
    min_area = config.min_area if config.min_area is not None else auto_min_area(img.width, img.height)
    regions = _stage("components", connected_components, closed, min_area)
    total_px, total_mm2 = _stage("measure", measure, regions, config.pixel_spacing)
    found = bool(regions)
    return DetectionResult(
        width=img.width,
        height=img.height,
        axis=axis,
        regions=regions,
        total_area_px=total_px,
        total_area_mm2=total_mm2,
        verdict=VERDICT_FOUND if found else VERDICT_NOT_FOUND,
        message=None if found else NOT_FOUND_MESSAGE,
        edge_count=edge_map.count,
    )


def render_overlay(img: GrayImage, result: DetectionResult) -> RgbImage:
    """Color overlay: green axis, blue region bboxes, red region pixels.

    Drawn in that order, so region pixels paint over everything else.
    """
    return _paint_overlay(img, result.axis, result.regions)


def _paint_overlay(img: GrayImage, axis: SymmetryAxis, regions: list[Region]) -> RgbImage:
    rgb = np.repeat(img.pixels[:, :, None], 3, axis=2)
    height, width = img.pixels.shape
    rows = np.arange(height)
    cols = round_half_away(axis.at(rows)).astype(np.int64)
    ok = (cols >= 0) & (cols < width)
    rgb[rows[ok], cols[ok]] = AXIS_COLOR
    for region in regions:
        x0, y0, x1, y1 = region.bbox
        rgb[y0, x0:x1 + 1] = BBOX_COLOR
        rgb[y1, x0:x1 + 1] = BBOX_COLOR
        rgb[y0:y1 + 1, x0] = BBOX_COLOR
        rgb[y0:y1 + 1, x1] = BBOX_COLOR
    painted = np.array([p for region in regions for p in region.pixels], dtype=np.int64).reshape(-1, 2)
    rgb[painted[:, 1], painted[:, 0]] = REGION_COLOR
    return RgbImage(rgb)
