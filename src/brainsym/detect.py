"""Mirror-asymmetry scoring and tumor-candidate extraction.

Edge pixels whose mirror image (across the fitted axis) also lands on an
edge are treated as anatomy and suppressed; unmatched edge pixels are
kept, closed into blobs whose holes are filled, so a lesion's edge ring
becomes the lesion, and measured. Every mask after Canny's EdgeMap
(unmatched edges, the closed map) is a plain bool array. Reported areas
are 2-D quantities of a single slice (pixels and mm^2); no volume is
estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._runs import label_mask, run_pixels
from .edges import EdgeMap, _check_thresholds, canny
from .errors import (BrainsymError, ParameterError, PipelineError, _require_fields, _require_int,
                     _require_real)
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
        _require_fields(self, _require_int, "median_window", "axis_degree", mirror_tol=0, closing_radius=0)
        _require_fields(self, _require_real, "sigma", "canny_low", "canny_high", "min_span_frac", "pixel_spacing")
        if self.min_area is not None:
            _require_fields(self, _require_real, min_area=1)
        if not isinstance(self.contrast, (bool, np.bool_)):
            raise ParameterError(f"contrast must be a bool, got {self.contrast!r}")
        object.__setattr__(self, "contrast", bool(self.contrast))
        _gaussian_radius(self.sigma)
        if self.median_window != 0 and (self.median_window < 3 or self.median_window % 2 == 0):
            raise ParameterError(f"median_window must be 0 or odd >= 3, got {self.median_window}")
        _check_thresholds(self.canny_low, self.canny_high)
        if self.axis_degree not in (1, 2):
            raise ParameterError(f"axis_degree must be 1 or 2, got {self.axis_degree}")
        if not (0.0 <= self.min_span_frac <= 1.0):
            raise ParameterError(f"min_span_frac must lie in [0, 1], got {self.min_span_frac}")
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
    mask = edges.mask
    height, width = mask.shape
    tol = min(_require_int("tol", tol, 0), max(height, width))
    unmatched = np.zeros((height, width), dtype=bool)
    flat = np.flatnonzero(mask)
    ys, xs = np.divmod(flat, width)
    mirror = round_half_away(reflect_x(axis, xs, ys)).astype(np.int64)
    in_bounds = (mirror >= 0) & (mirror < width)
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


def _spread(a: np.ndarray, radius: int, op) -> np.ndarray:
    """op over the (2 radius + 1)^2 window centred on every entry of a 2-D
    array, with False read beyond its edges.

    Each axis takes passes whose windows grow geometrically: windows of
    half-width k joined with the ones j <= 2 k + 1 entries to either side
    have half-width k + j, so a radius takes O(log radius) passes.
    """
    for axis in (0, 1):
        k = 0
        while k < radius:
            j = min(2 * k + 1, radius - k)
            before = (slice(None),) * axis + (slice(None, -j),)
            after = (slice(None),) * axis + (slice(j, None),)
            b = a.copy()
            op(b[after], a[before], out=b[after])
            op(b[before], a[after], out=b[before])
            a = b
            k += j
    return a


def close_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological closing of a bool mask with a (2 radius + 1)^2 square
    element, as on an unbounded plane, so border blobs close as they
    would away from the border, with its holes filled: a lesion's closed
    edge ring comes out as the lesion. Radius 0 fills the mask's holes.

    Only the mask's bounding box is filtered, padded by radius + 1 with
    False, and written into a zeroed raster. That is exact: a pixel
    outside the box lies on the far edge of some square that misses the
    box, so it is never closed; a pixel inside reads the dilation within
    the box +- radius, inside the padded frame, and the mask is empty
    outside the box. The dilation is an OR and the erosion an AND over
    every window, by _spread. The False it reads beyond the frame is
    exact for the dilation: while a window's half-width k is below the
    radius, a window centred beyond the frame covers only padding. The
    erosion's windows around box pixels never leave the frame, and
    outside the box it can only clear what is never closed, so the
    frame's edge stays False. The radius is clamped to max(height,
    width): the closing of a mask that fits in the raster no longer
    changes beyond that, and the clamp bounds the padded frame.

    A hole is a pixel the 4-connected background cannot reach from the
    raster's border (Soille, Morphological Image Analysis, 2003, hole
    filling by reconstruction from the border). Every background pixel
    off the box reaches the border in a straight line, so the holes are
    the frame's background components that miss its False edge, whose
    first run, run 0, holds the outside.
    """
    radius = min(_require_int("radius", radius, 0), max(mask.shape))
    closed = np.zeros(mask.shape, dtype=bool)
    box = _bbox(mask)
    if box is None:
        return closed
    y0, y1, x0, x1 = box
    pad = radius + 1
    work = np.pad(mask[y0:y1, x0:x1], pad, mode="constant", constant_values=False)
    work = _spread(_spread(work, radius, np.logical_or), radius, np.logical_and)
    starts, lengths, first = label_mask(~work, four=True)
    hole = first > 0
    work.flat[run_pixels(starts[hole], lengths[hole], work.shape[1])] = True
    closed[y0:y1, x0:x1] = work[pad:pad + y1 - y0, pad:pad + x1 - x0]
    return closed


def connected_components(mask: np.ndarray, min_area: int) -> list[Region]:
    """8-connected foreground components with area >= min_area.

    Sorted by area descending, ties by (ymin, xmin). Only the mask's
    bounding box is labeled, from its row runs (see _runs); a crop keeps
    raster-scan order, so the components come in the order of their
    first pixels, as on the whole raster, and each one's pixels are
    listed in raster order.
    """
    m = np.asarray(mask, dtype=bool)
    # no component outgrows the mask, so a larger floor keeps none either,
    # and the float areas compare with no int beyond the float range
    min_area = min(_require_real("min_area", min_area, 1), m.size + 1)
    box = _bbox(m)
    if box is None:
        return []
    y0, y1, x0, x1 = box
    starts, lengths, first = label_mask(m[y0:y1, x0:x1])
    area = np.bincount(first, weights=lengths)      # by first run, 0 for other runs
    kept = area >= min_area
    # a stable sort on the first run groups each component's runs, in raster order
    runs = np.flatnonzero(kept[first])
    runs = runs[np.argsort(first[runs], kind="stable")]
    ys, xs = np.divmod(run_pixels(starts[runs], lengths[runs], x1 - x0).astype(np.intp), x1 - x0)
    ys += y0
    xs += x0
    # split after each kept component; the last piece is empty
    bounds = np.cumsum(area[kept]).astype(np.intp)
    regions = []
    for ry, rx in zip(np.split(ys, bounds)[:-1], np.split(xs, bounds)[:-1]):
        regions.append(
            Region(
                pixels=frozenset(zip(rx.tolist(), ry.tolist())),
                area_px=int(ry.size),
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
    pixel_spacing = _require_real("pixel_spacing", pixel_spacing)
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
    """Smooth, optionally median-filter, optionally contrast-stretch.

    Neither filter may reach farther than max(height, width, 512) // 16
    pixels: a sixteenth of the larger side, and 32 up to a 527 px side.
    The smoothing reaches ceil(3 sigma), the median median_window // 2;
    past the limit, a ParameterError is raised before any stage runs,
    since the smoothing's reflect pad and the median's O(8 N window²)
    rank select grow with the reach, whatever the raster and however far
    past the limit.
    """
    limit = max(*img.pixels.shape, 512) // 16
    reaches = {"sigma": _gaussian_radius(config.sigma), "median_window": config.median_window // 2}
    for name, reach in reaches.items():
        if reach > limit:
            raise ParameterError(f"{name} {getattr(config, name)} reaches {reach} px, past the "
                                 f"{limit} px limit of a {img.width}x{img.height} raster")
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
    img must have the result's height and width.
    """
    if img.pixels.shape != (result.height, result.width):
        raise ParameterError(
            f"overlay image is {img.width}x{img.height}, "
            f"the result is {result.width}x{result.height}"
        )
    return _paint_overlay(img, result.axis, result.regions)


def _paint_overlay(img: GrayImage, axis: SymmetryAxis, regions: list[Region]) -> RgbImage:
    rgb = np.stack((img.pixels,) * 3, axis=2)
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
    # every region pixel's x and y in turn: x0, y0, x1, y1, ...
    xy = np.fromiter(chain.from_iterable(chain.from_iterable(r.pixels for r in regions)), dtype=np.int64)
    rgb[xy[1::2], xy[0::2]] = REGION_COLOR
    return RgbImage(rgb)
