"""Mirror-asymmetry scoring and tumor-candidate extraction.

Edge pixels whose mirror image (across the fitted axis) also lands on an
edge are treated as anatomy and suppressed; unmatched edge pixels are
kept, closed into blobs and measured. Reported areas are 2-D quantities
of a single slice (pixels and mm^2); no volume is estimated.
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


@dataclass(frozen=True, eq=False)
class AsymmetryMap:
    """Per-pixel scores in {0, 1}; 1 marks an unmatched (asymmetric) edge."""

    score: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "score", np.ascontiguousarray(self.score, dtype=np.uint8))

    @property
    def width(self) -> int:
        return self.score.shape[1]

    @property
    def height(self) -> int:
        return self.score.shape[0]


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
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
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
        if not self.pixel_spacing > 0:
            raise ParameterError(f"pixel_spacing must be > 0, got {self.pixel_spacing}")


def auto_min_area(width: int, height: int) -> int:
    """Area floor scaled with raster size (25-ish pixels at 256x256)."""
    return math.ceil(width * height / 2621)


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Max over the (2 radius + 1)^2 square around each pixel; outside is False.

    Separable: a running max along rows, then along columns, each O(1)
    per pixel (van Herk 1992; Gil & Werman 1993).
    """
    size = 2 * radius + 1
    rows = ndimage.maximum_filter1d(mask, size, axis=0, mode="constant", cval=0)
    return ndimage.maximum_filter1d(rows, size, axis=1, mode="constant", cval=0)


def _erode(mask: np.ndarray, radius: int) -> np.ndarray:
    """Min over the (2 radius + 1)^2 square around each pixel; outside is False."""
    size = 2 * radius + 1
    rows = ndimage.minimum_filter1d(mask, size, axis=0, mode="constant", cval=0)
    return ndimage.minimum_filter1d(rows, size, axis=1, mode="constant", cval=0)


def asymmetry_map(edges: EdgeMap, axis: SymmetryAxis, tol: int) -> AsymmetryMap:
    """Score each edge pixel 1 if nothing edges within Chebyshev distance
    tol of its mirror position (rounded half away), else 0.

    A mirror column landing outside the raster counts as unmatched. The
    match test reads one dilation of the edge mask, done as separable
    running maxima; tol is clamped to max(height, width), where the
    dilation already covers the whole raster, so the result is the same
    and the cost stays bounded.
    """
    if tol < 0:
        raise ParameterError(f"tol must be >= 0, got {tol}")
    mask = edges.mask
    height, width = mask.shape
    score = np.zeros((height, width), dtype=np.uint8)
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return AsymmetryMap(score)
    mirror = round_half_away(reflect_x(axis, xs, ys)).astype(np.int64)
    in_bounds = (mirror >= 0) & (mirror < width)
    matched = np.zeros(ys.size, dtype=bool)
    if in_bounds.any():
        reach = _dilate(mask, min(tol, max(height, width)))
        matched[in_bounds] = reach[ys[in_bounds], mirror[in_bounds]]
    keep = ~matched
    score[ys[keep], xs[keep]] = 1
    return AsymmetryMap(score)


def close_mask(scores: AsymmetryMap | np.ndarray, radius: int) -> np.ndarray:
    """Morphological closing with a (2 radius + 1)^2 square element.

    Computed on a padded working frame so border blobs behave exactly as
    on an unbounded plane; radius 0 is the identity. Dilation and erosion
    are separable running max/min filters, O(1) per pixel whatever the
    radius. The radius is clamped to max(height, width): the closing of
    a mask that fits in the raster no longer changes beyond that, and the
    clamp bounds the padded frame.
    """
    if radius < 0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    mask = scores.score > 0 if isinstance(scores, AsymmetryMap) else np.asarray(scores, dtype=bool)
    radius = min(radius, max(mask.shape))
    if radius == 0:
        return mask.copy()
    extended = np.pad(mask, radius, mode="constant", constant_values=False)
    closed = _erode(_dilate(extended, radius), radius)
    return closed[radius:-radius, radius:-radius]


def connected_components(mask: np.ndarray, min_area: int) -> list[Region]:
    """8-connected foreground components with area >= min_area.

    Sorted by area descending, ties by (ymin, xmin).
    """
    if min_area < 1:
        raise ParameterError(f"min_area must be >= 1, got {min_area}")
    m = np.asarray(mask, dtype=bool)
    labels, count = ndimage.label(m, structure=EIGHT_CONNECTED)
    if count == 0:
        return []
    ys, xs = np.nonzero(m)
    pixel_labels = labels[ys, xs]
    order = np.argsort(pixel_labels, kind="stable")
    ys, xs, pixel_labels = ys[order], xs[order], pixel_labels[order]
    sizes = np.bincount(pixel_labels, minlength=count + 1)
    regions = []
    start = 0
    for label_id in range(1, count + 1):
        stop = start + int(sizes[label_id])
        if sizes[label_id] >= min_area:
            ry, rx = ys[start:stop], xs[start:stop]
            regions.append(
                Region(
                    pixels=frozenset(zip((int(x) for x in rx), (int(y) for y in ry))),
                    area_px=int(sizes[label_id]),
                    bbox=(int(rx.min()), int(ry.min()), int(rx.max()), int(ry.max())),
                    centroid=(float(rx.mean()), float(ry.mean())),
                )
            )
        start = stop
    regions.sort(key=lambda r: (-r.area_px, r.bbox[1], r.bbox[0]))
    return regions


def measure(regions: list[Region], pixel_spacing: float) -> tuple[int, float]:
    """Total candidate area in pixels and mm^2 (spacing is mm per pixel)."""
    if not pixel_spacing > 0:
        raise ParameterError(f"pixel_spacing must be > 0, got {pixel_spacing}")
    total_px = sum(r.area_px for r in regions)
    return total_px, total_px * pixel_spacing * pixel_spacing


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
    scores = _stage("asymmetry", asymmetry_map, edge_map, axis, config.mirror_tol)
    closed = _stage("closing", close_mask, scores, config.closing_radius)
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
    rgb = np.repeat(img.pixels[:, :, None], 3, axis=2).copy()
    height, width = img.pixels.shape
    rows = np.arange(height)
    cols = round_half_away(result.axis.at(rows)).astype(np.int64)
    ok = (cols >= 0) & (cols < width)
    rgb[rows[ok], cols[ok]] = AXIS_COLOR
    for region in result.regions:
        x0, y0, x1, y1 = region.bbox
        rgb[y0, x0:x1 + 1] = BBOX_COLOR
        rgb[y1, x0:x1 + 1] = BBOX_COLOR
        rgb[y0:y1 + 1, x0] = BBOX_COLOR
        rgb[y0:y1 + 1, x1] = BBOX_COLOR
    for region in result.regions:
        for x, y in region.pixels:
            rgb[y, x] = REGION_COLOR
    return RgbImage(rgb)
