"""Spans recorded from the benchmark's own code around calls into brainsym.

`traced_image` runs the stages of `detect_pipeline` one by one, in its
order, through the public functions of each module, with a span around
each call. Its result must equal `detect_pipeline`'s on the same image;
otherwise the trace would be timing a different program.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from scipy import ndimage

from brainsym import (
    NOT_FOUND_MESSAGE,
    DetectionResult,
    auto_min_area,
    asymmetry_map,
    brain_mask,
    canny,
    close_mask,
    connected_components,
    contrast_stretch,
    fit_axis_lsm,
    gaussian_smooth,
    gradient_raster,
    load_netpbm,
    measure,
    median_filter,
    nonmax_suppress,
    render_overlay,
    residual_rms,
    round_half_away,
    row_midpoints,
    save_netpbm,
    smooth_raster,
)
from checks import median_or_nan

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


class Tracer:
    """In-memory spans: name, image id, parent span index, start, end (ns).

    All spans of one image share its image id. Set-up and each set-up
    sample give the phantom they generate an id of its own, and each probe
    pair (with its CLI input, on library workloads) has one too.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(dict)     # image id -> name -> value
        self.image = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.image, parent, time.perf_counter_ns(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][4] = time.perf_counter_ns()

    def count(self, name: str, value) -> None:
        self.counts[self.image][name] = value

    def self_ms(self) -> dict[str, dict]:
        """Per span name and image id, the summed self time in ms: each
        span's duration minus the time its child spans cover."""
        self_ns = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                self_ns[parent] -= end - start
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for (name, image, *_), ns in zip(self.spans, self_ns):
            out[name][image] += ns / 1e6
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, _, _, start, end in self.spans if n == name]

    def dump(self) -> list[dict]:
        return [dict(name=n, image=i, parent=p, start_ns=s, end_ns=e)
                for n, i, p, s, e in self.spans]


def traced_image(tr: Tracer, img, config) -> tuple[DetectionResult, object]:
    """detect_pipeline followed by render_overlay, stage by stage, with
    spans and per-stage counts."""
    with tr.span("image"):
        with tr.span("detect.pipeline"):
            with tr.span("imaging.gaussian_smooth"):
                pre = gaussian_smooth(img, config.sigma)
            if config.median_window:
                with tr.span("imaging.median_filter"):
                    pre = median_filter(pre, config.median_window)
            if config.contrast:
                with tr.span("imaging.contrast_stretch"):
                    pre = contrast_stretch(pre)
            with tr.span("edges.canny"):
                edge_map = canny(pre, config.sigma, config.canny_low, config.canny_high)
            with tr.span("symmetry.brain_mask"):
                mask = brain_mask(pre)
            min_span = max(1, int(round_half_away(config.min_span_frac * pre.width)))
            with tr.span("symmetry.row_midpoints"):
                samples = row_midpoints(mask, min_span, True)
            with tr.span("symmetry.fit_axis_lsm"):
                axis = fit_axis_lsm(samples, config.axis_degree)
            with tr.span("detect.asymmetry_map"):
                scores = asymmetry_map(edge_map, axis, config.mirror_tol)
            with tr.span("detect.close_mask"):
                closed = close_mask(scores, config.closing_radius)
            min_area = config.min_area if config.min_area is not None else auto_min_area(
                img.width, img.height)
            with tr.span("detect.connected_components"):
                regions = connected_components(closed, min_area)
            with tr.span("detect.measure"):
                total_px, total_mm2 = measure(regions, config.pixel_spacing)
            found = bool(regions)
            result = DetectionResult(
                width=img.width, height=img.height, axis=axis, regions=regions,
                total_area_px=total_px, total_area_mm2=total_mm2,
                verdict="found" if found else "not-found",
                message=None if found else NOT_FOUND_MESSAGE,
                edge_count=edge_map.count,
            )
        with tr.span("detect.render_overlay"):
            overlay = render_overlay(img, result)

    # Canny's substeps as standalone calls on the same preprocessed input;
    # threshold and hysteresis are what remains of the canny span.
    with tr.span("edges.smooth_raster"):
        smoothed = smooth_raster(pre.pixels, config.sigma)
    with tr.span("edges.gradient_raster"):
        field = gradient_raster(smoothed, "sobel")
    with tr.span("edges.nonmax_suppress"):
        survivors = nonmax_suppress(field)
    with tr.span("symmetry.residual_rms"):
        rms = residual_rms(axis, samples)

    max_mag = float(field.magnitude.max())
    weak = survivors & (field.magnitude >= config.canny_low * max_mag)
    strong = weak & (field.magnitude >= config.canny_high * max_mag)
    mask_px = np.asarray(getattr(mask, "mask", mask), dtype=bool)
    edges = int(edge_map.count)
    unmatched = int(np.count_nonzero(getattr(scores, "score", scores)))
    closed = np.asarray(closed, dtype=bool)
    tr.count("edges.nms_survivors", int(survivors.sum()))
    tr.count("edges.weak_px", int(weak.sum()))
    tr.count("edges.strong_px", int(strong.sum()))
    tr.count("edges.final_px", edges)
    tr.count("symmetry.mask_px", int(mask_px.sum()))
    tr.count("symmetry.rows_kept_frac", len(samples) / max(1, int(mask_px.any(axis=1).sum())))
    tr.count("symmetry.residual_rms_px", rms)
    tr.count("detect.matched_frac", (edges - unmatched) / edges if edges else 0.0)
    tr.count("detect.unmatched_px", unmatched)
    tr.count("detect.closed_px", int(closed.sum()))
    tr.count("detect.components", int(ndimage.label(closed, structure=_EIGHT_CONNECTED)[1]))
    tr.count("detect.regions_kept", len(regions))
    return result, overlay


def traced_io(tr: Tracer, pgm, overlay, overlay_path):
    """The CLI's file I/O for one image: load its input, save its overlay."""
    with tr.span("imaging.load_netpbm"):
        loaded = load_netpbm(pgm)
    with tr.span("imaging.save_netpbm"):
        save_netpbm(overlay, overlay_path)
    return loaded


def same_result(a: DetectionResult, b: DetectionResult) -> bool:
    """Axis coefficients, region pixel sets, areas, verdict and edge count."""
    def regions(r):
        return [(x.area_px, x.bbox, x.centroid, x.pixels) for x in r.regions]

    return (a.axis == b.axis and regions(a) == regions(b)
            and (a.total_area_px, a.total_area_mm2, a.verdict, a.message, a.edge_count)
            == (b.total_area_px, b.total_area_mm2, b.verdict, b.message, b.edge_count))


# per-layer time metrics: metric name -> span name (self time)
SPAN_METRICS = {
    "imaging.gaussian_smooth_ms": "imaging.gaussian_smooth",
    "imaging.median_filter_ms": "imaging.median_filter",
    "imaging.contrast_stretch_ms": "imaging.contrast_stretch",
    "imaging.load_netpbm_ms": "imaging.load_netpbm",
    "imaging.save_netpbm_ms": "imaging.save_netpbm",
    "edges.canny_ms": "edges.canny",
    "edges.smooth_raster_ms": "edges.smooth_raster",
    "edges.gradient_raster_ms": "edges.gradient_raster",
    "edges.nonmax_suppress_ms": "edges.nonmax_suppress",
    "symmetry.brain_mask_ms": "symmetry.brain_mask",
    "symmetry.row_midpoints_ms": "symmetry.row_midpoints",
    "symmetry.fit_axis_lsm_ms": "symmetry.fit_axis_lsm",
    "detect.asymmetry_map_ms": "detect.asymmetry_map",
    "detect.close_mask_ms": "detect.close_mask",
    "detect.connected_components_ms": "detect.connected_components",
    "detect.render_overlay_ms": "detect.render_overlay",
    "detect.glue_ms": "detect.pipeline",
    "phantom.generate_ms": "phantom.generate",
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-image medians of self times and counts over the traced images."""
    self_ms = tr.self_ms()
    out = {metric: median_or_nan(self_ms[span].values()) for metric, span in SPAN_METRICS.items()}
    out["detect.pipeline_ms"] = median_or_nan(tr.durations_ms("detect.pipeline"))
    substeps = ("edges.smooth_raster", "edges.gradient_raster", "edges.nonmax_suppress")
    out["edges.threshold_hysteresis_ms"] = median_or_nan(
        canny_ms - sum(self_ms[s][image] for s in substeps)
        for image, canny_ms in self_ms["edges.canny"].items()
    )
    names = {name for per_image in tr.counts.values() for name in per_image}
    for name in sorted(names):
        out[name] = median_or_nan(c[name] for c in tr.counts.values() if name in c)
    return out


# rows of the per-stage table: label -> span names whose self times add up
TABLE_ROWS = (
    ("detect_pipeline total", ("detect.pipeline",), "total"),
    ("gaussian_smooth", ("imaging.gaussian_smooth",), "self"),
    ("median_filter (3x3)", ("imaging.median_filter",), "self"),
    ("canny", ("edges.canny",), "self"),
    ("brain_mask + midpoints", ("symmetry.brain_mask", "symmetry.row_midpoints"), "self"),
    ("asymmetry_map", ("detect.asymmetry_map",), "self"),
    ("close_mask", ("detect.close_mask",), "self"),
    ("phantom generate", ("phantom.generate",), "self"),
)


def stage_table(tr: Tracer, size: int) -> list[str]:
    """Per-stage median and best time per image, one row per stage."""
    self_ms = tr.self_ms()
    lines = [f"stage (ms) at {size}^2          median     best"]
    for label, spans, kind in TABLE_ROWS:
        if kind == "total":
            values = tr.durations_ms(spans[0])
        else:
            images = set().union(*(self_ms[s].keys() for s in spans))
            values = [sum(self_ms[s].get(i, 0.0) for s in spans) for i in images]
        if values:
            lines.append(f"{label:<30} {statistics.median(values):8.1f} {min(values):8.1f}")
    return lines
