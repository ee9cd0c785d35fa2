"""Output checks, the per-workload output digest and ground-truth quality.

Quality is scored from what a user of the tool sees: the verdict, the
region centroids, ``total_area_px`` and the overlay, whose pure-red
pixels are exactly the union of region pixels (region pixels are painted
last, and a gray input never holds pure red).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

import numpy as np

from brainsym import NOT_FOUND_MESSAGE, DetectionResult

REGION_RED = (255, 0, 0)


def median_or_nan(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def verdict_problems(verdict: str, n_regions: int, message) -> list[str]:
    """The verdict is `found` exactly when there are regions, and the
    standard message appears exactly on `not-found`."""
    problems = []
    if (verdict == "found") != (n_regions > 0) or verdict not in ("found", "not-found"):
        problems.append(f"verdict {verdict!r} with {n_regions} regions")
    if (message == NOT_FOUND_MESSAGE) != (verdict == "not-found"):
        problems.append(f"message {message!r} with verdict {verdict!r}")
    return problems


def result_problems(result: DetectionResult) -> list[str]:
    return verdict_problems(result.verdict, len(result.regions), result.message)


def canonical_report(result: DetectionResult) -> bytes:
    """Full-precision report of a library result, for the digest."""
    doc = {
        "size": [result.width, result.height],
        "axis": [result.axis.degree, [repr(float(c)) for c in result.axis.coeffs]],
        "regions": [[r.area_px, list(r.bbox), [repr(float(c)) for c in r.centroid]]
                    for r in result.regions],
        "total_area_px": result.total_area_px,
        "total_area_mm2": repr(float(result.total_area_mm2)),
        "verdict": result.verdict,
        "message": result.message,
        "edge_count": result.edge_count,
    }
    return json.dumps(doc, sort_keys=True).encode()


def cli_report_problems(report: dict, result: DetectionResult) -> list[str]:
    """A CLI report against the in-process result on the same image.

    The report prints floats to 6 significant digits, so the axis
    coefficients are compared to that precision.
    """
    problems = verdict_problems(report.get("verdict"), len(report.get("regions", [])),
                                report.get("message"))
    for key, want in (("verdict", result.verdict), ("total_area_px", result.total_area_px),
                      ("edge_count", result.edge_count)):
        if report.get(key) != want:
            problems.append(f"{key} {report.get(key)!r} != in-process {want!r}")
    axis = report.get("axis", {})
    coeffs = axis.get("coeffs", [])
    want = result.axis.coeffs
    same_axis = (axis.get("degree") == result.axis.degree and len(coeffs) == len(want)
                 and all(math.isclose(a, b, rel_tol=1e-5, abs_tol=1e-9)
                         for a, b in zip(coeffs, want)))
    if not same_axis:
        problems.append(f"axis {axis!r} != in-process {result.axis!r}")
    return problems


class Digest:
    """sha256 over every pool image's report and overlay, in pool order,
    plus a check that later passes over the pool reproduce the same bytes."""

    def __init__(self):
        self._first: dict[int, str] = {}

    def add(self, index: int, report: bytes, overlay: bytes) -> bool:
        """Record one output; False when it differs from an earlier pass."""
        h = hashlib.sha256(report)
        h.update(overlay)
        digest = h.hexdigest()
        return self._first.setdefault(index, digest) == digest

    def hexdigest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self._first):
            h.update(self._first[index].encode())
        return h.hexdigest()


class Quality:
    """Detection quality against `GroundTruth.lesion_mask`, one entry per
    distinct pool image."""

    def __init__(self):
        self._seen: set[int] = set()
        self.hits: list[bool] = []
        self.dice: list[float] = []
        self.area_error: list[float] = []
        self.false_positive: list[bool] = []

    def add(self, index: int, lesion_mask: np.ndarray, verdict: str, centroids,
            total_area_px: int, overlay: np.ndarray) -> None:
        if index in self._seen:
            return
        self._seen.add(index)
        if not lesion_mask.any():
            self.false_positive.append(verdict == "found")
            return
        h, w = lesion_mask.shape
        hit = False
        for cx, cy in centroids:
            x, y = math.floor(cx + 0.5), math.floor(cy + 0.5)
            hit = hit or (0 <= x < w and 0 <= y < h and bool(lesion_mask[y, x]))
        self.hits.append(hit)
        regions = np.all(overlay == REGION_RED, axis=2)
        truth = int(lesion_mask.sum())
        overlap = int(np.count_nonzero(regions & lesion_mask))
        self.dice.append(2.0 * overlap / (int(regions.sum()) + truth))
        self.area_error.append(abs(total_area_px / truth - 1.0))

    def metrics(self) -> dict[str, float]:
        def frac(flags):
            return sum(flags) / len(flags) if flags else float("nan")

        return {
            "lesion_recall": frac(self.hits),
            "false_positive_frac": frac(self.false_positive),
            "dice_median": median_or_nan(self.dice),
            "area_error_median": median_or_nan(self.area_error),
        }
