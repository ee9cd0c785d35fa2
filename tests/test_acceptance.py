"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import ndimage

from brainsym import (
    GrayImage,
    LesionSpec,
    PhantomSpec,
    PipelineConfig,
    canny,
    contrast_stretch,
    detect_pipeline,
    fit_image_axis,
    gaussian_kernel,
    gaussian_smooth,
    generate,
    gradient,
    median_filter,
    preprocess,
    solve_cramer,
    threshold_edges,
)
from brainsym.detect import asymmetry_map, connected_components
from brainsym.edges import EdgeMap
from brainsym.symmetry import SymmetryAxis

from oracles import brute_asymmetry, flood_fill_components, gauss_eliminate


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}" + (f" ({detail})" if detail else ""),
          flush=True)
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_zero_false_positives():
    start = time.perf_counter()
    bad = []
    for seed in range(1, 101):
        img, _ = generate(PhantomSpec(seed=seed))
        result = detect_pipeline(img)
        if result.verdict != "not-found" or result.message != "Possible tumor area are not found":
            bad.append(seed)
    elapsed = time.perf_counter() - start
    report(1, "zero false positives on 100 symmetric phantoms",
           not bad and elapsed < 30.0,
           f"{100 - len(bad)}/100 not-found, {elapsed:.1f}s")


def test_criterion_02_lesion_detection():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    found = 0
    centroid_ok = True
    for i in range(100):
        radius = int(rng.integers(10, 15))
        dx = int(rng.integers(30, 61)) * (1 if rng.random() < 0.5 else -1)
        cy = int(rng.integers(98, 159))
        delta = int(rng.integers(60, 81))
        lesion = LesionSpec(center_dx=dx, center_y=cy, radius=radius, delta=delta)
        img, _ = generate(PhantomSpec(seed=1000 + i, lesion=lesion))
        result = detect_pipeline(img)
        if result.verdict == "found":
            found += 1
            cx_true, cy_true = 128 + dx, cy
            cx, cyc = result.regions[0].centroid
            if (cx - cx_true) ** 2 + (cyc - cy_true) ** 2 > radius ** 2:
                centroid_ok = False
    elapsed = time.perf_counter() - start
    report(2, "lesions detected with centroids on target",
           found >= 95 and centroid_ok and elapsed < 60.0,
           f"found {found}/100, centroids ok: {centroid_ok}, {elapsed:.1f}s")


def test_criterion_03_axis_recovery():
    cfg = PipelineConfig()
    worst_c0 = 0.0
    worst_c1 = 0.0
    for seed in range(300, 350):
        img, truth = generate(PhantomSpec(seed=seed))
        axis = fit_image_axis(preprocess(img, cfg), cfg)
        worst_c0 = max(worst_c0, abs(axis.coeffs[0] - truth.axis_column))
        worst_c1 = max(worst_c1, abs(axis.coeffs[1]))
    report(3, "axis recovered on 50 symmetric phantoms",
           worst_c0 <= 0.5 and worst_c1 <= 0.01,
           f"max |c0-128|={worst_c0:.2e}, max |c1|={worst_c1:.2e}")


def test_criterion_04_cramer_against_elimination():
    rng = np.random.default_rng(44)
    checked = 0
    worst_rel = 0.0
    worst_res = 0.0
    while checked < 1000:
        n = 2 + checked % 2
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(a) >= 1e6:
            continue
        b = rng.uniform(-1.0, 1.0, size=n)
        x = solve_cramer(a, b)
        ref = gauss_eliminate(a, b)
        rel = np.max(np.abs(x - ref)) / max(1.0, np.max(np.abs(ref)))
        res = np.max(np.abs(a @ x - b)) / max(1.0, np.max(np.abs(b)))
        worst_rel = max(worst_rel, rel)
        worst_res = max(worst_res, res)
        checked += 1
    report(4, "Cramer matches elimination on 1000 systems",
           worst_rel <= 1e-9 and worst_res <= 1e-9,
           f"max rel err {worst_rel:.2e}, max residual {worst_res:.2e}")


def test_criterion_05_canny_thinness():
    step = np.zeros((32, 32), dtype=np.uint8)
    step[:, 16:] = 255
    em = canny(GrayImage(step), 1.0, 0.1, 0.2)
    per_row = em.mask.sum(axis=1)
    flat = canny(GrayImage(np.full((32, 32), 70, dtype=np.uint8)), 1.0, 0.1, 0.2)
    report(5, "one edge pixel per row on the ideal step; none on constants",
           bool(np.all(per_row == 1)) and flat.count == 0,
           f"per-row counts {sorted(set(per_row.tolist()))}, constant count {flat.count}")


def test_criterion_06_mirror_matching_oracle():
    rng = np.random.default_rng(66)
    mismatches = 0
    for _ in range(200):
        h = int(rng.integers(8, 24))
        w = int(rng.integers(12, 40))
        mask = rng.random((h, w)) < float(rng.uniform(0.01, 0.08))
        axis = SymmetryAxis(1, (float(rng.uniform(2, w - 2)), float(rng.uniform(-0.4, 0.4))))
        tol = int(rng.integers(0, 4))
        got = asymmetry_map(EdgeMap(mask), axis, tol)
        if not np.array_equal(got, brute_asymmetry(mask, axis, tol)):
            mismatches += 1
    report(6, "asymmetry scores equal brute-force matcher on 200 maps",
           mismatches == 0, f"{mismatches} mismatching maps")


def test_criterion_07_component_oracle():
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(200):
        h = int(rng.integers(6, 30))
        w = int(rng.integers(6, 30))
        mask = rng.random((h, w)) < float(rng.uniform(0.15, 0.65))
        min_area = int(rng.integers(1, 5))
        regions = connected_components(mask, min_area)
        expected = [c for c in flood_fill_components(mask) if len(c) >= min_area]
        if {r.pixels for r in regions} != {frozenset(c) for c in expected}:
            mismatches += 1
            continue
        for region in regions:
            xs = [p[0] for p in region.pixels]
            ys = [p[1] for p in region.pixels]
            if region.area_px != len(region.pixels):
                mismatches += 1
            elif region.bbox != (min(xs), min(ys), max(xs), max(ys)):
                mismatches += 1
    report(7, "components equal flood-fill oracle on 200 masks",
           mismatches == 0, f"{mismatches} mismatches")


def test_criterion_08_filter_properties():
    kernel_ok = all(abs(gaussian_kernel(s).sum() - 1.0) < 1e-12 for s in (0.5, 1.0, 1.8, 3.0))
    constant_ok = True
    for sigma in (0.5, 1.0, 2.0):
        for value in (0, 17, 255):
            img = GrayImage(np.full((11, 9), value, dtype=np.uint8))
            if not np.array_equal(gaussian_smooth(img, sigma).pixels, img.pixels):
                constant_ok = False

    median_ok = True
    field = np.full((9, 9), 40, dtype=np.uint8)
    for y in range(9):
        for x in range(9):
            img = field.copy()
            img[y, x] = 250
            out = median_filter(GrayImage(img), 3)
            if not np.all(out.pixels == 40):
                median_ok = False

    rng = np.random.default_rng(88)
    contrast_ok = True
    for _ in range(20):
        raw = rng.integers(10, 240, size=(10, 10), dtype=np.uint8)
        if raw.min() == raw.max():
            continue
        out = contrast_stretch(GrayImage(raw)).pixels
        if out.min() != 0 or out.max() != 255:
            contrast_ok = False
        order = np.argsort(raw.ravel(), kind="stable")
        if np.any(np.diff(out.ravel()[order].astype(int)) < 0):
            contrast_ok = False

    report(8, "filter properties (gaussian, median, contrast)",
           kernel_ok and constant_ok and median_ok and contrast_ok,
           f"kernel {kernel_ok}, constants {constant_ok}, median {median_ok}, "
           f"contrast {contrast_ok}")


def _contour_distance(spec):
    w, h = spec.width, spec.height
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ys, xs = np.ogrid[0:h, 0:w]
    ellipse = ((xs - cx) / spec.semi_axis_x) ** 2 + ((ys - cy) / spec.semi_axis_y) ** 2 <= 1.0
    contour = ellipse & ~ndimage.binary_erosion(ellipse)
    return ndimage.distance_transform_edt(~contour)


def test_criterion_09_operator_noise_comparison():
    wins = 0
    for seed in range(900, 950):
        spec = PhantomSpec(seed=seed, noise_amplitude=30)
        img, _ = generate(spec)
        dist = _contour_distance(spec)

        def spurious(mask):
            total = int(mask.sum())
            return (mask & (dist > 3.0)).sum() / total if total else 0.0

        frac_canny = spurious(canny(img, 1.0, 0.1, 0.2).mask)
        frac_prewitt = spurious(threshold_edges(gradient(img, "prewitt"), 0.2).mask)
        frac_roberts = spurious(threshold_edges(gradient(img, "roberts"), 0.2).mask)
        if frac_canny < frac_prewitt and frac_canny < frac_roberts:
            wins += 1
    report(9, "canny strictly lowest spurious-edge fraction under noise",
           wins >= 45, f"{wins}/50 trials")


def test_criterion_10_cli_determinism(tmp_path):
    phantom_path = tmp_path / "input.pgm"
    proc = subprocess.run(
        [sys.executable, "-m", "brainsym", "phantom", "-o", str(phantom_path),
         "--seed", "31", "--lesion"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    outputs = []
    for run in ("r1", "r2"):
        outdir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "brainsym", "detect", str(phantom_path), "-d", str(outdir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (
                (outdir / "input.report.json").read_bytes(),
                (outdir / "input.overlay.ppm").read_bytes(),
            )
        )
    identical = outputs[0] == outputs[1]
    verdict = json.loads(outputs[0][0])["verdict"]
    report(10, "repeated cmd_detect runs are byte-identical",
           identical and verdict == "found",
           f"identical: {identical}, verdict: {verdict}")
