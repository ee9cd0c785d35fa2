import numpy as np
import pytest

from brainsym import (
    EdgeMap,
    GrayImage,
    LesionSpec,
    NOT_FOUND_MESSAGE,
    ParameterError,
    PhantomSpec,
    PipelineConfig,
    PipelineError,
    Region,
    SymmetryAxis,
    asymmetry_map,
    auto_min_area,
    close_mask,
    connected_components,
    detect_pipeline,
    generate,
    measure,
    render_overlay,
)
from brainsym.detect import _dilate, _erode

from oracles import (
    brute_asymmetry,
    brute_close,
    brute_dilate,
    brute_erode,
    flood_fill_components,
)


def straight_axis(column):
    return SymmetryAxis(1, (float(column), 0.0))


# ---------------------------------------------------------------------------
# asymmetry scoring

def test_asymmetry_mirror_pair_suppressed():
    mask = np.zeros((11, 41), dtype=bool)
    mask[5, 10] = True
    mask[5, 30] = True
    scores = asymmetry_map(EdgeMap(mask), straight_axis(20), 1)
    assert scores.score.sum() == 0


def test_asymmetry_lone_pixel_enhanced():
    mask = np.zeros((11, 41), dtype=bool)
    mask[5, 10] = True
    scores = asymmetry_map(EdgeMap(mask), straight_axis(20), 1)
    assert scores.score[5, 10] == 1
    assert scores.score.sum() == 1


def test_asymmetry_mirror_out_of_bounds_is_unmatched():
    mask = np.zeros((5, 20), dtype=bool)
    mask[2, 1] = True                      # mirror lands at x = 37
    mask[2, 18] = True                     # close to where the mirror would be
    scores = asymmetry_map(EdgeMap(mask), straight_axis(19), 2)
    assert scores.score[2, 1] == 1


def test_asymmetry_scores_only_on_edges():
    rng = np.random.default_rng(61)
    mask = rng.random((15, 25)) < 0.1
    scores = asymmetry_map(EdgeMap(mask), straight_axis(12), 1)
    assert not np.any(scores.score.astype(bool) & ~mask)


def test_asymmetry_symmetric_map_all_zero():
    rng = np.random.default_rng(59)
    width = 41
    c = (width - 1) // 2
    for _ in range(5):
        half = rng.random((13, c + 1)) < 0.15
        mask = np.zeros((13, width), dtype=bool)
        mask[:, :c + 1] = half
        mask[:, c:] |= np.fliplr(half)
        scores = asymmetry_map(EdgeMap(mask), straight_axis(c), 1)
        assert scores.score.sum() == 0


def test_asymmetry_matches_brute_force():
    rng = np.random.default_rng(67)
    for _ in range(10):
        mask = rng.random((14, 26)) < 0.08
        axis = SymmetryAxis(1, (float(rng.uniform(5, 21)), float(rng.uniform(-0.3, 0.3))))
        tol = int(rng.integers(0, 4))
        got = asymmetry_map(EdgeMap(mask), axis, tol).score
        expected = brute_asymmetry(mask, axis, tol)
        assert np.array_equal(got, expected)


def test_asymmetry_tol_validation():
    with pytest.raises(ParameterError):
        asymmetry_map(EdgeMap(np.zeros((3, 3), dtype=bool)), straight_axis(1), -1)


# ---------------------------------------------------------------------------
# closing

def test_close_radius_zero_identity():
    rng = np.random.default_rng(71)
    mask = rng.random((9, 9)) < 0.3
    out = close_mask(mask, 0)
    assert np.array_equal(out, mask)
    assert out is not mask


def test_close_bridges_small_gap():
    mask = np.zeros((5, 9), dtype=bool)
    mask[2, 3] = True
    mask[2, 5] = True
    closed = close_mask(mask, 1)
    assert closed[2, 3] and closed[2, 4] and closed[2, 5]
    assert len(flood_fill_components(closed)) == 1


def test_close_is_extensive_and_idempotent():
    rng = np.random.default_rng(73)
    for radius in (1, 2):
        for _ in range(5):
            mask = rng.random((16, 18)) < 0.25
            once = close_mask(mask, radius)
            assert np.all(once[mask])
            assert np.array_equal(close_mask(once, radius), once)


def test_close_radius_validation():
    with pytest.raises(ParameterError):
        close_mask(np.zeros((3, 3), dtype=bool), -1)


def test_morphology_matches_brute_force():
    # 500 masks from 1x1 to 20x20; radii up to 25 often exceed the raster
    rng = np.random.default_rng(79)
    for _ in range(500):
        height, width = (int(v) for v in rng.integers(1, 21, size=2))
        mask = rng.random((height, width)) < rng.uniform(0.02, 0.6)
        radius = int(rng.integers(0, 26))
        assert np.array_equal(_dilate(mask, radius), brute_dilate(mask, radius))
        assert np.array_equal(_erode(mask, radius), brute_erode(mask, radius))
        assert np.array_equal(close_mask(mask, radius), brute_close(mask, radius))


def test_huge_radii_clamp_exactly():
    rng = np.random.default_rng(83)
    for _ in range(40):
        height, width = (int(v) for v in rng.integers(1, 13, size=2))
        mask = rng.random((height, width)) < rng.uniform(0.01, 0.2)
        beyond = max(height, width) + 5
        assert np.array_equal(close_mask(mask, 10**9), brute_close(mask, beyond))
        axis = SymmetryAxis(1, (float(rng.uniform(0, width)), float(rng.uniform(-0.3, 0.3))))
        got = asymmetry_map(EdgeMap(mask), axis, 10**9).score
        assert np.array_equal(got, brute_asymmetry(mask, axis, beyond))


# ---------------------------------------------------------------------------
# connected components

def test_components_empty():
    assert connected_components(np.zeros((5, 5), dtype=bool), 1) == []


def test_components_two_squares():
    mask = np.zeros((12, 12), dtype=bool)
    mask[1:4, 1:4] = True
    mask[7:10, 6:9] = True
    regions = connected_components(mask, 1)
    assert [r.area_px for r in regions] == [9, 9]
    # equal areas: ordered by (ymin, xmin)
    assert regions[0].bbox == (1, 1, 3, 3)
    assert regions[1].bbox == (6, 7, 8, 9)
    assert regions[0].centroid == (2.0, 2.0)


def test_components_min_area_filter():
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = True
    mask[4:7, 4:7] = True
    regions = connected_components(mask, 2)
    assert len(regions) == 1
    assert regions[0].area_px == 9


def test_components_match_flood_fill():
    rng = np.random.default_rng(79)
    for _ in range(10):
        mask = rng.random((15, 17)) < rng.uniform(0.2, 0.6)
        min_area = int(rng.integers(1, 4))
        regions = connected_components(mask, min_area)
        expected = [c for c in flood_fill_components(mask) if len(c) >= min_area]
        assert {r.pixels for r in regions} == {frozenset(c) for c in expected}
        for region in regions:
            xs = [p[0] for p in region.pixels]
            ys = [p[1] for p in region.pixels]
            assert region.area_px == len(region.pixels)
            assert region.bbox == (min(xs), min(ys), max(xs), max(ys))
            assert region.centroid == pytest.approx((np.mean(xs), np.mean(ys)))


def test_components_min_area_validation():
    with pytest.raises(ParameterError):
        connected_components(np.zeros((3, 3), dtype=bool), 0)


# ---------------------------------------------------------------------------
# measure

def _region(area):
    return Region(pixels=frozenset((i, 0) for i in range(area)), area_px=area,
                  bbox=(0, 0, area - 1, 0), centroid=((area - 1) / 2, 0.0))


def test_measure_examples():
    assert measure([_region(100)], 0.5) == (100, 25.0)
    assert measure([], 2.0) == (0, 0.0)
    assert measure([_region(7), _region(3)], 1.0) == (10, 10.0)


def test_measure_quadratic_in_spacing():
    regions = [_region(13)]
    _, a1 = measure(regions, 0.7)
    _, a2 = measure(regions, 1.4)
    assert a2 == pytest.approx(4 * a1)


def test_measure_validation():
    with pytest.raises(ParameterError):
        measure([], 0.0)


# ---------------------------------------------------------------------------
# pipeline

def test_auto_min_area_scales():
    assert auto_min_area(257, 257) == 26
    assert auto_min_area(64, 64) == 2


def test_pipeline_symmetric_phantom_not_found():
    img, _ = generate(PhantomSpec(seed=5))
    result = detect_pipeline(img)
    assert result.verdict == "not-found"
    assert result.regions == []
    assert result.total_area_px == 0
    assert result.message == "Possible tumor area are not found"
    assert result.message == NOT_FOUND_MESSAGE


def test_pipeline_lesioned_phantom_found():
    lesion = LesionSpec(center_dx=40, center_y=128, radius=10, delta=60)
    img, truth = generate(PhantomSpec(seed=5, lesion=lesion))
    result = detect_pipeline(img)
    assert result.verdict == "found"
    assert result.message is None
    assert result.regions
    cx, cy = result.regions[0].centroid
    assert (cx - 168) ** 2 + (cy - 128) ** 2 <= lesion.radius ** 2
    assert result.total_area_px == sum(r.area_px for r in result.regions)


def test_pipeline_deterministic():
    img, _ = generate(PhantomSpec(seed=9, lesion=LesionSpec(35, 120, 11, 70)))
    a = detect_pipeline(img)
    b = detect_pipeline(img)
    assert a.verdict == b.verdict
    assert a.axis == b.axis
    assert a.edge_count == b.edge_count
    assert [r.pixels for r in a.regions] == [r.pixels for r in b.regions]
    assert a.total_area_mm2 == b.total_area_mm2


def test_pipeline_flat_image_names_stage():
    img = GrayImage(np.full((32, 32), 50, dtype=np.uint8))
    with pytest.raises(PipelineError) as err:
        detect_pipeline(img)
    assert err.value.stage == "brain_mask"
    assert "no foreground separable" in str(err.value)


def test_pipeline_verdict_monotone_in_min_area():
    img, _ = generate(PhantomSpec(seed=12, lesion=LesionSpec(40, 128, 10, 60)))
    verdicts = []
    for min_area in (1, 10, 40, 200, 1000, 100000):
        cfg = PipelineConfig(min_area=min_area)
        verdicts.append(detect_pipeline(img, cfg).verdict)
    seen_not_found = False
    for v in verdicts:
        if v == "not-found":
            seen_not_found = True
        assert not (seen_not_found and v == "found")


def test_config_validation():
    for kwargs in (
        dict(sigma=0.0),
        dict(median_window=2),
        dict(median_window=-1),
        dict(canny_low=0.3, canny_high=0.2),
        dict(canny_low=0.0),
        dict(canny_high=1.0),
        dict(axis_degree=3),
        dict(min_span_frac=1.5),
        dict(mirror_tol=-1),
        dict(closing_radius=-2),
        dict(min_area=0),
        dict(pixel_spacing=0.0),
    ):
        with pytest.raises(ParameterError):
            PipelineConfig(**kwargs)


def test_render_overlay_palette():
    img, _ = generate(PhantomSpec(seed=5, lesion=LesionSpec(40, 128, 10, 60)))
    result = detect_pipeline(img)
    overlay = render_overlay(img, result)
    assert (overlay.width, overlay.height) == (img.width, img.height)
    # axis column is drawn green where no region covers it
    assert overlay.pixels[5, 128].tolist() == [0, 255, 0]
    region = result.regions[0]
    x, y = next(iter(region.pixels))
    assert overlay.pixels[y, x].tolist() == [255, 0, 0]
