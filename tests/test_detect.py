import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

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
    canny,
    close_mask,
    connected_components,
    contrast_stretch,
    detect_pipeline,
    fit_axis_lsm,
    fit_image_axis,
    gaussian_kernel,
    gaussian_smooth,
    generate,
    gradient,
    measure,
    median_filter,
    preprocess,
    render_overlay,
    row_midpoints,
    smooth_raster,
    threshold_edges,
)
from brainsym._runs import label_mask, run_pixels

from oracles import (
    brute_asymmetry,
    brute_close,
    brute_fill_holes,
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
    unmatched = asymmetry_map(EdgeMap(mask), straight_axis(20), 1)
    assert unmatched.sum() == 0


def test_asymmetry_lone_pixel_enhanced():
    mask = np.zeros((11, 41), dtype=bool)
    mask[5, 10] = True
    unmatched = asymmetry_map(EdgeMap(mask), straight_axis(20), 1)
    assert unmatched[5, 10]
    assert unmatched.sum() == 1


def test_asymmetry_mirror_out_of_bounds_is_unmatched():
    mask = np.zeros((5, 20), dtype=bool)
    mask[2, 1] = True                      # mirror lands at x = 37
    mask[2, 18] = True                     # close to where the mirror would be
    unmatched = asymmetry_map(EdgeMap(mask), straight_axis(19), 2)
    assert unmatched[2, 1]


def test_asymmetry_scores_only_on_edges():
    rng = np.random.default_rng(61)
    mask = rng.random((15, 25)) < 0.1
    unmatched = asymmetry_map(EdgeMap(mask), straight_axis(12), 1)
    assert unmatched.dtype == bool and unmatched.shape == mask.shape
    assert not np.any(unmatched & ~mask)


def test_asymmetry_symmetric_map_all_zero():
    rng = np.random.default_rng(59)
    width = 41
    c = (width - 1) // 2
    for _ in range(5):
        half = rng.random((13, c + 1)) < 0.15
        mask = np.zeros((13, width), dtype=bool)
        mask[:, :c + 1] = half
        mask[:, c:] |= np.fliplr(half)
        unmatched = asymmetry_map(EdgeMap(mask), straight_axis(c), 1)
        assert unmatched.sum() == 0


def test_asymmetry_matches_brute_force():
    rng = np.random.default_rng(67)
    for _ in range(10):
        mask = rng.random((14, 26)) < 0.08
        axis = SymmetryAxis(1, (float(rng.uniform(5, 21)), float(rng.uniform(-0.3, 0.3))))
        tol = int(rng.integers(0, 4))
        got = asymmetry_map(EdgeMap(mask), axis, tol)
        expected = brute_asymmetry(mask, axis, tol)
        assert got.dtype == bool and got.shape == mask.shape
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
    assert out.dtype == bool and out.shape == mask.shape
    # radius 0 closes nothing, so only the holes are filled
    assert np.array_equal(out, brute_fill_holes(brute_close(mask, 0)))
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
            assert once.dtype == bool and once.shape == mask.shape
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
        assert np.array_equal(close_mask(mask, radius), brute_fill_holes(brute_close(mask, radius)))


def test_huge_radii_clamp_exactly():
    rng = np.random.default_rng(83)
    for _ in range(40):
        height, width = (int(v) for v in rng.integers(1, 13, size=2))
        mask = rng.random((height, width)) < rng.uniform(0.01, 0.2)
        beyond = max(height, width) + 5
        assert np.array_equal(close_mask(mask, 10**9), brute_fill_holes(brute_close(mask, beyond)))
        axis = SymmetryAxis(1, (float(rng.uniform(0, width)), float(rng.uniform(-0.3, 0.3))))
        got = asymmetry_map(EdgeMap(mask), axis, 10**9)
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


def test_components_equal_area_same_corner_keep_label_order():
    # two 10 px components, both with (ymin, xmin) = (3, 5): the sort key
    # ties, so the stable sort keeps label order, which follows each
    # component's first pixel in raster order
    mask = np.zeros((12, 14), dtype=bool)
    block = mask[3:, 5:]
    block[0:3, 0:3] = True        # 3x3 square plus (0, 3): holds the corner
    block[0, 3] = True
    block[0:5, 5] = True          # column, then a row back to column 0
    block[4, 0:5] = True
    regions = connected_components(mask, 1)
    assert [(r.area_px, r.bbox) for r in regions] == [(10, (5, 3, 8, 5)), (10, (5, 3, 10, 7))]
    assert regions[0].centroid == (6.2, 3.9)
    assert {r.pixels for r in regions} == {frozenset(c) for c in flood_fill_components(mask)}


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
            assert all(type(c) is int for p in region.pixels for c in p)
            assert region.bbox == (min(xs), min(ys), max(xs), max(ys))
            assert region.centroid == pytest.approx((np.mean(xs), np.mean(ys)))


def test_components_min_area_validation():
    with pytest.raises(ParameterError):
        connected_components(np.zeros((3, 3), dtype=bool), 0)


def test_components_min_area_past_float_range():
    # the float areas cannot compare with 10**400; no component can reach it
    mask = np.ones((3, 3), dtype=bool)
    assert connected_components(mask, 10**400) == []
    assert [r.area_px for r in connected_components(mask, 9)] == [9]


# ---------------------------------------------------------------------------
# run labeling, shared by brain_mask, canny's hysteresis and
# connected_components

def _run_label_raster(mask, four):
    """The labeler's components numbered 1, 2, ... in the order of their
    first runs, 0 off the mask: ndimage.label's numbering, if it is right."""
    starts, lengths, first = label_mask(mask, four)
    number = np.cumsum(first == np.arange(first.size))[first]
    labels = np.zeros(mask.size, dtype=np.int64)
    labels[run_pixels(starts, lengths, mask.shape[1])] = np.repeat(number, lengths)
    return labels.reshape(mask.shape)


def _check_run_labels(mask):
    # 8-connected, as the components are, and 4-connected, as close_mask
    # labels the background to find the holes
    for four in (False, True):
        labels = _run_label_raster(mask, four)
        structure = ndimage.generate_binary_structure(2, 1 if four else 2)
        assert np.array_equal(labels, ndimage.label(mask, structure=structure)[0]), four
        ys, xs = np.nonzero(labels)
        found = {}
        for y, x, k in zip(ys.tolist(), xs.tolist(), labels[ys, xs].tolist()):
            found.setdefault(k, set()).add((x, y))
        expected = {frozenset(c) for c in flood_fill_components(mask, four)}
        assert {frozenset(c) for c in found.values()} == expected, four
        # the runs' pixels, run after run, are the set pixels' sorted flat
        # indices, which lets canny label its weak pixels by np.repeat
        starts, lengths, _ = label_mask(mask, four)
        assert np.array_equal(run_pixels(starts, lengths, mask.shape[1]), np.flatnonzero(mask))


def test_run_labels_match_ndimage_and_flood_fill():
    # 3,000 seeded masks, sides 1-40, densities 0.05-0.9
    rng = np.random.default_rng(97)
    for _ in range(3000):
        height, width = (int(v) for v in rng.integers(1, 41, size=2))
        _check_run_labels(rng.random((height, width)) < rng.uniform(0.05, 0.9))


def _structured_masks(sizes):
    """Masks of one-pixel runs or of long chains of runs, the labeler's
    hardest shapes, each in four orientations."""
    cases = []
    for h, w in sizes:
        y, x = np.indices((h, w))
        comb = x % 2 == 0                 # one-pixel teeth joined by the bottom row
        comb[-1] = True
        serpentine = y % 2 == 0           # rows joined at alternate ends
        serpentine[1::4, -1] = True
        serpentine[3::4, 0] = True
        for name, m in (("checkerboard", (y + x) % 2 == 0), ("comb", comb),
                        ("serpentine", serpentine), ("diagonal-stripes", (y + x) % 3 == 0),
                        ("anti-diagonal-stripes", (y - x) % 4 == 0)):
            for turn, view in (("", m), ("-flipped", m[::-1]), ("-mirrored", m[:, ::-1]),
                               ("-transposed", m.T)):
                cases.append((f"{name}{turn}-{h}x{w}", np.ascontiguousarray(view)))
    return cases


SMALL_SIZES = [(1, 1), (1, 9), (9, 1), (2, 2), (7, 12), (23, 17)]
STRUCTURED_MASKS = _structured_masks(SMALL_SIZES)
STRUCTURED_IDS = [name for name, _ in STRUCTURED_MASKS]


def test_run_labels_on_structured_masks():
    for _, mask in _structured_masks(SMALL_SIZES + [(40, 40), (41, 64)]):
        _check_run_labels(mask)


@pytest.mark.parametrize("name,mask", STRUCTURED_MASKS, ids=STRUCTURED_IDS)
def test_structured_close_matches_brute_force(name, mask):
    for radius in RADII:
        # beyond max(height, width) the closing no longer changes
        expected = brute_fill_holes(brute_close(mask, min(radius, max(mask.shape) + 1)))
        assert np.array_equal(close_mask(mask, radius), expected), radius


@pytest.mark.parametrize("name,mask", STRUCTURED_MASKS, ids=STRUCTURED_IDS)
def test_structured_components_match_flood_fill(name, mask):
    for radius in (0, 1):
        _check_components(close_mask(mask, radius))


# ---------------------------------------------------------------------------
# sparse masks: asymmetry, closing and components work on the set pixels'
# bounding box, so these cases put a few pixels on the borders and corners
# and far from the origin, where a crop off by one would show

def _sparse_masks():
    cases = []
    h, w = 48, 64
    cases.append(("empty", np.zeros((h, w), dtype=bool)))  # no bounding box at all
    for name, points in (
        ("corner-top-left", [(0, 0)]),
        ("corner-top-right", [(0, w - 1)]),
        ("corner-bottom-left", [(h - 1, 0)]),
        ("corner-bottom-right", [(h - 1, w - 1)]),
        ("border-top", [(0, 30), (0, 33), (1, 36)]),
        ("border-bottom", [(h - 1, 20), (h - 2, 22)]),
        ("border-left", [(20, 0), (24, 1), (26, 0)]),
        ("border-right", [(30, w - 1), (27, w - 3)]),
        ("far-from-origin", [(h - 3, w - 5), (h - 6, w - 2), (h - 4, w - 9)]),
        ("opposite-corners", [(0, 0), (h - 1, w - 1)]),
        ("interior", [(20, 30), (22, 37), (25, 31), (21, 31)]),
    ):
        mask = np.zeros((h, w), dtype=bool)
        mask[tuple(np.array(points).T)] = True
        cases.append((name, mask))
    for shape, points in (((1, 1), [(0, 0)]), ((1, 64), [(0, 0), (0, 63)]),
                          ((48, 1), [(47, 0), (3, 0)]), ((2, 3), [(1, 2)])):
        mask = np.zeros(shape, dtype=bool)
        mask[tuple(np.array(points).T)] = True
        cases.append((f"thin-{shape[0]}x{shape[1]}", mask))
    rng = np.random.default_rng(89)
    for i in range(6):
        height, width = int(rng.integers(1, 49)), int(rng.integers(1, 65))
        mask = np.zeros((height, width), dtype=bool)
        count = int(rng.integers(1, 7))
        mask[rng.integers(0, height, count), rng.integers(0, width, count)] = True
        cases.append((f"seeded-{i}", mask))
    return cases


SPARSE_MASKS = _sparse_masks()
SPARSE_IDS = [name for name, _ in SPARSE_MASKS]
RADII = list(range(9)) + [10**9]


def _sparse_axes(width):
    return [
        straight_axis((width - 1) / 2),
        SymmetryAxis(1, (width * 0.3, 0.25)),
        SymmetryAxis(2, (width * 0.6, -0.4, 0.012)),
        SymmetryAxis(2, (width * 0.5, 0.1, -0.008)),
    ]


@pytest.mark.parametrize("name,mask", SPARSE_MASKS, ids=SPARSE_IDS)
def test_sparse_close_matches_brute_force(name, mask):
    for radius in RADII:
        # beyond max(height, width) the closing no longer changes
        expected = brute_fill_holes(brute_close(mask, min(radius, max(mask.shape) + 1)))
        assert np.array_equal(close_mask(mask, radius), expected), radius


@pytest.mark.parametrize("name,mask", SPARSE_MASKS, ids=SPARSE_IDS)
def test_sparse_asymmetry_matches_brute_force(name, mask):
    height, width = mask.shape
    for axis in _sparse_axes(width):
        # add each pixel's mirror, moved by up to 3 rows and columns, so
        # matches turn on at different tol and row offsets
        paired = mask.copy()
        ys, xs = np.nonzero(mask)
        mirror = np.array([round(2.0 * axis.at(int(y)) - x) for y, x in zip(ys, xs)], dtype=int)
        shift = np.arange(ys.size) % 7 - 3
        py, px = ys + shift, mirror - shift[::-1]
        ok = (py >= 0) & (py < height) & (px >= 0) & (px < width)
        paired[py[ok], px[ok]] = True
        for m in (mask, paired):
            for tol in RADII:
                got = asymmetry_map(EdgeMap(m), axis, tol)
                assert np.array_equal(got, brute_asymmetry(m, axis, tol)), (axis, tol)


def _check_components(closed):
    for min_area in (1, 2, 9):
        regions = connected_components(closed, min_area)
        expected = [c for c in flood_fill_components(closed) if len(c) >= min_area]
        assert {r.pixels for r in regions} == {frozenset(c) for c in expected}
        keys = [(-r.area_px, r.bbox[1], r.bbox[0]) for r in regions]
        assert keys == sorted(keys)
        for region in regions:
            xs = [p[0] for p in region.pixels]
            ys = [p[1] for p in region.pixels]
            assert region.area_px == len(region.pixels)
            assert region.bbox == (min(xs), min(ys), max(xs), max(ys))
            assert region.centroid == pytest.approx((np.mean(xs), np.mean(ys)))


@pytest.mark.parametrize("name,mask", SPARSE_MASKS, ids=SPARSE_IDS)
def test_sparse_components_match_flood_fill(name, mask):
    for radius in (0, 1, 3, 8):
        _check_components(close_mask(mask, radius))


@st.composite
def _axes(draw, width):
    degree = draw(st.sampled_from((1, 2)))
    coeffs = (draw(st.floats(-4.0, width + 4.0)), draw(st.floats(-1.0, 1.0)))
    if degree == 2:
        coeffs += (draw(st.floats(-0.05, 0.05)),)
    return SymmetryAxis(degree, coeffs)


@st.composite
def _masked_axes(draw):
    mask = draw(arrays(bool, st.tuples(st.integers(1, 24), st.integers(1, 32))))
    return mask, draw(_axes(mask.shape[1]))


@settings(max_examples=200, deadline=None)
@given(_masked_axes(), st.integers(0, 10))
def test_asymmetry_property_matches_brute_force(masked_axis, tol):
    mask, axis = masked_axis
    assert np.array_equal(asymmetry_map(EdgeMap(mask), axis, tol), brute_asymmetry(mask, axis, tol))


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
    # a total that is not finite: 0 px * inf is NaN, and 1e200**2 overflows
    for regions, spacing in (([], float("inf")), ([_region(3)], float("inf")),
                             ([_region(3)], 1e200)):
        with pytest.raises(ParameterError):
            measure(regions, spacing)


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
        dict(sigma=float("inf")),
        dict(sigma=float("nan")),
        dict(sigma=1e18),
        dict(sigma=1e300),
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
        dict(pixel_spacing=float("inf")),
        dict(pixel_spacing=float("nan")),
    ):
        with pytest.raises(ParameterError):
            PipelineConfig(**kwargs)
    for contrast in ("no", None, 0, 1, 1.0, np.int64(1), np.array([True])):
        with pytest.raises(ParameterError, match="contrast"):
            PipelineConfig(contrast=contrast)
    for contrast in (True, False, np.True_, np.False_):
        stored = PipelineConfig(contrast=contrast).contrast
        assert type(stored) is bool and stored == contrast


@pytest.mark.parametrize("low, high", [
    (0.5, 0.4), (0.2, 0.2), (0.0, 0.2), (0.1, 1.0), (float("nan"), 0.2), (0.1, float("inf")),
])
def test_config_and_canny_reject_thresholds_with_one_message(low, high):
    img = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(ParameterError) as from_config:
        PipelineConfig(canny_low=low, canny_high=high)
    with pytest.raises(ParameterError) as from_canny:
        canny(img, 1.0, low, high)
    assert str(from_canny.value) == str(from_config.value) == (
        f"canny thresholds must satisfy 0 < low < high < 1, got low={low} high={high}"
    )


@pytest.mark.parametrize("field, value", [
    ("mirror_tol", 2.5), ("axis_degree", 1.0), ("closing_radius", 2.5), ("median_window", 3.0),
    ("mirror_tol", "2"), ("closing_radius", None), ("median_window", np.float64(3.0)),
])
def test_config_integer_fields_reject_non_integers(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("int_type", [np.uint8, np.int8, np.int16, np.int64, np.uint64])
def test_config_numpy_integer_fields_run_as_python_ints(int_type):
    img, _ = generate(PhantomSpec(seed=5, lesion=LesionSpec(40, 128, 10, 60)))
    fields = dict(median_window=3, axis_degree=1, mirror_tol=2, closing_radius=2)
    config = PipelineConfig(**{k: int_type(v) for k, v in fields.items()})
    assert all(type(getattr(config, k)) is int for k in fields)
    assert config == PipelineConfig()
    got, want = detect_pipeline(img, config), detect_pipeline(img)
    assert vars(got) == vars(want) and want.verdict == "found"


def _integer_stages():
    """Each public stage's integer parameter: a call taking its value, and
    a value that a narrow numpy type wraps or overflows in on 300 x 300
    inputs unless it is taken as a Python int."""
    rng = np.random.default_rng(24)
    edges = np.zeros((300, 300), dtype=bool)
    edges.flat[rng.choice(edges.size, 197, replace=False)] = True
    img = GrayImage(rng.integers(0, 256, (300, 300), dtype=np.uint8))
    samples = np.column_stack((np.arange(300.0), 150.0 + 0.001 * (np.arange(300.0) - 140) ** 2))
    return {
        "tol": (lambda v: asymmetry_map(EdgeMap(edges), straight_axis(149.5), v).tobytes(), 200),
        "radius": (lambda v: close_mask(edges, v).tobytes(), 200),
        "window": (lambda v: median_filter(img, v).pixels.tobytes(), 3),
        # the repr shows a numpy degree's type
        "degree": (lambda v: repr(fit_axis_lsm(samples, v)), 2),
    }


INTEGER_STAGES = _integer_stages()


@pytest.mark.parametrize("int_type", [np.uint8, np.int8, np.int64, np.uint64])
@pytest.mark.parametrize("name", INTEGER_STAGES)
def test_stage_integer_parameters_run_numpy_integers_as_python_ints(name, int_type):
    run, value = INTEGER_STAGES[name]
    value = min(value, int(np.iinfo(int_type).max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(int_type(value)) == run(value)


@pytest.mark.parametrize("value", [1.5, 3.0, float("nan"), "2", None], ids=repr)
@pytest.mark.parametrize("name", INTEGER_STAGES)
def test_stage_integer_parameters_reject_non_integers(name, value):
    run, _ = INTEGER_STAGES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            run(value)


def _real_stages():
    """Each public stage's real parameter, and row_midpoints' integer
    min_span: a call taking its value, keyed by the stage and by the name
    its error message gives the parameter."""
    img = GrayImage(np.random.default_rng(25).integers(0, 256, (40, 40), dtype=np.uint8))
    mask = np.zeros((40, 40), dtype=bool)
    mask[5:35, 8:30] = True
    return {
        ("gaussian_smooth", "sigma"): lambda v: gaussian_smooth(img, v),
        ("smooth_raster", "sigma"): lambda v: smooth_raster(img.pixels, v),
        ("canny", "sigma"): lambda v: canny(img, v, 0.1, 0.2),
        ("gaussian_kernel", "sigma"): gaussian_kernel,
        # the range message names canny's thresholds low and high
        ("canny", "low"): lambda v: canny(img, 1.0, v, 0.2),
        ("canny", "high"): lambda v: canny(img, 1.0, 0.1, v),
        ("threshold_edges", "frac"): lambda v: threshold_edges(gradient(img, "sobel"), v),
        ("measure", "pixel_spacing"): lambda v: measure([], v),
        ("row_midpoints", "min_span"): lambda v: row_midpoints(mask, v),
    }


REAL_STAGES = _real_stages()


@pytest.mark.parametrize("value", ["2", None, float("nan")], ids=repr)
@pytest.mark.parametrize("stage", REAL_STAGES, ids="-".join)
def test_stage_real_parameters_reject_non_reals(stage, value):
    run, name = REAL_STAGES[stage], stage[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"{name}.*{re.escape(repr(value))}"):
            run(value)


@pytest.mark.parametrize("sigma", [np.float16(200.0), np.float32(1.3)], ids=repr)
def test_numpy_float_sigma_smooths_as_the_python_float(sigma):
    # 2 sigma**2 in a float16 sigma of 200 overflows, which gave a flat kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(gaussian_kernel(sigma), gaussian_kernel(float(sigma)))


@pytest.mark.parametrize("name, make", [
    ("min_area", lambda: PipelineConfig(min_area=float("nan"))),
    ("min_area", lambda: connected_components(np.ones((4, 4), dtype=bool), float("nan"))),
    ("semi_axis_x", lambda: PhantomSpec(semi_axis_x=float("nan"))),
    ("semi_axis_y", lambda: PhantomSpec(semi_axis_y=float("nan"))),
], ids=["config-min_area", "components-min_area", "semi_axis_x", "semi_axis_y"])
def test_float_floors_reject_nan(name, make):
    # a NaN floor used to pass every < comparison: a NaN min_area kept no
    # region, and NaN semi-axes gave a phantom with no skull
    with pytest.raises(ParameterError, match=f"^{name} must be >= 1, got nan"):
        make()


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


@pytest.mark.parametrize("height, width", [(100, 100), (249, 233), (257, 256), (256, 257)])
def test_render_overlay_rejects_other_shapes(height, width):
    # an image of another shape would raise IndexError from the region
    # pixels, or be painted with another raster's regions
    img, _ = generate(PhantomSpec(seed=5, lesion=LesionSpec(40, 128, 10, 60)))
    result = detect_pipeline(img)
    assert result.regions
    other = GrayImage(np.zeros((height, width), dtype=np.uint8))
    with pytest.raises(ParameterError, match="overlay image"):
        render_overlay(other, result)


# ---------------------------------------------------------------------------
# preprocess bounds each filter's reach, ceil(3 sigma) and median_window //
# 2, by max(height, width, 512) // 16 pixels

@pytest.mark.parametrize("shape, limit", [((257, 257), 32), ((40, 600), 37), ((9, 5), 32)])
def test_preprocess_runs_filters_that_reach_the_limit(shape, limit):
    raw = np.random.default_rng(list(shape)).integers(0, 256, size=shape, dtype=np.uint8)
    img = GrayImage(raw)
    for sigma, window in (((limit - 0.5) / 3, 3), (1.0, 2 * limit + 1)):
        want = contrast_stretch(median_filter(gaussian_smooth(img, sigma), window))
        got = preprocess(img, PipelineConfig(sigma=sigma, median_window=window))
        assert np.array_equal(got.pixels, want.pixels), (sigma, window)


@pytest.mark.parametrize("shape, limit", [((257, 257), 32), ((40, 600), 37), ((9, 5), 32)])
@pytest.mark.parametrize("field", ["sigma", "median_window"])
def test_preprocess_rejects_filters_past_the_limit(shape, limit, field, monkeypatch):
    img = GrayImage(np.zeros(shape, dtype=np.uint8))
    value = {"sigma": (limit + 0.5) / 3, "median_window": 2 * limit + 3}[field]
    config = PipelineConfig(**{field: value})

    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr("brainsym.detect._stage", no_stage)
    message = f"{field} {value} reaches {limit + 1} px, past the {limit} px limit of a {shape[1]}x{shape[0]} raster"
    for run in (preprocess, detect_pipeline):
        with pytest.raises(ParameterError) as raised:
            run(img, config)
        assert str(raised.value) == message


# ---------------------------------------------------------------------------
# flipping the input left-right mirrors the result: the Canny mask, the
# region pixel sets (x -> w - 1 - x), their areas and the verdict; healthy
# phantoms give not-found, noisy ones too

# lib-1025-stress's config in the benchmark
STRESS_CONFIG = PipelineConfig(axis_degree=2, mirror_tol=4, closing_radius=4)


def _flip_phantom(seed, lesioned, noisy):
    """A 257 x 257 phantom, with a seeded lesion when lesioned and seeded
    +-8 noise, clipped to [0, 255], when noisy."""
    rng = np.random.default_rng([seed, lesioned, noisy])
    lesion = None
    if lesioned:
        dx = int(rng.choice([-1, 1]) * rng.integers(25, 51))
        lesion = LesionSpec(dx, int(rng.integers(90, 167)), int(rng.integers(6, 13)),
                            int(rng.integers(30, 81)))
    img, _ = generate(PhantomSpec(seed=seed, lesion=lesion))
    if noisy:
        img = GrayImage(np.clip(img.pixels + rng.integers(-8, 9, img.pixels.shape), 0, 255)
                        .astype(np.uint8))
    return img


@pytest.mark.parametrize("config", [PipelineConfig(), STRESS_CONFIG], ids=["default", "stress"])
@pytest.mark.parametrize("noisy, seeds", [(False, range(12)), (True, range(100, 130))],
                         ids=["clean", "noisy"])
def test_flip_mirrors_edges_and_regions(config, noisy, seeds):
    for seed in seeds:
        for lesioned in (False, True):
            img = _flip_phantom(seed, lesioned, noisy)
            flipped = GrayImage(img.pixels[:, ::-1])
            case = (seed, lesioned)
            masks = [canny(preprocess(x, config), config.sigma, config.canny_low,
                           config.canny_high).mask for x in (img, flipped)]
            assert np.array_equal(masks[1], masks[0][:, ::-1]), case
            a, b = detect_pipeline(img, config), detect_pipeline(flipped, config)
            assert a.verdict == b.verdict, case
            assert a.total_area_px == b.total_area_px, case
            w = img.width
            mirrored = {frozenset((w - 1 - x, y) for x, y in r.pixels) for r in a.regions}
            assert mirrored == {r.pixels for r in b.regions}, case
            if not lesioned:
                assert a.verdict == "not-found", case


# ---------------------------------------------------------------------------
# healthy phantoms that are not mirror-exact, stressed as the benchmark's
# 1025^2 inputs are, must not give found

def stressed(img, rng):
    """img rotated by up to 3 degrees about its centre, shifted half a
    pixel sideways, times a 10% (peak to peak) linear bias field, plus +-8
    integer noise, rounded and clipped to [0, 255], each drawn from rng."""
    h, w = img.pixels.shape
    angle = np.radians(rng.uniform(-3.0, 3.0))
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    centre = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    offset = centre - rot @ centre - np.array([0.0, rng.choice([-0.5, 0.5])])
    moved = ndimage.affine_transform(img.pixels, rot, offset=offset, order=1,
                                     mode="nearest", output=np.float64)
    direction = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(direction), np.sin(direction)
    # the ramp spans exactly [-0.5, 0.5] over the raster
    ramp = (s * (np.arange(h)[:, None] / (h - 1) - 0.5) + c * (np.arange(w) / (w - 1) - 0.5))
    moved *= 1.0 + 0.10 * ramp / (abs(c) + abs(s))
    moved += rng.integers(-8, 9, size=(h, w))
    return GrayImage(np.clip(np.floor(moved + 0.5), 0, 255).astype(np.uint8))


def _stressed_healthy(index):
    """A healthy 257 x 257 phantom drawn from default_rng([1901, index]),
    stressed by stressed()."""
    rng = np.random.default_rng([1901, index])
    img, _ = generate(PhantomSpec(seed=int(rng.integers(1, 2**31))))
    return stressed(img, rng)


@pytest.mark.parametrize("config", [PipelineConfig(), STRESS_CONFIG], ids=["default", "stress"])
def test_stressed_healthy_phantoms_are_not_found(config):
    found = [i for i in range(60) if detect_pipeline(_stressed_healthy(i), config).verdict != "not-found"]
    assert found == []


# ---------------------------------------------------------------------------
# hole-filling oracle: a 4-connected flood fill of the background from the
# border, against scipy's binary_fill_holes, whose default structure is the
# 4-connected cross

def _rings():
    ring = np.zeros((9, 9), dtype=bool)
    ring[2:7, 2:7] = True
    ring[3:6, 3:6] = False
    filled = np.zeros((9, 9), dtype=bool)
    filled[2:7, 2:7] = True
    nested = np.zeros((15, 15), dtype=bool)
    for k in (1, 5):  # the outlines of squares k .. 13 - k: two holes
        nested[k:15 - k, k:15 - k] = True
        nested[k + 1:14 - k, k + 1:14 - k] = False
    nested_filled = np.zeros((15, 15), dtype=bool)
    nested_filled[1:14, 1:14] = True
    border = np.zeros((6, 8), dtype=bool)  # shares the raster's top row and left column
    border[0:4, 0:5] = True
    border[1:3, 1:4] = False
    border_filled = np.zeros((6, 8), dtype=bool)
    border_filled[0:4, 0:5] = True
    # a diamond, 8-connected only: its centre's four neighbours are all
    # set, so to the 4-connected background the centre is a hole
    diamond = np.zeros((5, 5), dtype=bool)
    diamond[[1, 2, 3, 2], [2, 1, 2, 3]] = True
    diamond_filled = diamond.copy()
    diamond_filled[2, 2] = True
    return [
        ("empty", np.zeros((7, 5), dtype=bool), np.zeros((7, 5), dtype=bool)),
        ("full", np.ones((7, 5), dtype=bool), np.ones((7, 5), dtype=bool)),
        ("ring", ring, filled),
        ("nested-rings", nested, nested_filled),
        ("ring-on-the-border", border, border_filled),
        ("diamond", diamond, diamond_filled),
    ]


RINGS = _rings()


@pytest.mark.parametrize("name, mask, expected", RINGS, ids=[name for name, _, _ in RINGS])
def test_fill_holes_oracle_on_rings(name, mask, expected):
    assert np.array_equal(brute_fill_holes(mask), expected)
    assert np.array_equal(ndimage.binary_fill_holes(mask), expected)


def test_fill_holes_oracle_matches_scipy_on_random_masks():
    rng = np.random.default_rng(2311)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 17), (17, 1), (2, 2), (3, 3), (40, 40)]
    shapes += [tuple(int(v) for v in rng.integers(1, 41, size=2)) for _ in range(40)]
    with_holes = 0
    for shape in shapes:
        for density in (0.2, 0.35, 0.5, 0.65, 0.8):
            mask = rng.random(shape) < density
            filled = brute_fill_holes(mask)
            assert np.array_equal(filled, ndimage.binary_fill_holes(mask)), (shape, density)
            assert np.all(filled >= mask)
            with_holes += bool((filled != mask).any())
    assert with_holes > 50


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_fill_holes_oracle_on_closed_lesion_edges(seed):
    # the unmatched edges detect_pipeline hands to close_mask
    config = PipelineConfig()
    img, _ = generate(PhantomSpec(seed=seed, lesion=LesionSpec(40, 128, 10, 60)))
    pre = preprocess(img, config)
    edges = canny(pre, config.sigma, config.canny_low, config.canny_high)
    axis = fit_image_axis(pre, config)
    unmatched = asymmetry_map(edges, axis, config.mirror_tol)
    closed = brute_close(unmatched, config.closing_radius)
    filled = brute_fill_holes(closed)
    assert np.array_equal(filled, ndimage.binary_fill_holes(closed))
    assert filled.sum() > closed.sum()  # the lesion's edge ring encloses a hole
    assert np.array_equal(close_mask(unmatched, config.closing_radius), filled)
