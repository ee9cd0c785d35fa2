import math
import tracemalloc

import numpy as np
import pytest

from brainsym import (
    EdgeMap,
    GrayImage,
    LesionSpec,
    ParameterError,
    PhantomSpec,
    canny,
    generate,
    gradient,
    gradient_raster,
    nonmax_suppress,
    smooth_raster,
    threshold_edges,
)

from brainsym.edges import _NMS_BLOCK_ROWS, GradientField, _direction_bins

from oracles import (
    brute_direction_bins,
    brute_gradient,
    brute_nonmax,
    popcount_scan,
    reaches_strong,
)


def vertical_step(size=32, level=255):
    img = np.zeros((size, size), dtype=np.uint8)
    img[:, size // 2:] = level
    return GrayImage(img)


@pytest.mark.parametrize("operator", ["sobel", "prewitt", "roberts"])
def test_gradient_constant_is_zero(operator):
    img = GrayImage(np.full((8, 8), 55, dtype=np.uint8))
    field = gradient(img, operator)
    assert np.all(field.gx == 0)
    assert np.all(field.gy == 0)
    assert np.all(field.magnitude == 0)


def test_sobel_step_magnitude():
    field = gradient(vertical_step(), "sobel")
    assert np.all(np.abs(field.gx[:, 15]) == 1020)
    assert np.all(np.abs(field.gx[:, 16]) == 1020)
    assert np.all(field.gy == 0)


def test_prewitt_step_magnitude():
    field = gradient(vertical_step(), "prewitt")
    assert np.all(np.abs(field.gx[:, 15]) == 765)
    assert np.all(np.abs(field.gx[:, 16]) == 765)


def test_roberts_step_magnitude():
    field = gradient(vertical_step(), "roberts")
    expected = 255 * math.sqrt(2)
    assert np.allclose(field.magnitude[:, 15], expected)
    # away from the step everything is flat
    assert np.all(field.magnitude[:, :14] == 0)
    assert np.all(field.magnitude[:, 17:] == 0)


def test_magnitude_consistency_and_orientation_range():
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 256, size=(14, 17), dtype=np.uint8)
    for operator in ("sobel", "prewitt", "roberts"):
        field = gradient(GrayImage(raw), operator)
        assert np.allclose(field.magnitude, np.hypot(field.gx, field.gy), atol=1e-9)
        assert np.all(field.orientation > -np.pi)
        assert np.all(field.orientation <= np.pi)


@pytest.mark.parametrize("alpha", [0, 2, 3])
def test_gradient_linearity_integer_scale(alpha):
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 85, size=(12, 12), dtype=np.uint8)
    for operator in ("sobel", "prewitt", "roberts"):
        base = gradient(GrayImage(raw), operator)
        scaled = gradient(GrayImage((raw * alpha).astype(np.uint8)), operator)
        assert np.allclose(scaled.gx, alpha * base.gx, rtol=1e-6, atol=1e-9)
        assert np.allclose(scaled.gy, alpha * base.gy, rtol=1e-6, atol=1e-9)
        assert np.allclose(scaled.magnitude, alpha * base.magnitude, rtol=1e-6, atol=1e-9)


def test_gradient_validation():
    with pytest.raises(ParameterError):
        gradient(GrayImage([[1, 2], [3, 4]]), "sobel")
    with pytest.raises(ParameterError):
        gradient(GrayImage([[1]]), "roberts")
    with pytest.raises(ParameterError):
        gradient(GrayImage(np.zeros((5, 5), dtype=np.uint8)), "laplace")


def _signed_raster(shape, seed, palette):
    """Seeded float raster with negative values, +0.0 and -0.0. A palette
    raster is 3x3 blocks of a few levels, so many sums are exact zeros,
    of either sign, and the sign of each zero shows."""
    rng = np.random.default_rng(seed)
    if palette:
        blocks = rng.choice(np.array([-0.0, 0.0, -1.0, 1.0, -2.5]),
                            size=(shape[0] // 3 + 1, shape[1] // 3 + 1))
        return np.kron(blocks, np.ones((3, 3)))[:shape[0], :shape[1]]
    a = rng.normal(scale=60.0, size=shape)
    a[rng.random(shape) < 0.15] = 0.0
    a[rng.random(shape) < 0.15] = -0.0
    return a


@pytest.mark.parametrize("palette", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (2, 2), (3, 5), (16, 16), (40, 33)])
@pytest.mark.parametrize("operator", ["sobel", "prewitt"])
def test_gradient_matches_brute_force(operator, shape, palette):
    values = _signed_raster(shape, shape[0] * 100 + shape[1], palette)
    field = gradient_raster(values, operator)
    gx, gy = brute_gradient(values, operator)
    for got, want in ((field.gx, gx), (field.gy, gy)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_gradient_memory_at_513():
    # 12,914,614 bytes was the peak of the direct 3x3 form on this raster;
    # keeping both separable sums alive to the end peaks at 15.0 MB
    img, _ = generate(PhantomSpec(width=513, height=513, seed=7, semi_axis_x=200,
                                  semi_axis_y=240, lesion=LesionSpec(80, 256, 20, 60)))
    smoothed = smooth_raster(img.pixels, 1.0)
    for operator in ("sobel", "prewitt"):
        gradient_raster(smoothed, operator)
        tracemalloc.start()
        try:
            gradient_raster(smoothed, operator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12_914_614, operator


# ---------------------------------------------------------------------------
# canny

def test_canny_constant_empty():
    img = GrayImage(np.full((32, 32), 90, dtype=np.uint8))
    em = canny(img, 1.0, 0.1, 0.2)
    assert em.count == 0


def test_canny_step_one_pixel_per_row():
    em = canny(vertical_step(), 1.0, 0.1, 0.2)
    per_row = em.mask.sum(axis=1)
    assert np.all(per_row == 1)
    cols = np.unique(np.nonzero(em.mask)[1])
    assert len(cols) == 1


def test_canny_threshold_validation():
    img = vertical_step()
    for low, high in [(0.2, 0.1), (0.0, 0.5), (0.3, 1.0), (0.3, 0.3)]:
        with pytest.raises(ParameterError):
            canny(img, 1.0, low, high)


def _random_smooth_image(rng, shape, sigma=2.0):
    base = rng.integers(0, 256, size=shape).astype(np.float64)
    sm = smooth_raster(base, sigma)
    return GrayImage(np.clip(sm, 0, 255).astype(np.uint8))


def test_canny_edges_are_nms_survivors_above_low_connected_to_strong():
    rng = np.random.default_rng(17)
    for _ in range(4):
        img = _random_smooth_image(rng, (24, 31))
        em = canny(img, 1.0, 0.1, 0.2)
        field = gradient_raster(smooth_raster(img.pixels, 1.0), "sobel")
        survivors = nonmax_suppress(field)
        max_mag = field.magnitude.max()
        if max_mag == 0:
            assert em.count == 0
            continue
        low = 0.1 * max_mag
        high = 0.2 * max_mag
        strong = em.mask & (field.magnitude >= high)
        ys, xs = np.nonzero(em.mask)
        for y, x in zip(ys, xs):
            assert survivors[y, x]
            assert field.magnitude[y, x] >= low
            assert reaches_strong(em.mask, strong, (int(x), int(y)))


def test_canny_mirror_equivariance():
    rng = np.random.default_rng(42)
    for _ in range(8):
        img = _random_smooth_image(rng, (33, 41))
        mirrored = GrayImage(np.fliplr(img.pixels))
        a = canny(img, 1.0, 0.1, 0.2).mask
        b = canny(mirrored, 1.0, 0.1, 0.2).mask
        assert np.array_equal(np.fliplr(a), b)


# ---------------------------------------------------------------------------
# direction bins and non-maximum suppression against the brute-force oracles

def _boundary_orientations():
    """Radians at and 1..3 ulps either side of every bin bound, +-22.5,
    +-67.5, +-112.5 and +-157.5 degrees, plus 0, -0.0 and +-pi."""
    values = [0.0, -0.0, math.pi, -math.pi]
    for deg in (22.5, 67.5, 112.5, 157.5):
        for sign in (1.0, -1.0):
            for toward in (math.inf, -math.inf):
                r = np.float64(math.radians(sign * deg))
                for _ in range(4):
                    values.append(float(r))
                    r = np.nextafter(r, toward)
    return np.array(values)


def _nms_cases():
    rng = np.random.default_rng(29)
    cases = []
    for h, w in [(1, 1), (1, 5), (4, 1), (2, 2), (3, 7), (9, 4), (13, 13), (20, 20)]:
        cases.append((f"random-{h}x{w}", rng.random((h, w)), rng.uniform(-math.pi, math.pi, (h, w))))
    for h, w in [(6, 6), (11, 17), (20, 20)]:
        # integer magnitudes and directions on the bin centres force plateaus
        mag = rng.integers(0, 3, size=(h, w)).astype(np.float64)
        ori = rng.integers(-3, 5, size=(h, w)) * (math.pi / 4)
        cases.append((f"plateau-{h}x{w}", mag, ori))
    # taller than one row block, height not a multiple of the block size
    h, w = 2 * _NMS_BLOCK_ROWS + 22, 37
    cases.append((f"blocks-{h}x{w}", rng.integers(0, 4, size=(h, w)).astype(np.float64),
                  rng.integers(-3, 5, size=(h, w)) * (math.pi / 4)))
    cases.append((f"blocks-random-{h}x{w}", rng.random((h, w)), rng.uniform(-math.pi, math.pi, (h, w))))
    bounds = _boundary_orientations()
    cases.append(("bounds", rng.integers(0, 3, size=(3, bounds.size)).astype(np.float64),
                  np.tile(bounds, (3, 1))))
    return cases


NMS_CASES = _nms_cases()


@pytest.mark.parametrize("case", NMS_CASES, ids=[name for name, _, _ in NMS_CASES])
def test_direction_bins_match_spec(case):
    _, _, ori = case
    assert np.array_equal(_direction_bins(ori), brute_direction_bins(ori))


def test_direction_bound_22_5_degrees_stays_in_bin_0():
    ori = _boundary_orientations()
    bins = _direction_bins(ori)
    on_bound = np.degrees(ori) == 22.5
    assert on_bound.any()
    assert np.all(bins[on_bound] == 0)


@pytest.mark.parametrize("case", NMS_CASES, ids=[name for name, _, _ in NMS_CASES])
def test_nonmax_matches_brute_force(case):
    _, mag, ori = case
    field = GradientField(mag, mag, mag, ori)
    assert np.array_equal(nonmax_suppress(field), brute_nonmax(mag, ori))


# ---------------------------------------------------------------------------
# threshold_edges / EdgeMap.count

def test_threshold_edges_zero_field_empty():
    img = GrayImage(np.full((8, 8), 123, dtype=np.uint8))
    for frac in (0.01, 0.5, 1.0):
        assert threshold_edges(gradient(img, "sobel"), frac).count == 0


def test_threshold_edges_frac_one_keeps_only_max():
    field = gradient(vertical_step(), "sobel")
    em = threshold_edges(field, 1.0)
    assert em.count > 0
    assert np.all(field.magnitude[em.mask] == field.magnitude.max())


def test_threshold_edges_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(6):
        raw = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
        field = gradient(GrayImage(raw), "prewitt")
        frac = float(rng.uniform(0.05, 1.0))
        em = threshold_edges(field, frac)
        cutoff = frac * field.magnitude.max()
        for y in range(10):
            for x in range(12):
                assert em.mask[y, x] == (field.magnitude[y, x] >= cutoff)


def test_threshold_edges_validation():
    field = gradient(vertical_step(), "sobel")
    for frac in (0.0, -0.5, 1.2):
        with pytest.raises(ParameterError):
            threshold_edges(field, frac)


def test_count_edges_basics():
    assert EdgeMap(np.zeros((3, 3), dtype=bool)).count == 0
    assert EdgeMap(np.ones((4, 4), dtype=bool)).count == 16


def test_count_edges_matches_scan():
    rng = np.random.default_rng(29)
    for _ in range(5):
        mask = rng.random((9, 7)) < 0.4
        assert EdgeMap(mask).count == popcount_scan(mask)
