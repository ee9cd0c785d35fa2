import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

from brainsym.edges import OPERATORS, GradientField, _candidates, _direction_bins
from brainsym.imaging import _block_rows

from oracles import (
    brute_canny,
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
    with pytest.raises(ParameterError, match="unknown operator"):
        gradient(GrayImage(np.zeros((5, 5), dtype=np.uint8)), "laplace")
    # the operator is checked before the size, which only a known operator has
    with pytest.raises(ParameterError, match="unknown operator"):
        gradient(GrayImage([[1]]), "laplace")
    with pytest.raises(ParameterError, match="unknown operator"):
        gradient_raster(np.zeros((5, 5)), "laplace")


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
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (2, 2), (3, 5), (16, 16), (40, 33),
                                   (65, 3), (63, 4), (64, 5)])
@pytest.mark.parametrize("operator", ["sobel", "prewitt"])
def test_gradient_matches_brute_force(operator, shape, palette):
    values = _signed_raster(shape, shape[0] * 100 + shape[1], palette)
    field = gradient_raster(values, operator)
    gx, gy = brute_gradient(values, operator)
    for got, want in ((field.gx, gx), (field.gy, gy)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _extreme_rasters():
    """0 and +-1 rasters of sides 1-8: seeded random ones, and the period-4
    column and row patterns [1, 1, -1, -1], where a Sobel sum of 4 minus
    one of -4 makes |gx| or |gy| 8."""
    rng = np.random.default_rng(71)
    period = np.resize([1.0, 1.0, -1.0, -1.0], 8)
    for h in range(1, 9):
        for w in range(1, 9):
            for _ in range(4):
                yield rng.choice([-1.0, 0.0, 1.0], size=(h, w))
            yield np.broadcast_to(period[:w], (h, w)).copy()
            yield np.broadcast_to(period[:h, None], (h, w)).copy()


def test_gradient_does_not_overflow_up_to_2_1020():
    # gradient_raster's documented range: no pass, filler columns included,
    # overflows or warns for |values| <= 2**1020. Scaling by a power of two
    # is exact, so gx and gy are 2**1020 times those of the 0/+-1 raster
    scale = 2.0**1020
    largest = dict.fromkeys(OPERATORS, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for unit in _extreme_rasters():
            for operator in OPERATORS:
                field = gradient_raster(unit * scale, operator)
                want = gradient_raster(unit, operator)
                assert np.array_equal(field.gx, want.gx * scale)
                assert np.array_equal(field.gy, want.gy * scale)
                assert np.isfinite(field.magnitude).all()
                assert np.isfinite(field.orientation).all()
                largest[operator] = max(largest[operator], np.abs(want.gx).max(),
                                        np.abs(want.gy).max())
    assert largest == {"sobel": 8.0, "prewitt": 6.0, "roberts": 2.0}


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


def _lesioned_513():
    img, _ = generate(PhantomSpec(width=513, height=513, seed=7, semi_axis_x=200,
                                  semi_axis_y=240, lesion=LesionSpec(80, 256, 20, 60)))
    return img


def _sparse_raster():
    """Isolated bright pixels on black: at sigma 0.05 the kernel's axis
    tails give magnitudes near 4e-85 and its diagonal tails near 7e-172,
    whose squares underflow to 0; at sigma 0.037 the axis tails give
    magnitudes near 7e-157, whose squares are subnormal."""
    px = np.zeros((16, 16), dtype=np.uint8)
    px[2::5, 3::6] = 255
    px[8, 8] = 200
    return px


def _frac_giving(max_mag, target, above=False):
    """A low_frac whose product with max_mag is target, or, with above,
    the least product above target; None if no product is target."""
    frac = target / max_mag
    while frac * max_mag > target:
        frac = float(np.nextafter(frac, 0.0))
    while frac * max_mag < target or (above and frac * max_mag == target):
        frac = float(np.nextafter(frac, math.inf))
    return frac if above or frac * max_mag == target else None


def _low_frac_hitting(pixels, sigma, floor):
    """A low_frac whose low = low_frac * max magnitude is exactly a
    magnitude of the field: the least above floor that such a product
    can hit."""
    mag = gradient_raster(smooth_raster(pixels, sigma), "sobel").magnitude
    for target in np.unique(mag[mag > floor]):
        frac = _frac_giving(float(mag.max()), float(target))
        if frac is not None:
            return frac
    raise AssertionError("no low_frac hits a magnitude")


def _pinned_low_fracs(pixels, sigma, high):
    """Two low_fracs pinned to one edge pixel p. At the first, low is p's
    magnitude exactly, p is an edge and its rounded s = gx*gx + gy*gy lies
    below the rounded low*low, so an unguarded s-prefilter would drop it.
    At the second, low is the least product above p's magnitude: p is
    not weak, though it is a candidate and 8-connected to a strong pixel."""
    field = gradient_raster(smooth_raster(pixels, sigma), "sobel")
    mag = field.magnitude
    s = field.gx * field.gx + field.gy * field.gy
    max_mag = float(mag.max())
    ys, xs = np.nonzero(brute_canny(pixels, sigma, 0.02, high))
    for y, x in sorted(zip(ys, xs), key=lambda p: mag[p]):
        m = float(mag[y, x])
        at = _frac_giving(max_mag, m)
        if at is None or not s[y, x] < m * m or not brute_canny(pixels, sigma, at, high)[y, x]:
            continue
        above = _frac_giving(max_mag, m, above=True)
        edges = brute_canny(pixels, sigma, above, high)
        if not edges[y, x] and edges[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2].any():
            return at, above
    raise AssertionError("no edge pixel to pin low to")


def _low_frac_past_the_bound(pixels, sigma, high, first_row):
    """A low_frac under which an edge pixel p at or below first_row has
    magnitude exactly low, while the bound low_frac**2 * max(s), rounded,
    exceeds p's s even after the 1e-9 guard. That happens only where
    low_frac**2 is subnormal and rounds up, so the bound is under 1e-300
    and canny must take every pixel."""
    field = gradient_raster(smooth_raster(pixels, sigma), "sobel")
    mag = field.magnitude
    s = field.gx * field.gx + field.gy * field.gy
    max_mag, max_s = float(mag.max()), float(s.max())
    ys, xs = np.nonzero(mag[first_row:] > 0)
    for y, x in zip(ys + first_row, xs):
        frac = _frac_giving(max_mag, float(mag[y, x]))
        if (frac is not None and frac * frac * max_s * (1.0 - 1e-9) > s[y, x]
                and brute_canny(pixels, sigma, frac, high)[y, x]):
            return frac
    raise AssertionError("no edge pixel lies past the rounded bound")


def _running_bound_cases():
    """Rasters of width 7, so canny's blocks are 64 rows, and three blocks
    tall; its bound low_frac**2 * max(s) grows with the running maximum."""
    rng = np.random.default_rng(43)
    cases = []
    # faint +-1-2-level texture, strongest edge in the last block: the first
    # two blocks keep far more than the candidates; and the same upside down
    texture = 100 + rng.integers(-2, 3, size=(3 * 64, 7))
    texture[170:, 4:] += 150
    for where, px in (("last", texture), ("first", texture[::-1])):
        cases.append((f"strongest-edge-in-{where}-block", px, 1.0, 0.1, 0.2))
        at, above = _pinned_low_fracs(px, 1.0, 0.99)
        cases.append((f"strongest-edge-in-{where}-block-low-at-edge-pixel", px, 1.0, at, 0.99))
        cases.append((f"strongest-edge-in-{where}-block-low-above-edge-pixel",
                      px, 1.0, above, 0.99))
    # isolated level-1 pixels, and the brightest two rows above the bottom:
    # at this low_frac the bound is under 1e-300 in the first two blocks, so
    # they take every pixel, and 4e-300 from the last block on
    sparse = np.zeros((190, 7), dtype=int)
    sparse[2:160:5, 1::3] = 1
    sparse[187, 3] = 255
    low = math.sqrt(4e-300) / 510.0
    cases.append(("sparse-bound-rises-past-1e-300", sparse, 0.05, low, 0.5))
    # the axis tails at sigma 0.0368 give the bottom border row magnitudes
    # near 1e-156, edges next to the bright pixel's ring
    low = _low_frac_past_the_bound(sparse, 0.0368, 0.5, 128)
    cases.append(("sparse-rounded-bound-above-edge-pixel", sparse, 0.0368, low, 0.5))
    return cases


def _canny_spec_cases():
    rng = np.random.default_rng(31)
    cases = []
    for h, w in [(1, 1), (1, 12), (12, 1), (2, 9)]:
        cases.append((f"random-{h}x{w}", rng.integers(0, 256, size=(h, w)), 1.0, 0.1, 0.2))
    cases.append(("constant", np.full((9, 11), 77), 1.0, 0.1, 0.2))
    cases.append(("constant-1x7", np.full((1, 7), 200), 0.5, 0.1, 0.2))
    two = rng.choice([0, 255], size=(17, 23))
    three = rng.choice([0, 128, 255], size=(20, 20))
    blocks = np.kron(rng.choice([0, 90, 255], size=(8, 10)), np.ones((3, 3), dtype=int))
    for name, px in (("palette-2", two), ("palette-3", three), ("blocks-3x3", blocks)):
        for sigma in (0.5, 1.0, 2.0):
            cases.append((f"{name}-s{sigma}", px, sigma, 0.1, 0.2))
    cases.append(("blocks-3x3-wide-band", blocks, 1.0, 0.02, 0.9))
    # exact NMS ties: the (y, x) tie rule keeps the first pixel of each tie,
    # so these two masks are not mirror images of each other
    tied = np.array([[0, 255, 0, 255], [255, 0, 0, 255], [255, 255, 255, 255]])
    cases.append(("tie-3x4", tied, 1.0, 0.1, 0.2))
    cases.append(("tie-3x4-mirrored", tied[:, ::-1], 1.0, 0.1, 0.2))
    sparse = _sparse_raster()
    for low in (1e-155, 1e-160, 1e-200):
        cases.append((f"tails-low-{low:g}", sparse, 0.05, low, 0.5))
    # a magnitude near 5e-172, and one near 7e-157, whose square is subnormal
    for sigma, floor in ((0.05, 0.0), (0.037, 1e-200)):
        low = _low_frac_hitting(sparse, sigma, floor)
        cases.append((f"low-hits-magnitude-tails-s{sigma}", sparse, sigma, low, 0.5))
    for name, px, sigma in (("palette-3", three, 1.0), ("blocks-3x3", blocks, 1.0),
                            ("random-smooth", rng.integers(0, 256, size=(24, 24)), 2.0)):
        at, above = _pinned_low_fracs(px, sigma, 0.5)
        cases.append((f"low-at-edge-pixel-{name}", px, sigma, at, 0.5))
        cases.append((f"low-just-above-edge-pixel-{name}", px, sigma, above, 0.5))
    # max magnitude under 0.1, so low = 5e-324 * max underflows to 0 and
    # zero-magnitude pixels, corners included, are candidates too
    faint = np.zeros((30, 30), dtype=int)
    faint[15, 3] = faint[5, 20] = 1
    cases.append(("low-underflows-to-0", faint, 2.0, 5e-324, 0.5))
    cases.append(("lesioned-513", _lesioned_513().pixels, 1.0, 0.1, 0.2))
    # heights straddling canny's row blocks, each smoothed with a reflected
    # row above and below
    rng = np.random.default_rng(41)
    for w in (1, 2, 7):
        b = _block_rows(w)
        for h in (b - 1, b, b + 1, 2 * b + 1):
            for sigma in (1.0, 2.0):
                px = rng.integers(0, 256, size=(h, w))
                cases.append((f"rows-{h}x{w}-s{sigma}", px, sigma, 0.1, 0.2))
    return cases + _carry_cases() + _filler_cases() + _running_bound_cases()


def _carry_cases():
    """Heights at k * b - 1, k * b and k * b + 1 for b = _block_rows(w).
    A block reads the row passes of the rows the block before also read;
    at k * b + 1 the last block has one row and row-passes no new one. At
    sigma 11 (67 taps; widths 1-3, 64-row blocks) and sigma 3 (19 taps;
    width 2048, 16-row blocks) more rows are carried than a block has."""
    rng = np.random.default_rng(61)
    cases = []
    for w, sigma, blocks in ((1, 11.0, 3), (2, 11.0, 3), (3, 11.0, 3), (2048, 3.0, 2)):
        b = _block_rows(w)
        for k in range(1, blocks + 1):
            for h in (k * b - 1, k * b, k * b + 1):
                px = rng.integers(0, 256, size=(h, w))
                cases.append((f"carry-{h}x{w}-s{sigma}", px, sigma, 0.1, 0.2))
    return cases


def _filler_cases():
    """sigma under 1/3 has 3 taps, so canny's block rows are w + 2 values
    wide with no spare column: the filler of gx, gy and s is only columns
    w and w + 1, where the Sobel differences read across a row end. Widths
    3-5 at heights around a block; low_frac 1e-200 squares to 0, so the
    bound is under 1e-300 and every pixel is a candidate."""
    rng = np.random.default_rng(67)
    cases = []
    for w in (3, 4, 5):
        b = _block_rows(w)
        for h in (b - 1, b, b + 1):
            px = rng.integers(0, 256, size=(h, w))
            for sigma in (0.2, 0.33):
                for low, high in ((0.1, 0.2), (1e-200, 0.5)):
                    cases.append((f"filler-{h}x{w}-s{sigma}-low{low:g}", px, sigma, low, high))
    return cases


CANNY_SPEC_CASES = _canny_spec_cases()


@pytest.mark.parametrize("case", CANNY_SPEC_CASES, ids=[c[0] for c in CANNY_SPEC_CASES])
def test_canny_matches_full_frame_spec(case):
    _, pixels, sigma, low, high = case
    got = canny(GrayImage(pixels.astype(np.uint8)), sigma, low, high).mask
    assert np.array_equal(got, brute_canny(pixels, sigma, low, high))


def _dense_weak_cases():
    # uniform and two-level noise, where 36-40% of the pixels (nearly every
    # NMS survivor) are weak, in many components; at high 0.9 most of them
    # reach no strong pixel
    rng = np.random.default_rng(59)
    cases = []
    for h, w in ((40, 40), (64, 48), (33, 70)):
        for palette in ("uniform", "binary"):
            px = (rng.integers(0, 256, size=(h, w)) if palette == "uniform"
                  else rng.choice([0, 255], size=(h, w)))
            for sigma in (0.3, 1.0):
                for low, high in ((0.001, 0.5), (0.05, 0.7), (0.2, 0.9)):
                    cases.append((f"{palette}-{h}x{w}-s{sigma}-low{low}-high{high}",
                                  px, sigma, low, high))
    return cases


DENSE_WEAK_CASES = _dense_weak_cases()


@pytest.mark.parametrize("case", DENSE_WEAK_CASES, ids=[c[0] for c in DENSE_WEAK_CASES])
def test_canny_dense_weak_matches_full_frame_spec(case):
    _, pixels, sigma, low, high = case
    got = canny(GrayImage(pixels.astype(np.uint8)), sigma, low, high).mask
    assert np.array_equal(got, brute_canny(pixels, sigma, low, high))


@st.composite
def _thresholds(draw):
    low = draw(st.floats(0.001, 0.9) | st.floats(3.0, 300.0).map(lambda e: 10.0 ** -e))
    return low, draw(st.floats(low, 0.999, exclude_min=True))


@settings(max_examples=150, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40))),
       st.floats(0.03, 3.0), _thresholds())
def test_canny_property_matches_full_frame_spec(raw, sigma, thresholds):
    low, high = thresholds
    assert np.array_equal(canny(GrayImage(raw), sigma, low, high).mask,
                          brute_canny(raw, sigma, low, high))


def _hypot_where(gx, gy, s, bound):
    """canny's candidate step on one row of pixels: the flat indices that
    _candidates keeps, and the hypot of the gathered gx and gy there."""
    idx = _candidates(s, bound)
    return idx, np.hypot(gx.take(idx), gy.take(idx))


def test_hypot_where_keeps_every_pixel_reaching_the_bound():
    # magnitudes over 10**-170 .. 10**3, and densely where low**2 is subnormal
    rng = np.random.default_rng(37)
    scale = 10.0 ** np.concatenate([rng.uniform(-170, 3, 2000), rng.uniform(-163, -153, 2000)])
    gx = rng.normal(size=scale.size) * scale
    gy = rng.normal(size=scale.size) * scale
    gy[::5] = 0.0
    s = gx * gx + gy * gy
    mag = np.hypot(gx, gy)
    assert _hypot_where(gx, gy, s, float(s.max()))[1].max() == mag.max()
    for low in np.concatenate([mag[::10], mag[mag < 1e-152]]):
        idx, m = _hypot_where(gx, gy, s, low * low)
        assert np.array_equal(m, mag[idx])
        assert np.isin(np.flatnonzero(mag >= low), idx).all(), low
    # canny's one pass, bound low_frac**2 * max(s): it keeps the maximum
    # and every pixel reaching low_frac times it, also where that is a pixel
    top = mag.max()
    fracs = np.concatenate([mag[::10] / top, [1e-200, 1e-150, 0.5, 1.0 - 2.0**-52]])
    for low_frac in fracs[(fracs > 0) & (fracs < 1)]:
        idx, m = _hypot_where(gx, gy, s, low_frac * low_frac * float(s.max()))
        assert m.max() == top, low_frac
        assert np.isin(np.flatnonzero(mag >= low_frac * top), idx).all(), low_frac


def _canny_peak(pixels):
    """tracemalloc peak of a canny call (sigma 1, low 0.1, high 0.2), once
    warm."""
    img = GrayImage(pixels)
    canny(img, 1.0, 0.1, 0.2)
    tracemalloc.start()
    try:
        canny(img, 1.0, 0.1, 0.2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canny_memory_at_513():
    # 15,057,508 bytes was the peak of the full-frame canny on this image,
    # 10,624,461 that of the candidate-only canny with a full-frame front
    # end, 8,432,358 that of smoothing and Sobel in row blocks, and
    # 3,694,056 that of candidates picked in those blocks, 3,018,065 that
    # of hysteresis on the weak pixels' runs, with no label raster, and
    # 2,869,511 that of Sobel on the blocks' flat rows with hypot and the
    # direction bins taken once; the cap allows 3% over the last
    assert _canny_peak(_lesioned_513().pixels) <= 2_955_596


def _y_squared_ramp():
    rows = np.arange(513) ** 2 * 255 // 512 ** 2
    return np.repeat(rows.astype(np.uint8)[:, None], 513, axis=1)


@pytest.mark.parametrize("pixels, cap", [
    pytest.param(np.random.default_rng(53).integers(0, 256, size=(513, 513), dtype=np.uint8),
                 18_618_540, id="random"),
    pytest.param(_y_squared_ramp(), 17_907_478, id="y-squared-ramp"),
])
def test_canny_memory_where_most_pixels_are_candidates(pixels, cap):
    # 91% (random) and 87% (ramp) of the pixels reach low, so the candidate
    # arrays are nearly full-frame; the caps allow 1% over the peaks with the
    # full-frame Sobel front end, 18,434,198 and 17,730,176 bytes
    assert _canny_peak(pixels) <= cap


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
    h, w = 2 * _block_rows(37) + 22, 37
    cases.append((f"blocks-{h}x{w}", rng.integers(0, 4, size=(h, w)).astype(np.float64),
                  rng.integers(-3, 5, size=(h, w)) * (math.pi / 4)))
    cases.append((f"blocks-random-{h}x{w}", rng.random((h, w)), rng.uniform(-math.pi, math.pi, (h, w))))
    bounds = _boundary_orientations()
    cases.append(("bounds", rng.integers(0, 3, size=(3, bounds.size)).astype(np.float64),
                  np.tile(bounds, (3, 1))))
    # the same at width 1025, whose blocks are 32 rows, not 64
    h, w = 2 * _block_rows(1025) + 22, 1025
    cases.append((f"blocks-{h}x{w}", rng.integers(0, 4, size=(h, w)).astype(np.float64),
                  rng.integers(-3, 5, size=(h, w)) * (math.pi / 4)))
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
