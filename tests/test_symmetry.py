import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from brainsym import (
    GeometryError,
    GrayImage,
    LesionSpec,
    ParameterError,
    PhantomSpec,
    SingularSystemError,
    SymmetryAxis,
    brain_mask,
    fit_axis_lsm,
    generate,
    reflect_x,
    residual_rms,
    row_midpoints,
    solve_cramer,
)
from brainsym.symmetry import _det, _normal_equations

from oracles import (brute_row_midpoints, flood_fill_components, gauss_eliminate, largest_blob,
                     otsu_one_call, textbook_det)


def disk_image(size=64, center=(32, 32), radius=15, fg=200, bg=20):
    ys, xs = np.ogrid[0:size, 0:size]
    mask = (xs - center[0]) ** 2 + (ys - center[1]) ** 2 <= radius ** 2
    img = np.full((size, size), bg, dtype=np.uint8)
    img[mask] = fg
    return GrayImage(img), mask


# ---------------------------------------------------------------------------
# brain mask

def test_brain_mask_selects_bright_disk():
    img, disk = disk_image()
    mask = brain_mask(img)
    assert mask.dtype == bool and mask.shape == disk.shape
    assert np.array_equal(mask, disk)


def test_brain_mask_uniform_image_errors():
    with pytest.raises(GeometryError, match="no foreground separable"):
        brain_mask(GrayImage(np.full((8, 8), 77, dtype=np.uint8)))


def test_brain_mask_keeps_largest_component():
    img = np.full((40, 40), 20, dtype=np.uint8)
    img[5:25, 5:25] = 200      # 400 px blob
    img[30:34, 30:34] = 200    # 16 px blob
    mask = brain_mask(GrayImage(img))
    assert mask.dtype == bool and mask.shape == img.shape
    assert mask[10, 10]
    assert not mask[31, 31]
    assert len(flood_fill_components(mask)) == 1


@pytest.mark.parametrize("blobs, kept", [
    ([(2, 30, 3, 4), (3, 1, 4, 3)], 0),                   # an earlier row wins
    ([(4, 20, 3, 4), (4, 2, 4, 3)], 1),                   # same row: the smaller column
    ([(6, 2, 2, 6), (1, 25, 6, 2), (10, 10, 1, 3)], 1),   # plus a smaller third blob
])
def test_brain_mask_keeps_raster_first_of_equal_largest_blobs(blobs, kept):
    # 12 px rectangles (y0, x0, h, w): of equal largest blobs the one whose
    # first pixel comes first in raster order is kept, as np.argmax over the
    # sizes of ndimage.label's labels did
    img = np.full((16, 40), 20, dtype=np.uint8)
    for y0, x0, h, w in blobs:
        img[y0:y0 + h, x0:x0 + w] = 200
    y0, x0, h, w = blobs[kept]
    want = np.zeros(img.shape, dtype=bool)
    want[y0:y0 + h, x0:x0 + w] = True
    assert np.array_equal(brain_mask(GrayImage(img)), want)
    labels, _ = ndimage.label(img == 200, structure=np.ones((3, 3)))
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    assert np.array_equal(labels == np.argmax(sizes), want)


@pytest.mark.parametrize("h", [127, 128, 129, 257])  # around its 128-row blocks
def test_brain_mask_matches_one_histogram_across_row_blocks(h):
    rng = np.random.default_rng(h)
    for _ in range(10):
        px = rng.integers(0, 256, size=(h, 3)).astype(np.uint8)
        assert np.array_equal(brain_mask(GrayImage(px)), largest_blob(px >= otsu_one_call(px)))


def _brain_mask_peak(img):
    """tracemalloc peak of a brain_mask call, once warm."""
    brain_mask(img)
    tracemalloc.start()
    try:
        brain_mask(img)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brain_mask_memory_at_513():
    # 2,107,688 bytes was the peak with one np.bincount over the raster,
    # which copies it to intp, 1,358,902 that of the 128-row blocks with an
    # ndimage.label raster, and 571,145 that of the run labeling; the cap
    # allows 3% over the last
    img, _ = generate(PhantomSpec(width=513, height=513, seed=7, semi_axis_x=200,
                                  semi_axis_y=240, lesion=LesionSpec(80, 256, 20, 60)))
    assert _brain_mask_peak(img) <= 588_279


def test_brain_mask_memory_on_a_checkerboard_at_513():
    # one-pixel runs, the run labeling's worst case: 4,492,722 bytes, where
    # the ndimage.label raster peaked at 1,359,142, and 4,295,837 with the
    # run lengths taken after the labeling; the cap allows 3% over the last
    y, x = np.indices((513, 513))
    img = GrayImage(((y + x) % 2 * 255).astype(np.uint8))
    assert _brain_mask_peak(img) <= 4_424_712


# ---------------------------------------------------------------------------
# midpoints

def test_row_midpoints_two_pixel_row():
    m = np.zeros((3, 41), dtype=bool)
    m[1, 10] = True
    m[1, 30] = True
    samples = row_midpoints(m, 5)
    assert samples.dtype == np.float64
    assert samples.tolist() == [[1.0, 20.0]]


def test_row_midpoints_span_filter_and_empty_rows():
    m = np.zeros((4, 30), dtype=bool)
    m[0, 3:6] = True           # span 2, filtered out
    m[2, 2:20] = True          # span 17, kept
    samples = row_midpoints(m, 10)
    assert samples.tolist() == [[2.0, (2 + 19) / 2]]
    # span 17 is kept at min_span 17 and dropped at 18
    assert samples[:, 0].tolist() == row_midpoints(m, 17)[:, 0].tolist() == [2.0]
    assert row_midpoints(m, 18).shape == (0, 2)
    for shape in ((0, 5), (3, 0), (0, 0)):
        assert row_midpoints(np.zeros(shape, dtype=bool), 1).shape == (0, 2)


def test_row_midpoints_discards_midpoint_off_mask():
    m = np.zeros((2, 40), dtype=bool)
    m[0, 0:3] = True
    m[0, 30:33] = True          # two lobes, midpoint column 16 is background
    assert row_midpoints(m, 4, require_mid_on_mask=True).shape == (0, 2)
    assert len(row_midpoints(m, 4)) == 1


def test_row_midpoints_matches_brute_force():
    rng = np.random.default_rng(59)
    for case in range(600):
        height, width = (int(v) for v in rng.integers(1, 25, size=2))
        density = (0.0, 1.0, 0.05, 0.3, 0.7)[case % 5]
        m = rng.random((height, width)) < density
        min_span = int(rng.integers(0, width + 2))
        for on_mask in (False, True):
            got = row_midpoints(m, min_span, require_mid_on_mask=on_mask)
            want = np.array(brute_row_midpoints(m, min_span, on_mask), dtype=np.float64)
            assert got.dtype == np.float64 and got.shape == (len(want), 2)
            assert np.array_equal(got, want.reshape(-1, 2))


def test_row_midpoints_centered_ellipse():
    ys, xs = np.ogrid[0:61, 0:129]
    mask = ((xs - 64) / 40.0) ** 2 + ((ys - 30) / 25.0) ** 2 <= 1.0
    samples = row_midpoints(mask, 8)
    assert len(samples) > 30
    assert np.all(samples[:, 1] == 64.0)


# ---------------------------------------------------------------------------
# normal equations

def test_normal_equations_worked_example():
    matrix, rhs = _normal_equations(np.array([0.0, 1.0]), np.array([5.0, 5.0]), 1)
    assert matrix.tolist() == [[2.0, 1.0], [1.0, 1.0]]
    assert rhs.tolist() == [10.0, 5.0]


def test_normal_equations_symmetric():
    rng = np.random.default_rng(31)
    for degree in (1, 2):
        ys = rng.integers(0, 100, 12).astype(np.float64)
        xs = rng.uniform(0, 50, 12)
        matrix, _ = _normal_equations(ys, xs, degree)
        assert np.array_equal(matrix, matrix.T)


@pytest.mark.parametrize("degree", [0, 3])
def test_fit_axis_degree_validation(degree):
    samples = np.column_stack((np.arange(8.0), np.full(8, 20.0)))
    with pytest.raises(ParameterError, match="degree must be 1 or 2"):
        fit_axis_lsm(samples, degree)


def test_normal_equations_too_few_samples():
    with pytest.raises(GeometryError):
        fit_axis_lsm(np.array([[0.0, 5.0]]), 1)
    with pytest.raises(GeometryError):
        fit_axis_lsm(np.array([[0.0, 5.0], [1.0, 6.0]]), 2)
    # anything but an (n, 2) array is a parameter error, not a reshape failure
    axis = SymmetryAxis(1, (20.0, 0.0))
    for malformed in (np.zeros((5, 3)), np.zeros(10), [[0.0, 5.0], [1.0, 6.0]]):
        with pytest.raises(ParameterError):
            fit_axis_lsm(malformed, 1)
    for malformed in (np.zeros((4, 3)), np.zeros((0, 2)), [(0, 20.0)]):
        with pytest.raises(ParameterError):
            residual_rms(axis, malformed)


# ---------------------------------------------------------------------------
# cramer

def test_cramer_identity():
    assert np.allclose(solve_cramer(np.eye(3), np.array([4.0, -2.0, 9.0])), [4.0, -2.0, 9.0])


def test_cramer_one_by_one():
    assert solve_cramer(np.array([[4.0]]), np.array([2.0])).tolist() == [0.5]


def test_cramer_worked_example():
    x = solve_cramer(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-12)


def test_cramer_singular():
    with pytest.raises(SingularSystemError, match="degenerate midpoint geometry"):
        solve_cramer(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))


def test_cramer_size_validation():
    for matrix, rhs in (
        (np.eye(4), np.ones(4)),          # n above 3
        (np.eye(3), np.ones(2)),          # matrix not n x n
        (np.eye(2), np.ones((2, 1))),     # rhs not 1-D
        (np.ones(4), np.ones(2)),         # flat matrix
    ):
        with pytest.raises(ParameterError):
            solve_cramer(matrix, rhs)


@pytest.mark.parametrize("matrix, rhs", [
    (np.diag([1e200, 1e200]), np.ones(2)),     # 2! m**2 overflows
    (np.diag([1e120] * 3), np.ones(3)),        # 3! m**3 overflows
    (np.eye(2) * 1e150, np.array([1e200, 1.0])),  # a numerator would overflow
    (np.array([[np.nan]]), np.ones(1)),
    (np.eye(2), np.array([np.inf, 1.0])),
    (np.array([[1.0, -np.inf], [0.0, 1.0]]), np.ones(2)),
], ids=["2x2-1e200", "3x3-1e120", "rhs-1e200", "nan-matrix", "inf-rhs", "inf-matrix"])
def test_cramer_rejects_non_finite_and_overflowing_systems(matrix, rhs):
    with pytest.raises(ParameterError):
        solve_cramer(matrix, rhs)


def test_cramer_solves_large_entries_in_range():
    # 2 * (1e150)**2 and 6 * (1e100)**3 are finite, so these still solve
    assert solve_cramer(np.diag([1e150, 1e150]), np.array([1e150, 2e150])).tolist() == [1.0, 2.0]
    assert solve_cramer(np.diag([1e100] * 3), np.full(3, 1e100)).tolist() == [1.0, 1.0, 1.0]


def test_cramer_keeps_signed_zeros():
    # each expansion starts from -0.0; a start from 0 would give [0.0, 0.0]
    x = solve_cramer(np.eye(2), np.array([-0.0, 0.0]))
    assert [v.hex() for v in x.tolist()] == ["-0x0.0p+0", "0x0.0p+0"]


def test_det_adds_cancelling_terms_left_to_right():
    # first-row terms 1e16, 1 and -1e16: the written-out formula rounds
    # 1e16 + 1 to 1e16 and gives 0.0; a compensated sum would give 1.0
    rows = [[1e16, -1.0, -1e16], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
    assert textbook_det(rows).hex() == "0x0.0p+0"
    assert _det(rows).hex() == "0x0.0p+0"


def _det_cases(rng, n):
    """Normal, small-integer, {0, -0, +-1, 2} and 10**+-150-scaled n x n matrices."""
    yield rng.normal(size=(n, n))
    yield rng.integers(-4, 5, size=(n, n)).astype(np.float64)
    yield np.array([0.0, -0.0, 1.0, -1.0, 2.0])[rng.integers(0, 5, size=(n, n))]
    yield rng.normal(size=(n, n)) * 10.0 ** rng.choice([-150, 150])


def test_det_matches_written_out_formulas_bit_for_bit():
    rng = np.random.default_rng(2022)
    signed_zeros = 0
    for _ in range(1500):
        for n in (1, 2, 3):
            for a in _det_cases(rng, n):
                rows = a.tolist()
                want = textbook_det(rows)
                assert _det(rows).hex() == want.hex(), rows
                signed_zeros += want == 0.0 and math.copysign(1.0, want) < 0
    assert signed_zeros > 100  # the sweep reaches -0.0 determinants


def test_cramer_matches_elimination_oracle():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 4))
        a = rng.uniform(-1, 1, size=(n, n))
        if np.linalg.cond(a) >= 1e6:
            continue
        b = rng.uniform(-1, 1, size=n)
        x = solve_cramer(a, b)
        ref = gauss_eliminate(a, b)
        assert np.max(np.abs(x - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(a @ x - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))
        checked += 1


# ---------------------------------------------------------------------------
# axis fit

def test_fit_constant_midline():
    samples = np.array([[y, 20.0] for y in range(6)])
    axis = fit_axis_lsm(samples, 1)
    assert abs(axis.coeffs[0] - 20.0) < 1e-9
    assert abs(axis.coeffs[1]) < 1e-12
    assert residual_rms(axis, samples) < 1e-9


def test_fit_collinear_exact():
    samples = np.array([[y, 10.0 + 2.0 * y] for y in range(8)])
    axis = fit_axis_lsm(samples, 1)
    assert abs(axis.coeffs[0] - 10.0) < 1e-9
    assert abs(axis.coeffs[1] - 2.0) < 1e-9


def test_fit_matches_elimination_oracle():
    # row ranges kept small enough that the raw normal equations stay
    # well conditioned, so the elimination oracle itself is trustworthy
    rng = np.random.default_rng(41)
    for degree, top in ((1, 60), (2, 20)):
        ys = np.arange(0, top, dtype=np.float64)
        xs = 30.0 + 0.2 * ys - 0.001 * ys ** 2 + rng.normal(0, 0.5, size=ys.size)
        axis = fit_axis_lsm(np.column_stack((ys, xs)), degree)

        n = degree + 1
        matrix = np.array([[np.sum(ys ** (j + k)) for k in range(n)] for j in range(n)])
        rhs = np.array([np.sum(xs * ys ** j) for j in range(n)])
        ref = gauss_eliminate(matrix, rhs)
        rel = np.max(np.abs(np.array(axis.coeffs) - ref)) / max(1.0, np.max(np.abs(ref)))
        assert rel <= 1e-9


def test_fit_degree_two_at_image_scale():
    # exact quadratic over 250 rows; raw moment matrices are near the
    # singularity guard at this scale, the centered fit must not be
    samples = np.array([[y, 120.0 + 0.05 * y - 0.0002 * y * y] for y in range(0, 250)])
    axis = fit_axis_lsm(samples, 2)
    assert axis.coeffs == pytest.approx((120.0, 0.05, -0.0002), abs=1e-9)


@pytest.mark.parametrize("degree", [1, 2])
def test_fit_rows_too_close_to_square_are_singular(degree):
    # rows 1e-200 apart: the squared spread of the row coordinate is 0, so
    # the fit reports degenerate geometry instead of dividing by it
    samples = np.array([[0.0, 3.0], [1e-200, 4.0], [5e-201, 2.0]])
    with pytest.raises(SingularSystemError):
        fit_axis_lsm(samples, degree)


def test_fit_with_non_finite_coefficients_is_a_geometry_error():
    # rows 1e-160 apart: the squared spread is subnormal, so the degree-2
    # expansion overflows; it raises, with no numpy warning, and degree 1
    # still gives a finite axis
    samples = np.array([[0.0, 3.0], [1e-160, 4.0], [5e-161, 2.0]])
    with pytest.raises(GeometryError, match="not finite"):
        fit_axis_lsm(samples, 2)
    assert np.isfinite(fit_axis_lsm(samples, 1).coeffs).all()


def test_fit_is_least_squares_optimal():
    rng = np.random.default_rng(43)
    ys = np.arange(0, 40, dtype=np.float64)
    xs = 25.0 - 0.1 * ys + rng.normal(0, 1.0, size=ys.size)
    axis = fit_axis_lsm(np.column_stack((ys, xs)), 1)
    best = sum((x - axis.at(y)) ** 2 for y, x in zip(ys, xs))
    for _ in range(100):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        magnitude = 10 ** rng.uniform(-3, 0)
        c = np.array(axis.coeffs) + magnitude * direction
        ssr = sum((x - (c[0] + c[1] * y)) ** 2 for y, x in zip(ys, xs))
        assert best <= ssr


def test_symmetric_mask_gives_exact_axis():
    rng = np.random.default_rng(47)
    width, height = 81, 50
    c = (width - 1) // 2
    for _ in range(5):
        m = np.zeros((height, width), dtype=bool)
        for y in range(height):
            if rng.random() < 0.7:
                xl = int(rng.integers(2, c - 2))
                m[y, xl:width - xl] = True
        if m.any():
            # sprinkle extra mirrored pairs
            ys = rng.integers(0, height, 30)
            xs = rng.integers(0, c, 30)
            m[ys, xs] = True
            m[ys, width - 1 - xs] = True
        samples = row_midpoints(m, 4, require_mid_on_mask=True)
        if len(samples) < 2:
            continue
        axis = fit_axis_lsm(samples, 1)
        assert abs(axis.coeffs[0] - c) < 1e-9
        assert abs(axis.coeffs[1]) < 1e-9


# ---------------------------------------------------------------------------
# reflection

def test_reflect_examples_and_involution():
    samples = np.array([[y, 20.0] for y in range(4)])
    axis = fit_axis_lsm(samples, 1)
    assert reflect_x(axis, 20.0, 0) == pytest.approx(20.0)
    assert reflect_x(axis, 15.0, 2) == pytest.approx(25.0)
    rng = np.random.default_rng(53)
    xs = rng.uniform(-10, 90, 50)
    ys = rng.uniform(0, 40, 50)
    twice = reflect_x(axis, reflect_x(axis, xs, ys), ys)
    assert np.allclose(twice, xs, atol=1e-9)
    # only axis points are fixed
    off_axis = np.abs(xs - axis.at(ys)) > 1e-6
    assert np.all(np.abs(reflect_x(axis, xs, ys)[off_axis] - xs[off_axis]) > 1e-6)
