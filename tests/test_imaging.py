import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from brainsym import (
    GrayImage,
    LesionSpec,
    NetpbmError,
    ParameterError,
    PhantomSpec,
    RgbImage,
    contrast_stretch,
    gaussian_kernel,
    gaussian_smooth,
    generate,
    load_netpbm,
    median_filter,
    rgb_to_gray,
    round_half_away,
    save_netpbm,
    smooth_raster,
)
from brainsym.imaging import _block_rows, _gaussian_kernel_1d, _median_rank_select

from oracles import (
    brute_contrast,
    brute_median,
    brute_smooth,
    gaussian_kernel_oracle,
    reflect_index,
    round_half_away_scalar,
)


def test_round_half_away():
    assert round_half_away(127.5) == 128
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.4) == 2
    assert np.array_equal(round_half_away([0.5, 1.5, -1.5]), [1, 2, -2])


@pytest.mark.parametrize("pixels", [
    np.zeros((2, 2, 1), dtype=np.uint8),          # not 2-D
    np.zeros((2, 2)),                             # float values
    np.array([[0, 256]]),                         # above 255
    np.array([[-1, 0]]),                          # below 0
    np.zeros((0, 3), dtype=np.uint8),             # no pixel
], ids=["3-d", "float", "256", "-1", "empty"])
def test_gray_image_validation(pixels):
    with pytest.raises(ParameterError):
        GrayImage(pixels)


def test_rgb_image_needs_three_channels():
    with pytest.raises(ParameterError, match="3 channels"):
        RgbImage(np.zeros((2, 2, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# netpbm

def test_load_p5_two_pixels(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
    img = load_netpbm(path)
    assert isinstance(img, GrayImage)
    assert (img.width, img.height) == (2, 1)
    assert img.pixels.tolist() == [[0, 255]]


def test_save_exact_bytes(tmp_path):
    path = tmp_path / "b.pgm"
    save_netpbm(GrayImage([[7]]), path)
    assert path.read_bytes() == b"P5\n1 1\n255\n\x07"


def test_save_deterministic(tmp_path):
    img = GrayImage(np.arange(12, dtype=np.uint8).reshape(3, 4))
    save_netpbm(img, tmp_path / "c1.pgm")
    save_netpbm(img, tmp_path / "c2.pgm")
    assert (tmp_path / "c1.pgm").read_bytes() == (tmp_path / "c2.pgm").read_bytes()


def test_save_rejects_other_objects(tmp_path):
    with pytest.raises(ParameterError, match="ndarray"):
        save_netpbm(np.zeros((2, 2), dtype=np.uint8), tmp_path / "d.pgm")
    assert not (tmp_path / "d.pgm").exists()


def test_roundtrip_random_rasters(tmp_path):
    rng = np.random.default_rng(101)
    for i in range(20):
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        gray = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        p = tmp_path / f"g{i}.pgm"
        save_netpbm(gray, p)
        back = load_netpbm(p)
        assert isinstance(back, GrayImage)
        assert np.array_equal(back.pixels, gray.pixels)

        rgb = RgbImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        p = tmp_path / f"c{i}.ppm"
        save_netpbm(rgb, p)
        back = load_netpbm(p)
        assert isinstance(back, RgbImage)
        assert np.array_equal(back.pixels, rgb.pixels)


def test_load_with_comment_header(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n# a comment\n 2 2\n255\n" + bytes(4))
    img = load_netpbm(path)
    assert (img.width, img.height) == (2, 2)


@pytest.mark.parametrize(
    "header, width, height",
    [
        pytest.param(b"P5\n2#c\n2\n255\n", 2, 2, id="comment-ends-a-token"),
        pytest.param(b"P5\n# c\r2 1\r255\r", 2, 1, id="cr-ended-comment"),
        pytest.param(b"P5\x0b2\x0c1\x0b255\x0c", 2, 1, id="vt-and-ff-whitespace"),
        pytest.param(b"P5 #a\n#b\n\t2 # c # d\n1\n255 ", 2, 1, id="comments-in-a-row"),
        pytest.param(b"P5\n#" + b"x" * (1 << 20) + b"\n2 1\n255\n", 2, 1, id="1-MB-comment"),
    ],
)
def test_header_tokens(tmp_path, header, width, height):
    pixels = np.arange(1, width * height + 1, dtype=np.uint8).reshape(height, width)
    path = tmp_path / "t.pgm"
    path.write_bytes(header + pixels.tobytes())
    img = load_netpbm(path)
    assert np.array_equal(img.pixels, pixels)


@pytest.mark.parametrize(
    "payload, field, message",
    [
        pytest.param(b"P5\n2 1\n# no newline", "maxval", "header ended before the value",
                     id="comment-at-eof"),
        pytest.param(b"P5 2 1#", "maxval", "header ended before the value", id="hash-at-eof"),
        pytest.param(b"P5", "width", "header ended before the value", id="no-width"),
        pytest.param(b"P5 2 1 255#c\n\x00\x00", "payload", "missing whitespace byte after maxval",
                     id="comment-right-after-maxval"),
        pytest.param(b"P5 2 1 255", "payload", "missing whitespace byte after maxval",
                     id="header-ends-at-maxval"),
        pytest.param(b"P5 2 -1 255\n\x00\x00", "height", "expected a decimal integer, got b'-1'",
                     id="signed-height"),
    ],
)
def test_header_token_errors(tmp_path, payload, field, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(NetpbmError) as err:
        load_netpbm(path)
    assert str(err.value) == f"{field}: {message}"


NETPBM_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
# whitespace to str.isspace and to a str regex's \s, but not to netpbm
UNICODE_ONLY_SPACE = [b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x85", b"\xa0"]


@pytest.mark.parametrize("ws", NETPBM_WHITESPACE, ids=lambda b: f"0x{b[0]:02x}")
def test_each_netpbm_whitespace_byte_separates_and_ends_the_header(tmp_path, ws):
    path = tmp_path / "ws.pgm"
    path.write_bytes(b"P5" + ws + b"2" + ws + b"1" + ws + b"255" + ws + b"\x09\x20")
    assert load_netpbm(path).pixels.tolist() == [[9, 32]]


@pytest.mark.parametrize("byte", UNICODE_ONLY_SPACE, ids=lambda b: f"0x{b[0]:02x}")
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda b: b"P5 2 1 255" + b + b"\x01\x02", "maxval"),  # joins the maxval token
        (lambda b: b"P5" + b + b"2 1 255\n\x01\x02", "width"),
        (lambda b: b"P5 2" + b + b"1 255\n\x01\x02", "width"),
    ],
    ids=["after-maxval", "after-magic", "between-width-and-height"],
)
def test_non_netpbm_space_bytes_are_not_whitespace(tmp_path, byte, make, field):
    path = tmp_path / "bad.pgm"
    path.write_bytes(make(byte))
    with pytest.raises(NetpbmError) as err:
        load_netpbm(path)
    assert err.value.field == field


@pytest.mark.parametrize(
    "payload, field",
    [
        (b"P4\n1 1\n255\n\x00", "magic"),
        (b"P5\nx 1\n255\n\x00", "width"),
        (b"P5\n1\n", "height"),
        (b"P5\n1 1\n254\n\x00", "maxval"),
        (b"P5\n4 4\n255\n" + bytes(15), "payload"),
        # past the 4,300 digits int() parses
        pytest.param(b"P5 " + b"1" * 5000 + b" 1 255\n" + b"x", "width",
                     id="width-of-5000-digits"),
        pytest.param(b"P5 1 1 " + b"0" * 4999 + b"255\n" + b"x", "maxval",
                     id="maxval-of-5002-digits"),
    ],
)
def test_parse_errors_name_field(tmp_path, payload, field):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(NetpbmError) as err:
        load_netpbm(path)
    assert err.value.field == field


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_netpbm(tmp_path / "nope.pgm")


# ---------------------------------------------------------------------------
# grayscale conversion

def test_rgb_to_gray_equal_channels():
    values = np.arange(256, dtype=np.uint8)
    rgb = RgbImage(np.stack([values, values, values], axis=-1)[None, :, :])
    gray = rgb_to_gray(rgb)
    assert np.array_equal(gray.pixels[0], values)


def test_rgb_to_gray_primaries():
    rgb = RgbImage([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]])
    assert rgb_to_gray(rgb).pixels.tolist() == [[76, 150, 29]]


# ---------------------------------------------------------------------------
# gaussian

@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.7, 3.0])
def test_gaussian_kernel_normalized(sigma):
    kernel = gaussian_kernel(sigma)
    assert abs(kernel.sum() - 1.0) < 1e-12
    oracle = gaussian_kernel_oracle(sigma)
    assert kernel.shape == oracle.shape
    assert np.allclose(kernel, oracle, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_gaussian_preserves_constants(sigma):
    img = GrayImage(np.full((9, 13), 77, dtype=np.uint8))
    assert np.array_equal(gaussian_smooth(img, sigma).pixels, img.pixels)


@pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e-200, 1.5e-162, 1e-161, 1e-155])
def test_gaussian_kernel_of_tiny_sigma_is_the_limit(sigma):
    # 2 sigma**2 underflows to 0 or a subnormal here; the kernel must still
    # be the [0, 1, 0] that every sigma below about 0.026 gives
    assert _gaussian_kernel_1d(sigma).tolist() == [0.0, 1.0, 0.0]
    assert np.array_equal(gaussian_kernel(sigma), gaussian_kernel(1e-150))
    raw = np.random.default_rng(3).integers(0, 256, size=(5, 6), dtype=np.uint8)
    assert np.array_equal(gaussian_smooth(GrayImage(raw), sigma).pixels, raw)


def test_gaussian_impulse_center_value():
    img = np.zeros((21, 21), dtype=np.uint8)
    img[10, 10] = 255
    out = gaussian_smooth(GrayImage(img), 1.0)
    k00 = gaussian_kernel_oracle(1.0)[3, 3]
    assert out.pixels[10, 10] == 41
    assert out.pixels[10, 10] == round_half_away(255 * k00)


def test_gaussian_bounds():
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = rng.integers(40, 200, size=(16, 16), dtype=np.uint8)
        out = gaussian_smooth(GrayImage(raw), 1.3)
        assert out.pixels.min() >= raw.min()
        assert out.pixels.max() <= raw.max()


def test_gaussian_sigma_validation():
    img = GrayImage([[1]])
    with pytest.raises(ParameterError):
        gaussian_smooth(img, 0.0)
    with pytest.raises(ParameterError):
        gaussian_smooth(img, -1.0)
    for sigma in (float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            gaussian_smooth(img, sigma)
        with pytest.raises(ParameterError):
            gaussian_kernel(sigma)
        with pytest.raises(ParameterError):
            smooth_raster(np.zeros((1, 1)), sigma)
    # kernels of 2 * ceil(3 sigma) + 1 float64 taps that no array can hold
    for sigma in (1e18, 1e300):
        with pytest.raises(ParameterError, match="too large"):
            smooth_raster(np.zeros((1, 1)), sigma)


def test_reflect_index_matches_np_pad():
    # pads up to 5x the axis, so the index folds back and forth repeatedly
    for n in range(1, 7):
        for pad in range(0, 5 * n + 3):
            want = np.pad(np.arange(n), pad, mode="reflect")
            assert want.tolist() == [reflect_index(i - pad, n) for i in range(n + 2 * pad)], (n, pad)


def _check_smooth(raw, sigma):
    want = brute_smooth(raw, _gaussian_kernel_1d(sigma))
    got = smooth_raster(raw, sigma)
    assert got.dtype == np.float64 and got.shape == raw.shape
    assert np.array_equal(got, want)
    rounded = [[round_half_away_scalar(v) for v in row] for row in want.tolist()]
    assert gaussian_smooth(GrayImage(raw), sigma).pixels.tolist() == rounded


def _smooth_shapes():
    # heights straddling one and two row blocks; radii 1, 2, 3, 6 and 18
    for w in (1, 2, 3):
        b = _block_rows(w)
        for h in (1, 2, 3, b - 1, b, b + 1, 2 * b + 1):
            for sigma in (0.05, 0.5, 1.0, 2.0, 6.0):
                yield h, w, sigma
    # heights at k * b - 1, k * b and k * b + 1: every block after the first
    # starts with the row passes of the rows the block before also read. At
    # sigma 11 (67 taps; 64-row blocks at widths 1-3) and sigma 3 (19 taps;
    # 16-row blocks at width 2048) more rows are carried than a block has,
    # so the carry copy overlaps itself
    for w, sigma, blocks in ((1, 11.0, 3), (2, 11.0, 3), (3, 11.0, 3), (2048, 3.0, 2)):
        b = _block_rows(w)
        for k in range(1, blocks + 1):
            for h in (k * b - 1, k * b, k * b + 1):
                yield h, w, sigma


@pytest.mark.parametrize("h, w, sigma", list(_smooth_shapes()))
def test_smooth_matches_brute_force(h, w, sigma):
    rng = np.random.default_rng([h, w, int(sigma * 100)])
    _check_smooth(rng.integers(0, 256, size=(h, w), dtype=np.uint8), sigma)


@pytest.mark.parametrize("h, w", [(40, 37), (2 * _block_rows(300) + 5, 300)])
def test_smooth_matches_brute_force_wide(h, w):
    rng = np.random.default_rng(h * w)
    _check_smooth(rng.integers(0, 256, size=(h, w), dtype=np.uint8), 1.0)


def test_smooth_raster_takes_float_input():
    rng = np.random.default_rng(12)
    raw = rng.normal(0.0, 100.0, size=(_block_rows(5) + 3, 5))
    assert np.array_equal(smooth_raster(raw, 1.5), brute_smooth(raw, _gaussian_kernel_1d(1.5)))


@settings(max_examples=60, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 140), st.integers(1, 6))),
       st.floats(0.03, 3.0))
def test_smooth_property_matches_brute_force(raw, sigma):
    _check_smooth(raw, sigma)


def test_gaussian_smooth_memory_at_513():
    # 8,422,679 bytes was the peak of the full-frame smoothing on this image,
    # 1,672,903 that of the row blocks; the cap allows 3% over the latter
    img, _ = generate(PhantomSpec(width=513, height=513, seed=7, semi_axis_x=200,
                                  semi_axis_y=240, lesion=LesionSpec(80, 256, 20, 60)))
    gaussian_smooth(img, 1.0)
    tracemalloc.start()
    try:
        gaussian_smooth(img, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_723_090


# ---------------------------------------------------------------------------
# median

def test_median_constant():
    img = GrayImage(np.full((6, 6), 9, dtype=np.uint8))
    assert np.array_equal(median_filter(img, 3).pixels, img.pixels)


def test_median_removes_center_outlier():
    img = np.full((5, 5), 10, dtype=np.uint8)
    img[2, 2] = 255
    out = median_filter(GrayImage(img), 3)
    assert out.pixels[2, 2] == 10
    assert np.all(out.pixels == 10)


def test_median_values_come_from_windows():
    rng = np.random.default_rng(11)
    raw = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    out = median_filter(GrayImage(raw), 3)
    padded = np.pad(raw, 1, mode="reflect")
    for y in range(10):
        for x in range(10):
            window = padded[y:y + 3, x:x + 3].ravel()
            assert out.pixels[y, x] in window
            assert out.pixels[y, x] == sorted(window)[4]


def _median_case(h, w, seed):
    raw = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
    raw.flat[0] = 0
    raw.flat[-1] = 255
    return raw


@pytest.mark.parametrize("window", [3, 5, 9, 21, 41])
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (2, 3), (5, 5), (7, 12), (20, 20),
                                   # around the 128-row blocks of the 3x3 median
                                   (127, 2), (128, 3), (129, 1), (257, 2)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_median_matches_brute_force(shape, window):
    raw = _median_case(*shape, seed=shape[0] * 100 + shape[1])
    assert np.array_equal(median_filter(GrayImage(raw), window).pixels, brute_median(raw, window))


def test_median_matches_brute_force_past_16_bit_counts():
    # 257^2 = 66049 window values; every first trial (128) exceeds them all
    raw = np.arange(9, dtype=np.uint8).reshape(3, 3) * 11
    assert np.array_equal(median_filter(GrayImage(raw), 257).pixels, brute_median(raw, 257))


def test_median_memory_is_linear_in_pixels():
    raw = _median_case(64, 64, seed=5)
    tracemalloc.start()
    try:
        median_filter(GrayImage(raw), 63)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# the last two pad the raster past any array size, the last past 2**63 too
@pytest.mark.parametrize("window", [1, 2, 4, 0, -3, 2**40 + 1, int("1" * 31)])
def test_median_window_validation(window):
    with pytest.raises(ParameterError):
        median_filter(GrayImage([[1, 2], [3, 4]]), window)


def _median3_sweep_cases():
    rng = np.random.default_rng(2024)
    cases = [np.full((h, w), v, dtype=np.uint8) for h, w, v in [(1, 1, 0), (4, 7, 255), (9, 3, 77)]]
    cases += [rng.integers(0, 256, size=(1, n), dtype=np.uint8) for n in range(1, 34)]
    cases += [rng.integers(0, 256, size=(n, 1), dtype=np.uint8) for n in range(1, 41)]
    for _ in range(130):
        h, w = int(rng.integers(1, 41)), int(rng.integers(1, 34))
        levels = int(rng.choice([2, 3, 4, 256]))
        palette = np.sort(rng.choice(256, size=levels, replace=False)).astype(np.uint8)
        palette[0], palette[-1] = 0, 255
        cases.append(palette[rng.integers(0, levels, size=(h, w))])
    cases.append(rng.integers(0, 256, size=(40, 33), dtype=np.uint8))
    return cases


def test_median3_network_matches_brute_force_sweep():
    cases = _median3_sweep_cases()
    assert len(cases) >= 200
    for raw in cases:
        assert np.array_equal(median_filter(GrayImage(raw), 3).pixels, brute_median(raw, 3)), raw


def test_median3_network_matches_rank_select_on_stressed_phantom():
    img, _ = generate(PhantomSpec(width=1025, height=1025, seed=7, semi_axis_x=400,
                                  semi_axis_y=480, lesion=LesionSpec(-160, 560, 40, 60)))
    rng = np.random.default_rng(7)
    ramp = np.linspace(0.9, 1.1, 1025)
    raw = img.pixels * ramp[:, None] + rng.integers(-8, 9, size=(1025, 1025))
    raw = np.clip(np.floor(raw + 0.5), 0, 255).astype(np.uint8)
    padded = np.pad(raw, 1, mode="reflect")
    assert np.array_equal(median_filter(GrayImage(raw), 3).pixels, _median_rank_select(padded, 3))


@settings(max_examples=150, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12))))
def test_median3_network_property(raw):
    assert np.array_equal(median_filter(GrayImage(raw), 3).pixels, brute_median(raw, 3))


def test_median3_memory_at_513():
    # 1.51 MiB was the peak of the rank select on this raster
    img, _ = generate(PhantomSpec(width=513, height=513, seed=7, semi_axis_x=200,
                                  semi_axis_y=240, lesion=LesionSpec(80, 256, 20, 60)))
    median_filter(img, 3)
    tracemalloc.start()
    try:
        median_filter(img, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.51 * 2**20


# ---------------------------------------------------------------------------
# contrast stretch

def test_contrast_endpoints_and_monotone():
    rng = np.random.default_rng(13)
    raw = rng.integers(30, 220, size=(12, 12), dtype=np.uint8)
    raw[0, 0] = 30
    raw[0, 1] = 219
    out = contrast_stretch(GrayImage(raw))
    assert out.pixels.min() == 0
    assert out.pixels.max() == 255
    mapping = {}
    for v, o in zip(raw.ravel(), out.pixels.ravel()):
        mapping.setdefault(int(v), int(o))
        assert mapping[int(v)] == int(o)
    keys = sorted(mapping)
    outs = [mapping[k] for k in keys]
    assert outs == sorted(outs)


def test_contrast_midpoint_rounding():
    raw = np.array([[100, 125, 150]], dtype=np.uint8)
    out = contrast_stretch(GrayImage(raw))
    assert out.pixels.tolist() == [[0, 128, 255]]


def test_contrast_flat_unchanged():
    img = GrayImage(np.full((4, 4), 42, dtype=np.uint8))
    out = contrast_stretch(img)
    assert np.array_equal(out.pixels, img.pixels)


@pytest.mark.parametrize("h", [127, 128, 129, 257])
def test_contrast_matches_formula_across_row_blocks(h):
    raw = np.random.default_rng(h).integers(20, 230, size=(h, 5), dtype=np.uint8)
    assert np.array_equal(contrast_stretch(GrayImage(raw)).pixels, brute_contrast(raw))


def test_contrast_output_is_a_fresh_writable_array():
    noisy = np.random.default_rng(5).integers(20, 230, size=(9, 14), dtype=np.uint8)
    for raw in (noisy, np.full((9, 14), 77, dtype=np.uint8)):
        out = contrast_stretch(GrayImage(raw)).pixels
        assert out.dtype == np.uint8 and out.shape == raw.shape
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, raw)
        out[0, 0] ^= 1
        assert np.array_equal(contrast_stretch(GrayImage(raw)).pixels[1:], out[1:])


def test_contrast_memory_at_513():
    # 2,373,473 bytes was the peak of one lookup over the whole raster,
    # whose indices take() copies to intp; the cap allows 3% over the
    # 859,553 of the 128-row blocks
    img, _ = generate(PhantomSpec(width=513, height=513, seed=7, semi_axis_x=200,
                                  semi_axis_y=240, lesion=LesionSpec(80, 256, 20, 60)))
    contrast_stretch(img)
    tracemalloc.start()
    try:
        contrast_stretch(img)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 885_340
