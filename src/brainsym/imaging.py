"""Raster types, binary netpbm I/O, and grayscale preprocessing.

Images are stored as numpy arrays indexed ``[y, x]``: x is the column
index growing rightward, y the row index growing downward, both 0-based.
All filters use one rounding rule (half away from zero) and one border
policy (mirror reflection about the edge pixel, numpy ``mode='reflect'``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import NetpbmError, ParameterError


def round_half_away(values):
    """Round to the nearest integer, halves away from zero.

    Returns floats (numpy's default banker's rounding is deliberately
    not used anywhere in this package).
    """
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _as_uint8(pixels, expect_ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(pixels)
    if arr.ndim != expect_ndim:
        raise ParameterError(f"{what} must be {expect_ndim}-dimensional, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError(f"{what} values must be integers in 0..255")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ParameterError(f"{what} values must lie in 0..255")
        arr = arr.astype(np.uint8)
    if arr.size == 0:
        raise ParameterError(f"{what} must contain at least one pixel")
    return np.ascontiguousarray(arr)


class _Raster:
    """width and height of a raster held as pixels[y, x]."""

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class GrayImage(_Raster):
    """8-bit grayscale raster, ``pixels[y, x]`` row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _as_uint8(self.pixels, 2, "GrayImage"))


@dataclass(frozen=True, eq=False)
class RgbImage(_Raster):
    """8-bit color raster, ``pixels[y, x]`` holding (r, g, b)."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _as_uint8(self.pixels, 3, "RgbImage")
        if arr.shape[2] != 3:
            raise ParameterError(f"RgbImage needs 3 channels, got {arr.shape[2]}")
        object.__setattr__(self, "pixels", arr)


# ---------------------------------------------------------------------------
# netpbm I/O (binary P5/P6, maxval 255)

_WHITESPACE = b" \t\r\n\x0b\x0c"
# whitespace and "#" comments (each up to a CR or LF), then one token
_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\r\n]*)*([^ \t\r\n\x0b\x0c#]*)")


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise NetpbmError(field, "header ended before the value")
    return match.group(1), match.end()


def _int_token(data: bytes, pos: int, field: str) -> tuple[int, int]:
    tok, pos = _next_token(data, pos, field)
    if not tok.isdigit():
        raise NetpbmError(field, f"expected a decimal integer, got {tok!r}")
    try:
        return int(tok), pos
    except ValueError:  # past sys.get_int_max_str_digits()
        raise NetpbmError(field, f"integer of {len(tok)} digits is too long") from None


def load_netpbm(path) -> GrayImage | RgbImage:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255.

    Header comments (#) and arbitrary whitespace are accepted; exactly one
    whitespace byte separates the maxval from the raw payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise NetpbmError("magic", f"expected P5 or P6, got {magic!r}")
    channels = 1 if magic == b"P5" else 3
    pos = 2
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width < 1:
        raise NetpbmError("width", f"must be >= 1, got {width}")
    if height < 1:
        raise NetpbmError("height", f"must be >= 1, got {height}")
    maxval, pos = _int_token(data, pos, "maxval")
    if maxval != 255:
        raise NetpbmError("maxval", f"only maxval 255 is supported, got {maxval}")
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise NetpbmError("payload", "missing whitespace byte after maxval")
    pos += 1
    expected = width * height * channels
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise NetpbmError(
            "payload",
            f"truncated: expected {expected} bytes, found {len(payload)}",
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return GrayImage(arr.reshape(height, width).copy())
    return RgbImage(arr.reshape(height, width, 3).copy())


def save_netpbm(image: GrayImage | RgbImage, path) -> None:
    """Write binary P5 (gray) or P6 (color), byte-for-byte deterministic.

    Header is exactly ``P5\\n<w> <h>\\n255\\n`` followed by the raw pixels.
    """
    if isinstance(image, GrayImage):
        magic = b"P5"
    elif isinstance(image, RgbImage):
        magic = b"P6"
    else:
        raise ParameterError(f"cannot save object of type {type(image).__name__}")
    header = magic + b"\n%d %d\n255\n" % (image.width, image.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.pixels.tobytes())


# ---------------------------------------------------------------------------
# color conversion and preprocessing filters

def rgb_to_gray(img: RgbImage) -> GrayImage:
    """BT.601 luma: gray = round(0.299 r + 0.587 g + 0.114 b)."""
    p = img.pixels.astype(np.float64)
    gray = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
    return GrayImage(round_half_away(gray).astype(np.uint8))


def _gaussian_radius(sigma: float) -> int:
    """ceil(3 sigma), once sigma is finite, > 0 and small enough that the
    kernel's 2 * radius + 1 float64 taps can form an array."""
    if not 0 < sigma < math.inf:
        raise ParameterError(f"sigma must be finite and > 0, got {sigma}")
    taps = np.iinfo(np.intp).max // 8  # float64 values in the largest array
    if sigma > taps or 2 * math.ceil(3.0 * sigma) + 1 > taps:
        raise ParameterError(f"sigma {sigma} needs a Gaussian kernel too large for any array")
    return math.ceil(3.0 * sigma)


def _gaussian_kernel_1d(sigma: float) -> np.ndarray:
    radius = _gaussian_radius(sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    # for sigma below about 5e-155 the off-centre exponents overflow to
    # -inf, so those taps are 0; the centre tap is exp(-0.0) = 1 for every
    # sigma, set here because once 2 sigma**2 underflows to 0 its exponent
    # is 0 / 0 = NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g1 = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    g1[radius] = 1.0
    return g1 / g1.sum()


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Sampled 2-D Gaussian of radius ceil(3 sigma), normalized to sum 1:
    the outer product of the 1-D kernel smooth_raster() applies."""
    k1 = _gaussian_kernel_1d(sigma)
    return np.outer(k1, k1)


def _block_rows(width: int) -> int:
    """Rows per smoothing block: about 2**15 values a row pass, so a
    block's float rows stay in L2 (32 rows at 1025 wide, 64 at 513)."""
    return max(16, min(64, -(-(1 << 15) // width)))


def _smooth_blocks(values, sigma: float, pad: int = 0):
    """Smooth a 2-D raster one block of rows at a time (see smooth_raster).

    Yields (y0, y1, block) per block of output rows y0..y1-1, in order.
    block is C-contiguous, one row per smoothed row y0 - pad .. y1 - 1 +
    pad, and its first w + 2 * pad columns hold columns -pad .. w - 1 +
    pad; the border (pad 0 or 1) is filled as np.pad(smoothed, 1,
    mode="reflect") fills it, and later columns are finite filler. block
    is a reused buffer, valid until the next block is asked for.

    Each pass runs on the flat buffers, rows laid end to end at the padded
    row length, so every ufunc is one contiguous run; a value that reads
    across a row end only lands in a filler column. The buffers are reused,
    not allocated per tap: fresh temporaries measured no faster, and up
    to 12% slower (ROADMAP item 2).
    """
    k = _gaussian_kernel_1d(sigma)
    n = len(k)
    a = np.asarray(values)
    h, w = a.shape
    # reflected once, in the input's dtype; only a block's rows become float64
    padded = np.pad(a, (n - 1) // 2, mode="reflect")
    stride = padded.shape[1]
    step = _block_rows(w)
    span = min(step, h) + 2 * pad
    src, across, prod = (np.empty((span + n - 1) * stride) for _ in range(3))
    block = np.zeros(span * stride)  # so filler no pass writes is finite too
    top, bottom = (1, h - 2) if h > 1 else (0, 0)
    left, right = (1, w - 2) if w > 1 else (0, 0)
    for y0 in range(0, h, step):
        y1 = min(y0 + step, h)
        lo, hi = max(y0 - pad, 0), min(y1 + pad, h)
        # smoothed rows lo..hi-1 read padded rows lo .. hi + n - 2
        size = (hi - lo + n - 1) * stride
        src[:size] = padded[lo:hi + n - 1].ravel()
        size -= n - 1
        np.multiply(src[:size], k[0], out=across[:size])
        for i in range(1, n):
            np.multiply(src[i:i + size], k[i], out=prod[:size])
            across[:size] += prod[:size]
        size = (hi - lo - 1) * stride + w
        start = (lo - y0 + pad) * stride + pad
        out = block[start:start + size]
        np.multiply(across[:size], k[0], out=out)
        for i in range(1, n):
            np.multiply(across[i * stride:i * stride + size], k[i], out=prod[:size])
            out += prod[:size]
        rows = block[:(y1 - y0 + 2 * pad) * stride].reshape(-1, stride)
        if pad:
            if y0 == 0:
                rows[0] = rows[top + 1]
            if y1 == h:
                rows[h - y0 + 1] = rows[bottom - y0 + 1]
            rows[:, 0] = rows[:, left + 1]
            rows[:, w + 1] = rows[:, right + 1]
        yield y0, y1, rows


def smooth_raster(values: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth a 2-D raster into float64; no rounding, reflected
    borders.

    Separable form of the kernel returned by gaussian_kernel(): a row pass,
    then a column pass, each summing the taps in kernel order, k[0]*v[0]
    and then += k[i]*v[i]. Every product and every sum is its own numpy
    ufunc, rounded once, so no fused multiply-add and no BLAS kernel can
    change a bit. Rows go in blocks of _block_rows(width), each converting
    only its own rows of the reflect-padded input to float64.
    """
    a = np.asarray(values)
    out = np.empty(a.shape)
    for y0, y1, block in _smooth_blocks(a, sigma):
        out[y0:y1] = block[:, :a.shape[1]]
    return out


def gaussian_smooth(img: GrayImage, sigma: float) -> GrayImage:
    """Gaussian blur with kernel radius ceil(3 sigma); result re-quantized.

    The values of smooth_raster, in the same row blocks, each rounded as
    floor(v + 0.5) straight into the uint8 output. That is round_half_away,
    since every smoothed value of an 8-bit image is >= 0.
    """
    out = np.empty(img.pixels.shape, dtype=np.uint8)
    for y0, y1, block in _smooth_blocks(img.pixels, sigma):
        block += 0.5
        np.floor(block, out=block)
        out[y0:y1] = block[:, :out.shape[1]]
    return GrayImage(out)


# rows per block of the uint8 kernels (3x3 median, contrast LUT, histogram):
# bounds their temporaries, intp index copies included, to one block
_BLOCK_ROWS = 128


def _med3(p, q, r):
    """Element-wise median of three: max(min(p, q), min(max(p, q), r))."""
    return np.maximum(np.minimum(p, q), np.minimum(np.maximum(p, q), r))


def _median3(padded: np.ndarray) -> np.ndarray:
    """3x3 median of a raster padded by 1, by a min/max network.

    Each vertical triple is sorted into lo <= mid <= hi; the median of
    the nine values is then med3(max3 of the three lows, med3 of the three
    mids, min3 of the three highs) over three adjacent columns (A. Paeth,
    "Median finding on a 3x3 grid", Graphics Gems, 1990): 18 min/max
    passes. Rows go in blocks of _BLOCK_ROWS, so memory beyond the
    output is O(block).
    """
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    out = np.empty((h, w), dtype=np.uint8)
    left, centre, right = np.s_[:, :w], np.s_[:, 1:w + 1], np.s_[:, 2:]
    for y0 in range(0, h, _BLOCK_ROWS):
        y1 = min(y0 + _BLOCK_ROWS, h)
        a, b, c = padded[y0:y1], padded[y0 + 1:y1 + 1], padded[y0 + 2:y1 + 2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        t, hi = np.minimum(hi, c), np.maximum(hi, c)
        lo, mid = np.minimum(lo, t), np.maximum(lo, t)
        max_lo = np.maximum(np.maximum(lo[left], lo[centre]), lo[right])
        min_hi = np.minimum(np.minimum(hi[left], hi[centre]), hi[right])
        out[y0:y1] = _med3(max_lo, _med3(mid[left], mid[centre], mid[right]), min_hi)
    return out


def _median_rank_select(padded: np.ndarray, window: int) -> np.ndarray:
    """window x window median of a raster padded by window // 2.

    A rank select on the 8-bit values, most significant bit first. The
    median of the n = window² values is the largest v whose count of
    window values < v is at most n // 2; that count grows with v, so v is
    built bit by bit, keeping each bit whose trial value still passes.
    Each of the 8 passes counts over the window² shifted views of the
    padded raster, so memory is O(N) and time O(8 N window²).
    """
    h, w = padded.shape[0] - window + 1, padded.shape[1] - window + 1
    rank = window * window // 2
    med = np.zeros((h, w), dtype=np.uint8)
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):
        trial = med | bit
        count = np.zeros((h, w), dtype=np.min_scalar_type(window * window))
        for dy in range(window):
            for dx in range(window):
                count += padded[dy:dy + h, dx:dx + w] < trial
        np.copyto(med, trial, where=count <= rank)
    return med


def median_filter(img: GrayImage, window: int) -> GrayImage:
    """Exact window x window median, reflected borders; window odd and >= 3.

    Window 3 takes a min/max sorting network (_median3, 18 uint8 passes
    over row blocks); windows of 5 and up take an MSB-first rank select
    on the 8-bit values (_median_rank_select, O(8 N window²) time). Both
    return the exact median, so the path never changes the output.
    """
    if window < 3 or window % 2 == 0:
        raise ParameterError(f"median window must be odd and >= 3, got {window}")
    padded = np.pad(img.pixels, window // 2, mode="reflect")
    if window == 3:
        return GrayImage(_median3(padded))
    return GrayImage(_median_rank_select(padded, window))


def contrast_stretch(img: GrayImage) -> GrayImage:
    """Linear min-max stretch onto [0, 255]; flat images pass through."""
    lo = int(img.pixels.min())
    hi = int(img.pixels.max())
    if hi == lo:
        return img
    levels = np.arange(256, dtype=np.float64)
    stretched = round_half_away((levels - lo) * 255.0 / (hi - lo))
    # entries outside [lo, hi] are never indexed; clip keeps the cast safe
    lut = np.clip(stretched, 0, 255).astype(np.uint8)
    # take() copies its indices to intp, so it gets one block of rows at a time
    out = np.empty(img.pixels.shape, dtype=np.uint8)
    for y0 in range(0, img.height, _BLOCK_ROWS):
        rows = slice(y0, y0 + _BLOCK_ROWS)
        lut.take(img.pixels[rows], out=out[rows])
    return GrayImage(out)
