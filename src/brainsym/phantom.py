"""Seeded synthetic head phantoms with exact ground truth.

A phantom is a dark background (20) holding a filled skull ellipse at
base intensity 160, textured with uniform integer noise that is drawn
for the left half only and mirrored exactly onto the right half, so the
image is perfectly bilaterally symmetric. An optional lesion disk breaks
that symmetry and is recorded pixel-exactly in the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .imaging import GrayImage

BACKGROUND = 20
TISSUE = 160


class Lcg64:
    """64-bit linear congruential generator, fully specified so any
    implementation can reproduce the stream.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64

    Each draw advances the state once and uses the top 31 bits
    (state' >> 33). uniform_int(lo, hi) reduces that value modulo the
    range size; the tiny modulo bias is irrelevant, what matters is that
    the stream is exactly defined.

    This class is the specification of the stream. generate() computes
    the same draws in numpy blocks by jumping ahead (F. Brown, "Random
    number generation with arbitrary strides", 1994): k steps from
    state s give

        state_k = A**k * s + C * (A**k - 1) / (A - 1)   (mod 2**64)

    with A = MULTIPLIER, C = INCREMENT, and the fraction taken as the
    exact integer 1 + A + ... + A**(k-1) before the reduction.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_bits(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state >> 33

    def uniform_int(self, lo: int, hi: int) -> int:
        return lo + self.next_bits() % (hi - lo + 1)


_JUMP_BLOCK = 4096


def _jump_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A**k and C * (A**k - 1) / (A - 1), mod 2**64, for k = 1..n."""
    mult = np.empty(n, dtype=np.uint64)
    inc = np.empty(n, dtype=np.uint64)
    a, c = 1, 0
    for k in range(n):
        a = (a * Lcg64.MULTIPLIER) & Lcg64.MASK
        c = (c * Lcg64.MULTIPLIER + Lcg64.INCREMENT) & Lcg64.MASK
        mult[k] = a
        inc[k] = c
    return mult, inc


_JUMP_MULT, _JUMP_INC = _jump_table(_JUMP_BLOCK)


def _lcg_blocks(seed: int, count: int):
    """Yield the first `count` Lcg64(seed).next_bits() draws as uint64
    arrays of at most _JUMP_BLOCK values each.

    Each block is computed from one state with the jump table, using
    uint64 wrap-around for the mod 2**64; the block's last state starts
    the next block. The yielded array is one buffer, overwritten by the
    next block.
    """
    state = seed & Lcg64.MASK
    buf = np.empty(min(count, _JUMP_BLOCK), dtype=np.uint64)
    for start in range(0, count, _JUMP_BLOCK):
        block = buf[:min(_JUMP_BLOCK, count - start)]
        np.multiply(_JUMP_MULT[:block.size], np.uint64(state), out=block)
        np.add(block, _JUMP_INC[:block.size], out=block)
        state = int(block[-1])
        np.right_shift(block, 33, out=block)
        yield block


@dataclass(frozen=True)
class LesionSpec:
    """Disk lesion: offset from the symmetry axis, row, radius, contrast."""

    center_dx: int
    center_y: int
    radius: int
    delta: int


@dataclass(frozen=True)
class PhantomSpec:
    width: int = 257
    height: int = 257
    seed: int = 1
    semi_axis_x: int = 100
    semi_axis_y: int = 120
    noise_amplitude: int = 10
    lesion: LesionSpec | None = None


@dataclass(frozen=True, eq=False)
class GroundTruth:
    axis_column: float
    lesion_mask: np.ndarray  # bool raster, all False when no lesion


def _validate(spec: PhantomSpec) -> None:
    if spec.width < 1 or spec.height < 1:
        raise ParameterError(f"raster must be at least 1x1, got {spec.width}x{spec.height}")
    cx = (spec.width - 1) / 2.0
    cy = (spec.height - 1) / 2.0
    if spec.semi_axis_x < 1 or spec.semi_axis_y < 1:
        raise ParameterError("ellipse semi-axes must be >= 1")
    if cx - spec.semi_axis_x < 4 or cy - spec.semi_axis_y < 4:
        raise ParameterError(
            f"ellipse with semi-axes ({spec.semi_axis_x}, {spec.semi_axis_y}) does not fit "
            f"a {spec.width}x{spec.height} raster with a 4 px margin"
        )
    if not (0 <= spec.noise_amplitude <= 95):
        raise ParameterError(
            f"noise amplitude must lie in 0..95 so tissue stays in 8-bit range, "
            f"got {spec.noise_amplitude}"
        )
    lesion = spec.lesion
    if lesion is None:
        return
    if lesion.radius < 1:
        raise ParameterError(f"lesion radius must be >= 1, got {lesion.radius}")
    if abs(lesion.delta) < 1:
        raise ParameterError(f"lesion delta must satisfy |delta| >= 1, got {lesion.delta}")
    lx = cx + lesion.center_dx
    ly = lesion.center_y
    r = lesion.radius
    dy, dx = np.ogrid[-r:r + 1, -r:r + 1]
    in_disk = dx * dx + dy * dy <= r * r
    px = lx + dx
    py = ly + dy
    inside = ((px - cx) / spec.semi_axis_x) ** 2 + ((py - cy) / spec.semi_axis_y) ** 2 <= 1.0
    if not np.all(inside[in_disk]):
        raise ParameterError("lesion disk must lie entirely inside the skull ellipse")


def generate(spec: PhantomSpec) -> tuple[GrayImage, GroundTruth]:
    """Build the phantom and its ground truth, deterministically.

    Noise draws happen in row-major order over the left half (columns
    0 .. floor((width-1)/2), top to bottom), one Lcg64(seed).uniform_int(
    -amp, amp) draw per in-ellipse pixel; each value is written to the
    pixel and to its mirror. The draws are computed in blocks of 4096 by
    the jump-ahead formula in the Lcg64 docstring, and equal the
    per-pixel Lcg64 loop exactly.
    """
    _validate(spec)
    w, h = spec.width, spec.height
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    left_cols = (w + 1) // 2
    ys, xs = np.ogrid[0:h, 0:left_cols]
    ellipse = ((xs - cx) / spec.semi_axis_x) ** 2 + ((ys - cy) / spec.semi_axis_y) ** 2 <= 1.0

    amp = spec.noise_amplitude
    values = np.empty(int(np.count_nonzero(ellipse)), dtype=np.uint8)
    pos = 0
    for bits in _lcg_blocks(spec.seed, values.size):
        np.remainder(bits, 2 * amp + 1, out=bits)
        np.add(bits, TISSUE - amp, out=values[pos:pos + bits.size], casting="unsafe")
        pos += bits.size

    img = np.full((h, w), BACKGROUND, dtype=np.uint8)
    left = img[:, :left_cols]
    left[ellipse] = values
    # column x mirrors onto w-1-x; an odd raster's centre column is its own mirror
    mirrored = w // 2
    np.copyto(img[:, ::-1][:, :mirrored], left[:, :mirrored], where=ellipse[:, :mirrored])

    lesion_mask = np.zeros((h, w), dtype=bool)
    if spec.lesion is not None:
        lx = cx + spec.lesion.center_dx
        ly = spec.lesion.center_y
        r = spec.lesion.radius
        # only the disk's bounding box can hold pixels within r of its centre
        x0, x1 = max(0, math.ceil(lx - r)), min(w, math.floor(lx + r) + 1)
        y0, y1 = max(0, ly - r), min(h, ly + r + 1)
        by, bx = np.ogrid[y0:y1, x0:x1]
        disk = (bx - lx) ** 2 + (by - float(ly)) ** 2 <= r ** 2
        lesion_mask[y0:y1, x0:x1] = disk
        img[y0:y1, x0:x1][disk] = min(255, max(0, TISSUE + spec.lesion.delta))

    return GrayImage(img), GroundTruth(axis_column=cx, lesion_mask=lesion_mask)
