"""Seeded synthetic head phantoms with exact ground truth.

A phantom is a dark background (20) holding a filled skull ellipse at
base intensity 160, textured with uniform integer noise that is drawn
for the left half only and mirrored exactly onto the right half, so the
image is perfectly bilaterally symmetric. An optional lesion disk breaks
that symmetry and is recorded pixel-exactly in the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _require_fields, _require_int, _require_real
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
        self.state = _require_int("seed", seed) & self.MASK

    def next_bits(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state >> 33

    def uniform_int(self, lo: int, hi: int) -> int:
        lo, hi = _require_int("lo", lo), _require_int("hi", hi)
        if hi < lo:
            raise ParameterError(f"uniform_int needs lo <= hi, got lo={lo} hi={hi}")
        return lo + self.next_bits() % (hi - lo + 1)


_JUMP_BLOCK = 4096


def _jump_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A**k and C * (A**k - 1) / (A - 1) = C * (1 + A + ... + A**(k-1)),
    for k = 1..n, exact mod 2**64 by numpy's uint64 wrap-around."""
    mult = np.cumprod(np.full(n, Lcg64.MULTIPLIER, dtype=np.uint64))
    powers = np.concatenate((np.ones(1, dtype=np.uint64), mult[:-1]))
    inc = np.cumsum(powers) * np.uint64(Lcg64.INCREMENT)
    return mult, inc


_JUMP_MULT, _JUMP_INC = _jump_table(_JUMP_BLOCK)


def _lcg_blocks(seed: int, count: int):
    """Yield the first `count` Lcg64(seed).next_bits() draws as uint64
    arrays of at most _JUMP_BLOCK values each.

    Each block is computed from one state with the jump table, using
    uint64 wrap-around for the mod 2**64; the block's last state starts
    the next block.
    """
    state = Lcg64(seed).state
    for start in range(0, count, _JUMP_BLOCK):
        n = min(_JUMP_BLOCK, count - start)
        states = _JUMP_MULT[:n] * state + _JUMP_INC[:n]
        state = int(states[-1])
        yield states >> 33


@dataclass(frozen=True)
class LesionSpec:
    """Disk lesion: offset from the symmetry axis, row, radius, contrast."""

    center_dx: int
    center_y: int
    radius: int
    delta: int

    def __post_init__(self):
        _require_fields(self, _require_int, "center_dx", "center_y", "delta", radius=1)
        if self.delta == 0:
            raise ParameterError(f"lesion delta must satisfy |delta| >= 1, got {self.delta}")


@dataclass(frozen=True)
class PhantomSpec:
    width: int = 257
    height: int = 257
    seed: int = 1
    semi_axis_x: int = 100
    semi_axis_y: int = 120
    noise_amplitude: int = 10
    lesion: LesionSpec | None = None

    def __post_init__(self):
        _require_fields(self, _require_int, "seed", "noise_amplitude", width=1, height=1)
        _require_fields(self, _require_real, semi_axis_x=1, semi_axis_y=1)
        if self.lesion is not None and not isinstance(self.lesion, LesionSpec):
            raise ParameterError(f"lesion must be a LesionSpec or None, got {self.lesion!r}")
        if self.width * self.height > np.iinfo(np.intp).max:
            raise ParameterError("raster has more pixels than an array can index")
        # centre - semi-axis < 4, in integers: (size - 1) / 2 - a < 4
        if self.width - 1 < 2 * self.semi_axis_x + 8 or self.height - 1 < 2 * self.semi_axis_y + 8:
            raise ParameterError(
                f"ellipse with semi-axes ({self.semi_axis_x}, {self.semi_axis_y}) does not fit "
                f"a {self.width}x{self.height} raster with a 4 px margin"
            )
        if not (0 <= self.noise_amplitude <= 95):
            raise ParameterError(
                f"noise amplitude must lie in 0..95 so tissue stays in 8-bit range, "
                f"got {self.noise_amplitude}"
            )


@dataclass(frozen=True, eq=False)
class GroundTruth:
    axis_column: float
    lesion_mask: np.ndarray  # bool raster, all False when no lesion


def _ellipse(spec: PhantomSpec, ys, xs) -> np.ndarray:
    """Whether pixels (ys, xs) lie in the skull ellipse."""
    cx, cy = (spec.width - 1) / 2.0, (spec.height - 1) / 2.0
    return ((xs - cx) / spec.semi_axis_x) ** 2 + ((ys - cy) / spec.semi_axis_y) ** 2 <= 1.0


def _lesion_disk(spec: PhantomSpec) -> tuple[tuple[slice, slice], np.ndarray]:
    """The lesion's bounding box as slices and its disk mask over the box;
    a disk not wholly inside the skull ellipse is a ParameterError. A box
    that leaves the raster is rejected before the mask is built; a disk
    inside the skull ellipse, 4 px from every border, has its whole box
    inside the raster."""
    lesion = spec.lesion
    w, r = spec.width, lesion.radius
    # ceil(lx - r) and floor(lx + r) + 1 for the centre column lx, in integers
    x0, x1 = w // 2 + lesion.center_dx - r, (w - 1) // 2 + lesion.center_dx + r + 1
    y0, y1 = lesion.center_y - r, lesion.center_y + r + 1
    if x0 < 0 or y0 < 0 or x1 > w or y1 > spec.height:
        raise ParameterError("lesion disk must lie entirely inside the skull ellipse")
    box = (slice(y0, y1), slice(x0, x1))
    by, bx = np.ogrid[box]
    lx = (w - 1) / 2.0 + lesion.center_dx
    disk = (bx - lx) ** 2 + (by - float(lesion.center_y)) ** 2 <= r ** 2
    if not np.all(_ellipse(spec, by, bx)[disk]):
        raise ParameterError("lesion disk must lie entirely inside the skull ellipse")
    return box, disk


def generate(spec: PhantomSpec) -> tuple[GrayImage, GroundTruth]:
    """Build the phantom and its ground truth, deterministically.

    Noise draws happen in row-major order over the left half (columns
    0 .. floor((width-1)/2), top to bottom), one Lcg64(seed).uniform_int(
    -amp, amp) draw per in-ellipse pixel; each value is written to the
    pixel and to its mirror. The draws are computed in blocks of 4096 by
    the jump-ahead formula in the Lcg64 docstring, and equal the
    per-pixel Lcg64 loop exactly.
    """
    lesion = None if spec.lesion is None else _lesion_disk(spec)
    w, h = spec.width, spec.height
    left_cols = (w + 1) // 2
    ys, xs = np.ogrid[0:h, 0:left_cols]
    ellipse = _ellipse(spec, ys, xs)

    amp = spec.noise_amplitude
    values = np.empty(int(np.count_nonzero(ellipse)), dtype=np.uint8)
    pos = 0
    for bits in _lcg_blocks(spec.seed, values.size):
        values[pos:pos + bits.size] = bits % (2 * amp + 1) + (TISSUE - amp)
        pos += bits.size

    img = np.full((h, w), BACKGROUND, dtype=np.uint8)
    left = img[:, :left_cols]
    left[ellipse] = values
    # column x mirrors onto w-1-x; an odd raster's centre column is its own mirror
    mirrored = w // 2
    np.copyto(img[:, ::-1][:, :mirrored], left[:, :mirrored], where=ellipse[:, :mirrored])

    lesion_mask = np.zeros((h, w), dtype=bool)
    if lesion is not None:
        box, disk = lesion
        lesion_mask[box] = disk
        img[box][disk] = min(255, max(0, TISSUE + spec.lesion.delta))

    return GrayImage(img), GroundTruth(axis_column=(w - 1) / 2.0, lesion_mask=lesion_mask)
