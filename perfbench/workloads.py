"""Workload table and the seeded inputs the benchmark feeds brainsym.

Every pool is half healthy, half lesioned (even index healthy, odd index
lesioned). Each pool image is drawn from its own
``numpy.random.default_rng([seed, index])``, so any one image can be built
again on its own; the program itself receives only the finished rasters
(or, for ``cli-257``, the PGM files written from them). Phantom geometry
is the 257x257 default scaled with the raster, so the lesions are not
resized relative to the skull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from brainsym import GrayImage, LesionSpec, PhantomSpec, PipelineConfig, generate, save_netpbm


@dataclass(frozen=True)
class Workload:
    name: str
    size: int                # raster is size x size
    pool: int                # distinct images, half of them lesioned
    config: PipelineConfig
    stress: bool = False     # perturb each phantom so it is not mirror-exact
    cli: bool = False        # one `python -m brainsym detect` child per image


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lib-513", 513, 16, PipelineConfig()),
        # rotated, shifted inputs need a wider mirror tolerance than the default
        Workload("lib-1025-stress", 1025, 16,
                 PipelineConfig(axis_degree=2, mirror_tol=4, closing_radius=4), stress=True),
        Workload("cli-257", 257, 32, PipelineConfig(), cli=True),
    )
}


@dataclass(frozen=True, eq=False)
class PoolImage:
    index: int
    image: GrayImage
    lesion_mask: np.ndarray   # bool raster, all False on healthy images
    pgm: Path | None          # input file for the CLI, when the workload uses it


def _lesion(rng: np.random.Generator, size: int) -> LesionSpec:
    scale = (size - 1) / 256
    side = 1 if rng.integers(2) else -1
    return LesionSpec(
        center_dx=side * round(rng.uniform(25, 50) * scale),
        center_y=(size - 1) // 2 + round(rng.uniform(-40, 40) * scale),
        radius=round(rng.uniform(6, 14) * scale),
        delta=int(rng.integers(40, 91)),
    )


def phantom_spec(rng: np.random.Generator, size: int, lesioned: bool) -> PhantomSpec:
    scale = (size - 1) / 256
    return PhantomSpec(
        width=size,
        height=size,
        seed=int(rng.integers(1, 2**31)),
        semi_axis_x=round(100 * scale),
        semi_axis_y=round(120 * scale),
        lesion=_lesion(rng, size) if lesioned else None,
    )


def stress(img: GrayImage, lesion_mask: np.ndarray, rng: np.random.Generator):
    """Rotate by up to 3 degrees, shift by half a pixel, apply a 10%
    (peak to peak) linear bias field and independent +-8 integer noise.

    The lesion mask goes through the same geometric transform
    (nearest neighbour) so the ground truth stays aligned. The arithmetic
    is done in place on one float64 raster, so building an input never
    needs more memory than detecting on it.
    """
    h, w = img.pixels.shape
    angle = math.radians(rng.uniform(-3.0, 3.0))
    shift = np.array([0.0, 0.5 if rng.integers(2) else -0.5])   # (dy, dx)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    offset = center - rot @ center - shift
    moved = ndimage.affine_transform(img.pixels, rot, offset=offset, order=1,
                                     mode="nearest", output=np.float64)
    mask = ndimage.affine_transform(lesion_mask.astype(np.uint8), rot, offset=offset,
                                    order=0, mode="constant").astype(bool)
    direction = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(direction), math.sin(direction)
    # the bias ramp spans exactly [-0.5, 0.5] over the raster
    norm = abs(c) + abs(s)
    col = c * (np.arange(w) / (w - 1) - 0.5) / norm
    row = s * (np.arange(h) / (h - 1) - 0.5) / norm
    moved *= 1.0 + 0.10 * (row[:, None] + col[None, :])
    moved += rng.integers(-8, 9, size=(h, w), dtype=np.int8)
    moved += 0.5
    np.floor(moved, out=moved)
    np.clip(moved, 0, 255, out=moved)
    return GrayImage(moved.astype(np.uint8)), mask


def build_image(workload: Workload, seed: int, index: int, workdir: Path,
                on_generate=None) -> PoolImage:
    """Pool image ``index`` for this seed; the same seed gives the same image.

    ``on_generate(spec)`` wraps the ``brainsym.generate`` call so the traced
    run can record it as a span; it must return generate's result.
    """
    rng = np.random.default_rng([seed, index])
    spec = phantom_spec(rng, workload.size, lesioned=index % 2 == 1)
    img, truth = on_generate(spec) if on_generate else generate(spec)
    mask = truth.lesion_mask
    if workload.stress:
        img, mask = stress(img, mask, rng)
    pgm = None
    if workload.cli:
        pgm = workdir / f"img{index:03d}.pgm"
        save_netpbm(img, pgm)
    return PoolImage(index, img, mask, pgm)
