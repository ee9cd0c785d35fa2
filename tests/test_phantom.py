import tracemalloc
import warnings

import numpy as np
import pytest

from brainsym import (
    GrayImage,
    Lcg64,
    LesionSpec,
    ParameterError,
    PhantomSpec,
    generate,
)
from brainsym import phantom
from brainsym.phantom import _JUMP_BLOCK, _jump_table, _lcg_blocks

from oracles import brute_generate


def test_lcg_is_reproducible():
    a = Lcg64(123)
    b = Lcg64(123)
    assert [a.next_bits() for _ in range(5)] == [b.next_bits() for _ in range(5)]
    c = Lcg64(124)
    assert a.next_bits() != c.next_bits()


def test_lcg_uniform_int_range():
    rng = Lcg64(9)
    draws = [rng.uniform_int(-10, 10) for _ in range(200)]
    assert min(draws) >= -10
    assert max(draws) <= 10
    assert len(set(draws)) > 5


@pytest.mark.parametrize("seed, value", [
    *((t(5), 5) for t in (np.int8, np.int16, np.int32, np.int64,
                          np.uint8, np.uint16, np.uint32, np.uint64)),
    *((t(-1), -1) for t in (np.int8, np.int16, np.int32, np.int64)),
    (np.uint64(2**64 - 1), -1),  # the same state mod 2**64
    (True, 1),
], ids=lambda v: f"{type(v).__name__}({v})" if not isinstance(v, int) else str(v))
def test_lcg_takes_any_integer_seed(seed, value):
    # stored as a Python int mod 2**64: a numpy seed used to overflow the
    # mask (OverflowError) or the state update (another stream)
    rng, ref = Lcg64(seed), Lcg64(value)
    assert type(rng.state) is int
    assert [rng.next_bits() for _ in range(8)] == [ref.next_bits() for _ in range(8)]


@pytest.mark.parametrize("seed", [1.5, 5.0, "3", None, np.float64(5)], ids=repr)
def test_lcg_rejects_non_integer_seeds(seed):
    with pytest.raises(ParameterError, match="^seed must be an integer"):
        Lcg64(seed)


def test_uniform_int_rejects_an_empty_range():
    rng = Lcg64(9)
    for lo, hi in ((5, 4), (0, -3)):
        with pytest.raises(ParameterError, match="^uniform_int needs lo <= hi"):
            rng.uniform_int(lo, hi)
    assert rng.state == 9  # no draw was made
    assert rng.uniform_int(4, 4) == 4


@pytest.mark.parametrize("int_type", [np.uint8, np.int8, np.int64, np.uint64])
def test_uniform_int_takes_numpy_bounds_as_python_ints(int_type):
    # the type's whole range: hi - lo + 1 used to wrap in the narrow type
    lo, hi = int(np.iinfo(int_type).min), int(np.iinfo(int_type).max)
    rng, ref = Lcg64(5), Lcg64(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [rng.uniform_int(int_type(lo), int_type(hi)) for _ in range(8)]
    assert draws == [ref.uniform_int(lo, hi) for _ in range(8)]
    assert all(type(v) is int for v in draws)


@pytest.mark.parametrize("lo, hi", [(0.5, 3), (0, 3.0), (None, 3), (0, "3"), (np.float64(0), 3)],
                         ids=repr)
def test_uniform_int_rejects_non_integer_bounds(lo, hi):
    rng = Lcg64(5)
    name = "hi" if isinstance(lo, int) else "lo"
    with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
        rng.uniform_int(lo, hi)
    assert rng.state == 5  # no draw was made


def test_symmetric_phantom_mirror_exact():
    img, truth = generate(PhantomSpec(seed=3))
    assert truth.axis_column == 128.0
    assert np.array_equal(img.pixels, np.fliplr(img.pixels))
    assert not truth.lesion_mask.any()


def test_phantom_deterministic():
    spec = PhantomSpec(seed=77, lesion=LesionSpec(30, 110, 12, 60))
    a, ta = generate(spec)
    b, tb = generate(spec)
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(ta.lesion_mask, tb.lesion_mask)


def test_phantom_value_layout():
    spec = PhantomSpec(seed=4, noise_amplitude=10)
    img, _ = generate(spec)
    ys, xs = np.ogrid[0:257, 0:257]
    ellipse = ((xs - 128) / 100.0) ** 2 + ((ys - 128) / 120.0) ** 2 <= 1.0
    assert np.all(img.pixels[~ellipse] == 20)
    inside = img.pixels[ellipse]
    assert inside.min() >= 150
    assert inside.max() <= 170


def test_lesion_differs_only_on_disk():
    base_spec = PhantomSpec(seed=21)
    lesion = LesionSpec(center_dx=-35, center_y=140, radius=9, delta=60)
    plain, _ = generate(base_spec)
    tumored, truth = generate(PhantomSpec(seed=21, lesion=lesion))
    diff = plain.pixels != tumored.pixels
    assert np.array_equal(diff, truth.lesion_mask)
    assert np.all(tumored.pixels[truth.lesion_mask] == 220)


def test_lesion_mask_matches_lattice_enumeration():
    lesion = LesionSpec(center_dx=20, center_y=128, radius=8, delta=60)
    _, truth = generate(PhantomSpec(seed=2, lesion=lesion))
    count = 0
    for y in range(257):
        for x in range(257):
            if (x - 148) ** 2 + (y - 128) ** 2 <= 64:
                count += 1
                assert truth.lesion_mask[y, x]
    assert truth.lesion_mask.sum() == count == 197


def test_lesion_delta_clamped():
    img, truth = generate(PhantomSpec(seed=2, lesion=LesionSpec(20, 128, 8, 120)))
    assert np.all(img.pixels[truth.lesion_mask] == 255)


@pytest.mark.parametrize(
    "spec",
    [
        lambda: PhantomSpec(lesion=LesionSpec(40, 128, 0, 60)),     # radius 0
        lambda: PhantomSpec(lesion=LesionSpec(40, 128, -2, 60)),
        lambda: PhantomSpec(lesion=LesionSpec(40, 128, 10, 0)),     # delta 0
        lambda: PhantomSpec(lesion=LesionSpec(120, 128, 10, 60)),   # pokes out of the ellipse
        lambda: PhantomSpec(lesion=LesionSpec(0, 10, 10, 60)),      # pokes past the top
        lambda: PhantomSpec(width=101, height=101),                 # default axes do not fit
        lambda: PhantomSpec(noise_amplitude=96),
        lambda: PhantomSpec(noise_amplitude=-1),
        lambda: PhantomSpec(semi_axis_x=0),
        # past float range: the margin check is made in integers
        lambda: PhantomSpec(semi_axis_x=int("9" * 400)),
        lambda: PhantomSpec(semi_axis_y=int("9" * 400)),
        lambda: PhantomSpec(width=int("9" * 400)),
        lambda: PhantomSpec(height=int("9" * 400)),
        lambda: PhantomSpec(width=2**32, height=2**32),             # more pixels than intp indexes
        lambda: PhantomSpec(width=0),
        lambda: PhantomSpec(height=0),
        # even width: the disk's centre is a half-integer column and pixel
        # (x 8, y 10) of this disk lies outside the skull
        lambda: PhantomSpec(width=40, height=41, seed=1, semi_axis_x=15, semi_axis_y=15,
                            lesion=LesionSpec(-10, 11, 2, 60)),
    ],
    ids=[f"spec{i}" for i in range(17)],  # the ids of the cases when they were built specs
)
def test_spec_validation(spec):
    with pytest.raises(ParameterError):
        generate(spec())


@pytest.mark.parametrize("make", [
    lambda: LesionSpec(40, 128, 0, 60),
    lambda: LesionSpec(40, 128, 10, 0),
    lambda: PhantomSpec(width=0),
    lambda: PhantomSpec(width=2**32, height=2**32),
    lambda: PhantomSpec(width=101, height=101),
    lambda: PhantomSpec(semi_axis_x=0),
    lambda: PhantomSpec(noise_amplitude=96),
])
def test_specs_are_checked_when_built(make):
    # only the lesion disk's fit, which needs the whole geometry, waits for generate
    with pytest.raises(ParameterError):
        make()


@pytest.mark.parametrize("field, make", [
    ("width", lambda: PhantomSpec(width=257.0)),
    ("height", lambda: PhantomSpec(height=257.0)),
    ("seed", lambda: PhantomSpec(seed=1.5)),
    ("seed", lambda: PhantomSpec(seed="1")),
    ("center_dx", lambda: LesionSpec(30.0, 128, 10, 60)),
    ("center_y", lambda: LesionSpec(30, 128.0, 10, 60)),
    ("radius", lambda: LesionSpec(30, 128, 10.0, 60)),
    ("delta", lambda: LesionSpec(30, 128, 10, 60.5)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_integer_fields_reject_non_integers(field, make):
    # checked when the spec is built, so no invalid spec reaches generate
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        make()


@pytest.mark.parametrize("int_type", [np.uint8, np.int16, np.int64, np.uint64, bool])
def test_numpy_integer_fields_give_the_python_int_phantom(int_type):
    # the fields are stored as Python ints when the spec is built: a numpy seed would
    # overflow the LCG's 64-bit mask, and int16 sizes would wrap in the
    # pixel-count check
    spec = PhantomSpec(width=41, height=41, semi_axis_x=15, semi_axis_y=15,
                       lesion=LesionSpec(1, 20, 1, 1))
    typed = PhantomSpec(width=np.int64(41), height=np.int16(41), seed=int_type(1),
                        semi_axis_x=15, semi_axis_y=15,
                        lesion=LesionSpec(int_type(1), np.uint8(20), int_type(1), int_type(1)))
    assert typed == spec and all(type(v) is int for v in vars(typed.lesion).values())
    (img, truth), (ref, ref_truth) = generate(typed), generate(spec)
    assert np.array_equal(img.pixels, ref.pixels)
    assert np.array_equal(truth.lesion_mask, ref_truth.lesion_mask)


@pytest.mark.parametrize("width", [39, 40, 41, 42])
def test_accepted_lesions_lie_inside_the_skull(width):
    # centres across the whole raster, radii up to past the raster's half
    # size, so boxes that leave the raster are swept too
    height, ax, ay = 41, 15, 15
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    ys, xs = np.mgrid[0:height, 0:width]
    skull = ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0
    accepted = 0
    for dx in range(-width // 2 - 1, width // 2 + 2):
        for y in range(-1, height + 1, 3):
            for radius in (1, 2, 3, 5, 8, 14, 21):
                spec = PhantomSpec(width=width, height=height, seed=1, semi_axis_x=ax,
                                   semi_axis_y=ay, lesion=LesionSpec(dx, y, radius, 60))
                try:
                    _, truth = generate(spec)
                except ParameterError:
                    continue
                accepted += 1
                assert truth.lesion_mask.any()
                assert not np.any(truth.lesion_mask & ~skull), spec.lesion
    assert accepted > 100


@pytest.mark.parametrize("lesion", [
    lambda: LesionSpec(120, 128, 10, 60),  # pokes out of the ellipse
    lambda: LesionSpec(0, 10, 10, 60),     # pokes past the top
    lambda: LesionSpec(0, 128, 10**12, 60),
    lambda: LesionSpec(40, 128, 0, 60),
], ids=["outside-skull", "outside-raster", "huge", "radius-0"])
def test_bad_lesion_is_rejected_before_any_noise_is_drawn(monkeypatch, lesion):
    def no_draws(seed, count):
        raise AssertionError("noise drawn for an invalid spec")

    monkeypatch.setattr(phantom, "_lcg_blocks", no_draws)
    with pytest.raises(ParameterError):
        generate(PhantomSpec(lesion=lesion()))


def test_generate_builds_the_lesion_disk_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return lesion_disk(spec)

    lesion_disk = phantom._lesion_disk
    monkeypatch.setattr(phantom, "_lesion_disk", counted)
    spec = PhantomSpec(seed=5, lesion=LesionSpec(30, 110, 12, 60))
    _, truth = generate(spec)
    assert len(calls) == 1
    box, disk = lesion_disk(spec)
    assert np.array_equal(truth.lesion_mask[box], disk) and truth.lesion_mask.sum() == disk.sum()


def test_lesion_far_past_the_raster_is_rejected():
    for lesion in (LesionSpec(0, 128, 10**12, 60), LesionSpec(10**30, 128, 5, 60),
                   LesionSpec(0, -10**30, 5, 60)):
        with pytest.raises(ParameterError):
            generate(PhantomSpec(lesion=lesion))


def test_even_width_still_mirror_exact():
    img, truth = generate(PhantomSpec(width=256, height=257, semi_axis_x=99, seed=8))
    assert truth.axis_column == 127.5
    assert np.array_equal(img.pixels, np.fliplr(img.pixels))


def test_generate_returns_gray_image():
    img, _ = generate(PhantomSpec(seed=1))
    assert isinstance(img, GrayImage)
    assert (img.width, img.height) == (257, 257)


# ---------------------------------------------------------------------------
# block jump-ahead noise against the per-pixel Lcg64 loop

SEEDS = [0, 1, 2**63, 2**64 - 1, -1, 2**64 + 5]


def _draw_count(spec):
    ys, xs = np.ogrid[0:spec.height, 0:(spec.width + 1) // 2]
    cx, cy = (spec.width - 1) / 2.0, (spec.height - 1) / 2.0
    return int(np.count_nonzero(
        ((xs - cx) / spec.semi_axis_x) ** 2 + ((ys - cy) / spec.semi_axis_y) ** 2 <= 1.0))


def _assert_matches_brute(spec):
    img, truth = generate(spec)
    pixels, lesion_mask = brute_generate(spec)
    assert np.array_equal(img.pixels, pixels)
    assert np.array_equal(truth.lesion_mask, lesion_mask)


@pytest.mark.parametrize("amp", [0, 95])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width", [47, 48])
def test_generate_matches_per_pixel_lcg(width, seed, amp):
    _assert_matches_brute(PhantomSpec(width=width, height=41, seed=seed, semi_axis_x=19,
                                      semi_axis_y=15, noise_amplitude=amp))


@pytest.mark.parametrize(
    "shape, draws",
    [
        ((153, 81, 72, 36), _JUMP_BLOCK - 1),
        ((135, 91, 63, 41), _JUMP_BLOCK),
        ((94, 133, 42, 62), _JUMP_BLOCK),
        ((149, 83, 70, 37), _JUMP_BLOCK + 1),
        ((257, 257, 100, 120), 18_959),
    ],
    ids=["B-1", "B-odd", "B-even", "B+1", "several-blocks"],
)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_generate_matches_per_pixel_lcg_at_block_edges(shape, draws, seed):
    width, height, ax, ay = shape
    spec = PhantomSpec(width=width, height=height, seed=seed, semi_axis_x=ax, semi_axis_y=ay,
                       noise_amplitude=95, lesion=LesionSpec(-ax // 3, height // 2, 5, 70))
    assert _draw_count(spec) == draws
    _assert_matches_brute(spec)


@pytest.mark.parametrize("seed", SEEDS)
def test_block_draws_equal_next_bits(seed):
    count = 3 * _JUMP_BLOCK + 5
    # kept without copying: each block is its own array
    blocks = list(_lcg_blocks(seed, count))
    assert [b.size for b in blocks] == [_JUMP_BLOCK] * 3 + [5]
    rng = Lcg64(seed)
    assert np.concatenate(blocks).tolist() == [rng.next_bits() for _ in range(count)]


def test_jump_table_matches_recurrence():
    mult, inc = _jump_table(_JUMP_BLOCK)
    a, c = 1, 0
    for k in range(_JUMP_BLOCK):
        a = (a * Lcg64.MULTIPLIER) & Lcg64.MASK
        c = (c * Lcg64.MULTIPLIER + Lcg64.INCREMENT) & Lcg64.MASK
        assert (int(mult[k]), int(inc[k])) == (a, c), k + 1


def test_no_draws_for_zero_count():
    assert list(_lcg_blocks(1, 0)) == []


def test_generate_memory_at_513():
    # the per-pixel loop with full-raster float temporaries peaked at 3.02 MiB;
    # drawing all ~95k values at once instead of in blocks peaks at about 3 MiB
    spec = PhantomSpec(width=513, height=513, seed=7, semi_axis_x=200, semi_axis_y=240,
                       lesion=LesionSpec(80, 256, 20, 60))
    generate(spec)
    tracemalloc.start()
    try:
        generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
