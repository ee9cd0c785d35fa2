"""detect_pipeline against brute_detect, the whole pipeline composed from
the oracles in tests/oracles.py.

Each stage has its own oracle test; this module checks the composition:
which stage runs on which output, with which parameters, in which order.
The results must agree exactly, the axis coefficients included, or both
calls must raise the same exception type, naming the same stage. The
rasters are small (at most 97 px a side), since the oracles loop in
Python.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from brainsym import BrainsymError, GrayImage, LesionSpec, PhantomSpec, PipelineConfig, detect_pipeline, generate

from oracles import brute_detect
from test_detect import STRESS_CONFIG, stressed


def _check(img, config):
    """detect_pipeline(img, config) against brute_detect: the verdict when
    both return, None when both raise."""
    try:
        want = brute_detect(img.pixels, config)
    except BrainsymError as exc:
        with pytest.raises(type(exc)) as raised:
            detect_pipeline(img, config)
        assert getattr(raised.value, "stage", None) == getattr(exc, "stage", None)
        return None
    got = detect_pipeline(img, config)
    assert got.axis.coeffs == want["coeffs"]
    assert [r.pixels for r in got.regions] == want["regions"]
    assert [r.area_px for r in got.regions] == want["areas"]
    assert got.total_area_px == want["total_area_px"]
    assert got.total_area_mm2 == want["total_area_mm2"]
    assert got.verdict == want["verdict"]
    assert got.edge_count == want["edge_count"]
    return got.verdict


def _phantom(index, lesioned):
    """A phantom of 33-97 px a side drawn from default_rng([2609, index,
    lesioned]): the skull's semi-axes are 0.40 and 0.48 of the side less
    9 (99 and 119 at 257), and a lesion, when asked for, lies 0.3-0.6
    semi-axes off the midline with a radius of 0.1-0.2 semi-axes."""
    rng = np.random.default_rng([2609, index, lesioned])
    w, h = (int(v) for v in rng.integers(33, 98, size=2))
    ax, ay = int(0.40 * (w - 9)), int(0.48 * (h - 9))
    lesion = None
    if lesioned:
        dx = int(rng.choice([-1, 1]) * round(rng.uniform(0.3, 0.6) * ax))
        dy = int(round(rng.uniform(-0.3, 0.3) * ay))
        radius = max(2, int(round(rng.uniform(0.1, 0.2) * ax)))
        delta = int(rng.choice([-1, 1]) * rng.integers(40, 81))
        lesion = LesionSpec(dx, (h - 1) // 2 + dy, radius, delta)
    img, _ = generate(PhantomSpec(width=w, height=h, seed=int(rng.integers(1, 2**31)),
                                  semi_axis_x=ax, semi_axis_y=ay, lesion=lesion))
    return img, rng


CASES = [(i, lesioned, stress) for i in range(4) for lesioned in (False, True) for stress in (False, True)]


@pytest.mark.parametrize("config", [PipelineConfig(), STRESS_CONFIG], ids=["default", "stress"])
def test_pipeline_matches_reference_on_phantoms(config):
    verdicts = []
    for index, lesioned, stress in CASES:
        img, rng = _phantom(index, lesioned)
        verdicts.append(_check(stressed(img, rng) if stress else img, config))
    # the cases reach both verdicts, so the regions are compared too
    assert "found" in verdicts and "not-found" in verdicts


@st.composite
def configs(draw):
    low = draw(st.floats(0.01, 0.8))
    return PipelineConfig(
        sigma=draw(st.floats(0.3, 2.5)),
        median_window=draw(st.sampled_from([0, 3, 5])),
        contrast=draw(st.booleans()),
        canny_low=low,
        canny_high=draw(st.floats(low, 0.95, exclude_min=True)),
        axis_degree=draw(st.sampled_from([1, 2])),
        min_span_frac=draw(st.floats(0.0, 0.25)),
        mirror_tol=draw(st.integers(0, 4)),
        closing_radius=draw(st.integers(0, 3)),
        min_area=draw(st.none() | st.integers(1, 12)),
    )


@st.composite
def rasters(draw):
    """Any raster of at most 24 x 24 px, or most of the time one of 6-24
    px a side holding a bright box of at least 3 x 3 px, which the Otsu
    mask and the midpoint fit can take, with a dark hole in it at times,
    so that some rows' midpoints fall off the mask."""
    if draw(st.integers(0, 3)) == 0:
        return draw(arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24))))
    h, w = draw(st.integers(6, 24)), draw(st.integers(6, 24))
    raw = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 90)))
    y0, x0 = draw(st.integers(0, h - 3)), draw(st.integers(0, w - 3))
    y1, x1 = draw(st.integers(y0 + 3, h)), draw(st.integers(x0 + 3, w))
    raw[y0:y1, x0:x1] = draw(arrays(np.uint8, (y1 - y0, x1 - x0), elements=st.integers(150, 255)))
    if draw(st.booleans()):
        hy, hx = draw(st.integers(y0, y1 - 1)), draw(st.integers(x0 + 1, x1 - 2))
        raw[hy:draw(st.integers(hy + 1, y1)), hx:draw(st.integers(hx + 1, x1 - 1))] = 0
    return raw


def _notched():
    """A 20 x 24 raster whose bright blob has ragged rows and a dark notch
    from the top: the notch rows' midpoints fall off the mask, and the
    other rows' midpoints lie on no one line."""
    rng = np.random.default_rng(2610)
    raw = rng.integers(0, 60, size=(20, 24)).astype(np.uint8)
    for y in range(2, 18):
        raw[y, rng.integers(2, 6):rng.integers(18, 22)] = 200
    raw[2:9, 10:14] = 20
    return raw


@settings(max_examples=60, deadline=None)
@given(rasters(), configs())
@example(_notched(), PipelineConfig())
@example(_notched(), STRESS_CONFIG)
def test_pipeline_matches_reference_on_random_rasters(raw, config):
    _check(GrayImage(raw), config)
