"""The error contract, by property: any raster and valid configuration
gives a result or a BrainsymError, and any byte string gives an image or
a NetpbmError. Nothing else may escape, since the CLI maps exactly these
errors to its exit codes."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from brainsym import (
    BrainsymError,
    GrayImage,
    NetpbmError,
    PipelineConfig,
    RgbImage,
    detect_pipeline,
    load_netpbm,
    render_overlay,
)


@st.composite
def configs(draw):
    low = draw(st.floats(0.001, 0.9))
    high = draw(st.floats(low, 0.999, exclude_min=True))
    return PipelineConfig(
        sigma=draw(st.floats(0.05, 6.0)),
        median_window=draw(st.sampled_from([0, 3, 5, 9])),
        contrast=draw(st.booleans()),
        canny_low=low,
        canny_high=high,
        axis_degree=draw(st.sampled_from([1, 2])),
        min_span_frac=draw(st.floats(0.0, 1.0)),
        mirror_tol=draw(st.integers(0, 6)),
        closing_radius=draw(st.integers(0, 6)),
        min_area=draw(st.none() | st.integers(1, 2000)),
        pixel_spacing=draw(st.floats(1e-6, 1e300)),
    )


rasters = arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40)))


@settings(max_examples=120, deadline=None)
@given(rasters, configs())
def test_pipeline_and_overlay_return_or_raise_brainsym_error(raw, config):
    img = GrayImage(raw)
    try:
        result = detect_pipeline(img, config)
    except BrainsymError:
        return
    overlay = render_overlay(img, result)
    assert overlay.pixels.shape == raw.shape + (3,)


_header_pieces = st.one_of(
    st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c"]),
    st.binary(max_size=12).map(lambda text: b"#" + text),
    st.binary(max_size=12).map(lambda text: b"#" + text + b"\n"),
    st.integers(0, 300).map(lambda n: b"%d" % n),
    st.sampled_from([b"255", b"0", b"-1", b"+3", b"1e3", b"\xd9\xa3", b"\xef\xbc\x91"]),
    st.integers(4290, 4310).map(lambda n: b"7" * n),
    st.integers(4290, 6000).map(lambda n: b"0" * n + b"255"),
    st.binary(max_size=6),
)

_separators = st.lists(st.sampled_from([b" ", b"\n", b"\t", b"# note\n", b"#\r"]),
                       min_size=1, max_size=3).map(b"".join)

# headers that mostly parse, so payload lengths and both image types are reached
_plausible = st.tuples(
    st.sampled_from([b"P5", b"P6"]), _separators, st.integers(0, 9), _separators,
    st.integers(0, 9), _separators, st.sampled_from([b"255", b"0255", b"256"]),
    st.sampled_from([b"\n", b" ", b"", b"x"]), st.binary(max_size=250),
).map(lambda p: p[0] + p[1] + b"%d" % p[2] + p[3] + b"%d" % p[4] + b"".join(p[5:]))

netpbm_bytes = st.one_of(
    st.binary(max_size=200),
    _plausible,
    st.tuples(
        st.sampled_from([b"P5", b"P6", b"P4", b"P", b"", b"p5"]),
        st.lists(_header_pieces, max_size=10),
        st.binary(max_size=80),
    ).map(lambda parts: parts[0] + b"".join(parts[1]) + parts[2]),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(netpbm_bytes)
def test_load_netpbm_returns_or_raises_netpbm_error(tmp_path, data):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    try:
        img = load_netpbm(path)
    except NetpbmError:
        return
    assert isinstance(img, (GrayImage, RgbImage))
