"""The error contract, by property: any raster and valid configuration
gives a result or a BrainsymError, any field values build a spec or raise
a ParameterError, and any byte string gives an image or a NetpbmError.
Nothing else may escape, since the CLI maps exactly these errors to its
exit codes."""

import warnings
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

from brainsym import (
    BrainsymError,
    GrayImage,
    LesionSpec,
    NetpbmError,
    ParameterError,
    PhantomSpec,
    PipelineConfig,
    RgbImage,
    detect_pipeline,
    generate,
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


_numpy_scalars = st.sampled_from(
    [np.int8, np.uint8, np.int16, np.int64, np.uint64, np.float16, np.float32, np.float64]
).flatmap(lambda t: from_dtype(np.dtype(t)).map(t))

# what a caller might pass for any field
field_values = st.one_of(
    st.integers(-3, 70),
    st.integers(),
    st.integers(-10**400, 10**400),
    st.floats(),
    _numpy_scalars,
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)


@st.composite
def _replaced(draw, base):
    """base with some of its values replaced by drawn field values."""
    names = draw(st.sets(st.sampled_from(sorted(base))))
    return {**base, **{name: draw(field_values) for name in sorted(names)}}


@st.composite
def spec_kwargs(draw):
    """Keyword arguments for a PipelineConfig, a LesionSpec and a
    PhantomSpec: valid ones, on a raster of at most 64 x 64 pixels, with
    some values replaced. Half of the time the lesion is not keyword
    arguments but any field value, None among them, passed as the lesion
    itself."""
    width, height = draw(st.integers(11, 64)), draw(st.integers(11, 64))
    phantom = dict(width=width, height=height, seed=draw(st.integers(0, 2**64)),
                   semi_axis_x=(width - 9) // 2, semi_axis_y=(height - 9) // 2,
                   noise_amplitude=draw(st.integers(0, 95)))
    lesion = dict(center_dx=0, center_y=(height - 1) // 2, radius=1, delta=60)
    lesion = draw(_replaced(lesion)) if draw(st.booleans()) else draw(field_values)
    return (draw(_replaced({f.name: f.default for f in fields(PipelineConfig)})),
            lesion, draw(_replaced(phantom)))


@settings(max_examples=300, deadline=None)
@given(spec_kwargs())
def test_specs_build_or_raise_parameter_error(kwargs):
    # generate runs only on built specs of at most 64 x 64 pixels
    config, lesion, phantom = kwargs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            PipelineConfig(**config)
        except ParameterError:
            pass
        try:
            if isinstance(lesion, dict):
                lesion = LesionSpec(**lesion)
            spec = PhantomSpec(**phantom, lesion=lesion)
            if spec.width > 64 or spec.height > 64:
                return
            img, truth = generate(spec)
        except ParameterError:
            return
    assert img.pixels.shape == truth.lesion_mask.shape == (spec.height, spec.width)


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
