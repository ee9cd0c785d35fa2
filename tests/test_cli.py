import json
import re
import subprocess
import sys

import numpy as np
import pytest

from brainsym import (
    GrayImage,
    LesionSpec,
    ParameterError,
    PhantomSpec,
    PipelineConfig,
    generate,
    load_netpbm,
    save_netpbm,
)
from brainsym import cli
from brainsym.cli import _given, build_parser


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "brainsym", *map(str, args)],
        capture_output=True,
        text=True,
    )


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which strict JSON has not")


def read_report(path):
    """Parse a written report as strict JSON: NaN and Infinity fail."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def phantom_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    plain, _ = generate(PhantomSpec(seed=5))
    lesioned, _ = generate(PhantomSpec(seed=5, lesion=LesionSpec(40, 128, 10, 60)))
    flat = GrayImage(np.full((64, 64), 20, dtype=np.uint8))
    paths = {
        "plain": base / "plain.pgm",
        "lesioned": base / "lesioned.pgm",
        "flat": base / "flat.pgm",
    }
    save_netpbm(plain, paths["plain"])
    save_netpbm(lesioned, paths["lesioned"])
    save_netpbm(flat, paths["flat"])
    return paths


# ---------------------------------------------------------------------------
# edges

def test_edges_flat_image_zero(phantom_paths, tmp_path):
    out = tmp_path / "e.pgm"
    proc = run_cli("edges", phantom_paths["flat"], "-o", out)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "edges=0"
    assert load_netpbm(out).pixels.max() == 0


def test_edges_unknown_operator_exit_2(phantom_paths, tmp_path):
    proc = run_cli("edges", phantom_paths["plain"], "-o", tmp_path / "e.pgm",
                   "--operator", "foo")
    assert proc.returncode == 2
    listing = proc.stderr
    for name in ("canny", "sobel", "prewitt", "roberts"):
        assert name in listing


def test_edges_output_roundtrips_to_count(phantom_paths, tmp_path):
    out = tmp_path / "edges.pgm"
    proc = run_cli("edges", phantom_paths["lesioned"], "-o", out)
    assert proc.returncode == 0
    match = re.fullmatch(r"edges=(\d+)", proc.stdout.strip())
    assert match
    reloaded = load_netpbm(out)
    assert int(match.group(1)) == int((reloaded.pixels == 255).sum())
    assert set(np.unique(reloaded.pixels)) <= {0, 255}


# ---------------------------------------------------------------------------
# axis

def test_axis_symmetric_phantom(phantom_paths, tmp_path):
    out = tmp_path / "axis.ppm"
    proc = run_cli("axis", phantom_paths["plain"], "-o", out)
    assert proc.returncode == 0
    coeffs = dict(part.split("=") for part in proc.stdout.split())
    assert abs(float(coeffs["c0"]) - 128.0) <= 0.5
    assert abs(float(coeffs["c1"])) <= 0.01
    overlay = load_netpbm(out)
    assert (overlay.width, overlay.height) == (257, 257)
    assert overlay.pixels[3, 128].tolist() == [0, 255, 0]


def test_axis_degree_two(phantom_paths, tmp_path):
    proc = run_cli("axis", phantom_paths["plain"], "-o", tmp_path / "axis2.ppm",
                   "--axis-degree", "2")
    assert proc.returncode == 0
    coeffs = dict(part.split("=") for part in proc.stdout.split())
    assert set(coeffs) == {"c0", "c1", "c2"}
    assert abs(float(coeffs["c0"]) - 128.0) <= 0.5
    assert abs(float(coeffs["c2"])) <= 0.01


def test_axis_flat_image_exit_3(phantom_paths, tmp_path):
    proc = run_cli("axis", phantom_paths["flat"], "-o", tmp_path / "axis.ppm")
    assert proc.returncode == 3
    assert "no foreground separable" in proc.stderr


# ---------------------------------------------------------------------------
# detect

def test_detect_lesioned(phantom_paths, tmp_path):
    proc = run_cli("detect", phantom_paths["lesioned"], "-d", tmp_path)
    assert proc.returncode == 0
    report = read_report(tmp_path / "lesioned.report.json")
    assert report["verdict"] == "found"
    assert len(report["regions"]) >= 1
    assert report["total_area_px"] == sum(r["area_px"] for r in report["regions"])
    assert "message" not in report
    assert (tmp_path / "lesioned.overlay.ppm").exists()
    assert list(report) == ["width", "height", "axis", "regions", "total_area_px",
                            "total_area_mm2", "verdict", "edge_count"]


def test_detect_symmetric_not_found_message(phantom_paths, tmp_path):
    proc = run_cli("detect", phantom_paths["plain"], "-d", tmp_path)
    assert proc.returncode == 0
    assert "Possible tumor area are not found" in proc.stdout
    report = read_report(tmp_path / "plain.report.json")
    assert report["verdict"] == "not-found"
    assert report["regions"] == []
    assert report["message"] == "Possible tumor area are not found"


def test_detect_rerun_byte_identical(phantom_paths, tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        assert run_cli("detect", phantom_paths["lesioned"], "-d", d).returncode == 0
    name_json = "lesioned.report.json"
    name_ppm = "lesioned.overlay.ppm"
    assert (d1 / name_json).read_bytes() == (d2 / name_json).read_bytes()
    assert (d1 / name_ppm).read_bytes() == (d2 / name_ppm).read_bytes()


def test_detect_huge_radii_clamped_to_raster(phantom_paths, tmp_path):
    # the padded closing frame would need about (2e5)^2 pixels unclamped
    outputs = []
    for value in ("100000", "257"):
        outdir = tmp_path / value
        proc = run_cli("detect", phantom_paths["lesioned"], "-d", outdir,
                       "--mirror-tol", value, "--closing-radius", value)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(outdir / name).read_bytes()
                        for name in ("lesioned.report.json", "lesioned.overlay.ppm")])
    assert outputs[0] == outputs[1]


def test_detect_min_area_past_float_range_is_clamped(phantom_paths, tmp_path, capsys):
    # no component outgrows the 257^2 raster, so a floor past the float
    # range keeps none, as the floor of its pixel count plus one does
    outputs = []
    for value in ("1" + "0" * 400, "66050"):
        outdir = tmp_path / value[:8]
        assert cli.main(["detect", str(phantom_paths["lesioned"]), "-d", str(outdir),
                         "--min-area", value]) == 0
        assert capsys.readouterr().out.startswith("verdict=not-found ")
        outputs.append([(outdir / name).read_bytes()
                        for name in ("lesioned.report.json", "lesioned.overlay.ppm")])
    assert outputs[0] == outputs[1]


IMAGE_COMMANDS = {"edges": "-o", "axis": "-o", "detect": "-d", "report": "-o"}


# 2**40 + 1 pads past any array; the second is past 2**63 as well. Both
# are past the reach limit first, so preprocess rejects them before any stage.
@pytest.mark.parametrize("window", ["1099511627777", "1" * 31])
@pytest.mark.parametrize("command", IMAGE_COMMANDS)
def test_median_window_past_any_array_exit_2(phantom_paths, tmp_path, capsys, command, window):
    out = tmp_path / "out"
    assert cli.main([command, str(phantom_paths["lesioned"]), IMAGE_COMMANDS[command], str(out),
                     "--median-window", window]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: median_window {window} reaches \d+ px, past the 32 px limit "
                        r"of a 257x257 raster\n", err), err
    assert not out.exists()


def test_detect_bare_flags_give_default_config():
    args = build_parser().parse_args(["detect", "in.pgm", "-d", "out"])
    assert PipelineConfig(**_given(PipelineConfig, args)) == PipelineConfig()


# every field of PipelineConfig at its default, as the parser gives it
DEFAULT_FLAGS = {
    "sigma": 1.0, "median_window": 3, "contrast": True, "canny_low": 0.1, "canny_high": 0.2,
    "axis_degree": 1, "min_span_frac": 0.1, "mirror_tol": 2, "closing_radius": 2,
    "min_area": None, "pixel_spacing": 1.0,
}
PARSED_ARGVS = [
    (["edges", "in.pgm", "-o", "e.pgm"], "cmd_edges",
     {"output": "e.pgm", "operator": "canny"}),
    (["edges", "in.pgm", "-o", "e.pgm", "--operator", "roberts", "--sigma", "2.5",
      "--no-contrast"], "cmd_edges",
     {"output": "e.pgm", "operator": "roberts", "sigma": 2.5, "contrast": False}),
    (["axis", "in.pgm", "-o", "a.ppm", "--axis-degree", "2", "--min-span-frac", "0.2"],
     "cmd_axis", {"output": "a.ppm", "axis_degree": 2, "min_span_frac": 0.2}),
    (["detect", "in.pgm", "-d", "out"], "cmd_detect", {"outdir": "out"}),
    (["detect", "--mirror-tol", "4", "in.pgm", "--closing-radius", "0", "-d", "out",
      "--min-area", "7", "--pixel-spacing", "0.5", "--median-window", "5",
      "--canny-low", "0.05", "--canny-high", "0.3"], "cmd_detect",
     {"outdir": "out", "mirror_tol": 4, "closing_radius": 0, "min_area": 7,
      "pixel_spacing": 0.5, "median_window": 5, "canny_low": 0.05, "canny_high": 0.3}),
    (["detect", "in.pgm", "--outdir=out", "--sig", "3", "--axis", "2"], "cmd_detect",
     {"outdir": "out", "sigma": 3.0, "axis_degree": 2}),
    (["report", "in.pgm"], "cmd_report", {"output": None}),
    (["report", "in.pgm", "-o", "r.csv", "--sigma", "1e-200", "--median-window", "0"],
     "cmd_report", {"output": "r.csv", "sigma": 1e-200, "median_window": 0}),
]


@pytest.mark.parametrize("argv, func, flags", PARSED_ARGVS,
                         ids=[" ".join(a) for a, _, _ in PARSED_ARGVS])
def test_image_commands_parse_to_pinned_namespaces(argv, func, flags):
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("func").__name__ == func
    assert parsed == {"command": argv[0], "input": "in.pgm", **DEFAULT_FLAGS, **flags}


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 37.3 GiB")


def test_detect_out_of_memory_exit_3(phantom_paths, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "detect_pipeline", _no_memory)
    outdir = tmp_path / "out"
    assert cli.main(["detect", str(phantom_paths["lesioned"]), "-d", str(outdir)]) == 3
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 37.3 GiB\n"
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["edges", "axis", "report"])
def test_stage_out_of_memory_exit_3(phantom_paths, tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(cli, "preprocess", _no_memory)
    out = tmp_path / "out"
    assert cli.main([command, str(phantom_paths["lesioned"]), "-o", str(out)]) == 3
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 37.3 GiB\n"
    assert not out.exists()


def test_detect_pixel_spacing_scales_mm2(phantom_paths, tmp_path):
    proc = run_cli("detect", phantom_paths["lesioned"], "-d", tmp_path,
                   "--pixel-spacing", "0.5")
    assert proc.returncode == 0
    report = read_report(tmp_path / "lesioned.report.json")
    assert report["total_area_mm2"] == pytest.approx(report["total_area_px"] * 0.25)


@pytest.mark.parametrize("name", ["plain", "lesioned"])
def test_detect_infinite_pixel_spacing_exit_2(phantom_paths, tmp_path, name):
    proc = run_cli("detect", phantom_paths[name], "-d", tmp_path, "--pixel-spacing", "inf")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_detect_overflowing_area_exit_3(phantom_paths, tmp_path):
    # finite spacing, but 1e200**2 mm^2 per pixel overflows once anything is found
    proc = run_cli("detect", phantom_paths["lesioned"], "-d", tmp_path / "out",
                   "--pixel-spacing", "1e200")
    assert proc.returncode == 3, proc.stderr
    assert "measure" in proc.stderr
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_detect_huge_spacing_empty_report_is_strict_json(phantom_paths, tmp_path):
    proc = run_cli("detect", phantom_paths["plain"], "-d", tmp_path, "--pixel-spacing", "1e200")
    assert proc.returncode == 0, proc.stderr
    report = read_report(tmp_path / "plain.report.json")
    assert report["total_area_mm2"] == 0


def test_detect_bad_sigma_exit_2(phantom_paths, tmp_path):
    for sigma in ("0", "inf"):
        proc = run_cli("detect", phantom_paths["plain"], "-d", tmp_path, "--sigma", sigma)
        assert proc.returncode == 2, (sigma, proc.stderr)


@pytest.mark.parametrize("sigma", ["1e18", "1e300", "1e308"])
def test_detect_kernel_too_large_for_an_array_exit_2(phantom_paths, tmp_path, capsys, sigma):
    # 1e17 still passes this check, and then preprocess's reach limit rejects it, exit 2
    outdir = tmp_path / "out"
    assert cli.main(["detect", str(phantom_paths["plain"]), "-d", str(outdir), "--sigma", sigma]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not outdir.exists()


# a filter's reach, ceil(3 sigma) or window // 2, is limited to 32 px on a
# 257 x 257 input: the first value of each pair is at the limit, the
# others are past it
@pytest.mark.parametrize("flag, values", [("--sigma", ["10.6", "10.7", "10000"]),
                                          ("--median-window", ["65", "67", "10001"])])
def test_detect_filter_reach_limit(phantom_paths, tmp_path, capsys, flag, values):
    at, *past = values
    assert cli.main(["detect", str(phantom_paths["lesioned"]), "-d", str(tmp_path / at), flag, at]) == 0
    capsys.readouterr()
    for value in past:
        outdir = tmp_path / value
        assert cli.main(["detect", str(phantom_paths["lesioned"]), "-d", str(outdir), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith(" px limit of a 257x257 raster\n") and "past the 32 px" in err, err
        assert not outdir.exists()


def test_detect_tiny_sigma_is_the_limit_kernel(phantom_paths, tmp_path):
    # below sigma ~1.5e-162 the Gaussian's 2 sigma**2 underflows to 0; such
    # a sigma smooths as every sigma under about 0.026 does: not at all
    outputs = []
    for sigma in ("1e-200", "1e-150"):
        outdir = tmp_path / sigma
        assert cli.main(["detect", str(phantom_paths["lesioned"]), "-d", str(outdir),
                         "--sigma", sigma]) == 0
        outputs.append([(outdir / name).read_bytes()
                        for name in ("lesioned.report.json", "lesioned.overlay.ppm")])
    assert outputs[0] == outputs[1]


def test_detect_missing_input_exit_4(tmp_path):
    proc = run_cli("detect", tmp_path / "missing.pgm", "-d", tmp_path)
    assert proc.returncode == 4


BAD_CONFIG_FLAGS = {
    "sigma": (["--sigma", "-1"], dict(sigma=-1.0)),
    "median": (["--median-window", "4"], dict(median_window=4)),
    "canny": (["--canny-low", "0.5", "--canny-high", "0.4"], dict(canny_low=0.5, canny_high=0.4)),
    "degree": (["--axis-degree", "3"], dict(axis_degree=3)),
}


@pytest.mark.parametrize("bad", BAD_CONFIG_FLAGS)
@pytest.mark.parametrize("command", IMAGE_COMMANDS)
def test_flag_error_is_reported_before_the_input_is_read(tmp_path, capsys, command, bad):
    flags, fields = BAD_CONFIG_FLAGS[bad]
    with pytest.raises(ParameterError) as config_error:
        PipelineConfig(**fields)
    argv = [command, str(tmp_path / "missing.pgm"), IMAGE_COMMANDS[command], str(tmp_path / "out")]
    assert cli.main(argv + flags) == 2
    assert capsys.readouterr().err == f"error: {config_error.value}\n"
    assert cli.main(argv) == 4
    assert "missing.pgm" in capsys.readouterr().err


def test_detect_failure_writes_no_report(phantom_paths, tmp_path):
    outdir = tmp_path / "out"
    proc = run_cli("detect", phantom_paths["flat"], "-d", outdir)
    assert proc.returncode == 3
    assert not outdir.exists() or not list(outdir.iterdir())


def test_detect_malformed_input_exit_4(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    proc = run_cli("detect", bad, "-d", tmp_path)
    assert proc.returncode == 4
    assert "payload" in proc.stderr


def test_detect_overlong_header_integer_exit_4(tmp_path):
    bad = tmp_path / "long.pgm"
    bad.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n" + b"x")
    outdir = tmp_path / "out"
    proc = run_cli("detect", bad, "-d", outdir)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == ["error: width: integer of 5000 digits is too long"]
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# report

def test_report_shape_and_consistency(phantom_paths, tmp_path):
    proc = run_cli("report", phantom_paths["lesioned"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "operator,edges"
    assert [line.split(",")[0] for line in lines[1:]] == ["sobel", "prewitt", "roberts", "canny"]
    assert len(lines) == 5
    counts = {line.split(",")[0]: int(line.split(",")[1]) for line in lines[1:]}
    for op in ("sobel", "canny"):
        single = run_cli("edges", phantom_paths["lesioned"], "-o", tmp_path / f"{op}.pgm",
                         "--operator", op)
        assert int(single.stdout.strip().split("=")[1]) == counts[op]


def test_report_flat_all_zero(phantom_paths):
    proc = run_cli("report", phantom_paths["flat"])
    assert proc.returncode == 0
    for line in proc.stdout.strip().splitlines()[1:]:
        assert line.endswith(",0")


# ---------------------------------------------------------------------------
# runtime without scipy

# Any `import scipy` (or of a submodule) raises ImportError once
# sys.modules["scipy"] is None, so these runs fail if the program uses it.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from brainsym.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"{argv}: exit {code}")
"""


def test_cli_runs_without_scipy(tmp_path):
    pgm = tmp_path / "lesioned.pgm"
    runs = [
        ["phantom", "-o", pgm, "--lesion"],
        ["edges", pgm, "-o", tmp_path / "e.pgm"],
        ["axis", pgm, "-o", tmp_path / "a.ppm"],
        ["detect", pgm, "-d", tmp_path / "blocked"],
        ["report", pgm, "-o", tmp_path / "r.csv"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps([list(map(str, argv)) for argv in runs])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_netpbm(pgm).pixels.shape == (257, 257)
    assert cli.main(["detect", str(pgm), "-d", str(tmp_path / "here")]) == 0
    for name in ("lesioned.report.json", "lesioned.overlay.ppm"):
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    assert read_report(tmp_path / "here" / "lesioned.report.json")["verdict"] == "found"


# ---------------------------------------------------------------------------
# phantom

def test_phantom_cli_deterministic(tmp_path):
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    for p in (p1, p2):
        assert run_cli("phantom", "-o", p, "--seed", "11").returncode == 0
    assert p1.read_bytes() == p2.read_bytes()
    s1 = json.loads((tmp_path / "a.pgm.json").read_text())
    assert s1["axis_column"] == 128.0
    assert s1["lesion"] is None


def test_phantom_cli_lesion_sidecar(tmp_path):
    out = tmp_path / "l.pgm"
    proc = run_cli("phantom", "-o", out, "--lesion", "--lesion-dx", "-30",
                   "--lesion-radius", "12")
    assert proc.returncode == 0
    sidecar = json.loads((tmp_path / "l.pgm.json").read_text())
    assert sidecar["lesion"]["center"] == [98, 128]
    assert sidecar["lesion"]["radius"] == 12
    img = load_netpbm(out)
    assert (img.width, img.height) == (257, 257)


def test_phantom_lesion_radius_zero_exit_2(tmp_path):
    proc = run_cli("phantom", "-o", tmp_path / "x.pgm", "--lesion-radius", "0")
    assert proc.returncode == 2


@pytest.mark.parametrize("flag", ["--width", "--height", "--semi-x", "--semi-y"])
def test_phantom_huge_integer_exit_2(tmp_path, flag):
    out = tmp_path / "x.pgm"
    proc = run_cli("phantom", "-o", out, flag, "9" * 400)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert not out.exists()


def test_phantom_out_of_memory_exit_2(tmp_path, monkeypatch, capsys):
    def no_memory(spec):
        raise MemoryError("Unable to allocate 37.3 GiB")

    monkeypatch.setattr(cli, "generate", no_memory)
    out = tmp_path / "x.pgm"
    assert cli.main(["phantom", "-o", str(out), "--width", "10000000000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: a 10000000000x257 phantom does not fit in memory\n"
    assert not out.exists()


def test_phantom_bare_flags_give_default_spec():
    args = build_parser().parse_args(["phantom", "-o", "x.pgm"])
    assert cli._phantom_spec_from_args(args) == PhantomSpec()


# each phantom flag set, and the spec it must build, written out in full;
# any one --lesion-* flag implies a lesion, whose other fields take
# --lesion's defaults: dx 40, row (height - 1) // 2, radius 10, delta 60
PHANTOM_SPECS = [
    (["--lesion"],
     PhantomSpec(257, 257, 1, 100, 120, 10, LesionSpec(40, 128, 10, 60))),
    (["--lesion-dx", "-30"],
     PhantomSpec(257, 257, 1, 100, 120, 10, LesionSpec(-30, 128, 10, 60))),
    (["--lesion-y", "100"],
     PhantomSpec(257, 257, 1, 100, 120, 10, LesionSpec(40, 100, 10, 60))),
    (["--lesion-radius", "12"],
     PhantomSpec(257, 257, 1, 100, 120, 10, LesionSpec(40, 128, 12, 60))),
    (["--lesion-delta", "-50"],
     PhantomSpec(257, 257, 1, 100, 120, 10, LesionSpec(40, 128, 10, -50))),
    (["--lesion-dx", "35", "--lesion-y", "140", "--lesion-radius", "8", "--lesion-delta", "45"],
     PhantomSpec(257, 257, 1, 100, 120, 10, LesionSpec(35, 140, 8, 45))),
    (["--lesion", "--width", "301", "--height", "300"],
     PhantomSpec(301, 300, 1, 100, 120, 10, LesionSpec(40, 149, 10, 60))),
    (["--semi-x", "90", "--semi-y", "110", "--seed", "3", "--noise-amplitude", "7"],
     PhantomSpec(257, 257, 3, 90, 110, 7, None)),
]


@pytest.mark.parametrize("argv, spec", PHANTOM_SPECS, ids=[" ".join(a) for a, _ in PHANTOM_SPECS])
def test_phantom_flags_build_pinned_specs(argv, spec):
    args = build_parser().parse_args(["phantom", "-o", "x.pgm", *argv])
    assert cli._phantom_spec_from_args(args) == spec


def test_phantom_unwritable_output_exit_4(tmp_path):
    proc = run_cli("phantom", "-o", tmp_path / "nodir" / "x.pgm")
    assert proc.returncode == 4
