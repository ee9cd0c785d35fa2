import json
import re
import subprocess
import sys

import numpy as np
import pytest

from brainsym import GrayImage, LesionSpec, PhantomSpec, generate, load_netpbm, save_netpbm


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "brainsym", *map(str, args)],
        capture_output=True,
        text=True,
    )


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
    report = json.loads((tmp_path / "lesioned.report.json").read_text())
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
    report = json.loads((tmp_path / "plain.report.json").read_text())
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


def test_detect_pixel_spacing_scales_mm2(phantom_paths, tmp_path):
    proc = run_cli("detect", phantom_paths["lesioned"], "-d", tmp_path,
                   "--pixel-spacing", "0.5")
    assert proc.returncode == 0
    report = json.loads((tmp_path / "lesioned.report.json").read_text())
    assert report["total_area_mm2"] == pytest.approx(report["total_area_px"] * 0.25)


def test_detect_bad_sigma_exit_2(phantom_paths, tmp_path):
    proc = run_cli("detect", phantom_paths["plain"], "-d", tmp_path, "--sigma", "0")
    assert proc.returncode == 2


def test_detect_missing_input_exit_4(tmp_path):
    proc = run_cli("detect", tmp_path / "missing.pgm", "-d", tmp_path)
    assert proc.returncode == 4


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


def test_phantom_unwritable_output_exit_4(tmp_path):
    proc = run_cli("phantom", "-o", tmp_path / "nodir" / "x.pgm")
    assert proc.returncode == 4
