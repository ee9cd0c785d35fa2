"""Batch command-line front end.

Subcommands run individual stages (edges, axis, report), the whole
detector (detect) or the phantom generator (phantom). Exit codes:
0 analysis completed (tumor found or not), 2 usage or parameter error,
3 pipeline, numerical or out-of-memory failure, 4 I/O failure. All
outputs are byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .detect import (
    DetectionResult,
    PipelineConfig,
    _paint_overlay,
    detect_pipeline,
    fit_image_axis,
    preprocess,
    render_overlay,
)
from .edges import OPERATORS, canny, gradient, threshold_edges
from .errors import GeometryError, NetpbmError, ParameterError, PipelineError
from .imaging import GrayImage, RgbImage, load_netpbm, rgb_to_gray, save_netpbm
from .phantom import LesionSpec, PhantomSpec, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PIPELINE = 3
EXIT_IO = 4


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _json_number(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(f"{float(value):.6g}")


def _load_gray(path: str) -> GrayImage:
    img = load_netpbm(path)
    if isinstance(img, RgbImage):
        return rgb_to_gray(img)
    return img


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(**{f.name: getattr(args, f.name) for f in fields(PipelineConfig)})


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field; each dest is the field name and
    each default is the field's default."""
    g = parser.add_argument_group("pipeline configuration")
    g.add_argument("--sigma", type=float, default=PipelineConfig.sigma,
                   help="Gaussian sigma in pixels (default %(default)s)")
    g.add_argument("--median-window", type=int, default=PipelineConfig.median_window,
                   help="median window, odd >= 3, 0 skips (default %(default)s)")
    g.add_argument("--no-contrast", dest="contrast", action="store_false",
                   default=PipelineConfig.contrast,
                   help="skip the contrast stretch stage")
    g.add_argument("--canny-low", type=float, default=PipelineConfig.canny_low,
                   help="low hysteresis fraction of max magnitude (default %(default)s)")
    g.add_argument("--canny-high", type=float, default=PipelineConfig.canny_high,
                   help="high hysteresis fraction of max magnitude (default %(default)s)")
    g.add_argument("--axis-degree", type=int, default=PipelineConfig.axis_degree, choices=(1, 2),
                   help="symmetry axis polynomial degree (default %(default)s)")
    g.add_argument("--min-span-frac", type=float, default=PipelineConfig.min_span_frac,
                   help="minimum row span as a fraction of width (default %(default)s)")
    g.add_argument("--mirror-tol", type=int, default=PipelineConfig.mirror_tol,
                   help="Chebyshev tolerance for mirror matching (default %(default)s)")
    g.add_argument("--closing-radius", type=int, default=PipelineConfig.closing_radius,
                   help="morphological closing radius (default %(default)s)")
    g.add_argument("--min-area", type=int, default=PipelineConfig.min_area,
                   help="minimum region area in pixels (default: scaled with image size)")
    g.add_argument("--pixel-spacing", type=float, default=PipelineConfig.pixel_spacing,
                   help="mm per pixel for area reporting (default %(default)s)")


def _compute_edges(pre: GrayImage, operator: str, config: PipelineConfig):
    if operator == "canny":
        return canny(pre, config.sigma, config.canny_low, config.canny_high)
    return threshold_edges(gradient(pre, operator), config.canny_high)


def cmd_edges(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    img = _load_gray(args.input)
    pre = preprocess(img, config)
    edge_map = _compute_edges(pre, args.operator, config)
    save_netpbm(GrayImage(edge_map.mask.astype(np.uint8) * 255), args.output)
    print(f"edges={edge_map.count}")
    return EXIT_OK


def cmd_axis(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    img = _load_gray(args.input)
    axis = fit_image_axis(preprocess(img, config), config)
    print(" ".join(f"c{i}={_fmt(c)}" for i, c in enumerate(axis.coeffs)))
    save_netpbm(_paint_overlay(img, axis, []), args.output)
    return EXIT_OK


def _result_document(result: DetectionResult, pixel_spacing: float) -> dict:
    mm2_per_px = pixel_spacing * pixel_spacing
    doc = {
        "width": result.width,
        "height": result.height,
        "axis": {
            "degree": result.axis.degree,
            "coeffs": [_json_number(c) for c in result.axis.coeffs],
        },
        "regions": [
            {
                "area_px": region.area_px,
                "area_mm2": _json_number(region.area_px * mm2_per_px),
                "bbox": list(region.bbox),
                "centroid": [_json_number(c) for c in region.centroid],
            }
            for region in result.regions
        ],
        "total_area_px": result.total_area_px,
        "total_area_mm2": _json_number(result.total_area_mm2),
        "verdict": result.verdict,
        "edge_count": result.edge_count,
    }
    if result.message is not None:
        doc["message"] = result.message
    return doc


def _write_atomic(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def cmd_detect(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    img = _load_gray(args.input)
    result = detect_pipeline(img, config)
    overlay = render_overlay(img, result)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    payload = json.dumps(_result_document(result, config.pixel_spacing), indent=2).encode() + b"\n"
    _write_atomic(outdir / f"{stem}.report.json", payload)
    save_netpbm(overlay, outdir / f"{stem}.overlay.ppm")
    print(f"verdict={result.verdict} regions={len(result.regions)} "
          f"total_area_px={result.total_area_px} edge_count={result.edge_count}")
    if result.message is not None:
        print(result.message)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    img = _load_gray(args.input)
    pre = preprocess(img, config)
    lines = ["operator,edges"]
    for operator in (*OPERATORS, "canny"):
        lines.append(f"{operator},{_compute_edges(pre, operator, config).count}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _phantom_spec_from_args(args: argparse.Namespace) -> PhantomSpec:
    lesion = None
    wants_lesion = args.lesion or any(
        v is not None for v in (args.lesion_dx, args.lesion_y, args.lesion_radius, args.lesion_delta)
    )
    if wants_lesion:
        center_y = args.lesion_y if args.lesion_y is not None else (args.height - 1) // 2
        lesion = LesionSpec(
            center_dx=args.lesion_dx if args.lesion_dx is not None else 40,
            center_y=center_y,
            radius=args.lesion_radius if args.lesion_radius is not None else 10,
            delta=args.lesion_delta if args.lesion_delta is not None else 60,
        )
    return PhantomSpec(
        width=args.width,
        height=args.height,
        seed=args.seed,
        semi_axis_x=args.semi_x,
        semi_axis_y=args.semi_y,
        noise_amplitude=args.noise_amplitude,
        lesion=lesion,
    )


def cmd_phantom(args: argparse.Namespace) -> int:
    spec = _phantom_spec_from_args(args)
    try:
        img, truth = generate(spec)
    except MemoryError as exc:
        raise ParameterError(
            f"a {spec.width}x{spec.height} phantom does not fit in memory") from exc
    out = Path(args.output)
    save_netpbm(img, out)
    sidecar = {
        "axis_column": _json_number(truth.axis_column),
        "lesion": None if spec.lesion is None else {
            "center": [
                _json_number(truth.axis_column + spec.lesion.center_dx),
                _json_number(spec.lesion.center_y),
            ],
            "radius": spec.lesion.radius,
        },
    }
    payload = json.dumps(sidecar, indent=2).encode() + b"\n"
    _write_atomic(Path(str(out) + ".json"), payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brainsym",
        description="Bilateral-symmetry tumor-candidate detection for 2-D brain slices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the input image and the pipeline flags of every image subcommand
    image = argparse.ArgumentParser(add_help=False)
    image.add_argument("input", help="P5/P6 input image")
    _add_config_flags(image)

    p_edges = sub.add_parser("edges", parents=[image],
                             help="write an edge map and print the edge count")
    p_edges.add_argument("-o", "--output", required=True, help="output edge map (P5)")
    p_edges.add_argument("--operator", default="canny", choices=("canny",) + OPERATORS,
                         help="edge operator (default canny)")
    p_edges.set_defaults(func=cmd_edges)

    p_axis = sub.add_parser("axis", parents=[image],
                            help="fit the symmetry axis and write an overlay")
    p_axis.add_argument("-o", "--output", required=True, help="output overlay (P6)")
    p_axis.set_defaults(func=cmd_axis)

    p_detect = sub.add_parser("detect", parents=[image],
                              help="run the full detector, write JSON report and overlay")
    p_detect.add_argument("-d", "--outdir", required=True, help="output directory")
    p_detect.set_defaults(func=cmd_detect)

    p_report = sub.add_parser("report", parents=[image], help="CSV of edge counts per operator")
    p_report.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_report.set_defaults(func=cmd_report)

    p_phantom = sub.add_parser("phantom", help="generate a synthetic phantom plus ground truth")
    p_phantom.add_argument("-o", "--output", required=True, help="output image (P5)")
    p_phantom.add_argument("--width", type=int, default=PhantomSpec.width)
    p_phantom.add_argument("--height", type=int, default=PhantomSpec.height)
    p_phantom.add_argument("--seed", type=int, default=PhantomSpec.seed)
    p_phantom.add_argument("--semi-x", type=int, default=PhantomSpec.semi_axis_x, help="skull x semi-axis")
    p_phantom.add_argument("--semi-y", type=int, default=PhantomSpec.semi_axis_y, help="skull y semi-axis")
    p_phantom.add_argument("--noise-amplitude", type=int, default=PhantomSpec.noise_amplitude)
    p_phantom.add_argument("--lesion", action="store_true", help="inject a lesion with default geometry")
    p_phantom.add_argument("--lesion-dx", type=int, default=None, help="lesion offset from the axis")
    p_phantom.add_argument("--lesion-y", type=int, default=None, help="lesion center row")
    p_phantom.add_argument("--lesion-radius", type=int, default=None)
    p_phantom.add_argument("--lesion-delta", type=int, default=None, help="intensity offset vs tissue")
    p_phantom.set_defaults(func=cmd_phantom)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PipelineError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (NetpbmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
