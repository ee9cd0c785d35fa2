"""The timed closed loop, its checks and the metrics of one benchmark run.

Imported by run.py once brainsym has been imported from the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy
import scipy

from brainsym import detect_pipeline, generate, render_overlay, save_netpbm
from checks import (
    Digest,
    Quality,
    canonical_report,
    cli_report_problems,
    median_or_nan as median,
    result_problems,
)
from tracing import Tracer, layer_metrics, same_result, stage_table, traced_image, traced_io
from workloads import WORKLOADS, build_image

SETUP_SAMPLES = 12     # pool images built again, spread over the run, for setup_s
PROBES = 5             # interpreter and import probe pairs, spread over the run
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10       # the tail percentile keeps this many samples above it
CHILD_HOOK_DIR = Path(__file__).resolve().parent / "child"
PEAK_TAG = "perfbench-peak-rss-kb"   # written by child/sitecustomize.py
# the import probe prints how long `import brainsym` took inside it
IMPORT_PROBE = ("import time; t = time.perf_counter(); import brainsym; "
                "print(time.perf_counter() - t); import brainsym.cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer metrics computed from other measurements rather than one span
DERIVED = {
    "edges.threshold_hysteresis_ms": "canny minus its three substeps",
    "cli.import_ms": "import probe minus the interpreter probe just before it",
    "cli.compute_ms": "detect child minus the import probe just before it",
    "trace.overhead_ms": "traced minus untraced time of the same image",
}


def peak_rss_kb(status: str) -> int | None:
    """VmHWM from the text of /proc/<pid>/status, or from a child's stderr."""
    for line in status.splitlines():
        if line.startswith(("VmHWM:", PEAK_TAG)):
            return int(line.split()[1])
    return None


def vmhwm_kb() -> int:
    return peak_rss_kb(Path("/proc/self/status").read_text())


def tail(samples):
    """The highest percentile of the samples with TAIL_BEYOND samples above
    it: (value, percentile, sample count)."""
    s = sorted(samples)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return s[k], 100.0 * k / max(1, len(s) - 1), len(s)


class Run:
    """One workload, one seed: set-up, the timed closed loop and checks."""

    def __init__(self, args, workload, workdir, src: Path):
        self.args = args
        self.w = workload
        self.workdir = workdir
        self.tr = Tracer() if args.trace else None
        self.digest = Digest()
        self.quality = Quality()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: list[float] = []       # untraced seconds per image
        self.refs: dict = {}                 # pool image -> in-process outputs
        self.child_env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{CHILD_HOOK_DIR}")
        self.child_peaks_kb: list[int] = []
        self.build_s: list[float] = []       # seconds per pool image built again
        self.import_s: list[float] = []      # `import brainsym` seconds, per probe
        self.samples_raised_peak = False
        self.cli_input = None                # traced runs: the probes' cli-257 input
        self.overhead_ms: list[float] = []   # traced runs: traced minus untraced, per image

    def span(self, name: str):
        return self.tr.span(name) if self.tr else nullcontext()

    def build(self, index: int, image_id: str):
        def on_generate(spec):
            self.tr.image = image_id
            with self.tr.span("phantom.generate"):
                return generate(spec)

        return build_image(self.w, self.args.seed, index, self.workdir,
                           on_generate if self.tr else None)

    # -- set-up ---------------------------------------------------------
    def setup(self):
        self.pool = [self.build(index, f"setup.{index}") for index in range(self.w.pool)]

    def setup_sample(self):
        """Build one pool image again, timed, and check that it comes out
        the same. setup_s is the import median plus the pool size times the
        median of these samples: one set-up at process start sees the
        machine for a few seconds only, these are spread over the run."""
        k = len(self.build_s)
        index = k % len(self.pool)
        before = vmhwm_kb()
        t0 = time.perf_counter()
        item = self.build(index, f"sample{k}.{index}")
        self.build_s.append(time.perf_counter() - t0)
        self.samples_raised_peak |= vmhwm_kb() > before
        first = self.pool[index]
        if not (numpy.array_equal(item.image.pixels, first.image.pixels)
                and numpy.array_equal(item.lesion_mask, first.lesion_mask)):
            self.fail(f"pool image {index}", "built again, it differs from the first build")

    def probe(self):
        """Interpreter start and `import brainsym.cli`, as separate children.
        Traced runs then run one CLI `detect` child on a cli-257 input and
        time its file I/O in-process, so the cli layer is measured the same
        way on every workload, from children close together in time."""
        k = len(self.import_s)
        if self.tr:
            self.tr.image = f"probe{k}"
        with self.span("cli.interpreter"):
            subprocess.run([sys.executable, "-c", "pass"], env=self.child_env,
                           capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
        with self.span("cli.import"):
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.child_env,
                                  capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
        self.import_s.append(float(proc.stdout.split()[0]))
        if not self.tr:
            return
        if self.cli_input is None:
            self.cli_input = (self.pool[0] if self.w.cli else
                              build_image(WORKLOADS["cli-257"], self.args.seed, 0, self.workdir))
        with self.tr.span("cli.detect_child"):
            _, proc = self.child(self.cli_input)
        problems = self.check_child(self.cli_input, proc, score=False)
        _, overlay, _ = self.reference(self.cli_input)
        loaded = traced_io(self.tr, self.cli_input.pgm, overlay, self.workdir / "overlay.ppm")
        if loaded.pixels.tobytes() != self.cli_input.image.pixels.tobytes():
            problems.append("load_netpbm returned other pixels than were saved")
        if problems:
            self.fail("cli-257 input 0", "; ".join(problems))

    # -- helpers --------------------------------------------------------
    def fail(self, label, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {what}")

    def reference(self, item):
        """In-process result, overlay and its file bytes for a pool image."""
        if item not in self.refs:
            config = WORKLOADS["cli-257"].config if item is self.cli_input else self.w.config
            result = detect_pipeline(item.image, config)
            overlay = render_overlay(item.image, result)
            path = self.workdir / "reference.ppm"
            save_netpbm(overlay, path)
            self.refs[item] = (result, overlay, path.read_bytes())
        return self.refs[item]

    def child(self, item):
        """One `python -m brainsym detect` process; returns its wall time."""
        outdir = self.workdir / "out"
        argv = [sys.executable, "-m", "brainsym", "detect", str(item.pgm), "-d", str(outdir)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self.child_env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    def check_child(self, item, proc, score=True) -> list[str]:
        """A detect child's exit, report and overlay file against the
        in-process result; `score` adds them to the digest and quality."""
        stderr = proc.stderr.decode(errors="replace")
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {stderr.strip()}"]
        peak = peak_rss_kb(stderr)
        if peak is None:
            return ["the child reported no peak RSS"]
        self.child_peaks_kb.append(peak)
        stem = self.workdir / "out" / item.pgm.stem
        report_path = Path(f"{stem}.report.json")
        overlay_path = Path(f"{stem}.overlay.ppm")
        try:
            report_bytes = report_path.read_bytes()
            overlay_bytes = overlay_path.read_bytes()
        except OSError as exc:
            return [f"missing output: {exc}"]
        finally:
            report_path.unlink(missing_ok=True)
            overlay_path.unlink(missing_ok=True)
        result, overlay, want_overlay = self.reference(item)
        try:
            report = json.loads(report_bytes)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        problems = cli_report_problems(report, result)
        if overlay_bytes != want_overlay:
            problems.append("overlay bytes differ from save_netpbm(render_overlay(...))")
        if not score:
            return problems
        if not self.digest.add(item.index, report_bytes, overlay_bytes):
            problems.append("outputs differ from an earlier pass")
        centroids = [tuple(r["centroid"]) for r in report.get("regions", [])]
        self.quality.add(item.index, item.lesion_mask, report.get("verdict"), centroids,
                         report.get("total_area_px", 0), overlay.pixels)
        return problems

    def check_library(self, item, result, overlay) -> list[str]:
        problems = result_problems(result)
        if not self.digest.add(item.index, canonical_report(result), overlay.pixels.tobytes()):
            problems.append("outputs differ from an earlier pass")
        self.quality.add(item.index, item.lesion_mask, result.verdict,
                         [r.centroid for r in result.regions], result.total_area_px,
                         overlay.pixels)
        return problems

    def untraced_image(self, item):
        t0 = time.perf_counter()
        result = detect_pipeline(item.image, self.w.config)
        overlay = render_overlay(item.image, result)
        self.samples.append(time.perf_counter() - t0)
        return result, overlay

    # -- the closed loop ------------------------------------------------
    def schedule(self) -> list:
        """Set-up samples and probes at evenly spaced times of the run."""
        n = self.args.seconds
        events = [((k + 0.5) / SETUP_SAMPLES * n, self.setup_sample)
                  for k in range(SETUP_SAMPLES)]
        events += [((k + 0.5) / PROBES * n, self.probe) for k in range(PROBES)]
        return sorted(events, key=lambda event: event[0])

    def loop(self):
        """Images back to back for --seconds, and at least one pass over
        the pool so every image is checked and scored. Set-up samples and
        probes run between images, never inside one."""
        step = self.traced_step if self.tr else self.untraced_step
        events = self.schedule()
        start = time.perf_counter()
        while self.attempted < len(self.pool) or time.perf_counter() - start < self.args.seconds:
            while events and events[0][0] <= time.perf_counter() - start:
                events.pop(0)[1]()
            item = self.pool[self.attempted % len(self.pool)]
            self.attempted += 1
            try:
                problems = step(item)
            except Exception as exc:  # an image that raises is a failed image
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                self.fail(f"image {item.index}", "; ".join(problems))
        for _, event in events:
            event()

    def untraced_step(self, item):
        if self.w.cli:
            seconds, proc = self.child(item)
            if proc.returncode == 0:
                self.samples.append(seconds)
            return self.check_child(item, proc)
        result, overlay = self.untraced_image(item)
        return self.check_library(item, result, overlay)

    def traced_step(self, item):
        self.tr.image = self.attempted
        problems = []
        if self.w.cli:
            _, proc = self.child(item)
            problems += self.check_child(item, proc)
        result, overlay = self.untraced_image(item)
        traced, traced_overlay = traced_image(self.tr, item.image, self.w.config)
        self.overhead_ms.append(self.tr.durations_ms("image")[-1] - self.samples[-1] * 1000.0)
        if not same_result(result, traced):
            problems.append("traced composition differs from detect_pipeline")
        if traced_overlay.pixels.tobytes() != overlay.pixels.tobytes():
            problems.append("traced overlay differs from render_overlay")
        if not self.w.cli:
            problems += self.check_library(item, result, overlay)
        return problems

    # -- metrics --------------------------------------------------------
    def setup_s(self) -> float:
        return median(self.import_s) + len(self.pool) * median(self.build_s)

    def end_to_end(self) -> tuple[dict, dict]:
        ms = [s * 1000.0 for s in self.samples]
        tail_ms, tail_pct, n = tail(ms)
        peak_kb = max(self.child_peaks_kb, default=0) if self.w.cli else vmhwm_kb()
        metrics = {
            "image_ms_p50": median(ms),
            "image_ms_tail": tail_ms,
            "images_per_s": len(ms) / sum(self.samples),
            "setup_s": self.setup_s(),
            "peak_rss_mb": peak_kb / 1024.0,
            "failed_frac": self.failed / self.attempted,
            **self.quality.metrics(),
        }
        info = {"tail_percentile": round(tail_pct, 1), "samples": n, "samples_ms": ms}
        return metrics, info

    def per_layer(self) -> dict:
        tr = self.tr
        metrics = layer_metrics(tr)
        interp, imp, detect = (tr.durations_ms(f"cli.{name}")
                               for name in ("interpreter", "import", "detect_child"))
        metrics.update({
            "cli.interpreter_ms": median(interp),
            "cli.import_ms": median(b - a for a, b in zip(interp, imp)),
            "cli.compute_ms": median(b - a for a, b in zip(imp, detect)),
            "trace.overhead_ms": median(self.overhead_ms),
            "failed_frac": self.failed / self.attempted,
            **self.quality.metrics(),
        })
        return metrics


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "default") for v in BLAS_VARS},
    }


def result_line(spec_metrics, values, correct, attempted, failed) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}, allow_nan=False)


def main(args, root: Path, start: float):
    """`start` is the benchmark process's perf_counter at its first line."""
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(args, workload, workdir, root / "src")
        run.setup()
        first_setup_s = time.perf_counter() - start
        peak_after_setup_kb = vmhwm_kb()
        run.loop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "raster": f"{workload.size}x{workload.size}",
        "pool": {"healthy": (workload.pool + 1) // 2, "lesioned": workload.pool // 2},
        "stress": workload.stress,
        "config": asdict(workload.config),
        "environment": environment(),
        "digest_sha256": run.digest.hexdigest(),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "setup": {
            "first_s": first_setup_s,
            "import_s_median": median(run.import_s),
            "image_build_s_median": median(run.build_s),
            "pool": workload.pool,
            "import_s": run.import_s,
            "image_build_s": run.build_s,
        },
        "peak_rss_kb": {
            "after_setup": peak_after_setup_kb,
            "final": vmhwm_kb(),
            "raised_by_setup_samples": run.samples_raised_peak,
            "detect_children_max": max(run.child_peaks_kb, default=None),
        },
    }
    if run.tr:
        record["per_layer"] = run.per_layer()
        record["spans"] = run.tr.dump()
    else:
        record["end_to_end"], record["tail"] = run.end_to_end()
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print_summary(record, spec, run, out_path.relative_to(root))


def print_summary(record: dict, spec: dict, run: Run, out_path: Path) -> None:
    """The `#` lines for people, then the JSON result as the last line."""
    setup = record["setup"]
    print(f"# workload {record['workload']} seed {record['seed']} raster {record['raster']} "
          f"pool {record['pool']} stress {record['stress']}")
    print(f"# config {json.dumps(record['config'])}")
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# digest sha256 {record['digest_sha256']}")
    peak = record["peak_rss_kb"]
    print(f"# setup_s = import median {setup['import_s_median']:.3f} s of "
          f"{len(setup['import_s'])} + {setup['pool']} x median image build "
          f"{setup['image_build_s_median']:.4f} s of {len(setup['image_build_s'])}; "
          f"this run's own set-up took {setup['first_s']:.3f} s")
    print(f"# benchmark process VmHWM {peak['after_setup'] / 1024:.1f} MB after set-up, "
          f"{peak['final'] / 1024:.1f} MB at the end; raised by a set-up sample: "
          f"{peak['raised_by_setup_samples']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if run.tr:
        values, section = record["per_layer"], spec["per_layer"]
        for name, value in values.items():
            note = f"  (derived: {DERIVED[name]})" if name in DERIVED else ""
            print(f"# {name} = {value:.6g} {units[name]}{note}")
        for line in stage_table(run.tr, run.w.size):
            print(f"# {line}")
    else:
        values, section = record["end_to_end"], spec["end_to_end"]
        info = record["tail"]
        print(f"# image_ms_tail is p{info['tail_percentile']} of {info['samples']} samples")
        for name, value in values.items():
            print(f"# {name} = {value:.6g} {units[name]}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print(f"# full result in {out_path}")
    print(result_line(section, values, run.failed == 0, run.attempted, run.failed), flush=True)
