"""brainsym benchmark: per-image latency, CLI cold start and detection
quality on seeded phantom workloads, with a per-layer stage trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lib-513 --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: the next image starts only when the
previous one has returned. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` is a separate run that records spans from
this benchmark's code around calls into each brainsym module and reports
the per-layer metrics. Metric names and units come from BENCHMARK.json.
The last stdout line is the JSON result; lines before it starting with
``#`` are for people. Full results (and spans, when traced) are written
to ``.perfbench_out/`` in the checkout.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="lib-513, lib-1025-stress or cli-257")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import brainsym from this checkout's src/, never from elsewhere."""
    if not (SRC / "brainsym" / "__init__.py").is_file():
        sys.exit(f"error: no brainsym source under {SRC}")
    sys.path.insert(0, str(SRC))
    import brainsym

    if Path(brainsym.__file__).resolve().parent != SRC / "brainsym":
        sys.exit(f"error: imported brainsym from {brainsym.__file__}, not {SRC}")


def main():
    args = parse_args()
    import_program()
    import harness

    harness.main(args, ROOT, _START)


if __name__ == "__main__":
    main()
