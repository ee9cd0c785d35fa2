"""The benchmark's byte identity and the library API it relies on.

`perfbench/` hashes every pool image's report and overlay into one
digest per workload, and `perfbench/tracing.py` composes the pipeline a
second time from the public stage functions. Without this module only a
benchmark run shows a changed digest or a break in that API. The
benchmark's modules are imported read-only, from `perfbench/` on
sys.path, and used as `perfbench/harness.py` uses them.

The digests are those of the seed-7 pools of the gated workloads. A
change that is meant to alter detection outputs re-pins them, the way
it re-pins the goldens in `tests/test_golden.py`, and says why.
"""

import sys
from pathlib import Path

import pytest

from brainsym import detect_pipeline, render_overlay

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from checks import Digest, canonical_report
from tracing import Tracer, same_result, traced_image
from workloads import WORKLOADS, build_image

SEED = 7
POOL_DIGESTS = {
    "lib-513": "bfbdb3b157d277ea4a67644adb3f95f2023eab95a51cdad18c08f7c52861441b",
    "lib-1025-stress": "0d84a48a16b656ed947f153b0ee9a85fd59090a87966811d8d380e840c37d437",
}


@pytest.mark.parametrize("name", sorted(POOL_DIGESTS))
def test_benchmark_pool_digest(name, tmp_path):
    workload = WORKLOADS[name]
    digest = Digest()
    for index in range(workload.pool):
        item = build_image(workload, SEED, index, tmp_path)
        result = detect_pipeline(item.image, workload.config)
        overlay = render_overlay(item.image, result)
        digest.add(index, canonical_report(result), overlay.pixels.tobytes())
    assert digest.hexdigest() == POOL_DIGESTS[name]


@pytest.mark.parametrize("index", [0, 1])  # one healthy, one lesioned
@pytest.mark.parametrize("name", sorted(POOL_DIGESTS))
def test_benchmark_traced_composition_matches_pipeline(name, index, tmp_path):
    workload = WORKLOADS[name]
    item = build_image(workload, SEED, index, tmp_path)
    result = detect_pipeline(item.image, workload.config)
    overlay = render_overlay(item.image, result)
    tracer = Tracer()
    tracer.image = index
    traced, traced_overlay = traced_image(tracer, item.image, workload.config)
    assert same_result(result, traced)
    assert traced_overlay.pixels.tobytes() == overlay.pixels.tobytes()
