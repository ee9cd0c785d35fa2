"""Detection quality on seeded lesioned phantoms: recall and median Dice.

Each case draws 40 lesioned 257 x 257 phantoms from default_rng([2719,
i]): radius 8-16, centre 30-60 px off the midline and on rows 90-166,
delta +-50..80. A lesion is found when some region's centroid, rounded
half up, lies on the true disk (as the benchmark scores it), and Dice
compares the union of the regions with the disk. The stressed case runs
each phantom through stressed() with the wider config, as the
stressed-healthy sweep in test_detect does for the healthy half.

The floors sit below a measured run: 40/40 found with median Dice 0.958
(default) and 40/40 with 0.928 (stressed). Reporting the closed edge
ring in place of the filled lesion gives 40/40 with Dice 0.21 on both.
"""

import numpy as np
import pytest

from brainsym import LesionSpec, PhantomSpec, PipelineConfig, detect_pipeline, generate

from test_detect import STRESS_CONFIG, stressed

PHANTOMS = 40


def _lesioned(index):
    rng = np.random.default_rng([2719, index])
    radius = int(rng.integers(8, 17))
    dx = int(rng.integers(30, 61)) * (1 if rng.random() < 0.5 else -1)
    cy = int(rng.integers(90, 167))
    delta = int(rng.integers(50, 81)) * (1 if rng.random() < 0.5 else -1)
    img, truth = generate(PhantomSpec(seed=int(rng.integers(1, 2**31)),
                                      lesion=LesionSpec(dx, cy, radius, delta)))
    return img, truth.lesion_mask, rng


@pytest.mark.parametrize("config, stress, min_found, min_dice",
                         [(PipelineConfig(), False, 38, 0.90), (STRESS_CONFIG, True, 38, 0.85)],
                         ids=["default", "stressed"])
def test_lesion_recall_and_dice(config, stress, min_found, min_dice):
    found, dice = 0, []
    for index in range(PHANTOMS):
        img, truth, rng = _lesioned(index)
        if stress:
            img = stressed(img, rng)
        result = detect_pipeline(img, config)
        found += any(truth[int(np.floor(cy + 0.5)), int(np.floor(cx + 0.5))]
                     for cx, cy in (region.centroid for region in result.regions))
        regions = np.zeros_like(truth)
        for region in result.regions:
            xs, ys = zip(*region.pixels)
            regions[list(ys), list(xs)] = True
        dice.append(2 * np.count_nonzero(regions & truth) / (regions.sum() + truth.sum()))
    assert found >= min_found
    assert np.median(dice) >= min_dice
