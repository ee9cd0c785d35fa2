import os
import resource

import pytest

from brainsym import LesionSpec, PhantomSpec, detect_pipeline, generate, render_overlay


def glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not glibc(), reason="needs glibc malloc")
def test_repeated_images_reuse_freed_memory():
    # with glibc's default thresholds every 257^2 image faults in about 290
    # to 540 fresh pages; only the first one should need new memory now
    img, _ = generate(PhantomSpec(seed=3, lesion=LesionSpec(30, 128, 10, 60)))
    for _ in range(2):
        render_overlay(img, detect_pipeline(img))
    faults = []
    for _ in range(3):
        before = minor_faults()
        render_overlay(img, detect_pipeline(img))
        faults.append(minor_faults() - before)
    assert max(faults) < 100, faults
