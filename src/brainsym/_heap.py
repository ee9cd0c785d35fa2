"""Keep freed raster memory in the process heap, so that every image after
the first runs on memory the process already has.

Each image goes through the same sequence of NumPy temporaries: rasters,
row blocks and index arrays of a few KB to about 8 MB each (one 1025 x
1025 float64 raster), with a tracemalloc peak of 1.5 MiB per 257 x 257
image, 3.8 MiB per 513 x 513 one and 14.7 MiB per 1025 x 1025 one. Under
glibc's default malloc, blocks of that size are either mmap'd and unmapped
again on free, or freed to the top of the heap and trimmed back to the
kernel, and glibc moves both thresholds as the process allocates. Measured
without this call on a shared 2-core VM, 257 x 257 images never settled:
each faulted in about 290 to 540 fresh pages, image after image, and the
median image took 11-45% longer in each of 6 paired runs. 513 x 513 and
1025 x 1025 images faulted in 1,150 to 1,650 pages on the first image and
fell to 0 after the second or third. With the call, a process faults in
at most a few pages per image from its second image on (its third at 1025
x 1025).

Fixing both thresholds keeps those blocks in the heap for reuse. The
process's peak memory is still that of its largest image; memory freed
after it stays with the process unless more than ``TRIM_THRESHOLD`` bytes
sit free at the top of the heap.
"""

from __future__ import annotations

import ctypes
import os

# parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# The largest value glibc accepts on 64-bit builds; larger blocks are
# still mmap'd and returned on free.
MMAP_THRESHOLD = 32 * 1024 * 1024
# Well above one 1025 x 1025 image's temporaries (under 100 MB).
TRIM_THRESHOLD = 256 * 1024 * 1024


def keep_freed_memory() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    Returns whether both were set; False on other C libraries, which are
    left as they are.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not libc or not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
