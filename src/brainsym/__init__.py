"""Bilateral-symmetry based tumor-candidate detection for 2-D brain slices.

The pipeline: denoise and stretch the grayscale input, find Canny edges,
fit the bilateral symmetry axis to per-row brain-mask midpoints (least
squares via Cramer's rule), suppress edges that have a mirror partner
across the axis, and close the surviving asymmetric edges into measured
candidate regions. A seeded phantom generator supplies ground truth.

Importing the package fixes glibc malloc's mmap and trim thresholds for
the process (see ``_heap``), so repeated images reuse freed memory.
"""

from . import _heap
from .detect import (
    DetectionResult,
    NOT_FOUND_MESSAGE,
    PipelineConfig,
    Region,
    asymmetry_map,
    auto_min_area,
    close_mask,
    connected_components,
    detect_pipeline,
    fit_image_axis,
    measure,
    preprocess,
    render_overlay,
)
from .edges import (
    EdgeMap,
    canny,
    gradient,
    gradient_raster,
    nonmax_suppress,
    threshold_edges,
)
from .errors import (
    BrainsymError,
    GeometryError,
    NetpbmError,
    ParameterError,
    PipelineError,
    SingularSystemError,
)
from .imaging import (
    GrayImage,
    RgbImage,
    contrast_stretch,
    gaussian_kernel,
    gaussian_smooth,
    load_netpbm,
    median_filter,
    rgb_to_gray,
    round_half_away,
    save_netpbm,
    smooth_raster,
)
from .phantom import GroundTruth, Lcg64, LesionSpec, PhantomSpec, generate
from .symmetry import (
    SymmetryAxis,
    brain_mask,
    fit_axis_lsm,
    reflect_x,
    residual_rms,
    row_midpoints,
    solve_cramer,
)

_heap.keep_freed_memory()
