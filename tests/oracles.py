"""Independent reference implementations used only to check the package.

Everything here is deliberately written the slow, obvious way (python
loops, BFS) and never calls into the code paths it verifies.
"""

import math
from collections import deque

import numpy as np


def gauss_eliminate(matrix, rhs):
    """Gaussian elimination with partial pivoting; plain row operations."""
    a = [list(map(float, row)) for row in np.asarray(matrix)]
    b = list(map(float, np.asarray(rhs)))
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            for k in range(col, n):
                a[row][k] -= factor * a[col][k]
            b[row] -= factor * b[col]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = b[row] - sum(a[row][k] * x[k] for k in range(row + 1, n))
        x[row] = acc / a[row][row]
    return np.array(x)


def textbook_det(a):
    """Determinant of a 1x1, 2x2 or 3x3 nested list of Python floats, by
    the written-out formulas: products formed and added left to right."""
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def flood_fill_components(mask, four=False):
    """All 8-connected (4-connected if four) components as sets of (x, y),
    via BFS."""
    m = np.asarray(mask, dtype=bool)
    height, width = m.shape
    seen = np.zeros_like(m)
    components = []
    for y0 in range(height):
        for x0 in range(width):
            if not m[y0, x0] or seen[y0, x0]:
                continue
            queue = deque([(x0, y0)])
            seen[y0, x0] = True
            pixels = set()
            while queue:
                x, y = queue.popleft()
                pixels.add((x, y))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if four and dx and dy:
                            continue
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < width and 0 <= ny < height and m[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((nx, ny))
            components.append(pixels)
    return components


def round_half_away_scalar(v):
    return math.copysign(math.floor(abs(v) + 0.5), v)


def brute_row_midpoints(mask, min_span, require_mid_on_mask=False):
    """(y, x_mid) for each row with foreground, x_mid halfway between its
    leftmost and rightmost foreground columns.

    A row is skipped when that span is below min_span, or, with
    require_mid_on_mask, when the pixel at the rounded midpoint is
    background.
    """
    m = np.asarray(mask, dtype=bool)
    height, width = m.shape
    pairs = []
    for y in range(height):
        cols = [x for x in range(width) if m[y, x]]
        if not cols:
            continue
        xl, xr = cols[0], cols[-1]
        if xr - xl < min_span:
            continue
        x_mid = (xl + xr) / 2.0
        if require_mid_on_mask and not m[y, int(round_half_away_scalar(x_mid))]:
            continue
        pairs.append((y, x_mid))
    return pairs


def reflect_index(i, n):
    """Index i of a length-n axis under reflect padding (edge not repeated),
    folded as often as it takes, as np.pad(..., "reflect") does when the
    pad is wider than the axis."""
    if n == 1:
        return 0
    i %= 2 * (n - 1)
    return i if i < n else 2 * (n - 1) - i


def brute_smooth(values, kernel):
    """Separable smoothing with the odd-length 1-D kernel, one value at a
    time on reflected borders: a row pass, then a column pass over its
    result, each summing the taps in kernel order,

        acc = k[0] * v[0];  acc += k[i] * v[i]  for i = 1 .. len(k) - 1,

    where v[i] is the value i - radius places along, in plain python float
    arithmetic."""
    a = np.asarray(values, dtype=np.float64).tolist()
    k = [float(t) for t in kernel]
    r = (len(k) - 1) // 2
    height, width = len(a), len(a[0])

    def taps(read, at):
        acc = k[0] * read(at - r)
        for i in range(1, len(k)):
            acc += k[i] * read(at - r + i)
        return acc

    rows = [[taps(lambda x: a[y][reflect_index(x, width)], x) for x in range(width)]
            for y in range(height)]
    return np.array([[taps(lambda y: rows[reflect_index(y, height)][x], y) for x in range(width)]
                     for y in range(height)])


def brute_gradient(values, operator):
    """Sobel or prewitt gx and gy by the direct 3x3 correlation, one pixel
    at a time on reflected borders, with each sum taken in this order:

        gx = (p[y-1, x+1] + side * p[y, x+1] + p[y+1, x+1])
             - (p[y-1, x-1] + side * p[y, x-1] + p[y+1, x-1])
        gy = (p[y+1, x-1] + side * p[y+1, x] + p[y+1, x+1])
             - (p[y-1, x-1] + side * p[y-1, x] + p[y-1, x+1])

    with side 2.0 for sobel and 1.0 for prewitt."""
    a = np.asarray(values, dtype=np.float64)
    side = 2.0 if operator == "sobel" else 1.0
    height, width = a.shape

    def p(y, x):
        return a[reflect_index(y, height), reflect_index(x, width)]

    gx = np.empty((height, width))
    gy = np.empty((height, width))
    for y in range(height):
        for x in range(width):
            gx[y, x] = ((p(y - 1, x + 1) + side * p(y, x + 1) + p(y + 1, x + 1))
                        - (p(y - 1, x - 1) + side * p(y, x - 1) + p(y + 1, x - 1)))
            gy[y, x] = ((p(y + 1, x - 1) + side * p(y + 1, x) + p(y + 1, x + 1))
                        - (p(y - 1, x - 1) + side * p(y - 1, x) + p(y - 1, x + 1)))
    return gx, gy


def brute_direction_bins(orientation):
    """The 4-bin direction quantizer as first specified: fold the angle
    in degrees with % 180, then bin 0 is [0, 22.5] and (157.5, 180),
    bin 1 (22.5, 67.5], bin 2 (67.5, 112.5] and bin 3 (112.5, 157.5]."""
    a = np.degrees(orientation) % 180.0
    bins = np.full(a.shape, 3, dtype=np.int8)
    bins[(a <= 22.5) | (a > 157.5)] = 0
    bins[(a > 22.5) & (a <= 67.5)] = 1
    bins[(a > 67.5) & (a <= 112.5)] = 2
    return bins


# forward neighbor (dy, dx) per direction bin; the backward one is its negation
_NMS_FORWARD = ((0, 1), (1, 1), (1, 0), (1, -1))


def brute_nonmax(magnitude, orientation):
    """Non-maximum suppression one pixel at a time.

    A pixel survives when its magnitude is >= both neighbors along its
    binned direction, off-raster neighbors reading 0. A survivor is then
    dropped when its backward neighbor, the one earlier in (y, x) order,
    is also a survivor with exactly the same magnitude.
    """
    mag = np.asarray(magnitude)
    bins = brute_direction_bins(orientation)
    height, width = mag.shape

    def at(y, x):
        return mag[y, x] if 0 <= y < height and 0 <= x < width else 0.0

    survivors = np.zeros((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            dy, dx = _NMS_FORWARD[bins[y, x]]
            m = mag[y, x]
            survivors[y, x] = m >= at(y + dy, x + dx) and m >= at(y - dy, x - dx)
    out = survivors.copy()
    for y in range(height):
        for x in range(width):
            dy, dx = _NMS_FORWARD[bins[y, x]]
            by, bx = y - dy, x - dx
            if (survivors[y, x] and 0 <= by < height and 0 <= bx < width
                    and survivors[by, bx] and mag[by, bx] == mag[y, x]):
                out[y, x] = False
    return out


def brute_canny(pixels, sigma, low_frac, high_frac):
    """Canny on the full frame, as first specified: the package's
    smooth_raster and Sobel gradient_raster (each checked on its own
    against gaussian_kernel_oracle and brute_gradient), brute_nonmax on
    every pixel, weak = survivors with magnitude >= low_frac * max and
    strong = weak with magnitude >= high_frac * max, then a flood fill
    from every strong pixel through 8-connected weak pixels."""
    from brainsym import gradient_raster, smooth_raster

    field = gradient_raster(smooth_raster(np.asarray(pixels, dtype=np.float64), sigma), "sobel")
    mag = field.magnitude
    height, width = mag.shape
    edges = np.zeros((height, width), dtype=bool)
    max_mag = float(mag.max())
    if max_mag == 0.0:
        return edges
    weak = brute_nonmax(mag, field.orientation) & (mag >= low_frac * max_mag)
    strong = weak & (mag >= high_frac * max_mag)
    queue = deque()
    for y in range(height):
        for x in range(width):
            if strong[y, x]:
                edges[y, x] = True
                queue.append((y, x))
    while queue:
        y, x = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < height and 0 <= nx < width and weak[ny, nx] and not edges[ny, nx]:
                    edges[ny, nx] = True
                    queue.append((ny, nx))
    return edges


def brute_median(pixels, window):
    """Window x window median per pixel: the middle of the sorted values
    of the reflect-padded neighborhood."""
    raw = np.asarray(pixels)
    r = window // 2
    padded = np.pad(raw, r, mode="reflect")
    height, width = raw.shape
    out = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        for x in range(width):
            values = sorted(padded[y:y + window, x:x + window].ravel().tolist())
            out[y, x] = values[len(values) // 2]
    return out


def brute_asymmetry(mask, axis, tol):
    """Full (2 tol + 1)^2 window search around each edge pixel's mirror.

    A mirror column landing outside the raster is unmatched.
    """
    m = np.asarray(mask, dtype=bool)
    height, width = m.shape
    score = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        for x in range(width):
            if not m[y, x]:
                continue
            mirror = int(round_half_away_scalar(2.0 * axis.at(y) - x))
            if mirror < 0 or mirror >= width:
                score[y, x] = 1
                continue
            matched = False
            for yy in range(max(0, y - tol), min(height, y + tol + 1)):
                for xx in range(max(0, mirror - tol), min(width, mirror + tol + 1)):
                    if m[yy, xx]:
                        matched = True
                        break
                if matched:
                    break
            if not matched:
                score[y, x] = 1
    return score


def _window_hits(mask, y, x, radius):
    """True if some pixel of mask lies within Chebyshev distance radius of
    (y, x); (y, x) may lie off the raster, which is empty outside."""
    height, width = mask.shape
    y0, y1 = max(0, y - radius), min(height, y + radius + 1)
    x0, x1 = max(0, x - radius), min(width, x + radius + 1)
    return y0 < y1 and x0 < x1 and bool(mask[y0:y1, x0:x1].any())


def brute_dilate(mask, radius):
    """Dilation by the (2 radius + 1)^2 square, one window test per pixel."""
    m = np.asarray(mask, dtype=bool)
    height, width = m.shape
    out = np.zeros((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            out[y, x] = _window_hits(m, y, x, radius)
    return out


def brute_erode(mask, radius):
    """Erosion by the (2 radius + 1)^2 square, off-raster pixels being
    background: a pixel stays only if its whole window is on the raster
    and set."""
    m = np.asarray(mask, dtype=bool)
    height, width = m.shape
    out = np.zeros((height, width), dtype=bool)
    for y in range(radius, height - radius):
        for x in range(radius, width - radius):
            out[y, x] = bool(m[y - radius:y + radius + 1, x - radius:x + radius + 1].all())
    return out


def brute_close(mask, radius):
    """Closing by the (2 radius + 1)^2 square on an unbounded plane.

    A pixel is kept when every square of that size covering it also
    covers some mask pixel. The squares' centres reach radius past the
    raster, so the dilation is evaluated on that wider frame first.
    """
    m = np.asarray(mask, dtype=bool)
    height, width = m.shape
    r = radius
    reach = np.zeros((height + 2 * r, width + 2 * r), dtype=bool)
    for cy in range(-r, height + r):
        for cx in range(-r, width + r):
            reach[cy + r, cx + r] = _window_hits(m, cy, cx, r)
    out = np.zeros((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            out[y, x] = bool(reach[y:y + 2 * r + 1, x:x + 2 * r + 1].all())
    return out


def brute_fill_holes(mask):
    """mask with its holes set: a 4-connected flood fill (BFS) of the
    background from every background pixel on the border; each
    background pixel the fill does not reach is a hole pixel."""
    m = np.asarray(mask, dtype=bool).tolist()
    height, width = len(m), len(m[0])
    outside = [[False] * width for _ in range(height)]
    queue = deque()
    for y in range(height):
        for x in range(width):
            if (y in (0, height - 1) or x in (0, width - 1)) and not m[y][x]:
                outside[y][x] = True
                queue.append((x, y))
    while queue:
        x, y = queue.popleft()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < width and 0 <= ny < height and not m[ny][nx] and not outside[ny][nx]:
                outside[ny][nx] = True
                queue.append((nx, ny))
    return ~np.array(outside, dtype=bool)


def otsu_one_call(pixels):
    """brain_mask's Otsu threshold, from one np.bincount over the raster:
    the t in 1..255 that maximizes the between-class variance of the
    split {v < t} / {v >= t}, the smallest of equal maxima. A raster no t
    splits (every product 0) raises the GeometryError brain_mask raises."""
    from brainsym import GeometryError

    hist = np.bincount(pixels.ravel(), minlength=256).astype(np.float64)
    cum_n, cum_s = np.cumsum(hist), np.cumsum(hist * np.arange(256.0))
    n0, s0 = cum_n[:255], cum_s[:255]
    n1 = pixels.size - n0
    with np.errstate(divide="ignore", invalid="ignore"):
        between = n0 * n1 * (s0 / n0 - (cum_s[255] - s0) / n1) ** 2
    between[(n0 == 0) | (n1 == 0)] = 0.0
    if between.max() <= 0.0:
        raise GeometryError("no foreground separable")
    return 1 + int(np.argmax(between))


def brute_contrast(pixels):
    """The min-max stretch onto [0, 255], one value at a time: v becomes
    round((v - lo) * 255.0 / (hi - lo)), halves up (every value is >= 0),
    for lo and hi the raster's least and largest values; a flat raster is
    returned unchanged."""
    raw = np.asarray(pixels)
    lo, hi = int(raw.min()), int(raw.max())
    if hi == lo:
        return raw.copy()
    return np.array([[math.floor((v - lo) * 255.0 / (hi - lo) + 0.5) for v in row]
                     for row in raw.tolist()], dtype=np.uint8)


def largest_blob(mask):
    """The largest 8-connected component of a non-empty mask as a bool
    raster; of equal largest ones, the first in raster order."""
    out = np.zeros(np.shape(mask), dtype=bool)
    for x, y in max(flood_fill_components(mask), key=len):
        out[y, x] = True
    return out


def brute_detect(pixels, config):
    """detect_pipeline(GrayImage(pixels), config) composed from the oracles
    in README's order, as a dict of the axis coefficients, the regions'
    pixel sets (in the result's order: area descending, then ymin, then
    xmin), their areas, the total area in pixels and mm², the verdict and
    the edge count:

    1. brute_smooth rounded half away from zero, then brute_median when
       median_window is not 0, then brute_contrast when contrast is on;
    2. brute_canny on that image;
    3. otsu_one_call's mask, less all but its largest 8-connected blob,
       then brute_row_midpoints with min_span = max(1, round(min_span_frac
       * width)) and the midpoint on the mask, fitted by fit_axis_lsm;
    4. brute_asymmetry, then brute_close, then brute_fill_holes, then
       flood_fill_components, keeping components of at least min_area
       pixels (ceil(w h / 2621) when min_area is None);
    5. the total area times pixel_spacing², which must be finite; found
       when some region is kept.

    A stage that fails raises PipelineError naming it, as detect_pipeline
    does. Four package functions enter, each pinned on its own: the
    Gaussian taps _gaussian_kernel_1d (against gaussian_kernel_oracle),
    smooth_raster and gradient_raster inside brute_canny, and
    fit_axis_lsm. The axis is the one float that two exact methods can
    round differently, and acceptance criterion 04 pins its Cramer solve
    against gauss_eliminate, so the fit is taken as it is.
    """
    from brainsym import BrainsymError, GeometryError, PipelineError, fit_axis_lsm
    from brainsym.imaging import _gaussian_kernel_1d

    raw = np.asarray(pixels, dtype=np.uint8)
    height, width = raw.shape
    smoothed = brute_smooth(raw, _gaussian_kernel_1d(config.sigma))
    pre = np.array([[round_half_away_scalar(v) for v in row] for row in smoothed.tolist()],
                   dtype=np.uint8)
    if config.median_window:
        pre = brute_median(pre, config.median_window)
    if config.contrast:
        pre = brute_contrast(pre)
    edges = brute_canny(pre, config.sigma, config.canny_low, config.canny_high)
    try:
        mask = largest_blob(pre >= otsu_one_call(pre))
    except GeometryError as exc:
        raise PipelineError("brain_mask", str(exc)) from exc
    min_span = max(1, int(round_half_away_scalar(config.min_span_frac * width)))
    samples = np.array(brute_row_midpoints(mask, min_span, True), dtype=np.float64).reshape(-1, 2)
    try:
        axis = fit_axis_lsm(samples, config.axis_degree)
    except BrainsymError as exc:
        raise PipelineError("fit_axis", str(exc)) from exc
    unmatched = brute_asymmetry(edges, axis, config.mirror_tol).astype(bool)
    closed = brute_fill_holes(brute_close(unmatched, config.closing_radius))
    min_area = config.min_area if config.min_area is not None else math.ceil(width * height / 2621)
    kept = [c for c in flood_fill_components(closed) if len(c) >= min_area]
    kept.sort(key=lambda c: (-len(c), min(y for _, y in c), min(x for x, _ in c)))
    total_px = sum(len(c) for c in kept)
    total_mm2 = total_px * config.pixel_spacing * config.pixel_spacing
    if not math.isfinite(total_mm2):
        raise PipelineError("measure", f"total area of {total_px} px is not finite in mm²")
    return {
        "coeffs": axis.coeffs,
        "regions": [frozenset(c) for c in kept],
        "areas": [len(c) for c in kept],
        "total_area_px": total_px,
        "total_area_mm2": total_mm2,
        "verdict": "found" if kept else "not-found",
        "edge_count": int(edges.sum()),
    }


def reaches_strong(mask, strong, start):
    """BFS within mask from start; True if some strong pixel is reachable."""
    m = np.asarray(mask, dtype=bool)
    s = np.asarray(strong, dtype=bool)
    height, width = m.shape
    seen = set([start])
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        if s[y, x]:
            return True
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height and m[ny, nx] and (nx, ny) not in seen:
                    seen.add((nx, ny))
                    queue.append((nx, ny))
    return False


def popcount_scan(mask):
    """Count true pixels one by one."""
    m = np.asarray(mask, dtype=bool)
    total = 0
    for y in range(m.shape[0]):
        for x in range(m.shape[1]):
            if m[y, x]:
                total += 1
    return total


def gaussian_kernel_oracle(sigma):
    """Directly sampled, renormalized 2-D Gaussian (independent of brainsym)."""
    radius = math.ceil(3.0 * sigma)
    k = np.array(
        [
            [math.exp(-(i * i + j * j) / (2.0 * sigma * sigma)) for j in range(-radius, radius + 1)]
            for i in range(-radius, radius + 1)
        ]
    )
    return k / k.sum()


def brute_generate(spec):
    """Phantom pixels and lesion mask by one Lcg64 draw per left-half
    ellipse pixel, in row-major order: the per-pixel loop that defines
    the noise stream. Lcg64 is the stream's specification, not the block
    jump-ahead it checks. The spec is assumed valid."""
    from brainsym.phantom import BACKGROUND, TISSUE, Lcg64

    w, h = spec.width, spec.height
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    ys, xs = np.ogrid[0:h, 0:w]
    ellipse = ((xs - cx) / spec.semi_axis_x) ** 2 + ((ys - cy) / spec.semi_axis_y) ** 2 <= 1.0

    img = np.full((h, w), BACKGROUND, dtype=np.uint8)
    rng = Lcg64(spec.seed)
    amp = spec.noise_amplitude
    left_cols = (w + 1) // 2
    for y in range(h):
        row_ellipse = ellipse[y]
        row = img[y]
        for x in range(left_cols):
            if row_ellipse[x]:
                value = TISSUE + rng.uniform_int(-amp, amp)
                row[x] = value
                row[w - 1 - x] = value

    lesion_mask = np.zeros((h, w), dtype=bool)
    if spec.lesion is not None:
        lx = cx + spec.lesion.center_dx
        ly = float(spec.lesion.center_y)
        dist2 = (xs - lx) ** 2 + (ys - ly) ** 2
        lesion_mask = dist2 <= spec.lesion.radius ** 2
        value = min(255, max(0, TISSUE + spec.lesion.delta))
        img[lesion_mask] = value

    return img, lesion_mask
