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


def flood_fill_components(mask):
    """All 8-connected components as sets of (x, y), via BFS."""
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
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < width and 0 <= ny < height and m[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((nx, ny))
            components.append(pixels)
    return components


def round_half_away_scalar(v):
    return math.copysign(math.floor(abs(v) + 0.5), v)


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
