"""8- or 4-connected components of bool rasters, labeled from their row
runs.

brain_mask (the Otsu mask), canny (the weak pixels) and
connected_components (the closed mask) call label_mask on a bool raster,
and close_mask on its background, 4-connected, to find the holes; each
calls run_pixels where it needs the pixels of some runs. The frame below
is private to this module, and callers pass only the raster's width.

A run is a maximal stretch of set pixels in one row. Runs are held as
flat [start, end) indices in a frame one column wider than the raster
(stride w + 1) whose extra column is never set, so no run crosses a row
end, and are numbered in raster order. A run with columns [a, b) on row
r and one with [c, d) on row r + 1 are 8-connected exactly when a <= d
and c <= b, and 4-connected exactly when a < d and c < b; in the frame
that is start <= end' - stride and end >= start' - stride (strictly for
4), and no run of another row passes both tests. So the runs that run j
touches on the row above are one span lo[j] .. lo[j] + above[j] - 1 of
the run numbers, found by two binary searches, whose sides the
connectivity sets (run-based labeling, as in He, Chao and Suzuki 2008).

_label_runs first joins the runs of each span into one group, by a
difference array: the marks lo[j] .. lo[j] + above[j] - 2 of different
spans are disjoint (two runs of a row share at most one run above them),
so no two marks collide and one int8 cumsum finds every join. Each run
then adds one edge from its group to the group of the run above it; runs
of one group that follow each other give the same edge, which is
dropped. Components are found on the groups by min-label hooking with
full pointer jumping (after Shiloach and Vishkin 1982): each round hooks
every root with a live edge onto the smallest root it meets, then points
every group at its root. Hooks only go to smaller roots, so there is no
cycle, and a component ends rooted at its smallest group, which holds
its first run in raster order. That run numbers the component, so
numbering the components in the order of their first runs gives
ndimage.label's numbering.

Cost, for R runs and G <= R groups: O(h w) for one np.flatnonzero over
a mask's row changes (a bool raster one column wider than the mask, and
two intp indices per run until they are cast; canny calls this once its
float rasters are freed, so its peak does not rise), O(R log R) for the
binary searches,
O(R) for the joins and edges, O(E) per hooking round for the E <= R
edges left, and O(G) per jump. The rounds and jumps depend on the shape:
one to three rounds on random masks, checkerboards, combs, serpentines
and diagonal stripes, and about log2 of the longest chain of groups
hooked one onto the next in jumps (13 in all on a 1025^2 comb, whose
teeth are such chains). The worst case is a raster of short runs, such
as a checkerboard (a run for every other pixel) or uniform noise: each
run holds a few int32 and intp entries, where ndimage.label writes one
int32 per pixel. On a 1025^2 checkerboard that took about ten times
ndimage.label's time and four times its memory; on a filled ellipse
like an Otsu mask it was about eight times faster.
"""

from __future__ import annotations

import numpy as np


def _mask_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of a 2-D bool mask, as (starts, ends) in the frame."""
    h, w = mask.shape
    change = np.empty((h, w + 1), dtype=bool)
    change[:, 0] = mask[:, 0]
    np.not_equal(mask[:, 1:], mask[:, :-1], out=change[:, 1:w])
    change[:, w] = mask[:, w - 1]
    kind = np.int32 if change.size < 2**31 else np.intp
    # a row's changes alternate start, end, since its extra column is clear
    bounds = np.flatnonzero(change)
    return bounds[0::2].astype(kind), bounds[1::2].astype(kind)


def _label_runs(starts: np.ndarray, ends: np.ndarray, stride: int, four: bool) -> np.ndarray:
    """For each run, the number of the first run, in raster order, of its
    8-connected (4-connected if four) component."""
    n, kind = starts.size, starts.dtype
    # run j touches runs lo[j] .. lo[j] + above[j] - 1 on the row above
    lo = np.searchsorted(ends, starts - stride, "right" if four else "left").astype(kind)
    above = np.searchsorted(starts, ends - stride, "left" if four else "right").astype(kind)
    above -= lo
    wide = above > 1
    step = np.zeros(n, dtype=np.int8)
    step[lo[wide]] = 1
    step[lo[wide] + above[wide] - 1] -= 1
    touch = above > 0
    del above, wide
    # run k opens a new group unless a span joins it to run k - 1
    opens = np.empty(n, dtype=bool)
    opens[:1] = True
    np.equal(np.cumsum(step[:-1], dtype=np.int8), 0, out=opens[1:])
    del step
    group = np.cumsum(opens, dtype=kind)
    group -= 1
    a, b = group[touch], group[lo[touch]]
    del lo, touch
    # runs of one group next to each other give the same edge
    fresh = np.empty(a.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(a[1:], a[:-1], out=fresh[1:])
    fresh[1:] |= b[1:] != b[:-1]
    a, b = a[fresh], b[fresh]
    del fresh
    # hook roots a onto smaller roots b, point every group at its root, repeat
    root = np.arange(group[-1] + 1 if n else 0, dtype=kind)
    while a.size:
        np.minimum.at(root, a, b)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        a, b = root[a], root[b]
        live = a != b
        a, b = a[live], b[live]
        del live
        top = np.maximum(a, b)
        np.minimum(a, b, out=b)
        a = top
    return np.flatnonzero(opens).astype(kind)[root][group]


def label_mask(mask: np.ndarray, four: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of a 2-D bool mask, in raster order, as (starts, lengths,
    first): first holds, for each run, the number of the first run of its
    8-connected (4-connected if four) component. The starts are only for
    run_pixels."""
    starts, ends = _mask_runs(mask)
    first = _label_runs(starts, ends, mask.shape[1] + 1, four)
    # taken after the labeling, whose peak would otherwise hold them too
    ends -= starts
    return starts, ends, first


def run_pixels(starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """The flat raster indices of the pixels of runs that label_mask
    returned for a raster of the given width, run after run."""
    offsets = np.cumsum(lengths, dtype=lengths.dtype) - lengths
    # a run's raster index is its frame index less its row
    offsets += starts // (width + 1)
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()), dtype=starts.dtype)
