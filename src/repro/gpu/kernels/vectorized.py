"""The vectorized (default) kernel backend: batched numpy hot loops.

Bit-identical to the reference backend by construction, not by luck:

* The batched rasterizer evaluates the *same* IEEE-754 expressions as
  the per-triangle scalar loop — same subtractions, same products, same
  divisions, elementwise — over a flat array of candidate pixels, then
  compresses with a boolean mask.  The candidates are, per triangle and
  bounding-box row, a conservative x-span derived from the edge
  equations and widened by one pixel on each side, so every pixel the
  edge tests accept is tested while most of the box is never touched.
  Candidates are laid out triangle-ascending, row-major per triangle,
  which is exactly the reference emission order, so equal values arrive
  in equal order.
* Early-Z replaces the sequential per-fragment scan with a segmented
  exclusive prefix-min over the pixel-sorted stream; comparisons are
  the same exact float LESS, each fragment is visited once.
* ZEB insertion and the Z-Overlap traversal reuse the proven
  lock-step builders (:func:`repro.rbcd.zeb.build_zeb_tile`,
  :func:`repro.rbcd.overlap.analyze_tile`).

Triangle batches are processed in bounded chunks of span candidates
(:data:`_MAX_CANDIDATES`), so peak memory stays flat on large frames and
the per-candidate arrays stay cache-sized.  A non-finite vertex
coordinate raises ``ValueError``, as in the reference backend.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernels import KernelBackend
from repro.rbcd.overlap import analyze_tile
from repro.rbcd.zeb import build_zeb_tile

# Upper bound on span candidate pixels materialized per chunk.
_MAX_CANDIDATES = 1 << 16

# Triangles with a vertex coordinate beyond this magnitude keep their
# whole bounding-box rows as candidates: below it, the rounding in the
# edge tests moves a span boundary by far less than its one-pixel
# margin, whatever the slope (see :func:`_edge_rows`).
_SPAN_COORD_LIMIT = 2.0 ** 40

_EMPTY = (
    np.empty(0, dtype=np.int32),
    np.empty(0, dtype=np.int32),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
)


def _edge_rows(xy, sign, row_tri, row_y, lo, hi, width):
    """Per-row edge terms, and each (triangle, row) span narrowed to them.

    For edge ``i`` on the row through pixel centres ``gy``, the inside
    test compares ``P = dx * (gy - ay)`` with ``Q = dy * (gx - ax)``.
    ``P`` is fixed on the row and rounding keeps ``Q`` monotone in
    ``gx``, so the pixels passing the edge form a half-line whose end
    lies within rounding of ``x* = ax + P / dy``: an upper end when
    ``sign * dy > 0``, a lower one when it is negative.  The end moves
    ``lo``/``hi`` to the nearest pixel centre widened by one pixel, so
    every pixel the edge test accepts stays a candidate.  An edge with
    ``dy == 0`` is constant along the row and narrows nothing.

    The terms come back orientation-normalized, ``sign * P`` and
    ``sign * dy``: negation is exact and round-to-nearest is symmetric,
    so ``sign * P - (sign * dy) * (gx - ax)`` is bit for bit the
    ``sign * F`` of the scalar loop.  ``top_left`` marks the rows whose
    edge admits ``sign * F == 0`` under the top-left rule.
    """
    gy = row_y.astype(np.float64) + 0.5
    tame = (np.abs(xy) <= _SPAN_COORD_LIMIT).all(axis=(1, 2))
    edges = []
    for i in range(3):
        j = (i + 1) % 3
        # Per-triangle edge setup, then taken per row — the same
        # subtractions the scalar loop performs once per triangle.
        ax_t = xy[:, i, 0]
        ay_t = xy[:, i, 1]
        dx_t = xy[:, j, 0] - ax_t
        dy_t = xy[:, j, 1] - ay_t
        sdy_t = sign * dy_t
        # Top-left rule (y-down) on the orientation-normalized edge.
        top_left = ((sdy_t == 0.0) & (sign * dx_t > 0.0)) | (sdy_t < 0.0)
        narrows_t = tame & (dy_t != 0.0)

        ax = ax_t.take(row_tri)
        p = dx_t.take(row_tri) * (gy - ay_t.take(row_tri))
        edges.append((
            sign.take(row_tri) * p, sdy_t.take(row_tri), ax,
            top_left.take(row_tri),
        ))

        with np.errstate(over="ignore"):
            x_star = ax + p / np.where(narrows_t, dy_t, 1.0).take(row_tri)
        # Clip in float before the integer casts: x* may be huge.
        c = np.clip(x_star - 0.5, -2.0, width + 2.0)
        upper = (narrows_t & (sdy_t > 0.0)).take(row_tri)
        lower = (narrows_t & (sdy_t < 0.0)).take(row_tri)
        hi = np.where(upper, np.minimum(hi, np.floor(c).astype(np.int64) + 1), hi)
        lo = np.where(lower, np.maximum(lo, np.ceil(c).astype(np.int64) - 1), lo)
    return lo, hi, edges


def _raster_chunk(z, r0, r1, counts, row_tri, row_y, lo, edges, abs_area2):
    """Rasterize the span candidates of rows ``r0:r1``."""
    local = np.repeat(np.arange(r1 - r0), counts)
    rep = local + r0
    starts = np.cumsum(counts) - counts
    cx = np.arange(rep.shape[0], dtype=np.int64) - (starts - lo[r0:r1]).take(local)
    gx = cx.astype(np.float64) + 0.5

    inside = None
    fs_values = []
    for sp, sdy, ax, top_left in edges:
        # The same IEEE operations as the scalar loop, on this row's
        # terms taken across its span.
        fs = sp.take(rep) - sdy.take(rep) * (gx - ax.take(rep))
        ok = np.where(top_left.take(rep), fs >= 0.0, fs > 0.0)
        inside = ok if inside is None else inside & ok
        fs_values.append(fs)

    keep = np.flatnonzero(inside)
    if keep.shape[0] == 0:
        return None
    rep = rep.take(keep)
    kt = row_tri.take(rep)
    a2 = abs_area2.take(kt)
    # Barycentric weights: F_i / area2 is the weight of vertex i+2, and
    # (sign * F_i) / |area2| is the same quotient bit for bit.
    w2 = fs_values[0].take(keep) / a2
    w0 = fs_values[1].take(keep) / a2
    w1 = fs_values[2].take(keep) / a2
    pz = w0 * z[:, 0].take(kt) + w1 * z[:, 1].take(kt) + w2 * z[:, 2].take(kt)
    return (
        cx.take(keep).astype(np.int32),
        row_y.take(rep).astype(np.int32),
        pz,
        kt,
    )


def rasterize_triangles(
    xy: np.ndarray, z: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan-convert a whole triangle batch over per-row candidate spans."""
    if not np.isfinite(xy).all():
        raise ValueError("rasterize_triangles: non-finite screen-space vertex")
    num_tris = xy.shape[0]
    if num_tris == 0:
        return _EMPTY

    e1 = xy[:, 1, :] - xy[:, 0, :]
    e2 = xy[:, 2, :] - xy[:, 0, :]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    sign = np.where(area2 > 0.0, 1.0, -1.0)

    vx = xy[:, :, 0]
    vy = xy[:, :, 1]
    x0 = np.maximum(np.floor(vx.min(axis=1)), 0.0).astype(np.int64)
    x1 = np.minimum(np.ceil(vx.max(axis=1)), float(width - 1)).astype(np.int64)
    y0 = np.maximum(np.floor(vy.min(axis=1)), 0.0).astype(np.int64)
    y1 = np.minimum(np.ceil(vy.max(axis=1)), float(height - 1)).astype(np.int64)
    bh = y1 - y0 + 1
    live = np.flatnonzero((area2 != 0.0) & (x1 >= x0) & (bh > 0))
    if live.shape[0] == 0:
        return _EMPTY

    # One row per (live triangle, bounding-box row): triangle-ascending,
    # then top to bottom, which with left-to-right spans is the
    # reference emission order.
    rows_per_tri = bh[live]
    row_tri = np.repeat(live, rows_per_tri)
    tri_first_row = np.cumsum(rows_per_tri) - rows_per_tri
    row_y = y0[row_tri] + (
        np.arange(row_tri.shape[0], dtype=np.int64)
        - np.repeat(tri_first_row, rows_per_tri)
    )
    lo, hi, edges = _edge_rows(
        xy, sign, row_tri, row_y, x0[row_tri], x1[row_tri], width
    )
    counts = np.maximum(hi - lo + 1, 0)
    row_cum = np.cumsum(counts)
    tri_end_row = tri_first_row + rows_per_tri
    tri_cum = row_cum[tri_end_row - 1]
    if tri_cum[-1] == 0:
        return _EMPTY

    abs_area2 = np.abs(area2)
    pieces = []
    start = 0
    num_live = live.shape[0]
    while start < num_live:
        base = int(tri_cum[start - 1]) if start else 0
        stop = int(np.searchsorted(tri_cum, base + _MAX_CANDIDATES, side="right"))
        stop = min(max(stop, start + 1), num_live)
        r0, r1 = int(tri_first_row[start]), int(tri_end_row[stop - 1])
        if row_cum[r1 - 1] > base:
            piece = _raster_chunk(
                z, r0, r1, counts[r0:r1], row_tri, row_y, lo, edges, abs_area2
            )
            if piece is not None:
                pieces.append(piece)
        start = stop

    if not pieces:
        return _EMPTY
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(parts) for parts in zip(*pieces))


def earlyz_pass_mask(pixel: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Segmented exclusive prefix-min LESS test, one visit per fragment.

    Fragments are stably sorted by pixel (keeping arrival order within
    each segment), then a lock-step walk over in-segment positions
    updates all segments' running minima; the Python-level loop runs
    max-overdraw times.
    """
    n = pixel.shape[0]
    passed = np.zeros(n, dtype=bool)
    if n == 0:
        return passed

    order = np.argsort(pixel, kind="stable")
    sp = pixel[order]
    sz = z[order]

    new_segment = np.r_[True, sp[1:] != sp[:-1]]
    starts = np.flatnonzero(new_segment)
    seg_ends = np.r_[starts[1:], n]
    seg_lengths = seg_ends - starts

    excl_min = np.empty(n, dtype=np.float64)
    running = np.full(starts.shape[0], 1.0)  # z-buffer clear value
    alive = np.arange(starts.shape[0])
    for k in range(int(seg_lengths.max())):
        alive = alive[k < seg_lengths[alive]]
        idx = starts[alive] + k
        excl_min[idx] = running[alive]
        running[alive] = np.minimum(running[alive], sz[idx])

    passed[order] = sz < excl_min
    return passed


def zeb_insert(pixel, z_codes, object_id, is_front, config, tile_pixels):
    """Whole-tile ZEB build (rank-based keep-the-M-nearest filter)."""
    del tile_pixels  # the packed tile stores only non-empty lists
    return build_zeb_tile(
        pixel, z_codes, object_id, is_front, config, depths_are_codes=True
    )


BACKEND = KernelBackend(
    name="vectorized",
    rasterize_triangles=rasterize_triangles,
    earlyz_pass_mask=earlyz_pass_mask,
    zeb_insert=zeb_insert,
    zoverlap_traverse=analyze_tile,
)
