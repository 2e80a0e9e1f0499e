"""Implicitly queried order-k Voronoi regions.

An order-k Voronoi region of a point cloud is the set of locations sharing the
same k nearest cloud points.  Regions are never constructed explicitly; a
region is identified by its key, the ascending tuple of the k nearest point
indices at a query location.  Distance ties are broken by ascending index, so
every location maps to exactly one key and region boundaries are half-open.
"""

from __future__ import annotations

import numpy as np

from .geometry import PointCloud, _knn_indices_many


def region_keys_many(cloud: PointCloud, xs, k: int) -> np.ndarray:
    """Keys for every row of xs as an (m, k) int array with sorted rows."""
    idx, _ = _knn_indices_many(cloud, xs, k)
    return np.sort(idx, axis=1)


def _unique_rows(a):
    """Distinct rows of a 2D array in lexicographic order, as np.unique(a, axis=0)."""
    srt = a[np.lexsort(a.T[::-1])]
    new = np.ones(srt.shape[0], dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    return srt[new]


def brute_force_regions_in_box(cloud: PointCloud, box, k: int, resolution: int) -> set:
    """All order-k region keys met by a dense lattice over an axis-aligned box.

    The lattice is cell-centered: resolution x resolution points at
    ((i + 0.5)/resolution, (j + 0.5)/resolution) in box fractions, which keeps
    sample points off bisectors for symmetric constructions.  Distances are
    evaluated by direct linear scan (no spatial index), with ties broken by
    ascending point index; this is the reference enumeration the fast path is
    tested against.

    box is ((xmin, ymin), (xmax, ymax)).
    """
    (x0, y0), (x1, y1) = box
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate box {box}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    n = len(cloud)
    if k > n:
        raise ValueError(f"k={k} exceeds cloud size {n}")
    xs = x0 + (np.arange(resolution) + 0.5) * ((x1 - x0) / resolution)
    ys = y0 + (np.arange(resolution) + 0.5) * ((y1 - y0) / resolution)
    pts = cloud.points
    found = set()
    # Row-chunked scan keeps the distance matrix small.
    chunk = max(1, int(2_000_000 // max(n, 1)))
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    flat = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    order_idx = np.arange(n)
    for start in range(0, flat.shape[0], chunk):
        q = flat[start:start + chunk]
        dx = q[:, 0, None] - pts[None, :, 0]
        dy = q[:, 1, None] - pts[None, :, 1]
        d2 = dx * dx + dy * dy
        if k == n:
            keys = np.broadcast_to(order_idx, (q.shape[0], n)).copy()
        else:
            # lexsort keys: distance first, then index, reproducing the tie rule.
            srt = np.lexsort((np.broadcast_to(order_idx, d2.shape), d2), axis=1)
            keys = np.sort(srt[:, :k], axis=1)
        for row in _unique_rows(keys):
            found.add(tuple(int(i) for i in row))
    return found
