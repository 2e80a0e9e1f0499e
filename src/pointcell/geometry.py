"""Point cloud geometry: loading, nearest neighbors and the PCA plane distance.

The boundary of the physical domain is known only through an unordered point
cloud.  A local approximation of the boundary near a query point x is obtained
by fitting a total-least-squares line (a "plane" in 2D) through the k nearest
cloud points; the unsigned distance from x to that plane acts as an implicit
distance-to-boundary function.  Far away from the cloud the fit is meaningless,
so beyond a validity radius r the plain nearest-neighbor distance is returned
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudLoadError, DegenerateGeometryError

# Extra neighbors fetched so that distance ties at the cut can be resolved
# by ascending point index exactly as a brute-force scan would.
_TIE_SLACK = 4


@dataclass(frozen=True)
class DistanceParams:
    """Parameters of the plane-fit distance.

    k is the number of nearest neighbors used for the fit, r the validity
    radius of the fit around the nearest neighbor.
    """

    k: int
    r: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")


class PointCloud:
    """Immutable 2D point set with a spatial index.

    Parameters
    ----------
    points : array_like, shape (n, 2)
        Cloud coordinates, kept in construction order.  Duplicate points are
        rejected because they break the nearest-neighbor tie rules.
    """

    def __init__(self, points):
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected (n, 2) point array, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise CloudLoadError(f"degenerate cloud: need at least 2 points, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise CloudLoadError("cloud contains non-finite coordinates")
        dup = _first_duplicate(pts)
        if dup is not None:
            raise CloudLoadError(f"duplicate point at rows {dup[0]} and {dup[1]}: {pts[dup[0]]}")
        pts.setflags(write=False)
        self.points = pts
        self.tree = cKDTree(pts)

    def __len__(self):
        return self.points.shape[0]


def _first_duplicate(pts):
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    srt = pts[order]
    same = np.all(srt[1:] == srt[:-1], axis=1)
    hits = np.nonzero(same)[0]
    if hits.size == 0:
        return None
    i, j = order[hits[0]], order[hits[0] + 1]
    return (min(i, j), max(i, j))


def load_point_cloud(path) -> PointCloud:
    """Read a whitespace-separated text file of boundary points.

    Each data row holds at least x and y; further columns (e.g. normals) are
    ignored.  Blank lines and lines starting with '#' are skipped.
    """
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) < 2:
                raise CloudLoadError(f"line {lineno}: expected at least 2 columns, got {len(fields)}")
            try:
                rows.append((float(fields[0]), float(fields[1])))
            except ValueError as exc:
                raise CloudLoadError(f"line {lineno}: malformed numeric field ({exc})") from None
    if len(rows) < 2:
        raise CloudLoadError(f"degenerate cloud: file holds {len(rows)} data rows, need at least 2")
    return PointCloud(np.asarray(rows, dtype=float))


def _knn_indices_many(cloud: PointCloud, xs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbors for each row of xs, ties broken by ascending index.

    Returns (indices, distances), each (m, k), neighbors sorted by
    (distance, index).  Equivalent to a brute-force scan with the same sort.
    The tree's k + _TIE_SLACK candidates are re-sorted by exact squared
    distance (_resort_exact), which sorts only the rows the tree returned out
    of (distance, index) order; a tie straddling the candidate window falls
    back to a scan of the whole cloud for that row.
    """
    n = len(cloud)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds cloud size {n}")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    kq = min(n, k + _TIE_SLACK)
    _, idx = cloud.tree.query(xs, k=kq)
    idx = np.asarray(idx).reshape(xs.shape[0], kq)
    d2, idx = _resort_exact(cloud.points, xs, idx)
    if kq < n:
        # A tie straddling the candidate window hides better-indexed points.
        unresolved = d2[:, k - 1] == d2[:, kq - 1]
        if np.any(unresolved):
            rows = np.nonzero(unresolved)[0]
            allidx = np.broadcast_to(np.arange(n), (rows.size, n))
            d2f, idxf = _resort_exact(cloud.points, xs[rows], allidx)
            out_i = idx[:, :k].copy()
            out_d = d2[:, :k].copy()
            out_i[rows] = idxf[:, :k]
            out_d[rows] = d2f[:, :k]
            return out_i, np.sqrt(out_d)
    return idx[:, :k].copy(), np.sqrt(d2[:, :k])


def _resort_exact(points, xs, idx):
    """Sort candidate neighbor indices of each row by (squared distance, index).

    Returns the sorted (d2, idx); the input idx is never written, so it may
    be a read-only broadcast.  A row is out of order when some adjacent pair
    breaks the (d2, index) order: d2[j + 1] < d2[j], or the two are equal
    and idx[j + 1] < idx[j].  Only those rows are lexsorted.  Every other
    row already is in the order a full sort would give, since the indices of
    a row are distinct.
    """
    diff = points[idx] - xs[:, None, :]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    d_lo, d_hi = d2[:, :-1], d2[:, 1:]
    swapped = (d_hi < d_lo) | ((d_hi == d_lo) & (idx[:, 1:] < idx[:, :-1]))
    rows = np.nonzero(swapped.any(axis=1))[0]
    if rows.size:
        idx = idx.copy()
        order = np.lexsort((idx[rows], d2[rows]), axis=1)
        d2[rows] = np.take_along_axis(d2[rows], order, axis=1)
        idx[rows] = np.take_along_axis(idx[rows], order, axis=1)
    return d2, idx


def _smallest_eigvec_2x2(a, b, c):
    """Unit eigenvector of the smallest eigenvalue of [[a, b], [b, c]], batched.

    Inputs are arrays of equal shape; returns (vx, vy, isotropic) where
    isotropic flags entries whose eigenvalues coincide to machine precision.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    h = np.hypot(a - c, 2.0 * b)
    lam = 0.5 * (a + c - h)
    # Two candidate eigenvectors; pick the better conditioned one per entry.
    v1x, v1y = b, lam - a
    v2x, v2y = lam - c, b
    n1 = v1x**2 + v1y**2
    n2 = v2x**2 + v2y**2
    use1 = n1 >= n2
    vx = np.where(use1, v1x, v2x)
    vy = np.where(use1, v1y, v2y)
    norm = np.sqrt(vx**2 + vy**2)
    zero = norm == 0.0
    # Zero candidates mean an already diagonal matrix: axis by smaller diagonal.
    vx = np.where(zero, np.where(a <= c, 1.0, 0.0), vx)
    vy = np.where(zero, np.where(a <= c, 0.0, 1.0), vy)
    norm = np.where(zero, 1.0, norm)
    vx = vx / norm
    vy = vy / norm
    # Sign rule: first nonzero component positive.
    flip = np.where(vx != 0.0, np.sign(vx), np.sign(vy))
    vx = vx * flip
    vy = vy * flip
    scale = np.maximum(np.abs(a) + np.abs(c), np.finfo(float).tiny)
    isotropic = h <= 1e-12 * scale
    return vx, vy, isotropic


def fit_planes(neighbors):
    """Batched total-least-squares lines through (m, k, 2) neighbor sets.

    The support point of each set is its centroid, the normal the unit
    eigenvector of the smallest eigenvalue of the scatter matrix
    sum((p - mean) (p - mean)^T), sign-fixed so its first nonzero component
    is positive.  Returns (supports (m, 2), normals (m, 2), isotropic (m,),
    coincident (m,)): isotropic flags equal eigenvalues (the normal is then
    an arbitrary but deterministic axis), coincident a zero scatter matrix.
    """
    nb = np.asarray(neighbors, dtype=float)
    if nb.ndim != 3 or nb.shape[1] < 2 or nb.shape[2] != 2:
        raise ValueError(f"need an (m, k, 2) array with k >= 2, got shape {nb.shape}")
    cen = nb.mean(axis=1)
    d = nb - cen[:, None, :]
    a = np.einsum("mk,mk->m", d[:, :, 0], d[:, :, 0])
    b = np.einsum("mk,mk->m", d[:, :, 0], d[:, :, 1])
    c = np.einsum("mk,mk->m", d[:, :, 1], d[:, :, 1])
    vx, vy, iso = _smallest_eigvec_2x2(a, b, c)
    return cen, np.column_stack([vx, vy]), iso, (a == 0.0) & (b == 0.0) & (c == 0.0)


def pca_distance_many(cloud: PointCloud, xs, params: DistanceParams) -> np.ndarray:
    """Unsigned distance from each row of xs (m, 2) to its locally fitted plane.

    The plane is the TLS fit through the k nearest cloud points (fit_planes).
    Where even the nearest cloud point is farther than params.r the fit is
    not trusted and the nearest-neighbor distance is returned instead.  For
    isotropic neighbor sets the deterministic axis of the fit is used as-is.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 2:
        raise ValueError(f"expected (m, 2) query array, got shape {xs.shape}")
    if xs.shape[0] == 0:
        return np.zeros(0)
    idx, dist = _knn_indices_many(cloud, xs, params.k)
    out = dist[:, 0].copy()
    near = dist[:, 0] <= params.r
    if np.any(near):
        if params.k < 2:
            raise DegenerateGeometryError("plane fit needs k >= 2 neighbors")
        cen, normal, _, coincident = fit_planes(cloud.points[idx[near]])
        if np.any(coincident):
            raise DegenerateGeometryError("coincident neighbor set encountered in plane fit")
        rel = xs[near] - cen
        out[near] = np.abs(normal[:, 0] * rel[:, 0] + normal[:, 1] * rel[:, 1])
    return out
