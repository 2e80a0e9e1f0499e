"""Penalty enforcement of Dirichlet data given only as a boundary point cloud.

Two routes produce the penalty matrix and load:

Diffuse route: the boundary integral is widened into a thin volume layer by
composing a cosine-bump approximation of a Dirac delta with the plane-fit
distance, then integrated on a distance-driven quadtree per cell.  The layer
has finite thickness, so at strong penalties the constraint also grips the
solution just off the boundary, which flattens its normal gradient there.

Sharp route: the boundary is rebuilt as bounded plane segments, once per
problem.  Reconstruct once: every cell's query lattice names the order-k
Voronoi regions that may meet it; the union of those keys is fitted and
clipped in one batched pass (the TLS plane of each region's k defining
points, cut exactly to the region and to 3 of its key's spacings; a region
whose line misses it has no segment), giving one segment list that the
penalty, the segment export and the membrane diagnostics all share.  The
sharp pair is the reference pair over the segments' rows: each is split
once at every grid line it crosses, each piece goes to the cell holding its
midpoint (StructuredMesh.cell_of, the rule locate uses too), and the rule is
laid on each piece.  Cells are half-open, so a piece on a shared edge is
counted once, and a piece reaching into a cell whose own lattice missed its
region is still integrated there.
Points sit on the reconstructed boundary itself, so nothing constrains the
field away from it, and far fewer points are needed than in the layer.

A reference route over explicit polyline segments serves as the ground truth
for both.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from .errors import SharpBoundaryWarning
from .fcm import StructuredMesh, scatter_cells
from .geometry import (DistanceParams, PointCloud, _knn_indices_many,
                       fit_planes, pca_distance_many)
from .quadrature import (DiffuseParams, _build_tree, _lattice, build_diffuse_tree,
                         gauss_legendre_1d, regularized_delta_raw,
                         tree_quadrature_points)
# region_keys_many is unused here; perfbench/spans.py binds it in this module.
from .voronoi import _unique_rows, region_keys_many  # noqa: F401

# Keys of skipped regions quoted in a SharpBoundaryWarning.
_SHOWN_KEYS = 5


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty factor beta and prescribed boundary value.

    beta must be finite and positive.  u_hat is a constant or a callable
    mapping (m, 2) points to (m,) values ((m, ncomp) rows for vector
    problems); it is evaluated at the penalty quadrature points.
    """

    beta: float
    u_hat: object = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")

    def values(self, pts, ncomp: int = 1):
        """Prescribed values at pts as (m, ncomp) rows."""
        if callable(self.u_hat):
            out = np.asarray(self.u_hat(pts), dtype=float)
        else:
            out = np.full((pts.shape[0], ncomp), float(self.u_hat))
        return out.reshape(pts.shape[0], ncomp)


@dataclass(frozen=True)
class SharpParams:
    """Sharp-interface controls.

    n_query: query-tree depth used to find contributing Voronoi regions.
    test_grid: per-subcell sample points per direction (cell-centered).
    n_gauss: rule order per segment.
    l_max, n_sub: unused; no result depends on them.  They are kept so that
    existing callers that pass them still construct.
    """

    n_query: int
    n_gauss: int
    l_max: float | None = None
    test_grid: int = 3
    n_sub: int = 0

    def __post_init__(self):
        if self.n_query < 0:
            raise ValueError(f"n_query must be >= 0, got {self.n_query}")
        if self.test_grid < 1:
            raise ValueError(f"test_grid must be >= 1, got {self.test_grid}")
        if self.n_gauss < 1:
            raise ValueError(f"n_gauss must be >= 1, got {self.n_gauss}")


@dataclass
class BoundedSegment:
    """Plane segment of one Voronoi region, clipped to that region.

    intervals holds the (1, 2) parameter range [lo, hi] along the unit
    direction, measured from the support point: the region's piece of the
    line, cut to within 3 key spacings of the support (_clip_to_regions).
    """

    key: tuple
    support: np.ndarray
    direction: np.ndarray
    intervals: np.ndarray

    @property
    def total_length(self):
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))

    def endpoints(self):
        """(m, 4) rows x0, y0, x1, y1 of the segment's pieces."""
        return (self.support + self.intervals[:, :, None] * self.direction).reshape(-1, 4)


# ---------------------------------------------------------------------------
# diffuse route


def diffuse_penalty_cell(mesh: StructuredMesh, ix: int, iy: int, cloud: PointCloud,
                         dparams: DistanceParams, diff: DiffuseParams,
                         pen: PenaltyParams, ncomp: int = 1):
    """Penalty matrix/vector of one cell via the regularized-delta layer.

    Returns (Ke, fe, n_points) in cell-local dense form.  Every Gauss point
    of the distance-driven tree is placed and counted in n_points, but only
    those with a nonzero weight (distance below epsilon) are integrated;
    the others would add exact zeros.  The distance is computed only in the
    leaves at depth n_sub: the capture guard left every shallower leaf
    unsplit because none of its points comes within epsilon of the layer.
    """
    tree = _diffuse_tree(mesh, ix, iy, cloud, dparams, diff)
    rule = gauss_legendre_1d(diff.n_gauss)
    pts, wts, leaf_of = tree_quadrature_points(tree, rule)
    deep = tree.depths[leaf_of] == diff.n_sub
    w = wts[deep] * regularized_delta_raw(pca_distance_many(cloud, pts[deep], dparams),
                                          diff.epsilon)
    weighted = w != 0.0
    return _accumulate_point_penalty(mesh, ix, iy, pts[deep][weighted], w[weighted], pen,
                                     ncomp) + (pts.shape[0],)


def _diffuse_tree(mesh, ix, iy, cloud, dparams, diff):
    """The distance-driven tree of cell (ix, iy) (quadrature.build_diffuse_tree)."""
    return build_diffuse_tree(mesh.cell_bounds(ix, iy),
                              lambda pts: pca_distance_many(cloud, pts, dparams), diff)


def count_diffuse_points(mesh: StructuredMesh, cloud: PointCloud,
                         dparams: DistanceParams, diff: DiffuseParams) -> int:
    """Quadrature points the diffuse route would place, without assembling."""
    return diff.n_gauss ** 2 * sum(_diffuse_tree(mesh, ix, iy, cloud, dparams, diff).n_leaves
                                   for ix, iy in _diffuse_cells(mesh, cloud, dparams, diff))


def _accumulate_point_penalty(mesh, ix, iy, pts, w, pen, ncomp):
    """Accumulate beta * sum w N^T N and beta * sum w N^T u_hat for a cell,
    in the layout of fcm.component_dofs."""
    p = mesh.degree
    w = w * pen.beta
    xi, eta = mesh.local_coords(ix, iy, pts)
    V = basis_mod.eval_values(p, np.clip(xi, -1.0, 1.0), np.clip(eta, -1.0, 1.0))
    Ke = np.kron((V * w[:, None]).T @ V, np.eye(ncomp))
    fe = (V.T @ (w[:, None] * pen.values(pts, ncomp))).reshape(-1)
    return Ke, fe


# ---------------------------------------------------------------------------
# sharp route


def _near_cloud(cloud: PointCloud, boxes, reach: float):
    """(m,) mask of the (m, 4) boxes whose center lies within halfdiag + reach
    of its nearest cloud point, halfdiag being the box's own half-diagonal:
    every box holding a point within reach of the cloud is near (triangle
    inequality).  With reach = inf every box is near, and nothing is queried."""
    if not np.isfinite(reach):
        return np.ones(boxes.shape[0], dtype=bool)
    halfdiag = 0.5 * np.hypot(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])
    dist, _ = cloud.tree.query(0.5 * (boxes[:, :2] + boxes[:, 2:]), k=1)
    return dist <= halfdiag + reach


def identify_contributing_regions(cell_bounds, cloud: PointCloud,
                                  dparams: DistanceParams, sparams: SharpParams):
    """Order-k Voronoi region keys whose regions may intersect the cells.

    cell_bounds is one cell (x0, y0, x1, y1) as a (4,) array or many cells as
    an (m, 4) array; all cells run through one batched pass.  A query
    quadtree over the cells (quadrature._build_tree, n_query levels) splits
    the subcells near the cloud (_near_cloud with reach r) and leaves the
    others unsplit; its leaves at depth n_query that are near are sampled
    on a cell-centered test grid, and the keys at sample points within r of
    their nearest cloud point are collected (sample points beyond r lie
    outside the reconstruction zone).  A sample point within r of the cloud
    makes every subcell holding it near, so the pruning drops no key of the
    full lattice.  With r = inf no pruning or exclusion happens at all.

    Returns the unique keys over all cells, the union of the one-cell calls,
    in lexicographic order as a list of tuples.
    """
    near = lambda boxes: _near_cloud(cloud, boxes, dparams.r)
    tree = _build_tree(np.asarray(cell_bounds, dtype=float).reshape(-1, 4), near,
                       sparams.n_query)
    last = tree.leaves[tree.depths == sparams.n_query]
    last = last[near(last)]
    if last.shape[0] == 0:
        return []
    g = sparams.test_grid
    pts = _lattice(last, (np.arange(g) + 0.5) / g).reshape(-1, 2)
    idx, dist = _knn_indices_many(cloud, pts, dparams.k)
    within = dist[:, 0] <= dparams.r
    if not np.any(within):
        return []
    keys = np.sort(idx[within], axis=1)
    return [tuple(int(i) for i in row) for row in _unique_rows(keys)]


def _clip_to_regions(cloud: PointCloud, keys_arr, supports, tangents):
    """Each region's piece [lo, hi] of its line s + t tau, within |t| <= cap/2.

    An order-k region is the intersection of the half-planes
    (x - m_ij).(p_j - p_i) <= 0 over i in its key and j outside it, m_ij being
    their midpoint (Lee, IEEE Trans. Comput. C-31, 1982); on the line each is
    a half-line in t, or, for a bisector parallel to the line, all of it or
    none.  Each row's cap is 3 of its key's spacings, 2 reach / (k - 1) with
    reach = max |p_i - s| over the key, so sparse stretches keep their pieces.
    Only the p_j within reach + cap of the support are tested (reach widened
    by 1e-12 relative against round-off).  That is complete, row by row: were
    a point x of the line with |t| <= cap/2 to meet every tested constraint
    yet lie outside the region, some p_j would be closer to x than a key
    point, so |p_j - s| < reach + cap and p_j was tested after all.  The
    piece is empty (hi <= lo) when the line misses its region.
    """
    pts = cloud.points
    key_pts = pts[keys_arr]
    reach = np.sqrt(np.max(np.sum((key_pts - supports[:, None]) ** 2, axis=2), axis=1))
    cap = 3.0 * 2.0 * reach / (keys_arr.shape[1] - 1)
    balls = cloud.tree.query_ball_point(supports, reach * (1.0 + 1e-12) + cap)
    row = np.repeat(np.arange(len(keys_arr)), [len(ball) for ball in balls])
    j = np.concatenate(balls)
    outside = ~np.any(j[:, None] == keys_arr[row], axis=1)
    row, pj = row[outside], pts[j[outside], None]
    d = pj - key_pts[row]
    a = np.sum((supports[row, None] - 0.5 * (pj + key_pts[row])) * d, axis=2)
    b = np.sum(tangents[row, None] * d, axis=2)
    rows = np.broadcast_to(row[:, None], b.shape)
    lo, hi = -0.5 * cap, 0.5 * cap
    up, down = b > 0.0, b < 0.0
    np.minimum.at(hi, rows[up], -a[up] / b[up])
    np.maximum.at(lo, rows[down], -a[down] / b[down])
    hi[rows[(b == 0.0) & (a > 0.0)]] = -np.inf
    return lo, hi


def _reconstruct(cloud: PointCloud, keys):
    """Bounded plane segments of many regions in one batched pass.

    Fits the TLS plane of each key's defining points and clips the line
    along its tangent through the support point to the region, within 3 key
    spacings of the support (_clip_to_regions); the clip alone decides
    whether a region has boundary.  Regions whose fit is isotropic or whose line misses
    the region are skipped, with one SharpBoundaryWarning for the whole call.

    keys is a sorted sequence of key tuples; returns a BoundedSegment per
    kept key, in the same order.
    """
    if len(keys) == 0:
        return []
    keys_arr = np.asarray(keys, dtype=int)
    supports, normals, iso, _ = fit_planes(cloud.points[keys_arr])
    tangents = np.column_stack([-normals[:, 1], normals[:, 0]])
    lo, hi = _clip_to_regions(cloud, keys_arr, supports, tangents)
    keep = ~iso & (hi > lo)
    skipped = {"isotropic neighbor set": keys_arr[iso],
               "line misses its region": keys_arr[~iso & ~keep]}
    n_skipped = len(keys_arr) - int(keep.sum())
    if n_skipped:
        counts = ", ".join(f"{len(rows)} {reason}" for reason, rows in skipped.items()
                           if len(rows))
        first = [tuple(int(i) for i in row)
                 for rows in skipped.values() for row in rows][:_SHOWN_KEYS]
        warnings.warn(f"{n_skipped} of {len(keys_arr)} regions skipped ({counts}); "
                      f"first keys: {', '.join(map(str, first))}",
                      SharpBoundaryWarning, stacklevel=3)
    return [BoundedSegment(key=tuple(int(i) for i in key), support=s, direction=tau,
                           intervals=np.array([[a, b]]))
            for key, s, tau, a, b in zip(keys_arr[keep], supports[keep], tangents[keep],
                                         lo[keep], hi[keep])]


def bisect_plane_segments(cloud: PointCloud, key, sparams: SharpParams) -> BoundedSegment | None:
    """Bounded plane segment of a single region (see _reconstruct); no
    field of sparams changes it.  Returns None, with a warning, when the
    region is skipped.  The segment is clipped exactly, not bisected; the
    name stays because perfbench/spans.py binds it.
    """
    segments = _reconstruct(cloud, [tuple(key)])
    return segments[0] if segments else None


def _segment_rows(segments):
    """(m, 4) rows x0, y0, x1, y1 of every piece of a BoundedSegment list."""
    return np.concatenate([s.endpoints() for s in segments] + [np.zeros((0, 4))])


def sharp_penalty_cell(mesh: StructuredMesh, ix: int, iy: int, cloud: PointCloud,
                       dparams: DistanceParams, sparams: SharpParams,
                       pen: PenaltyParams, ncomp: int = 1):
    """Penalty matrix/vector of one cell via implicit Voronoi plane segments.

    One cell's view of the sharp boundary: collect_sharp_segments over the
    whole mesh, split at the grid lines, and only this cell's pieces
    integrated, so the cells sum to assemble_sharp_penalty.  Returns
    (Ke, fe, n_points), zeros when no segment crosses the cell.
    """
    segs = _segment_rows(collect_sharp_segments(mesh, cloud, dparams, sparams))
    cell, pts, w = _segment_points(mesh, segs, sparams.n_gauss)
    mine = cell == iy * mesh.nx + ix
    return _accumulate_point_penalty(mesh, ix, iy, pts[mine], w[mine], pen,
                                     ncomp) + (int(mine.sum()),)


# ---------------------------------------------------------------------------
# segment integrator


def _split_segments(mesh: StructuredMesh, segs):
    """Pieces (cell, row, t0, t1) of (m, 4) segments x0, y0, x1, y1 split at
    the grid lines, grouped by cell number iy * nx + ix and by row within.

    Segment p0 + t d, 0 <= t <= 1, is cut at t = (edge - p0) / d for every
    line of mesh.grid_lines, the parameters a per-cell Liang-Barsky clip
    computes.  Each nonempty piece between neighbouring cuts goes to the
    cell holding its midpoint (mesh.cell_of: a piece on an interior grid
    line is counted once, above it or to its right); pieces outside the
    mesh are dropped.  The cuts are a dense (m, nx + ny + 2) array, small
    beside the operator of any mesh the solver can factor.
    """
    p0 = segs[:, 0:2]
    d = segs[:, 2:4] - p0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cuts = np.hstack([(lines - p0[:, axis, None]) / d[:, axis, None]
                          for axis, lines in enumerate(mesh.grid_lines)])
    # a cut outside (0, 1), or none (a segment parallel to the line), bounds no piece
    ends = np.tile([0.0, 1.0], (len(segs), 1))
    t = np.sort(np.hstack([ends, np.where((cuts > 0.0) & (cuts < 1.0), cuts, 1.0)]), axis=1)
    row, k = np.nonzero(t[:, 1:] > t[:, :-1])
    t0, t1 = t[row, k], t[row, k + 1]
    cell = mesh.cell_of(p0[row] + (0.5 * (t0 + t1))[:, None] * d[row])
    keep = np.nonzero(cell >= 0)[0]
    order = keep[np.argsort(cell[keep], kind="stable")]
    return cell[order], row[order], t0[order], t1[order]


def _segment_points(mesh: StructuredMesh, segs, n_gauss: int):
    """Cell numbers, Gauss points and weights of the n_gauss rule laid on
    each piece of (m, 4) segments (_split_segments), grouped by cell."""
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    cell, row, t0, t1 = _split_segments(mesh, segs)
    rule = gauss_legendre_1d(n_gauss)
    p0 = segs[row, 0:2]
    d = segs[row, 2:4] - p0
    t = 0.5 * (t0 + t1)[:, None] + 0.5 * (t1 - t0)[:, None] * rule.points[None, :]
    w = (0.5 * (t1 - t0) * np.hypot(d[:, 0], d[:, 1]))[:, None] * rule.weights[None, :]
    pts = (p0[:, None, :] + t[:, :, None] * d[:, None, :]).reshape(-1, 2)
    return np.repeat(cell, rule.n), pts, w.reshape(-1)


# ---------------------------------------------------------------------------
# global assemblers


def _diffuse_cells(mesh: StructuredMesh, cloud: PointCloud, dparams: DistanceParams,
                   diff: DiffuseParams):
    """Cells the diffuse route integrates: those within reach of the layer
    and of the plane fit, i.e. near the cloud (_near_cloud) with reach
    max(r, epsilon)."""
    ix, iy = mesh.cell_index()
    near = _near_cloud(cloud, mesh.cell_bounds(ix, iy), max(dparams.r, diff.epsilon))
    return [(int(x), int(y)) for x, y in zip(ix[near], iy[near])]


def _assemble_cells(mesh, ncomp, beta, cell_iter):
    """Scatter per-cell penalty results (ix, iy, (Ke, fe, n)) into a global
    pair scaled by beta, and count the points; all-zero pairs are dropped."""
    n_points = 0

    def pairs():
        nonlocal n_points
        for ix, iy, (Ke, fe, n) in cell_iter:
            n_points += n
            if np.any(Ke) or np.any(fe):
                yield ix, iy, Ke, fe

    K, f = scatter_cells(mesh, ncomp, pairs())
    K.data *= beta
    return K, beta * f, n_points


def assemble_diffuse_penalty(mesh: StructuredMesh, cloud: PointCloud,
                             dparams: DistanceParams, diff: DiffuseParams,
                             pen: PenaltyParams, ncomp: int = 1):
    """Global diffuse penalty pair (K, f) and the quadrature point count.

    beta scales the accumulated pair once at the end, so results for two
    betas differ by exactly that factor.
    """
    unit = PenaltyParams(beta=1.0, u_hat=pen.u_hat)
    cells = _diffuse_cells(mesh, cloud, dparams, diff)
    it = ((ix, iy, diffuse_penalty_cell(mesh, ix, iy, cloud, dparams, diff, unit, ncomp))
          for ix, iy in cells)
    K, f, n = _assemble_cells(mesh, ncomp, pen.beta, it)
    return K, f, {"penalty_points": n, "cells": len(cells)}


def assemble_sharp_penalty(mesh: StructuredMesh, segments, pen: PenaltyParams,
                           n_gauss: int, ncomp: int = 1):
    """Global sharp penalty pair over reconstructed segments.

    segments is the output of collect_sharp_segments, and each one lies in
    its own region, so this is the reference pair over their (m, 4) rows.
    penalty_points counts the Gauss points.
    """
    return assemble_reference_penalty(mesh, _segment_rows(segments), pen, n_gauss, ncomp)


def assemble_reference_penalty(mesh: StructuredMesh, segments, pen: PenaltyParams,
                               n_gauss: int, ncomp: int = 1):
    """Global reference penalty pair from explicit (m, 4) segments: each is
    split at the grid lines and the n_gauss rule is laid on each piece
    (_segment_points); penalty_points counts the points."""
    unit = PenaltyParams(beta=1.0, u_hat=pen.u_hat)
    cell, pts, w = _segment_points(mesh, segments, n_gauss)
    ids, starts = np.unique(cell, return_index=True)
    ends = np.append(starts[1:], cell.size)
    it = ((ix, iy, _accumulate_point_penalty(mesh, ix, iy, pts[a:b], w[a:b], unit, ncomp)
           + (int(b - a),)) for ix, iy, a, b in zip(*mesh.cell_index(ids), starts, ends))
    K, f, n = _assemble_cells(mesh, ncomp, pen.beta, it)
    return K, f, {"penalty_points": n}


def collect_sharp_segments(mesh: StructuredMesh, cloud: PointCloud,
                           dparams: DistanceParams, sparams: SharpParams):
    """The sharp boundary: the clipped segment of every contributing region.

    Every cell's query lattice names its regions, all cells in one
    identify_contributing_regions call; the union is reconstructed once (see
    _reconstruct).  Returns a list of BoundedSegment in lexicographic key
    order, one per kept region.
    """
    keys = identify_contributing_regions(mesh.cell_bounds(*mesh.cell_index()), cloud, dparams,
                                         sparams)
    return _reconstruct(cloud, keys)
