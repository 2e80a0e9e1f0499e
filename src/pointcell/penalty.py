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
bisected in one batched pass (the TLS plane of each region's k defining
points, bounded to the region by bisection), giving one segment list that the
penalty, the segment export and the membrane diagnostics all share.
Integrate by clipping: every kept subsegment is clipped to each cell it
crosses, the rule is laid on each clipped piece, and a Gauss point enters
only if it lies in its own region.  Cells are half-open, so a piece on a
shared edge is counted once, and a piece reaching into a cell whose own
lattice missed its region is still integrated there.  Points sit on the
reconstructed boundary itself, so nothing constrains the field away from it,
and far fewer points are needed than in the layer.

A reference route over explicit polyline segments serves as the ground truth
for both; it shares the sharp route's segment integrator.
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
from .quadrature import (DiffuseParams, _split, build_diffuse_tree,
                         gauss_legendre_1d, regularized_delta_raw,
                         tree_quadrature_points)
from .voronoi import _unique_rows, region_keys_many

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
    l_max: initial plane-segment length, of the order of a few point spacings.
    n_sub: bisection depth bounding each segment to its region.
    n_gauss: rule order per kept subsegment.
    """

    n_query: int
    n_sub: int
    n_gauss: int
    l_max: float
    test_grid: int = 3

    def __post_init__(self):
        if self.n_query < 0 or self.n_sub < 0:
            raise ValueError("tree depths must be >= 0")
        if not self.l_max > 0.0:
            raise ValueError(f"l_max must be positive, got {self.l_max}")
        if self.test_grid < 1:
            raise ValueError(f"test_grid must be >= 1, got {self.test_grid}")
        if self.n_gauss < 1:
            raise ValueError(f"n_gauss must be >= 1, got {self.n_gauss}")


@dataclass
class BoundedSegment:
    """Plane segment of one Voronoi region after bisection.

    intervals holds (m, 2) parameter ranges along the unit direction,
    measured from the support point; kept subsegments are disjoint and lie
    within l_max/2 of the support.
    """

    key: tuple
    support: np.ndarray
    direction: np.ndarray
    intervals: np.ndarray

    @property
    def total_length(self):
        if self.intervals.size == 0:
            return 0.0
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))

    def endpoints(self):
        """(m, 4) rows x0, y0, x1, y1 of the kept subsegments."""
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
    the others would add exact zeros.
    """
    bounds = mesh.cell_bounds(ix, iy)
    dist = lambda pts: pca_distance_many(cloud, pts, dparams)
    tree = build_diffuse_tree(bounds, dist, diff)
    rule = gauss_legendre_1d(diff.n_gauss)
    pts, wts, _ = tree_quadrature_points(tree, rule)
    d = pca_distance_many(cloud, pts, dparams)
    w = wts * regularized_delta_raw(d, diff.epsilon)
    weighted = w != 0.0
    return _accumulate_point_penalty(mesh, ix, iy, pts[weighted], w[weighted], pen,
                                     ncomp) + (pts.shape[0],)


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


def _subcell_test_points(cells, g):
    """Cell-centered g x g sample lattice of each cell, (m * g * g, 2)."""
    x0, y0 = cells[:, 0], cells[:, 1]
    w = cells[:, 2] - cells[:, 0]
    h = cells[:, 3] - cells[:, 1]
    frac = (np.arange(g) + 0.5) / g
    px = x0[:, None, None] + w[:, None, None] * frac[None, :, None]
    py = y0[:, None, None] + h[:, None, None] * frac[None, None, :]
    return np.stack(np.broadcast_arrays(px, py), axis=-1).reshape(-1, 2)


def identify_contributing_regions(cell_bounds, cloud: PointCloud,
                                  dparams: DistanceParams, sparams: SharpParams):
    """Order-k Voronoi region keys whose regions may intersect the cells.

    cell_bounds is one cell (x0, y0, x1, y1) as a (4,) array or many cells as
    an (m, 4) array; all cells run through one batched pass.  A query
    quadtree over each cell keeps, per level, the subcells whose center lies
    within halfdiag + r of its nearest cloud point, halfdiag being that
    subcell's own half-diagonal; the surviving deepest subcells are sampled
    on a cell-centered test grid and the keys at sample points within r of
    their nearest cloud point are collected (sample points beyond r lie
    outside the reconstruction zone).  A sample point within r of the cloud
    puts every subcell holding it within halfdiag + r (triangle inequality),
    so the pruning drops no key of the full lattice.  With r = inf no
    pruning or exclusion happens at all.

    Returns the unique keys over all cells, the union of the one-cell calls,
    in lexicographic order as a list of tuples.
    """
    active = np.asarray(cell_bounds, dtype=float).reshape(-1, 4)
    for depth in range(sparams.n_query + 1):
        if np.isfinite(dparams.r):
            halfdiag = 0.5 * np.hypot(active[:, 2] - active[:, 0], active[:, 3] - active[:, 1])
            centers = 0.5 * (active[:, :2] + active[:, 2:])
            active = active[cloud.tree.query(centers, k=1)[0] <= halfdiag + dparams.r]
            if active.shape[0] == 0:
                return []
        if depth < sparams.n_query:
            active = _split(active)
    pts = _subcell_test_points(active, sparams.test_grid)
    idx, dist = _knn_indices_many(cloud, pts, dparams.k)
    within = dist[:, 0] <= dparams.r
    if not np.any(within):
        return []
    keys = np.sort(idx[within], axis=1)
    return [tuple(int(i) for i in row) for row in _unique_rows(keys)]


def _bisect_batched(cloud: PointCloud, keys_arr, supports, tangents,
                    sparams: SharpParams, k: int):
    """Region-bounded subsegments for many regions at once.

    Each interval is classified by whether its two ends and its midpoint lie
    in the region.  The ends are queried once, at level 0; a child interval
    takes its ends' flags from its parent's end and midpoint, which are the
    same floats, so each later level queries only midpoints.

    Returns (region_row, lo, hi) arrays; parameters measured along each
    region's unit tangent from its support point.
    """
    R = keys_arr.shape[0]
    half = 0.5 * sparams.l_max
    row = np.arange(R)
    lo = np.full(R, -half)
    hi = np.full(R, half)
    kept_row, kept_lo, kept_hi = [], [], []

    def contains(rows, ts):
        pts = supports[rows] + ts[:, None] * tangents[rows]
        keys = region_keys_many(cloud, pts, k)
        return np.all(keys == keys_arr[rows], axis=1)

    lo_in, hi_in = contains(np.concatenate([row, row]),
                            np.concatenate([lo, hi])).reshape(2, R)
    for level in range(sparams.n_sub + 1):
        if row.size == 0:
            break
        mid = 0.5 * (lo + hi)
        mid_in = contains(row, mid)
        all_in = lo_in & mid_in & hi_in
        none_in = ~(lo_in | mid_in | hi_in)
        mixed = ~(all_in | none_in)
        if np.any(all_in):
            kept_row.append(row[all_in])
            kept_lo.append(lo[all_in])
            kept_hi.append(hi[all_in])
        if level == sparams.n_sub:
            if np.any(mixed):
                kept_row.append(row[mixed])
                kept_lo.append(lo[mixed])
                kept_hi.append(hi[mixed])
            break
        row_m, lo_m, hi_m, mid_m = row[mixed], lo[mixed], hi[mixed], mid[mixed]
        row = np.concatenate([row_m, row_m])
        lo = np.concatenate([lo_m, mid_m])
        hi = np.concatenate([mid_m, hi_m])
        lo_in = np.concatenate([lo_in[mixed], mid_in[mixed]])
        hi_in = np.concatenate([mid_in[mixed], hi_in[mixed]])
    if not kept_row:
        return (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))
    row = np.concatenate(kept_row)
    lo = np.concatenate(kept_lo)
    hi = np.concatenate(kept_hi)
    order = np.lexsort((lo, row))
    row, lo, hi = row[order], lo[order], hi[order]
    # Sibling pieces share their split float exactly, so contiguous kept runs
    # merge on equality; one rule per run instead of one per dyadic sliver.
    new_run = np.ones(row.size, dtype=bool)
    new_run[1:] = (row[1:] != row[:-1]) | (lo[1:] != hi[:-1])
    starts = np.nonzero(new_run)[0]
    ends = np.r_[starts[1:], row.size] - 1
    return row[starts], lo[starts], hi[ends]


def _reconstruct(cloud: PointCloud, keys, sparams: SharpParams):
    """Bounded plane segments of many regions in one batched pass.

    Fits the TLS plane of each key's defining points, lays a segment of
    length l_max along its tangent through the support point and bisects it
    to depth n_sub, keeping subsegments fully inside the region and,
    conservatively, the still-intersected ones at the final level.  Regions
    whose fit is isotropic or whose support fell outside their own region
    are skipped, with one SharpBoundaryWarning for the whole call.

    keys is a sorted sequence of key tuples; returns a BoundedSegment per
    kept key, in the same order.
    """
    if len(keys) == 0:
        return []
    keys_arr = np.asarray(keys, dtype=int)
    k = keys_arr.shape[1]
    supports, normals, iso, _ = fit_planes(cloud.points[keys_arr])
    tangents = np.column_stack([-normals[:, 1], normals[:, 0]])
    outside = np.zeros_like(iso)
    outside[~iso] = np.any(region_keys_many(cloud, supports[~iso], k) != keys_arr[~iso],
                           axis=1)
    skipped = {"isotropic neighbor set": keys_arr[iso],
               "support point outside its region": keys_arr[outside]}
    n_skipped = int(iso.sum() + outside.sum())
    if n_skipped:
        counts = ", ".join(f"{len(rows)} {reason}" for reason, rows in skipped.items()
                           if len(rows))
        first = [tuple(int(i) for i in row)
                 for rows in skipped.values() for row in rows][:_SHOWN_KEYS]
        warnings.warn(f"{n_skipped} of {len(keys_arr)} regions skipped ({counts}); "
                      f"first keys: {', '.join(map(str, first))}",
                      SharpBoundaryWarning, stacklevel=3)
    keep = ~(iso | outside)
    keys_arr, supports, tangents = keys_arr[keep], supports[keep], tangents[keep]
    row, lo, hi = _bisect_batched(cloud, keys_arr, supports, tangents, sparams, k)
    bounds = np.searchsorted(row, np.arange(keys_arr.shape[0] + 1))
    return [BoundedSegment(key=tuple(int(i) for i in keys_arr[r]), support=supports[r],
                           direction=tangents[r],
                           intervals=np.column_stack([lo[a:b], hi[a:b]]))
            for r, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def bisect_plane_segments(cloud: PointCloud, key, dparams: DistanceParams,
                          sparams: SharpParams) -> BoundedSegment | None:
    """Bounded plane segment of a single region (see _reconstruct).

    Returns None, with a warning, when the region is skipped.
    """
    segments = _reconstruct(cloud, [tuple(key)], sparams)
    return segments[0] if segments else None


def _sharp_cell_pairs(mesh: StructuredMesh, cloud: PointCloud, segments,
                      pen: PenaltyParams, n_gauss: int, ncomp: int, cells):
    """Sharp penalty pairs (ix, iy, (Ke, fe, n_points)) of the given cells.

    The kept subsegments go through the segment integrator
    (_segment_cell_pairs); a Gauss point enters only if it lies in its own
    region, tested for all cells in one region query.
    """
    if not segments:
        return iter(())
    keys = np.asarray([s.key for s in segments], dtype=int)
    region = np.repeat(np.arange(len(segments)), [s.intervals.shape[0] for s in segments])

    def in_region(rows, pts):
        return np.all(region_keys_many(cloud, pts, keys.shape[1]) == keys[region[rows]],
                      axis=1)

    segs = np.concatenate([s.endpoints() for s in segments])
    return _segment_cell_pairs(mesh, segs, pen, n_gauss, ncomp, cells, in_region)


def _first_pair(mesh: StructuredMesh, ncomp: int, pairs):
    """The pair of a one-cell pair iterator, or zeros when the cell has none."""
    for _, _, pair in pairs:
        return pair
    nmodes = (mesh.degree + 1) ** 2 * ncomp
    return np.zeros((nmodes, nmodes)), np.zeros(nmodes), 0


def sharp_penalty_cell(mesh: StructuredMesh, ix: int, iy: int, cloud: PointCloud,
                       dparams: DistanceParams, sparams: SharpParams,
                       pen: PenaltyParams, ncomp: int = 1):
    """Penalty matrix/vector of one cell via implicit Voronoi plane segments.

    One cell's view of the sharp boundary: collect_sharp_segments over the
    whole mesh, integrated over this cell only, so the cells sum to
    assemble_sharp_penalty.  Returns (Ke, fe, n_points).
    """
    segments = collect_sharp_segments(mesh, cloud, dparams, sparams)
    return _first_pair(mesh, ncomp, _sharp_cell_pairs(mesh, cloud, segments, pen,
                                                      sparams.n_gauss, ncomp, [(ix, iy)]))


# ---------------------------------------------------------------------------
# segment integrator


def _clip_segments_to_rect(segs, bounds, closed):
    """Liang-Barsky clip of (m, 4) segments to a half-open rectangle.

    The rectangle is [x0, x1) x [y0, y1), closed at x1 and y1 where the
    entries of closed say so.  Returns (rows, t0, t1) for segments with a
    nonempty clipped parameter interval; adjacent cells share their edge
    coordinates, so they partition each segment exactly.
    """
    p0 = segs[:, 0:2]
    d = segs[:, 2:4] - p0
    t0 = np.zeros(segs.shape[0])
    t1 = np.ones(segs.shape[0])
    for axis, (lo, hi) in enumerate([(bounds[0], bounds[2]), (bounds[1], bounds[3])]):
        dv = d[:, axis]
        pv = p0[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - pv) / dv
            tb = (hi - pv) / dv
        # A segment parallel to this axis is kept whole inside the slab, else dropped.
        par = dv == 0.0
        inside = (pv >= lo) & ((pv <= hi) if closed[axis] else (pv < hi))
        t0 = np.maximum(t0, np.where(par, np.where(inside, 0.0, 1.0), np.minimum(ta, tb)))
        t1 = np.minimum(t1, np.where(par, 1.0, np.maximum(ta, tb)))
    rows = np.nonzero(t1 > t0)[0]
    return rows, t0[rows], t1[rows]


def _segment_cell_pairs(mesh: StructuredMesh, segs, pen: PenaltyParams, n_gauss: int,
                        ncomp: int, cells, keep=None):
    """Penalty pairs (ix, iy, (Ke, fe, n_points)) of (m, 4) segments x0, y0, x1, y1.

    Each segment is clipped to every given cell its bounding box meets (cells
    half-open, closed only at the mesh's upper edges, so a piece on a shared
    edge or interface is counted once), and the n_gauss rule is laid on each
    clipped piece.  keep(rows, pts), when given, masks the points of all
    cells at once.  n_points counts the points that enter; cells with none
    are not yielded.
    """
    cells = list(cells)
    segs = np.asarray(segs, dtype=float).reshape(-1, 4)
    xe = mesh.origin[0] + mesh.hx * np.arange(mesh.nx + 1)
    ye = mesh.origin[1] + mesh.hy * np.arange(mesh.ny + 1)
    lo = np.minimum(segs[:, 0:2], segs[:, 2:4])
    hi = np.maximum(segs[:, 0:2], segs[:, 2:4])
    pieces = []
    for c, (ix, iy) in enumerate(cells):
        box = (xe[ix], ye[iy], xe[ix + 1], ye[iy + 1])
        near = np.nonzero((hi[:, 0] >= box[0]) & (lo[:, 0] <= box[2])
                          & (hi[:, 1] >= box[1]) & (lo[:, 1] <= box[3]))[0]
        rows, t0, t1 = _clip_segments_to_rect(segs[near], box,
                                              (ix == mesh.nx - 1, iy == mesh.ny - 1))
        pieces.append((np.full(rows.size, c), near[rows], t0, t1))
    cell, row, t0, t1 = (np.concatenate(a) for a in zip(*pieces))
    if row.size == 0:
        return
    rule = gauss_legendre_1d(n_gauss)
    p0 = segs[row, 0:2]
    d = segs[row, 2:4] - p0
    t = 0.5 * (t0 + t1)[:, None] + 0.5 * (t1 - t0)[:, None] * rule.points[None, :]
    w = (0.5 * (t1 - t0) * np.hypot(d[:, 0], d[:, 1]))[:, None] * rule.weights[None, :]
    pts = (p0[:, None, :] + t[:, :, None] * d[:, None, :]).reshape(-1, 2)
    w = w.reshape(-1)
    cell = np.repeat(cell, rule.n)
    if keep is not None:
        ok = keep(np.repeat(row, rule.n), pts)
        cell, pts, w = cell[ok], pts[ok], w[ok]
    bounds = np.searchsorted(cell, np.arange(len(cells) + 1))
    for (ix, iy), a, b in zip(cells, bounds[:-1], bounds[1:]):
        if b > a:
            Ke, fe = _accumulate_point_penalty(mesh, ix, iy, pts[a:b], w[a:b], pen, ncomp)
            yield ix, iy, (Ke, fe, int(b - a))


def reference_segment_penalty(mesh: StructuredMesh, ix: int, iy: int,
                              segments, pen: PenaltyParams, n_gauss: int,
                              ncomp: int = 1):
    """Penalty matrix/vector of one cell from explicit polyline segments.

    segments is an (m, 4) array of x0, y0, x1, y1 rows; this cell's view of
    assemble_reference_penalty (see _segment_cell_pairs).  Returns
    (Ke, fe, n_points).
    """
    return _first_pair(mesh, ncomp, _segment_cell_pairs(mesh, segments, pen, n_gauss, ncomp,
                                                        [(ix, iy)]))


# ---------------------------------------------------------------------------
# global assemblers


def _diffuse_cells(mesh: StructuredMesh, cloud: PointCloud, dparams: DistanceParams,
                   diff: DiffuseParams):
    """Cells the diffuse route integrates: those within reach of the layer
    and of the plane fit, i.e. whose interior can come within
    max(r, epsilon) of a cloud point."""
    reach = max(dparams.r, diff.epsilon) + 0.5 * float(np.hypot(mesh.hx, mesh.hy))
    cells = list(mesh.cells())
    bounds = np.array([mesh.cell_bounds(ix, iy) for ix, iy in cells])
    dist, _ = cloud.tree.query(0.5 * (bounds[:, :2] + bounds[:, 2:]), k=1)
    return [c for c, d in zip(cells, dist) if d <= reach]


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


def assemble_sharp_penalty(mesh: StructuredMesh, cloud: PointCloud, segments,
                           pen: PenaltyParams, n_gauss: int, ncomp: int = 1):
    """Global sharp penalty pair over reconstructed segments.

    segments is the output of collect_sharp_segments; the rule is laid on
    each clipped piece of every kept subsegment, and penalty_points counts
    the Gauss points that enter the integral.
    """
    unit = PenaltyParams(beta=1.0, u_hat=pen.u_hat)
    it = _sharp_cell_pairs(mesh, cloud, segments, unit, n_gauss, ncomp, mesh.cells())
    K, f, n = _assemble_cells(mesh, ncomp, pen.beta, it)
    return K, f, {"penalty_points": n}


def assemble_reference_penalty(mesh: StructuredMesh, segments, pen: PenaltyParams,
                               n_gauss: int, ncomp: int = 1):
    """Global reference penalty pair from explicit (m, 4) segments."""
    unit = PenaltyParams(beta=1.0, u_hat=pen.u_hat)
    it = _segment_cell_pairs(mesh, segments, unit, n_gauss, ncomp, mesh.cells())
    K, f, n = _assemble_cells(mesh, ncomp, pen.beta, it)
    return K, f, {"penalty_points": n}


def collect_sharp_segments(mesh: StructuredMesh, cloud: PointCloud,
                           dparams: DistanceParams, sparams: SharpParams):
    """The sharp boundary: kept subsegments of every contributing region.

    Every cell's query lattice names its regions, all cells in one
    identify_contributing_regions call; the union is reconstructed once (see
    _reconstruct).  Returns a list of BoundedSegment in lexicographic key
    order, one per kept region.
    """
    cells = np.array([mesh.cell_bounds(ix, iy) for ix, iy in mesh.cells()])
    keys = identify_contributing_regions(cells, cloud, dparams, sparams)
    return _reconstruct(cloud, keys, sparams)
