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
Integrate with per-point checks: Gauss points are laid once on every kept
subsegment, and each point enters only if it lies in its own region and in
the cell it is accumulated into (half-open cell membership), so pieces shared
between neighboring cells are never double counted, and a piece reaching into
a cell whose own lattice missed its region is still integrated there.  Points
sit on the reconstructed boundary itself, so nothing constrains the field
away from it, and far fewer points are needed than in the layer.

A reference integrator over explicit polyline segments serves as the ground
truth for both.
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
from .voronoi import region_keys_many

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
    halfdiag_factor scales the subcell half-diagonal in the pruning distance
    d_max = factor * halfdiag + r.
    """

    n_query: int
    n_sub: int
    n_gauss: int
    l_max: float
    test_grid: int = 3
    halfdiag_factor: float = 1.0

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
        a = self.support[None, :] + self.intervals[:, 0, None] * self.direction[None, :]
        b = self.support[None, :] + self.intervals[:, 1, None] * self.direction[None, :]
        return np.hstack([a, b])


def regularized_delta(t, epsilon: float):
    """Cosine-bump delta approximation with unit mass and support [-eps, eps]."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    arr = regularized_delta_raw(np.asarray(t, dtype=float), epsilon)
    return float(arr) if np.isscalar(t) else arr


# ---------------------------------------------------------------------------
# diffuse route


def diffuse_penalty_cell(mesh: StructuredMesh, ix: int, iy: int, cloud: PointCloud,
                         dparams: DistanceParams, diff: DiffuseParams,
                         pen: PenaltyParams, ncomp: int = 1):
    """Penalty matrix/vector of one cell via the regularized-delta layer.

    Returns (Ke, fe, n_points) in cell-local dense form; every leaf of the
    distance-driven tree is integrated, whether or not it sensed the layer.
    """
    bounds = mesh.cell_bounds(ix, iy)
    dist = lambda pts: pca_distance_many(cloud, pts, dparams)
    tree = build_diffuse_tree(bounds, dist, diff)
    rule = gauss_legendre_1d(diff.n_gauss)
    pts, wts, _ = tree_quadrature_points(tree, rule)
    d = pca_distance_many(cloud, pts, dparams)
    w = wts * regularized_delta_raw(d, diff.epsilon)
    return _accumulate_point_penalty(mesh, ix, iy, pts, w, pen, ncomp) + (pts.shape[0],)


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
    """Order-k Voronoi region keys whose regions may intersect a cell.

    A query quadtree over the cell keeps, per level, the subcells whose center
    distance does not exceed d_max = halfdiag_factor * halfdiag + r; the
    surviving deepest subcells are sampled on a cell-centered test grid and
    the keys at sample points within r of their nearest cloud point are
    collected (sample points beyond r lie outside the reconstruction zone).
    With r = inf no pruning or exclusion happens at all.

    Returns the unique keys in lexicographic order as a list of tuples.
    """
    active = np.asarray(cell_bounds, dtype=float).reshape(1, 4)
    prune = np.isfinite(dparams.r)
    for depth in range(sparams.n_query + 1):
        if active.shape[0] == 0:
            return []
        if prune:
            w = active[:, 2] - active[:, 0]
            h = active[:, 3] - active[:, 1]
            halfdiag = 0.5 * np.hypot(w[0], h[0])
            d_max = sparams.halfdiag_factor * halfdiag + dparams.r
            centers = np.column_stack([0.5 * (active[:, 0] + active[:, 2]),
                                       0.5 * (active[:, 1] + active[:, 3])])
            d = pca_distance_many(cloud, centers, dparams)
            active = active[d <= d_max]
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
    return [tuple(int(i) for i in row) for row in np.unique(keys, axis=0)]


def _bisect_batched(cloud: PointCloud, keys_arr, supports, tangents,
                    sparams: SharpParams, k: int):
    """Region-bounded subsegments for many regions at once.

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

    for level in range(sparams.n_sub + 1):
        if row.size == 0:
            break
        mid = 0.5 * (lo + hi)
        stacked_rows = np.concatenate([row, row, row])
        stacked_t = np.concatenate([lo, mid, hi])
        flags = contains(stacked_rows, stacked_t).reshape(3, row.size)
        all_in = flags.all(axis=0)
        none_in = ~flags.any(axis=0)
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

    Gauss points are laid once on every kept subsegment; a point enters a
    cell's pair only if it lies in its own region and in that cell
    (half-open against mesh.cell_bounds, closed at the mesh's upper edges).
    n_points counts the points that enter; cells with none are not yielded.
    """
    segments = [s for s in segments if s.intervals.size]
    if not segments:
        return
    rule = gauss_legendre_1d(n_gauss)
    keys_arr = np.asarray([s.key for s in segments], dtype=int)
    supports = np.asarray([s.support for s in segments])
    tangents = np.asarray([s.direction for s in segments])
    seg_row = np.repeat(np.arange(len(segments)), [s.intervals.shape[0] for s in segments])
    seg_lo, seg_hi = np.concatenate([s.intervals for s in segments]).T
    mid = 0.5 * (seg_lo + seg_hi)
    halflen = 0.5 * (seg_hi - seg_lo)
    t = mid[:, None] + halflen[:, None] * rule.points[None, :]
    w = halflen[:, None] * rule.weights[None, :]
    rows = np.repeat(seg_row, rule.n)
    tf = t.reshape(-1)
    wf = w.reshape(-1)
    pts = supports[rows] + tf[:, None] * tangents[rows]
    in_region = np.all(region_keys_many(cloud, pts, keys_arr.shape[1]) == keys_arr[rows],
                       axis=1)
    pts, wf = pts[in_region], wf[in_region]
    for ix, iy in cells:
        bounds = mesh.cell_bounds(ix, iy)
        ok_x = (pts[:, 0] >= bounds[0]) & (
            pts[:, 0] <= bounds[2] if ix == mesh.nx - 1 else pts[:, 0] < bounds[2])
        ok_y = (pts[:, 1] >= bounds[1]) & (
            pts[:, 1] <= bounds[3] if iy == mesh.ny - 1 else pts[:, 1] < bounds[3])
        ok = ok_x & ok_y
        n = int(ok.sum())
        if n:
            Ke, fe = _accumulate_point_penalty(mesh, ix, iy, pts[ok], wf[ok], pen, ncomp)
            yield ix, iy, (Ke, fe, n)


def sharp_penalty_cell(mesh: StructuredMesh, ix: int, iy: int, cloud: PointCloud,
                       dparams: DistanceParams, sparams: SharpParams,
                       pen: PenaltyParams, ncomp: int = 1):
    """Penalty matrix/vector of one cell via implicit Voronoi plane segments.

    Reconstructs the regions this cell's query lattice finds and integrates
    them over the cell (see _sharp_cell_pairs).  A region that only a
    neighboring cell's lattice finds is missing here, while
    assemble_sharp_penalty over collect_sharp_segments integrates it.
    Returns (Ke, fe, n_points).
    """
    keys = identify_contributing_regions(mesh.cell_bounds(ix, iy), cloud, dparams, sparams)
    segments = _reconstruct(cloud, keys, sparams)
    for _, _, pair in _sharp_cell_pairs(mesh, cloud, segments, pen, sparams.n_gauss,
                                        ncomp, [(ix, iy)]):
        return pair
    nmodes = (mesh.degree + 1) ** 2 * ncomp
    return np.zeros((nmodes, nmodes)), np.zeros(nmodes), 0


# ---------------------------------------------------------------------------
# reference route


def _clip_segments_to_rect(segs, bounds):
    """Liang-Barsky clip of (m, 4) segments to a rectangle.

    Returns (rows, t0, t1) for segments with a nonempty clipped parameter
    interval; parameter boundaries are computed with the same expressions in
    every cell, so adjacent cells partition each segment exactly.
    """
    p0 = segs[:, 0:2]
    d = segs[:, 2:4] - p0
    t0 = np.zeros(segs.shape[0])
    t1 = np.ones(segs.shape[0])
    ok = np.ones(segs.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate([(bounds[0], bounds[2]), (bounds[1], bounds[3])]):
        dv = d[:, axis]
        pv = p0[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - pv) / dv
            tb = (hi - pv) / dv
        enter = np.where(dv >= 0.0, ta, tb)
        leave = np.where(dv >= 0.0, tb, ta)
        par = dv == 0.0
        inside_slab = (pv >= lo) & (pv <= hi)
        enter = np.where(par, np.where(inside_slab, 0.0, 1.0), enter)
        leave = np.where(par, np.where(inside_slab, 1.0, 0.0), leave)
        t0 = np.maximum(t0, enter)
        t1 = np.minimum(t1, leave)
        ok &= inside_slab | ~par
    ok &= t1 > t0
    rows = np.nonzero(ok)[0]
    return rows, t0[rows], t1[rows]


def reference_segment_penalty(mesh: StructuredMesh, ix: int, iy: int,
                              segments, pen: PenaltyParams, n_gauss: int,
                              ncomp: int = 1):
    """Penalty matrix/vector of one cell from explicit polyline segments.

    segments is an (m, 4) array of x0, y0, x1, y1 rows; each is clipped to the
    cell and integrated with an n_gauss rule.  Segments running exactly along
    an interior cell interface are seen by both adjacent cells; keep explicit
    geometry off interior interfaces.
    """
    segs = np.asarray(segments, dtype=float).reshape(-1, 4)
    bounds = mesh.cell_bounds(ix, iy)
    rows, t0, t1 = _clip_segments_to_rect(segs, bounds)
    p = mesh.degree
    nmodes = (p + 1) ** 2 * ncomp
    if rows.size == 0:
        return np.zeros((nmodes, nmodes)), np.zeros(nmodes), 0
    rule = gauss_legendre_1d(n_gauss)
    p0 = segs[rows, 0:2]
    d = segs[rows, 2:4] - p0
    seglen = np.hypot(d[:, 0], d[:, 1])
    tm = 0.5 * (t0 + t1)[:, None] + 0.5 * (t1 - t0)[:, None] * rule.points[None, :]
    w = (0.5 * (t1 - t0) * seglen)[:, None] * rule.weights[None, :]
    pts = p0[:, None, :] + tm[:, :, None] * d[:, None, :]
    pts = pts.reshape(-1, 2)
    wf = w.reshape(-1)
    Ke, fe = _accumulate_point_penalty(mesh, ix, iy, pts, wf, pen, ncomp)
    return Ke, fe, pts.shape[0]


# ---------------------------------------------------------------------------
# global assemblers


def _cells_near_cloud(mesh: StructuredMesh, cloud: PointCloud, reach: float):
    """Cells whose interior can come within reach of a cloud point."""
    halfdiag = 0.5 * float(np.hypot(mesh.hx, mesh.hy))
    out = []
    centers = []
    for ix, iy in mesh.cells():
        b = mesh.cell_bounds(ix, iy)
        centers.append([0.5 * (b[0] + b[2]), 0.5 * (b[1] + b[3])])
        out.append((ix, iy))
    dist, _ = cloud.tree.query(np.asarray(centers), k=1)
    keep = dist <= reach + halfdiag
    return [c for c, k in zip(out, keep) if k]


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
    return (beta * K).tocsr(), beta * f, n_points


def assemble_diffuse_penalty(mesh: StructuredMesh, cloud: PointCloud,
                             dparams: DistanceParams, diff: DiffuseParams,
                             pen: PenaltyParams, ncomp: int = 1):
    """Global diffuse penalty pair (K, f) and the quadrature point count.

    beta scales the accumulated pair once at the end, so results for two
    betas differ by exactly that factor.
    """
    unit = PenaltyParams(beta=1.0, u_hat=pen.u_hat)
    reach = max(dparams.r, diff.epsilon)
    cells = _cells_near_cloud(mesh, cloud, reach)
    it = ((ix, iy, diffuse_penalty_cell(mesh, ix, iy, cloud, dparams, diff, unit, ncomp))
          for ix, iy in cells)
    K, f, n = _assemble_cells(mesh, ncomp, pen.beta, it)
    return K, f, {"penalty_points": n, "cells": len(cells)}


def assemble_sharp_penalty(mesh: StructuredMesh, cloud: PointCloud, segments,
                           pen: PenaltyParams, n_gauss: int, ncomp: int = 1):
    """Global sharp penalty pair over reconstructed segments.

    segments is the output of collect_sharp_segments; each kept subsegment
    carries an n_gauss rule, and penalty_points counts the Gauss points that
    enter the integral.
    """
    unit = PenaltyParams(beta=1.0, u_hat=pen.u_hat)
    it = _sharp_cell_pairs(mesh, cloud, segments, unit, n_gauss, ncomp, mesh.cells())
    K, f, n = _assemble_cells(mesh, ncomp, pen.beta, it)
    return K, f, {"penalty_points": n}


def assemble_reference_penalty(mesh: StructuredMesh, segments, pen: PenaltyParams,
                               n_gauss: int, ncomp: int = 1):
    """Global reference penalty pair from explicit segments."""
    unit = PenaltyParams(beta=1.0, u_hat=pen.u_hat)
    it = ((ix, iy, reference_segment_penalty(mesh, ix, iy, segments, unit, n_gauss, ncomp))
          for ix, iy in mesh.cells())
    K, f, n = _assemble_cells(mesh, ncomp, pen.beta, it)
    return K, f, {"penalty_points": n}


def collect_sharp_segments(mesh: StructuredMesh, cloud: PointCloud,
                           dparams: DistanceParams, sparams: SharpParams):
    """The sharp boundary: kept subsegments of every contributing region.

    Each cell's query lattice names its regions (identify_contributing_regions);
    the union is reconstructed once (see _reconstruct).  Returns a list of
    BoundedSegment in lexicographic key order, one per kept region.
    """
    keys = set()
    for ix, iy in mesh.cells():
        keys.update(identify_contributing_regions(mesh.cell_bounds(ix, iy), cloud,
                                                  dparams, sparams))
    return _reconstruct(cloud, sorted(keys), sparams)
