"""Diffuse and sharp penalty routes against each other and explicit geometry."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from pointcell import (AnnularConfig, DiffuseParams, DistanceParams, PenaltyParams, PointCloud,
                       SharpBoundaryWarning, SharpParams, StructuredMesh,
                       assemble_diffuse_penalty, assemble_reference_penalty,
                       assemble_sharp_penalty, bisect_plane_segments,
                       brute_force_regions_in_box, build_diffuse_tree, circle_cloud,
                       circle_polyline, collect_sharp_segments, default_membrane_params,
                       default_sharp_params, diffuse_penalty_cell,
                       gauss_legendre_1d, identify_contributing_regions,
                       pca_distance_many, region_keys_many,
                       regularized_delta_raw, sharp_penalty_cell, tree_quadrature_points)
from pointcell import eval_values, penalty, quadrature
from pointcell.fcm import scatter_cells
from pointcell.geometry import _knn_indices_many
from pointcell.quadrature import _split

_MESH1 = StructuredMesh((0.0, 0.0), (1.0, 1.0), 1, 1, 2)


def _reference_pair(segs, pen, n_gauss):
    """Dense reference (K, f) on _MESH1, whose one cell numbers its modes
    as the global dofs: the cell's pair, symmetrized."""
    K, f, _ = assemble_reference_penalty(_MESH1, segs, pen, n_gauss)
    return K.toarray(), f


def _line_cloud(y, spacing, lo=-0.5, hi=1.5):
    xs = np.arange(lo, hi + 0.5 * spacing, spacing)
    return PointCloud(np.column_stack([xs, np.full(xs.size, y)]))


def _const_mode_vector(mesh):
    """Scalar coefficients of the constant-one function (vertex modes only)."""
    w = np.zeros(mesh.n_scalar_dofs)
    n1 = mesh.degree + 1
    iy, ix = np.divmod(np.arange(mesh.nx * mesh.ny), mesh.nx)
    # every cell's modes N_a(x) N_b(y) with a, b in {0, 1}: its corners
    w[mesh.cell_dofs(ix, iy).reshape(-1, n1, n1)[:, :2, :2]] = 1.0
    return w


def _rel_frobenius(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def _membrane_512(degree=1):
    """The membrane workload's cloud, mesh and derived parameters."""
    return _on_square(PointCloud(circle_cloud(1.0, 512)), 16, degree)


def _annular_500():
    """The annular workload's cloud and mesh (AnnularConfig(n_points=500))."""
    c = AnnularConfig(n_points=500, degree=8, volume_depth=8)
    cloud = PointCloud(np.vstack([circle_cloud(c.r_inner, c.n_points),
                                  circle_cloud(c.r_outer, 4 * c.n_points)]))
    mesh = StructuredMesh((-c.extent, -c.extent), (2 * c.extent, 2 * c.extent),
                          c.n_cells, c.n_cells, 1)
    return mesh, cloud, DistanceParams(k=c.k, r=c.r), default_sharp_params(c)


def _circle_on_axes(radius=1.0):
    """64 points on a circle, four of them exactly on the axes."""
    pts = circle_cloud(radius, 64)
    pts[np.abs(pts) < 1e-12] = 0.0
    assert np.sum(pts == 0.0) == 4
    return PointCloud(pts)


def _on_square(cloud, n_cells, degree=1):
    """An n_cells x n_cells mesh of [-1.1, 1.1]^2, membrane parameters; for
    even n_cells the axes are cell interfaces."""
    dp, sp = default_membrane_params(cloud, n_cells=n_cells)
    mesh = StructuredMesh((-1.1, -1.1), (2.2, 2.2), n_cells, n_cells, degree)
    return mesh, cloud, dp, sp


_WORKLOADS = {
    "membrane-512": _membrane_512,
    "annular-500": _annular_500,
    "circle-128-phase": lambda: _on_square(PointCloud(circle_cloud(1.0, 128, phase=0.0467)), 2),
    "circle-on-interfaces": lambda: _on_square(_circle_on_axes(), 2),
}


# ---------------------------------------------------------------------------
# parameter containers


def test_penalty_values_scalar_and_callable():
    pts = np.array([[0.25, 0.0], [0.75, 0.0], [1.0, 0.0]])
    const = PenaltyParams(beta=1.0, u_hat=2.5).values(pts)
    assert const.shape == (3, 1)
    assert np.all(const == 2.5)
    got = PenaltyParams(beta=1.0, u_hat=lambda q: q[:, 0] ** 2).values(pts)
    np.testing.assert_allclose(got, pts[:, :1] ** 2)
    both = PenaltyParams(beta=1.0, u_hat=0.5).values(pts, ncomp=2)
    assert both.shape == (3, 2)
    assert np.all(both == 0.5)


@pytest.mark.parametrize("beta", [0.0, -1e6, np.nan, np.inf])
def test_penalty_params_reject_bad_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        PenaltyParams(beta=beta)


def test_diffuse_params_validation():
    with pytest.raises(ValueError):
        DiffuseParams(epsilon=0.0, n_sub=2, n_gauss=2)
    with pytest.raises(ValueError):
        DiffuseParams(epsilon=0.1, n_sub=-1, n_gauss=2)
    with pytest.raises(ValueError):
        DiffuseParams(epsilon=0.1, n_sub=2, n_gauss=0)


def test_sharp_params_validation():
    with pytest.raises(ValueError):
        SharpParams(n_query=-1, n_gauss=2, l_max=0.1)
    with pytest.raises(ValueError):
        SharpParams(n_query=2, n_gauss=2, l_max=0.1, test_grid=0)
    with pytest.raises(ValueError):
        SharpParams(n_query=2, n_gauss=0, l_max=0.1)


# ---------------------------------------------------------------------------
# contributing-region identification


def test_identify_line_cloud_matches_brute_force_exactly():
    """With pruning disabled the query lattice coincides bit for bit with the
    brute-force lattice on a dyadic cell, so the region sets must be equal."""
    cloud = _line_cloud(0.5, 0.05)
    dp = DistanceParams(k=4, r=np.inf)
    sp = SharpParams(n_query=5, n_gauss=1, l_max=1.0, test_grid=4)
    got = set(identify_contributing_regions((0.0, 0.0, 1.0, 1.0), cloud, dp, sp))
    want = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 4, 128)
    assert got == want
    assert len(got) == 20
    for key in got:
        assert key == tuple(range(key[0], key[0] + 4))


def test_identify_circle_cloud_matches_brute_force_exactly():
    # box side 4 keeps every lattice coordinate an exact dyadic value
    cloud = PointCloud(circle_cloud(1.0, 200))
    dp = DistanceParams(k=4, r=np.inf)
    sp = SharpParams(n_query=7, n_gauss=1, l_max=1.0, test_grid=4)
    got = set(identify_contributing_regions((-2.0, -2.0, 2.0, 2.0), cloud, dp, sp))
    want = brute_force_regions_in_box(cloud, ((-2.0, -2.0), (2.0, 2.0)), 4, 512)
    assert got == want
    assert len(got) > 100


def test_identify_radius_only_prunes():
    """A finite fit radius can only drop regions relative to the unpruned
    query, never invent new ones."""
    cloud = _line_cloud(0.5, 0.05)
    sp = SharpParams(n_query=5, n_gauss=1, l_max=1.0, test_grid=4)
    full = set(identify_contributing_regions((0.0, 0.0, 1.0, 1.0), cloud,
                                             DistanceParams(k=4, r=np.inf), sp))
    near = set(identify_contributing_regions((0.0, 0.0, 1.0, 1.0), cloud,
                                             DistanceParams(k=4, r=0.03), sp))
    assert near <= full
    assert (18, 19, 20, 21) in near


def _noisy_cloud(rng):
    """20-80 points: uniform, a noisy circle or a noisy line in the unit box."""
    n = int(rng.integers(20, 81))
    kind = rng.integers(3)
    if kind == 0:
        return PointCloud(rng.random((n, 2)))
    noise = rng.normal(0.0, 0.02, (n, 2))
    if kind == 1:
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        return PointCloud(0.5 + 0.3 * np.column_stack([np.cos(th), np.sin(th)]) + noise)
    x = rng.random(n)
    return PointCloud(np.column_stack([x, 0.5 + 0.2 * (x - 0.5)]) + noise)


def test_identify_pruning_keeps_every_key_of_the_full_lattice():
    """On noisy clouds the plane-fit distance can exceed the nearest-point
    distance; pruning must still keep every key the unpruned lattice finds
    within r of the cloud."""
    sp = SharpParams(n_query=5, n_gauss=1, l_max=0.1, test_grid=3)
    box = np.array([[0.0, 0.0, 1.0, 1.0]])
    lattice = box
    for _ in range(sp.n_query):
        lattice = _split(lattice)
    g = sp.test_grid
    pts = quadrature._lattice(lattice, (np.arange(g) + 0.5) / g).reshape(-1, 2)
    rng = np.random.default_rng(20240607)
    mismatched = []
    for i in range(60):
        cloud = _noisy_cloud(rng)
        dp = DistanceParams(k=int(rng.integers(2, 6)), r=float(rng.uniform(0.02, 0.2)))
        idx, dist = _knn_indices_many(cloud, pts, dp.k)
        want = {tuple(int(j) for j in row)
                for row in np.sort(idx[dist[:, 0] <= dp.r], axis=1)}
        got = set(identify_contributing_regions(box[0], cloud, dp, sp))
        if got != want:
            mismatched.append((i, len(want - got), len(got - want)))
    assert mismatched == []


@pytest.mark.parametrize("r", [0.05, np.inf])
def test_identify_on_no_cells_returns_no_keys(r):
    cloud = PointCloud(circle_cloud(0.3, 50, center=(0.5, 0.5)))
    sp = SharpParams(n_query=3, n_gauss=2, l_max=0.1)
    assert identify_contributing_regions(np.zeros((0, 4)), cloud,
                                         DistanceParams(k=4, r=r), sp) == []


@pytest.mark.parametrize("n_query", [0, 3])
def test_identify_on_cells_far_from_the_cloud_returns_no_keys(n_query):
    """At n_query 3 the roots are left unsplit above the sampled depth; at
    n_query 0 they are the sampled depth, and the last near test drops them."""
    cloud = PointCloud(circle_cloud(0.3, 50, center=(0.5, 0.5)))
    sp = SharpParams(n_query=n_query, n_gauss=2, l_max=0.1)
    cells = np.array([[5.0, 5.0, 6.0, 6.0], [-3.0, -3.0, -2.0, -2.0]])
    assert identify_contributing_regions(cells, cloud, DistanceParams(k=4, r=0.05), sp) == []


def test_identify_returns_sorted_unique_keys():
    cloud = _line_cloud(0.5, 0.05)
    dp = DistanceParams(k=4, r=np.inf)
    sp = SharpParams(n_query=4, n_gauss=1, l_max=1.0, test_grid=3)
    keys = identify_contributing_regions((0.0, 0.0, 1.0, 1.0), cloud, dp, sp)
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("name", _WORKLOADS)
def test_identify_all_cells_at_once_is_the_union_of_one_cell_calls(name):
    mesh, cloud, dp, sp = _WORKLOADS[name]()
    cells = np.array([mesh.cell_bounds(ix, iy) for ix, iy in mesh.cells()])
    union = set()
    for bounds in cells:
        one = identify_contributing_regions(bounds, cloud, dp, sp)
        assert one == identify_contributing_regions(bounds[None], cloud, dp, sp)
        union.update(one)
    assert identify_contributing_regions(cells, cloud, dp, sp) == sorted(union)


def test_identify_far_cell_finds_nothing():
    mesh, cloud, dp, sp = _membrane_512()
    far = np.array([[5.0, 5.0, 5.1, 5.1]])
    assert identify_contributing_regions(far[0], cloud, dp, sp) == []
    assert identify_contributing_regions(far, cloud, dp, sp) == []


# ---------------------------------------------------------------------------
# plane-segment clipping


def test_bisect_consecutive_region_width():
    """For an equispaced straight cloud the order-4 region of 4 consecutive
    points is one spacing wide; the exact clip recovers it to round-off."""
    cloud = _line_cloud(0.5, 0.05)
    sp = SharpParams(n_query=5, n_gauss=2, l_max=0.2, test_grid=4)
    seg = bisect_plane_segments(cloud, (18, 19, 20, 21), sp)
    assert seg is not None
    assert seg.total_length == pytest.approx(0.05, abs=1e-15)
    assert seg.intervals.shape == (1, 2)


def test_bisect_whole_segment_when_region_never_ends():
    # k = n: the region is the whole plane, only the cap of 3 key spacings
    # (here 3 x 10) trims the piece
    cloud = PointCloud(np.array([[0.0, 0.0], [10.0, 0.0]]))
    sp = SharpParams(n_query=3, n_gauss=2)
    seg = bisect_plane_segments(cloud, (0, 1), sp)
    assert seg.total_length == 30.0
    np.testing.assert_array_equal(seg.intervals, [[-15.0, 15.0]])
    ends = np.sort(seg.endpoints()[0].reshape(2, 2), axis=0)
    np.testing.assert_allclose(ends, [[-10.0, 0.0], [20.0, 0.0]], atol=1e-15)


def test_bisect_isotropic_fit_warns_and_skips():
    cloud = PointCloud(np.array([[0.2, 0.2], [0.8, 0.2], [0.2, 0.8], [0.8, 0.8]]))
    sp = SharpParams(n_query=3, n_gauss=2, l_max=1.0)
    with pytest.warns(SharpBoundaryWarning):
        seg = bisect_plane_segments(cloud, (0, 1, 2, 3), sp)
    assert seg is None


def test_bisect_support_outside_region_warns_and_skips():
    """A non-adjacent index pair of a straight cloud has an empty order-2
    region (its centroid lies in another one), so its line misses it."""
    xs = np.arange(6, dtype=float)
    cloud = PointCloud(np.column_stack([xs, np.zeros(6)]))
    sp = SharpParams(n_query=3, n_gauss=2, l_max=1.0)
    with pytest.warns(SharpBoundaryWarning):
        seg = bisect_plane_segments(cloud, (0, 5), sp)
    assert seg is None


@pytest.mark.parametrize("key", [(0, 2, 3), (2, 3, 5)])
def test_bisect_parallel_bisector_beyond_the_line_skips(key):
    """On this lattice cloud a bisector parallel to the region's line, with
    the line on its far side, excludes the whole line: the clip finds no
    piece.  Without that rule it kept one lying in another region."""
    cloud = PointCloud(np.array([[0, 2], [1, 0], [2, 0], [2, 4], [3, 4], [4, 2]], dtype=float))
    sp = SharpParams(n_query=3, n_gauss=2, l_max=1.0)
    with pytest.warns(SharpBoundaryWarning, match="1 line misses its region"):
        seg = bisect_plane_segments(cloud, key, sp)
    assert seg is None


def _jittered_circle():
    """300 points on the unit circle, each moved up to 0.2 spacings."""
    h = 2.0 * np.pi / 300
    jitter = np.random.default_rng(7).uniform(-0.2 * h, 0.2 * h, (300, 2))
    return PointCloud(circle_cloud(1.0, 300) + jitter)


def _lattice(n, spacing, rim_only=False):
    """An n x n lattice centred on the origin (dyadic, so distances tie
    exactly), or its 4 (n - 1) rim points."""
    g = spacing * (np.arange(n) - 0.5 * (n - 1))
    xx, yy = np.meshgrid(g, g, indexing="ij")
    keep = (np.abs(xx) == g[-1]) | (np.abs(yy) == g[-1]) if rim_only else np.full(xx.shape, True)
    return PointCloud(np.column_stack([xx[keep], yy[keep]]))


def _circle_with_ulp_copies():
    """200 points on the unit circle and copies of 10 of them moved 1 ulp in x."""
    pts = circle_cloud(1.0, 200)
    copies = pts[::20].copy()
    copies[:, 0] = np.nextafter(copies[:, 0], np.inf)
    return PointCloud(np.vstack([pts, copies]))


_CERTIFIED = {
    "membrane-512": _membrane_512,
    "annular-500": _annular_500,
    "jittered-circle-300": lambda: _on_square(_jittered_circle(), 4),
    "lattice-square-rim-32": lambda: _on_square(_lattice(9, 0.25, rim_only=True), 8),
    "lattice-11x11": lambda: _on_square(_lattice(11, 0.125), 4),
    "circle-200-ulp-copies": lambda: _on_square(_circle_with_ulp_copies(), 4),
    "line-on-interface-41": lambda: _on_square(
        PointCloud(np.column_stack([np.linspace(-1.0, 1.0, 41), np.zeros(41)])), 2),
}


def _scan_keys(points, xs, k):
    """Order-k keys of xs by a linear scan, ties broken by ascending index."""
    keys = []
    for start in range(0, xs.shape[0], 512):
        d2 = np.sum((xs[start:start + 512, None] - points[None]) ** 2, axis=2)
        keys.append(np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1))
    return np.concatenate(keys)


@pytest.mark.filterwarnings("ignore::pointcell.SharpBoundaryWarning")
@pytest.mark.parametrize("name", _CERTIFIED)
def test_clipped_piece_is_the_regions_piece_of_the_line(name):
    """A linear scan with the index tie rule puts both ends of every kept
    piece (moved 1e-7 of its length inward) and its midpoint in the piece's
    region, and a point 1e-7 of its length beyond each end outside it,
    unless the clamp at half the region's cap set that end."""
    mesh, cloud, dp, sp = _CERTIFIED[name]()
    segments = collect_sharp_segments(mesh, cloud, dp, sp)
    assert segments
    probes, owners, inside = [], [], []
    for seg in segments:
        (lo, hi), = seg.intervals
        reach = np.sqrt(np.max(np.sum((cloud.points[list(seg.key)] - seg.support) ** 2,
                                      axis=1)))
        half = 0.5 * (3.0 * 2.0 * reach / (dp.k - 1))
        eps = 1e-7 * (hi - lo)
        ts = [(lo + eps, True), (0.5 * (lo + hi), True), (hi - eps, True)]
        if lo > -half:
            ts.append((lo - eps, False))
        if hi < half:
            ts.append((hi + eps, False))
        t, want = np.array(ts).T
        probes.append(seg.support + t[:, None] * seg.direction)
        owners += [seg.key] * t.size
        inside += list(want.astype(bool))
    got = np.all(_scan_keys(cloud.points, np.concatenate(probes), dp.k) == owners, axis=1)
    assert [key for key, g, w in zip(owners, got, inside) if g != w] == []


@pytest.mark.filterwarnings("ignore::pointcell.SharpBoundaryWarning")
def test_near_duplicates_keep_the_length_of_the_plain_circle():
    """1-ulp copies of 10 of 200 circle points split regions, but the clip
    keeps the length of the circle without them to 1e-4 relative."""
    want = sum(s.total_length for s in collect_sharp_segments(
        *_on_square(PointCloud(circle_cloud(1.0, 200)), 4)))
    got = sum(s.total_length for s in collect_sharp_segments(
        *_on_square(_circle_with_ulp_copies(), 4)))
    assert want == pytest.approx(6.279827, rel=1e-6)
    assert got == pytest.approx(want, rel=1e-4)


def _density_step(n_dense, n_sparse=256):
    """A unit circle with n_dense equispaced points on its upper half and
    n_sparse on its lower half."""
    th = np.pi * np.concatenate([np.arange(n_dense) / n_dense,
                                 1.0 + np.arange(n_sparse) / n_sparse])
    return PointCloud(np.column_stack([np.cos(th), np.sin(th)]))


@pytest.mark.parametrize("n_dense", [512, 1024, 2048])
def test_density_step_keeps_the_circle_length(n_dense):
    """Each region caps its piece at 3 of its own key's spacings, so both
    halves of a circle with a 2:1, 4:1 or 8:1 density step keep their
    length, to 2e-3 of 2 pi on 16 x 16 cells, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", SharpBoundaryWarning)
        segments = collect_sharp_segments(*_on_square(_density_step(n_dense), 16))
    assert sum(s.total_length for s in segments) == pytest.approx(2.0 * np.pi, rel=2e-3)


@pytest.mark.parametrize("cloud,r_over_h", [
    (lambda: PointCloud(circle_cloud(1.0, 512)), 0.25),
    (lambda: PointCloud(circle_cloud(1.0, 512)), 24.0),
    (lambda: PointCloud(circle_cloud(1.0, 512, phase=0.0071)), 3.0),
    (lambda: _density_step(1024), 0.25),
    (lambda: _density_step(1024), 3.0),
], ids=["membrane-512-quarter-h", "membrane-512-24h", "membrane-512-phase-3h",
        "step-4-quarter-h", "step-4-3h"])
def test_derived_query_depth_finds_the_keys_of_a_finer_lattice(cloud, r_over_h):
    """At the derived depth (sample pitch at most min(h, 2r)/2) identification
    finds exactly the keys of a lattice two levels finer, for a fit radius
    below, at and far above the spacing h."""
    cloud = cloud()
    h = float(np.median(cloud.tree.query(cloud.points, k=2)[0][:, 1]))
    dp, sp = default_membrane_params(cloud, r=r_over_h * h)
    mesh = StructuredMesh((-1.1, -1.1), (2.2, 2.2), 16, 16, 1)
    cells = mesh.cell_bounds(*mesh.cell_index())
    finer = dataclasses.replace(sp, n_query=sp.n_query + 2)
    assert (identify_contributing_regions(cells, cloud, dp, sp)
            == identify_contributing_regions(cells, cloud, dp, finer))


def test_unused_sharp_fields_change_no_segment():
    """l_max and n_sub still construct, for callers that pass them, and no
    segment depends on them."""
    mesh, cloud, dp, sp = _membrane_512()
    want = penalty._segment_rows(collect_sharp_segments(mesh, cloud, dp, sp))
    for l_max, n_sub in [(1e-3, 1), (10.0, 6)]:
        unused = SharpParams(n_query=sp.n_query, n_gauss=sp.n_gauss, l_max=l_max, n_sub=n_sub)
        got = penalty._segment_rows(collect_sharp_segments(mesh, cloud, dp, unused))
        assert got.tobytes() == want.tobytes()


def test_collect_segments_covers_embedded_line():
    cloud = _line_cloud(0.5, 0.05)
    dp = DistanceParams(k=4, r=np.inf)
    sp = SharpParams(n_query=5, n_gauss=2, l_max=0.2, test_grid=4)
    segs = collect_sharp_segments(_MESH1, cloud, dp, sp)
    keys = [s.key for s in segs]
    assert keys == sorted(set(keys))
    total = sum(s.total_length for s in segs)
    assert abs(total - 1.0) <= 0.1
    # spot-check one region against a direct one-region call
    one = next(s for s in segs if s.key == (18, 19, 20, 21))
    direct = bisect_plane_segments(cloud, (18, 19, 20, 21), sp)
    np.testing.assert_array_equal(one.intervals, direct.intervals)


# ---------------------------------------------------------------------------
# cell-level operators


def test_sharp_cell_constant_mode_integrates_length():
    """The penalty quadratic form of the constant-one mode is the embedded
    boundary length inside the cell (unit beta), to round-off."""
    cloud = _line_cloud(0.3, 1e-3)
    dp = DistanceParams(k=4, r=0.01)
    sp = SharpParams(n_query=9, n_gauss=4, l_max=3e-3)
    Ke, fe, n = sharp_penalty_cell(_MESH1, 0, 0, cloud, dp, sp, PenaltyParams(beta=1.0))
    w = np.zeros(9)
    w[[0, 1, 3, 4]] = 1.0
    q = w @ Ke @ w
    assert abs(q - 1.0) <= 1e-12
    assert n > 0


def test_sharp_cells_partition_without_double_counting():
    """A segment crossing a shared cell edge contributes each piece to
    exactly one cell (half-open membership)."""
    mesh = StructuredMesh((0.0, 0.0), (2.0, 1.0), 2, 1, 2)
    cloud = _line_cloud(0.3, 1e-3, lo=-0.5, hi=2.5)
    dp = DistanceParams(k=4, r=0.01)
    sp = SharpParams(n_query=9, n_gauss=4, l_max=3e-3)
    w = np.zeros(9)
    w[[0, 1, 3, 4]] = 1.0
    total = 0.0
    for ix in (0, 1):
        Ke, _, _ = sharp_penalty_cell(mesh, ix, 0, cloud, dp, sp, PenaltyParams(beta=1.0))
        q = w @ Ke @ w
        assert abs(q - 1.0) <= 1e-12
        total += q
    assert abs(total - 2.0) <= 2e-12


def test_sharp_cell_matches_reference_segment():
    """Clipped Voronoi segments of a straight cloud tile the line, so they
    reproduce the exact chord integral to round-off."""
    cloud = _line_cloud(0.3, 1e-3)
    dp = DistanceParams(k=4, r=0.01)
    sp = SharpParams(n_query=9, n_gauss=10, l_max=3e-3)
    Ks, _, _ = sharp_penalty_cell(_MESH1, 0, 0, cloud, dp, sp, PenaltyParams(beta=1.0))
    segs = np.array([[-0.5, 0.3, 1.5, 0.3]])
    Kr = _reference_pair(segs, PenaltyParams(beta=1.0), 10)[0]
    assert _rel_frobenius(Ks, Kr) <= 1e-12


def test_diffuse_cell_matches_reference_segment():
    """At small layer width the diffuse mass collapses onto the line."""
    cloud = _line_cloud(0.3, 1e-3)
    dp = DistanceParams(k=4, r=0.01)
    diff = DiffuseParams(epsilon=5e-4, n_sub=11, n_gauss=8)
    Kd, _, n = diffuse_penalty_cell(_MESH1, 0, 0, cloud, dp, diff, PenaltyParams(beta=1.0))
    segs = np.array([[-0.5, 0.3, 1.5, 0.3]])
    Kr = _reference_pair(segs, PenaltyParams(beta=1.0), 10)[0]
    assert _rel_frobenius(Kd, Kr) <= 1e-3
    assert n > 1000


def _diffuse_cell_unfiltered(mesh, ix, iy, cloud, dp, diff, pen, ncomp=1):
    """The former diffuse_penalty_cell, kept as the oracle: every placed
    Gauss point, weighted or not, enters the accumulation."""
    dist = lambda pts: pca_distance_many(cloud, pts, dp)
    tree = build_diffuse_tree(mesh.cell_bounds(ix, iy), dist, diff)
    pts, wts, _ = tree_quadrature_points(tree, gauss_legendre_1d(diff.n_gauss))
    w = wts * regularized_delta_raw(pca_distance_many(cloud, pts, dp), diff.epsilon)
    return penalty._accumulate_point_penalty(mesh, ix, iy, pts, w, pen, ncomp) + (pts.shape[0],)


@pytest.mark.parametrize("ncomp", [1, 2])
def test_diffuse_cell_integrates_only_weighted_points(ncomp):
    """Dropping the points outside the layer, whose weights are exact zeros,
    moves K and f by round-off only (1e-14, relative Frobenius), and every
    placed point is still counted."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 2, 2, 4)
    cloud = PointCloud(circle_cloud(0.3, 200, center=(0.5, 0.5)))
    dp = DistanceParams(k=4, r=0.05)
    diff = DiffuseParams(epsilon=0.02, n_sub=5, n_gauss=4)
    pen = PenaltyParams(beta=1.0, u_hat=lambda q: np.column_stack([q[:, 0], 1.0 - q[:, 1]])[:, :ncomp])
    for ix, iy in mesh.cells():
        Ke, fe, n = diffuse_penalty_cell(mesh, ix, iy, cloud, dp, diff, pen, ncomp)
        want_K, want_f, want_n = _diffuse_cell_unfiltered(mesh, ix, iy, cloud, dp, diff, pen, ncomp)
        assert n == want_n
        assert _rel_frobenius(Ke, want_K) <= 1e-14
        assert _rel_frobenius(fe, want_f) <= 1e-14


def test_cell_operators_scale_exactly_with_beta():
    cloud = _line_cloud(0.5, 0.05)
    dp = DistanceParams(k=4, r=1.0)
    diff = DiffuseParams(epsilon=0.05, n_sub=4, n_gauss=3)
    pen1 = PenaltyParams(beta=3.0, u_hat=1.0)
    pen2 = PenaltyParams(beta=6.0, u_hat=1.0)
    K1, f1, _ = diffuse_penalty_cell(_MESH1, 0, 0, cloud, dp, diff, pen1)
    K2, f2, _ = diffuse_penalty_cell(_MESH1, 0, 0, cloud, dp, diff, pen2)
    np.testing.assert_array_equal(K2, 2.0 * K1)
    np.testing.assert_array_equal(f2, 2.0 * f1)
    segs = np.array([[-0.5, 0.5, 1.5, 0.5]])
    Kr1, fr1 = _reference_pair(segs, pen1, 4)
    Kr2, fr2 = _reference_pair(segs, pen2, 4)
    np.testing.assert_array_equal(Kr2, 2.0 * Kr1)
    np.testing.assert_array_equal(fr2, 2.0 * fr1)


def test_sharp_cell_isotropic_cloud_warns_and_contributes_nothing():
    cloud = PointCloud(np.array([[0.2, 0.2], [0.8, 0.2], [0.2, 0.8], [0.8, 0.8]]))
    dp = DistanceParams(k=4, r=np.inf)
    sp = SharpParams(n_query=3, n_gauss=2, l_max=1.0)
    with pytest.warns(SharpBoundaryWarning):
        Ke, fe, n = sharp_penalty_cell(_MESH1, 0, 0, cloud, dp, sp, PenaltyParams(beta=1.0))
    assert np.all(Ke == 0.0)
    assert np.all(fe == 0.0)
    assert n == 0


# ---------------------------------------------------------------------------
# assemblers


def test_reference_assembler_square_perimeter():
    """Constant mode against the unit-square rim: the quadratic form is
    beta times the perimeter, exactly split across cells by clipping."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 2, 2, 2)
    segs = np.array([[0.0, 0.0, 1.0, 0.0],
                     [1.0, 0.0, 1.0, 1.0],
                     [1.0, 1.0, 0.0, 1.0],
                     [0.0, 1.0, 0.0, 0.0]])
    pen = PenaltyParams(beta=7.0, u_hat=1.0)
    K, f, stats = assemble_reference_penalty(mesh, segs, pen, n_gauss=3)
    w = _const_mode_vector(mesh)
    assert w @ (K @ w) == pytest.approx(28.0, rel=1e-12)
    assert w @ f == pytest.approx(28.0, rel=1e-12)
    assert stats["penalty_points"] == 8 * 3


_COORD = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@given(p=st.integers(min_value=1, max_value=4),
       segs=st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=6))
def test_vector_penalty_is_kron_of_scalar(p, segs):
    """A two-component penalty is the scalar one on each component: K is
    kron(K_scalar, I_2) and f interleaves the two scalar loads."""
    mesh = StructuredMesh((0.0, 0.0), (2.0, 2.0), 2, 2, p)
    segs = np.array(segs)
    g0 = lambda q: 1.0 + q[:, 0] * q[:, 1]
    g1 = lambda q: np.cos(q[:, 0]) - q[:, 1]
    K, f, _ = assemble_reference_penalty(
        mesh, segs, PenaltyParams(beta=3.0, u_hat=lambda q: np.column_stack([g0(q), g1(q)])),
        n_gauss=p + 1, ncomp=2)
    K0, f0, _ = assemble_reference_penalty(mesh, segs, PenaltyParams(beta=3.0, u_hat=g0),
                                           n_gauss=p + 1)
    _, f1, _ = assemble_reference_penalty(mesh, segs, PenaltyParams(beta=3.0, u_hat=g1),
                                          n_gauss=p + 1)
    np.testing.assert_allclose(K.toarray(), sp.kron(K0, np.eye(2)).toarray(), rtol=1e-13)
    # entries that cancel to round-off are held to the load's scale
    want = np.column_stack([f0, f1]).reshape(-1)
    np.testing.assert_allclose(f, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_assemblers_scale_exactly_with_beta_power_of_two():
    cloud = _line_cloud(0.5, 0.05)
    dp = DistanceParams(k=4, r=1.0)
    diff = DiffuseParams(epsilon=0.05, n_sub=4, n_gauss=3)
    sp = SharpParams(n_query=4, n_gauss=2, l_max=0.2, test_grid=3)
    for assemble in (
        lambda pen: assemble_diffuse_penalty(_MESH1, cloud, dp, diff, pen),
        lambda pen: assemble_sharp_penalty(
            _MESH1, collect_sharp_segments(_MESH1, cloud, dp, sp), pen, sp.n_gauss),
    ):
        K1, f1, _ = assemble(PenaltyParams(beta=32.0, u_hat=1.0))
        K2, f2, _ = assemble(PenaltyParams(beta=64.0, u_hat=1.0))
        np.testing.assert_array_equal(K2.toarray(), 2.0 * K1.toarray())
        np.testing.assert_array_equal(f2, 2.0 * f1)


def test_diffuse_assembler_stats_and_cell_consistency():
    cloud = _line_cloud(0.5, 0.05)
    dp = DistanceParams(k=4, r=0.1)
    diff = DiffuseParams(epsilon=0.02, n_sub=5, n_gauss=3)
    pen = PenaltyParams(beta=2.0, u_hat=0.0)
    K, f, stats = assemble_diffuse_penalty(_MESH1, cloud, dp, diff, pen)
    Ke, fe, n = diffuse_penalty_cell(_MESH1, 0, 0, cloud, dp, diff, pen)
    np.testing.assert_allclose(K.toarray(), Ke, rtol=1e-15)
    assert stats == {"penalty_points": n, "cells": 1}


def _assert_sharp_assembler_matches_cell_sum(mesh, cloud, dp, sp, pen):
    segments = collect_sharp_segments(mesh, cloud, dp, sp)
    K, f, stats = assemble_sharp_penalty(mesh, segments, pen, sp.n_gauss)
    n_total = 0
    dense = np.zeros((mesh.n_scalar_dofs, mesh.n_scalar_dofs))
    rhs = np.zeros(mesh.n_scalar_dofs)
    for ix, iy in mesh.cells():
        Ke, fe, n = sharp_penalty_cell(mesh, ix, iy, cloud, dp, sp, pen)
        dofs = mesh.cell_dofs(ix, iy)
        dense[np.ix_(dofs, dofs)] += Ke
        rhs[dofs] += fe
        n_total += n
    np.testing.assert_allclose(K.toarray(), dense, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(f, rhs, rtol=1e-12, atol=1e-13)
    assert stats["penalty_points"] == n_total
    return segments


def test_sharp_assembler_matches_cell_sum():
    mesh = StructuredMesh((0.0, 0.0), (2.0, 1.0), 2, 1, 2)
    cloud = _line_cloud(0.4, 0.02, lo=-0.5, hi=2.5)
    dp = DistanceParams(k=4, r=0.1)
    sp = SharpParams(n_query=5, n_gauss=3, l_max=0.06, test_grid=3)
    pen = PenaltyParams(beta=5.0, u_hat=1.0)
    _assert_sharp_assembler_matches_cell_sum(mesh, cloud, dp, sp, pen)

    # A circle crossing both interior interfaces of a 2 x 2 mesh: regions
    # near the crossings are found by several cells but reconstructed once.
    mesh = StructuredMesh((0.0, 0.0), (2.0, 2.0), 2, 2, 3)
    cloud = PointCloud(circle_cloud(0.6, 120, center=(1.0, 1.0), phase=0.01))
    h = 2.0 * np.pi * 0.6 / 120
    sp = SharpParams(n_query=5, n_gauss=3, l_max=3.0 * h, test_grid=3)
    pen = PenaltyParams(beta=5.0, u_hat=lambda q: q[:, 0] - 2.0 * q[:, 1])
    found = [set(identify_contributing_regions(mesh.cell_bounds(ix, iy), cloud, dp, sp))
             for ix, iy in mesh.cells()]
    assert sum(len(keys) for keys in found) > len(set.union(*found))
    segments = _assert_sharp_assembler_matches_cell_sum(mesh, cloud, dp, sp, pen)
    keys = [s.key for s in segments]
    assert keys == sorted(set(keys)) == sorted(set.union(*found))
    for seg in segments:
        direct = bisect_plane_segments(cloud, seg.key, sp)
        np.testing.assert_array_equal(seg.support, direct.support)
        np.testing.assert_array_equal(seg.direction, direct.direction)
        np.testing.assert_array_equal(seg.intervals, direct.intervals)


def test_sharp_assembler_integrates_regions_a_cell_query_missed():
    """Where the circle crosses an interface, some regions reach into a cell
    whose own query lattice never sampled them.  The boundary is one object:
    each segment is split at the interfaces x = 0 and y = 0, the rule is
    laid on each part, and every Gauss point, each in its own region, enters
    the cell it lies in, so the assembled mass of the constant mode is the
    total weight."""
    mesh = StructuredMesh((-1.2, -1.2), (2.4, 2.4), 2, 2, 1)
    h = 2.0 * np.pi / 128
    cloud = PointCloud(circle_cloud(1.0, 128, phase=0.0467))
    dp = DistanceParams(k=4, r=3.0 * h)
    sp = SharpParams(n_query=5, n_gauss=6, l_max=3.0 * h)
    segments = collect_sharp_segments(mesh, cloud, dp, sp)
    found = {cell: set(identify_contributing_regions(mesh.cell_bounds(*cell), cloud, dp, sp))
             for cell in mesh.cells()}
    rule = gauss_legendre_1d(sp.n_gauss)
    pts, wts, owner = [], [], []
    for seg in segments:
        with np.errstate(divide="ignore"):
            t_cross = -seg.support / seg.direction
        for lo, hi in seg.intervals:
            cuts = np.sort([lo, hi, *(t for t in t_cross if lo < t < hi)])
            for a, b in zip(cuts[:-1], cuts[1:]):
                t = 0.5 * (a + b) + 0.5 * (b - a) * rule.points
                pts.append(seg.support + t[:, None] * seg.direction)
                wts.append(0.5 * (b - a) * rule.weights)
                owner.extend([seg.key] * rule.n)
    pts, wts, owner = np.concatenate(pts), np.concatenate(wts), np.asarray(owner)
    assert np.all(region_keys_many(cloud, pts, dp.k) == owner)
    missed = 0
    for (x, y), key in zip(pts, owner):
        cell = (int((x + 1.2) // mesh.hx), int((y + 1.2) // mesh.hy))
        missed += tuple(int(i) for i in key) not in found[cell]
    assert missed > 0
    _, f, stats = assemble_sharp_penalty(mesh, segments, PenaltyParams(beta=1.0, u_hat=1.0),
                                         sp.n_gauss)
    assert np.sum(f) == pytest.approx(float(np.sum(wts)), rel=1e-12)
    assert stats["penalty_points"] == wts.size


def _circle_on_vertices():
    """The radius-0.55 circle of 64 points over an 8 x 8 mesh of [-1.1, 1.1]^2:
    its four axis points lie on cell interfaces, at mesh vertices."""
    mesh, cloud, dp, sp = _on_square(_circle_on_axes(0.55), 8, degree=3)
    edges = mesh.origin[0] + mesh.hx * np.arange(mesh.nx + 1)
    assert {0.0, 0.55, -0.55} <= set(edges)
    return mesh, cloud, dp, sp


@pytest.mark.parametrize("case", [lambda: _membrane_512(degree=3), _circle_on_vertices],
                         ids=["membrane-512", "circle-on-vertices"])
def test_sharp_constant_mode_mass_is_the_reconstructed_length(case):
    """With unit vertex dofs, beta = 1 and u_hat = 1, 1^T K 1 and 1^T f are
    the total length of the kept segments: every Gauss weight enters, once."""
    mesh, cloud, dp, sp = case()
    segments = collect_sharp_segments(mesh, cloud, dp, sp)
    K, f, _ = assemble_sharp_penalty(mesh, segments, PenaltyParams(beta=1.0, u_hat=1.0),
                                     sp.n_gauss)
    w = _const_mode_vector(mesh)
    length = sum(s.total_length for s in segments)
    assert w @ (K @ w) == pytest.approx(length, rel=1e-12)
    assert w @ f == pytest.approx(length, rel=1e-12)


def test_sharp_rule_is_exact_on_pieces_crossing_cell_edges():
    """The rule is laid on each clipped piece, so a polynomial integrand is
    integrated exactly on both sides of a cell edge: over a straight cloud,
    sharp K and f equal the reference chord's to round-off."""
    h = 0.07
    mesh = StructuredMesh((0.0, 0.0), (2.0, 1.0), 2, 1, 3)
    cloud = _line_cloud(0.3, h, lo=-0.5, hi=2.5)
    dp = DistanceParams(k=4, r=10.0 * h)
    sp = SharpParams(n_query=9, n_gauss=4, l_max=3.0 * h)
    pen = PenaltyParams(beta=1.0, u_hat=lambda q: q[:, 0] ** 2)
    segments = collect_sharp_segments(mesh, cloud, dp, sp)
    Ks, fs, _ = assemble_sharp_penalty(mesh, segments, pen, sp.n_gauss)
    Kr, fr, _ = assemble_reference_penalty(mesh, np.array([[-0.5, 0.3, 2.5, 0.3]]), pen,
                                           sp.n_gauss)
    assert _rel_frobenius(Ks.toarray(), Kr.toarray()) <= 1e-12
    assert _rel_frobenius(fs, fr) <= 1e-12


def test_boundary_on_interior_interface_counted_once():
    """Geometry lying exactly on an interior cell interface belongs to the
    cell above it only (half-open cells), in both segment routes."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 2.0), 1, 2, 2)
    w = _const_mode_vector(mesh)
    pen = PenaltyParams(beta=1.0, u_hat=1.0)
    K, f, stats = assemble_reference_penalty(mesh, np.array([[0.0, 1.0, 1.0, 1.0]]), pen, 3)
    assert w @ (K @ w) == pytest.approx(1.0, rel=1e-12)
    assert w @ f == pytest.approx(1.0, rel=1e-12)
    assert stats["penalty_points"] == 3
    cloud = _line_cloud(1.0, 0.05)
    dp = DistanceParams(k=4, r=0.1)
    sp = SharpParams(n_query=5, n_gauss=3, l_max=0.15)
    segments = collect_sharp_segments(mesh, cloud, dp, sp)
    K, f, _ = assemble_sharp_penalty(mesh, segments, pen, sp.n_gauss)
    assert abs(w @ (K @ w) - 1.0) <= 1e-12
    we = np.zeros(9)
    we[[0, 1, 3, 4]] = 1.0
    for iy, want in ((0, 0.0), (1, 1.0)):
        Ke, _, _ = sharp_penalty_cell(mesh, 0, iy, cloud, dp, sp, pen)
        assert abs(we @ Ke @ we - want) <= 1e-12


# ---------------------------------------------------------------------------
# the segment splitter against a per-cell Liang-Barsky clip


def _liang_barsky(segs, bounds, closed):
    """Liang-Barsky clip (ACM TOG 3(1), 1984) of (m, 4) segments to the
    rectangle [x0, x1) x [y0, y1), closed at x1 and y1 where closed says so.
    Returns (rows, t0, t1) of the nonempty pieces."""
    p0 = segs[:, 0:2]
    d = segs[:, 2:4] - p0
    t0 = np.zeros(len(segs))
    t1 = np.ones(len(segs))
    for axis, (lo, hi) in enumerate([(bounds[0], bounds[2]), (bounds[1], bounds[3])]):
        dv, pv = d[:, axis], p0[:, axis]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ta, tb = (lo - pv) / dv, (hi - pv) / dv
        par = dv == 0.0
        inside = (pv >= lo) & ((pv <= hi) if closed[axis] else (pv < hi))
        t0 = np.maximum(t0, np.where(par, np.where(inside, 0.0, 1.0), np.minimum(ta, tb)))
        t1 = np.minimum(t1, np.where(par, 1.0, np.maximum(ta, tb)))
    rows = np.nonzero(t1 > t0)[0]
    return rows, t0[rows], t1[rows]


def _clipped_pieces(mesh, segs):
    """(cell, row, t0, t1) of every cell's Liang-Barsky clip, in cells()
    order and by row within a cell."""
    xe, ye = mesh.grid_lines
    pieces = [(np.full(rows.size, iy * mesh.nx + ix), rows, t0, t1)
              for ix, iy in mesh.cells()
              for rows, t0, t1 in [_liang_barsky(segs, (xe[ix], ye[iy], xe[ix + 1], ye[iy + 1]),
                                                 (ix == mesh.nx - 1, iy == mesh.ny - 1))]]
    return tuple(np.concatenate(a) for a in zip(*pieces))


def _long(segs, row, t0, t1):
    """Pieces more than 4 ulps long in t and along each axis the segment
    moves along: the midpoint of a shorter one may round onto a grid line."""
    d = segs[row, 2:4] - segs[row, 0:2]
    mid = segs[row, 0:2] + (0.5 * (t0 + t1))[:, None] * d
    along = (d == 0.0) | ((t1 - t0)[:, None] * np.abs(d) > 4.0 * np.spacing(np.abs(mid)))
    return (t1 - t0 > 4.0 * np.spacing(t1)) & np.all(along, axis=1)


@st.composite
def _mesh_and_segments(draw, ulps=0):
    """A random mesh and up to 12 segments whose ends are random, on grid
    lines or vertices, or up to a quarter of the mesh outside it, some of
    zero length and some parallel to an axis; with ulps > 0 each coordinate
    is also moved by up to that many ulps."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    origin = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    lengths = draw(st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)))
    mesh = StructuredMesh(origin, lengths, nx, ny, 2)

    def coord(lines):
        pad = 0.25 * (lines[-1] - lines[0])
        c = st.one_of(st.sampled_from(lines.tolist()),
                      st.floats(lines[0] - pad, lines[-1] + pad))
        return st.tuples(c, st.integers(-ulps, ulps)).map(lambda v: v[0] + v[1] * np.spacing(v[0]))

    x, y = (coord(lines) for lines in mesh.grid_lines)
    point = st.tuples(x, y)
    segment = st.one_of(st.tuples(point, point), point.map(lambda q: (q, q)),
                        st.tuples(point, x).map(lambda v: (v[0], (v[1], v[0][1]))),
                        st.tuples(point, y).map(lambda v: (v[0], (v[0][0], v[1]))))
    segs = draw(st.lists(segment, min_size=1, max_size=12))
    return mesh, np.array([[*a, *b] for a, b in segs])


def _by_piece(pieces):
    cell, row, t0, t1 = pieces
    order = np.lexsort((t1, t0, row))
    return cell[order], row[order], t0[order], t1[order]


@given(case=_mesh_and_segments(ulps=3))
def test_split_gives_the_liang_barsky_pieces(case):
    """Every piece more than 4 ulps long is a piece of the clip to each
    cell, (row, t0, t1) to the bit, in the clip's cell, and the clip has no
    other such piece.  A shorter piece (a segment ending an ulp outside the
    mesh, or passing through a vertex) may go to a neighbour of the clip's
    cell, or be kept where the clip drops it."""
    mesh, segs = case
    want, got = (_by_piece([a[_long(segs, *p[1:])] for a in p])
                 for p in (_clipped_pieces(mesh, segs), penalty._split_segments(mesh, segs)))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_split_gives_the_liang_barsky_pieces_on_the_reference_polylines():
    """On the annular workload's mesh and reference polylines every piece,
    and the order of the pieces, is the clip's."""
    c = AnnularConfig(n_points=500, degree=8, volume_depth=8)
    mesh = StructuredMesh((-c.extent, -c.extent), (2 * c.extent, 2 * c.extent),
                          c.n_cells, c.n_cells, 1)
    segs = np.vstack([circle_polyline(c.r_inner, 2048), circle_polyline(c.r_outer, 8192)])
    for a, b in zip(penalty._split_segments(mesh, segs), _clipped_pieces(mesh, segs)):
        np.testing.assert_array_equal(a, b)


@given(case=_mesh_and_segments(ulps=3))
def test_segment_pair_matches_the_liang_barsky_pair(case):
    """The reference pair over the split pieces equals the pair assembled
    cell by cell from the clip's pieces to 1e-14 of the segments' length,
    the scale of every entry, once the pieces the two place differently
    (a few ulps long, or within ulps of the mesh's edge) are allowed their
    length: no mode exceeds 1 in magnitude."""
    mesh, segs = case
    pen = PenaltyParams(beta=1.0, u_hat=lambda q: 1.0 + q[:, 0] - 2.0 * q[:, 1])
    rule = gauss_legendre_1d(3)
    clipped = _clipped_pieces(mesh, segs)
    cell, row, t0, t1 = clipped
    pairs = []
    for c in np.unique(cell):
        ix, iy = int(c % mesh.nx), int(c // mesh.nx)
        on = cell == c
        p0 = segs[row[on], 0:2]
        d = segs[row[on], 2:4] - p0
        a, b = t0[on, None], t1[on, None]
        t = 0.5 * (a + b) + 0.5 * (b - a) * rule.points
        w = (0.5 * (b - a) * np.hypot(d[:, :1], d[:, 1:])) * rule.weights
        pts = (p0[:, None] + t[..., None] * d[:, None]).reshape(-1, 2)
        xi, eta = mesh.local_coords(ix, iy, pts)
        V = eval_values(mesh.degree, np.clip(xi, -1.0, 1.0), np.clip(eta, -1.0, 1.0))
        Vw = V * w.reshape(-1, 1)
        pairs.append((ix, iy, Vw.T @ V, Vw.T @ pen.values(pts)[:, 0]))
    Kw, fw = scatter_cells(mesh, 1, pairs)
    K, f, _ = assemble_reference_penalty(mesh, segs, pen, n_gauss=3)
    seg_length = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
    placed = [set(zip(*(a.tolist() for a in p)))
              for p in (clipped, penalty._split_segments(mesh, segs))]
    moved = sum((t1 - t0) * seg_length[r] for _, r, t0, t1 in placed[0] ^ placed[1])
    bound = 1e-14 * seg_length.sum() + moved
    assert np.abs((K - Kw).toarray()).max() <= bound
    # |u_hat| <= 1 + 3 max |x|
    assert np.abs(f - fw).max() <= bound * (1.0 + 3.0 * np.abs(segs).max())


def test_split_puts_grid_line_pieces_in_the_upper_cell():
    """A segment along an interior grid line lies in the cell above it or to
    its right, one along the mesh's upper edge in the last cell, and a
    zero-length segment at a vertex in the cell whose lower corner it is."""
    mesh = StructuredMesh((-1.1, -1.1), (2.2, 2.2), 16, 16, 1)
    xe, ye = mesh.grid_lines
    segs = np.array([[xe[0], ye[5], xe[-1], ye[5]],     # row 5, every column
                     [xe[9], ye[0], xe[9], ye[-1]],     # column 9, every row
                     [xe[0], ye[-1], xe[-1], ye[-1]],   # upper edge: row 15
                     [xe[-1], ye[0], xe[-1], ye[-1]],   # right edge: column 15
                     [xe[13], ye[10], xe[13], ye[10]]])
    cell, row, t0, t1 = penalty._split_segments(mesh, segs)
    cols = np.arange(16)
    want = {0: 5 * 16 + cols, 1: 16 * cols + 9, 2: 15 * 16 + cols, 3: 16 * cols + 15,
            4: np.array([10 * 16 + 13])}
    for r, cells in want.items():
        np.testing.assert_array_equal(np.sort(cell[row == r]), np.sort(cells))
    np.testing.assert_array_equal(cell, np.sort(cell))
