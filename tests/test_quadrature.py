"""Gauss rules, the regularized delta, and distance-driven space trees."""

import numpy as np
import pytest

from pointcell import (AnnularConfig, DiffuseParams, DistanceParams, PointCloud, StructuredMesh,
                       build_alpha_tree, build_diffuse_tree, gauss_legendre_1d,
                       pca_distance_many, regularized_delta_raw,
                       tree_quadrature_points)
from pointcell.benchmarks import MEMBRANE_CELLS, MEMBRANE_EXTENT
from pointcell.quadrature import _lattice, _split, tensor_points

_UNIT = ((0.0, 0.0), (1.0, 1.0))


def _leaf_areas(tree):
    return (tree.leaves[:, 2] - tree.leaves[:, 0]) * (tree.leaves[:, 3] - tree.leaves[:, 1])


def _integrate(tree, f, rule):
    """Integral of f over the tree's root from its Gauss points."""
    pts, wts, _ = tree_quadrature_points(tree, rule)
    return float(np.sum(f(pts) * wts))


def _line_cloud(y, spacing=0.002, lo=-0.5, hi=1.5):
    xs = np.arange(lo, hi + 0.5 * spacing, spacing)
    return PointCloud(np.column_stack([xs, np.full(xs.size, y)]))


# ---------------------------------------------------------------------------
# 1D Gauss rules


def test_gauss_midpoint():
    rule = gauss_legendre_1d(1)
    np.testing.assert_array_equal(rule.points, [0.0])
    np.testing.assert_array_equal(rule.weights, [2.0])


def test_gauss_two_points():
    rule = gauss_legendre_1d(2)
    np.testing.assert_allclose(rule.points, [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)],
                               rtol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-15)


def test_gauss_eleven_points_even_monomial():
    rule = gauss_legendre_1d(11)
    got = np.sum(rule.weights * rule.points**20)
    assert got == pytest.approx(2.0 / 21.0, rel=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_polynomial_exactness(n):
    """An n-point rule integrates every monomial up to degree 2n - 1."""
    rule = gauss_legendre_1d(n)
    for deg in range(2 * n):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        got = np.sum(rule.weights * rule.points**deg)
        assert got == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("n", [2, 5, 8, 16])
def test_gauss_symmetry_is_exact(n):
    rule = gauss_legendre_1d(n)
    np.testing.assert_array_equal(rule.points, -rule.points[::-1])
    np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
    assert np.all(rule.weights > 0.0)
    assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-15)


def test_gauss_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        gauss_legendre_1d(0)


# ---------------------------------------------------------------------------
# regularized delta


def test_delta_peak_and_support():
    eps = 0.25
    got = regularized_delta_raw(np.array([0.0, eps, -eps, 5.0 * eps, -3.0]), eps)
    assert got[0] == pytest.approx(1.0 / eps, rel=1e-15)
    assert got[1] == pytest.approx(0.0, abs=1e-16)
    assert got[2] == pytest.approx(0.0, abs=1e-16)
    assert got[3] == 0.0
    assert got[4] == 0.0


def test_delta_unit_mass():
    eps = 0.37
    rule = gauss_legendre_1d(20)
    t = eps * rule.points
    mass = eps * np.sum(rule.weights * regularized_delta_raw(t, eps))
    assert mass == pytest.approx(1.0, rel=1e-13)


def test_delta_accepts_arrays_and_validates():
    out = regularized_delta_raw(np.array([-1.0, 0.0, 1.0]), 0.5)
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[2] == 0.0
    with pytest.raises(ValueError):
        regularized_delta_raw(np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        regularized_delta_raw(np.zeros(1), -1.0)


# ---------------------------------------------------------------------------
# diffuse tree


def test_tree_far_cloud_single_leaf():
    """A cell everywhere at least 10 eps from the cloud is never subdivided."""
    params = DiffuseParams(epsilon=0.1, n_sub=5, n_gauss=2)
    tree = build_diffuse_tree(_UNIT, lambda pts: np.full(pts.shape[0], 1.0), params)
    assert tree.n_leaves == 1
    assert tree.depths[0] == 0
    np.testing.assert_array_equal(tree.leaves[0], [0.0, 0.0, 1.0, 1.0])


def test_tree_inside_layer_fully_refined():
    params = DiffuseParams(epsilon=0.1, n_sub=3, n_gauss=2)
    tree = build_diffuse_tree(_UNIT, lambda pts: np.zeros(pts.shape[0]), params)
    assert tree.n_leaves == 4**3
    assert np.all(tree.depths == 3)


def test_tree_band_refined_to_depth():
    """Leaves overlapping the delta band end at the requested depth; leaves
    far from the band stay coarse, and the leaves tile the root exactly."""
    params = DiffuseParams(epsilon=1.0 / 16.0, n_sub=4, n_gauss=2)
    dist = lambda pts: np.abs(pts[:, 1] - 0.5)
    tree = build_diffuse_tree(_UNIT, dist, params)
    assert np.sum(_leaf_areas(tree)) == pytest.approx(1.0, rel=1e-14)
    lo, hi = tree.leaves[:, 1], tree.leaves[:, 3]
    touches = (lo - 0.5 <= params.epsilon) & (0.5 - hi <= params.epsilon)
    assert np.all(tree.depths[touches] == 4)
    far = np.minimum(np.abs(lo - 0.5), np.abs(hi - 0.5)) > 0.3
    assert np.all(tree.depths[far & ~touches] < 4)


def test_tree_depth_never_exceeds_limit():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(30, 2))
    cloud = PointCloud(pts)
    dp = DistanceParams(k=3, r=0.5)
    params = DiffuseParams(epsilon=0.05, n_sub=3, n_gauss=2)
    tree = build_diffuse_tree(_UNIT, lambda q: pca_distance_many(cloud, q, dp), params)
    assert np.max(tree.depths) <= 3
    assert np.sum(_leaf_areas(tree)) == pytest.approx(1.0, rel=1e-14)


def test_tree_params_validation():
    """The controls the diffuse tree reads are checked when the params are made."""
    with pytest.raises(ValueError, match="epsilon"):
        DiffuseParams(epsilon=0.0, n_sub=2, n_gauss=2)
    with pytest.raises(ValueError, match="tree depth"):
        DiffuseParams(epsilon=0.1, n_sub=-1, n_gauss=2)


# ---------------------------------------------------------------------------
# alpha tree


def test_alpha_tree_refines_only_cut_cells():
    inside = lambda pts: pts[:, 0] < 0.3
    tree = build_alpha_tree(_UNIT, inside, 4)
    assert np.sum(_leaf_areas(tree)) == pytest.approx(1.0, rel=1e-14)
    crosses = (tree.leaves[:, 0] < 0.3) & (tree.leaves[:, 2] > 0.3)
    assert np.all(tree.depths[crosses] == 4)
    # cells strictly on one side of the interface stopped early
    clear = (tree.leaves[:, 2] < 0.25) | (tree.leaves[:, 0] > 0.35)
    assert np.all(tree.depths[clear] < 4)


def test_alpha_tree_uniform_cell_single_leaf():
    tree = build_alpha_tree(_UNIT, lambda pts: np.ones(pts.shape[0], dtype=bool), 5)
    assert tree.n_leaves == 1


def test_alpha_tree_rejects_a_negative_depth():
    """A negative depth would return no leaves, so a cut cell's volume
    would silently vanish; leaves must tile the root."""
    with pytest.raises(ValueError, match="tree depth must be >= 0, got -1"):
        build_alpha_tree(_UNIT, lambda pts: pts[:, 0] < 0.3, -1)


# ---------------------------------------------------------------------------
# integration over trees


def test_integrate_affine_exact_on_refined_tree():
    params = DiffuseParams(epsilon=0.125, n_sub=3, n_gauss=2)
    dist = lambda pts: np.abs(pts[:, 1] - 0.4)
    tree = build_diffuse_tree(_UNIT, dist, params)
    assert tree.n_leaves > 1
    rule = gauss_legendre_1d(2)
    got = _integrate(tree, lambda pts: 2.0 + 3.0 * pts[:, 0] - pts[:, 1], rule)
    assert got == pytest.approx(3.0, rel=1e-14)


def test_integrate_quadratic_on_single_leaf():
    tree = build_diffuse_tree(_UNIT, lambda pts: np.full(pts.shape[0], 9.0),
                              DiffuseParams(epsilon=0.1, n_sub=2, n_gauss=2))
    rule = gauss_legendre_1d(3)
    got = _integrate(tree, lambda pts: pts[:, 0] ** 2 * pts[:, 1] ** 2, rule)
    assert got == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_tree_quadrature_points_leaf_major():
    params = DiffuseParams(epsilon=0.125, n_sub=2, n_gauss=2)
    tree = build_diffuse_tree(_UNIT, lambda pts: np.abs(pts[:, 1] - 0.5), params)
    rule = gauss_legendre_1d(3)
    pts, wts, leaf_of = tree_quadrature_points(tree, rule)
    per = rule.points.size**2
    assert pts.shape == (tree.n_leaves * per, 2)
    assert wts.shape == (tree.n_leaves * per,)
    assert np.sum(wts) == pytest.approx(1.0, rel=1e-13)
    for i in range(tree.n_leaves):
        x0, y0, x1, y1 = tree.leaves[i]
        block = pts[i * per:(i + 1) * per]
        assert np.all((block[:, 0] > x0) & (block[:, 0] < x1))
        assert np.all((block[:, 1] > y0) & (block[:, 1] < y1))
        assert np.all(leaf_of[i * per:(i + 1) * per] == i)


def test_line_delta_mass_matches_length():
    """Integrating the delta layer of a straight cloud over a swept cell
    recovers the embedded length (one here) to much better than 1e-4."""
    eps = 1e-3
    cloud = _line_cloud(0.5)
    dp = DistanceParams(k=4, r=1.0)
    dist = lambda pts: pca_distance_many(cloud, pts, dp)
    tree = build_diffuse_tree(_UNIT, dist,
                              DiffuseParams(epsilon=eps, n_sub=10, n_gauss=2))
    rule = gauss_legendre_1d(10)
    mass = _integrate(tree, lambda pts: regularized_delta_raw(dist(pts), eps), rule)
    assert abs(mass - 1.0) <= 1e-4


# ---------------------------------------------------------------------------
# the box lattice


def _random_boxes(rng, m=500):
    """Boxes with non-dyadic bounds and widths over four decades."""
    lo = rng.uniform(-3.0, 3.0, (m, 2))
    return np.hstack([lo, lo + 10.0 ** rng.uniform(-4.0, 0.0, (m, 2))])


def _old_tensor_points(boxes, rule):
    """The former tensor_points body."""
    n = rule.n
    x0, y0 = boxes[:, 0], boxes[:, 1]
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    gx = x0[:, None] + 0.5 * w[:, None] * (rule.points[None, :] + 1.0)
    gy = y0[:, None] + 0.5 * h[:, None] * (rule.points[None, :] + 1.0)
    px = np.repeat(gx[:, :, None], n, axis=2)
    py = np.repeat(gy[:, None, :], n, axis=1)
    return np.stack([px, py], axis=-1).reshape(-1, 2)


def _old_grid_points(cells, frac):
    """The former diffuse-probe and query-sample body (x0 + w frac)."""
    x0, y0 = cells[:, 0], cells[:, 1]
    w = cells[:, 2] - cells[:, 0]
    h = cells[:, 3] - cells[:, 1]
    px = x0[:, None, None] + w[:, None, None] * frac[None, :, None]
    py = y0[:, None, None] + h[:, None, None] * frac[None, None, :]
    return np.stack(np.broadcast_arrays(px, py), axis=-1).reshape(-1, 2)


def _old_stencil_3x3(cells):
    """The former is_cut stencil: corners, edge midpoints and center."""
    x0, y0, x1, y1 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    xs = np.stack([x0, xm, x1], axis=1)
    ys = np.stack([y0, ym, y1], axis=1)
    px = np.repeat(xs[:, :, None], 3, axis=2)
    py = np.repeat(ys[:, None, :], 3, axis=1)
    return np.stack([px, py], axis=-1).reshape(cells.shape[0], 9, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11])
def test_tensor_points_match_the_former_formula_bitwise(n):
    rule = gauss_legendre_1d(n)
    boxes = _random_boxes(np.random.default_rng(n))
    np.testing.assert_array_equal(tensor_points(boxes, rule), _old_tensor_points(boxes, rule))


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_lattice_matches_the_former_probe_and_query_grids_bitwise(g):
    boxes = _random_boxes(np.random.default_rng(100 + g))
    for frac in (np.linspace(0.0, 1.0, g), (np.arange(g) + 0.5) / g):
        got = _lattice(boxes, frac)
        assert got.shape == (boxes.shape[0], g * g, 2)
        np.testing.assert_array_equal(got.reshape(-1, 2), _old_grid_points(boxes, frac))


@pytest.mark.parametrize("extent,n_cells", [(AnnularConfig().extent, AnnularConfig().n_cells),
                                            (MEMBRANE_EXTENT, MEMBRANE_CELLS)],
                         ids=["annular", "membrane"])
def test_lattice_stencil_matches_the_former_stencil_on_workload_cells(extent, n_cells):
    """The annular and membrane meshes' cells, and their subcells down to
    depth 4, get the same is_cut stencil points as before."""
    mesh = StructuredMesh((-extent, -extent), (2 * extent, 2 * extent), n_cells, n_cells, 1)
    iy, ix = np.divmod(np.arange(n_cells * n_cells), n_cells)
    cells = mesh.cell_bounds(ix, iy)
    for _ in range(5):
        np.testing.assert_array_equal(_lattice(cells, (0.0, 0.5, 1.0)), _old_stencil_3x3(cells))
        cells = _split(cells)


def test_lattice_of_no_boxes_is_empty():
    assert _lattice(np.zeros((0, 4)), (0.0, 0.5, 1.0)).shape == (0, 9, 2)
