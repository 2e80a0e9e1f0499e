"""Gauss rules, the regularized delta, and distance-driven space trees."""

import numpy as np
import pytest

from pointcell import (DiffuseParams, DistanceParams, PointCloud,
                       build_alpha_tree, build_diffuse_tree, gauss_legendre_1d,
                       pca_distance_many, regularized_delta_raw,
                       tree_quadrature_points)

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
