"""Point-cloud loading, kNN queries, and plane-fit distance tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointcell import geometry
from pointcell import (CloudLoadError, DegenerateGeometryError, DistanceParams,
                       PointCloud, fit_planes, load_point_cloud,
                       pca_distance_many)
from pointcell.geometry import _TIE_SLACK, _knn_indices_many


def _knn(cloud, x, k):
    """The k nearest neighbors of the single point x as (index, distance) pairs."""
    idx, dist = _knn_indices_many(cloud, np.asarray([x], dtype=float), k)
    return [(int(i), float(d)) for i, d in zip(idx[0], dist[0])]


def _fit(nb):
    """fit_planes on one neighbor set: support, normal, isotropic, coincident."""
    support, normal, iso, coincident = fit_planes(np.asarray(nb, dtype=float)[None])
    return support[0], normal[0], bool(iso[0]), bool(coincident[0])


def _dist(cloud, x, params):
    """pca_distance_many at the single point x."""
    return float(pca_distance_many(cloud, np.asarray([x], dtype=float), params)[0])


def _brute_knn(points, x, k):
    d = np.hypot(points[:, 0] - x[0], points[:, 1] - x[1])
    order = np.lexsort((np.arange(len(points)), d))
    return [(int(i), float(d[i])) for i in order[:k]]


def _write(tmp_path, text, name="cloud.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# loading


def test_load_basic_two_columns(tmp_path):
    path = _write(tmp_path, "0.0 0.0\n1.0 0.5\n2.0 1.0\n")
    cloud = load_point_cloud(path)
    assert len(cloud) == 3
    np.testing.assert_array_equal(cloud.points, [[0, 0], [1, 0.5], [2, 1]])


def test_load_skips_comments_and_blanks(tmp_path):
    path = _write(tmp_path, "# header\n\n0 0\n  # indented comment\n1 1\n\n")
    cloud = load_point_cloud(path)
    np.testing.assert_array_equal(cloud.points, [[0, 0], [1, 1]])


def test_load_ignores_extra_columns(tmp_path):
    """Rows may carry normals or other trailing fields; only x, y are read."""
    path = _write(tmp_path, "0 0 0.7 0.7 extra\n1 2 -1 0 more\n")
    cloud = load_point_cloud(path)
    np.testing.assert_array_equal(cloud.points, [[0, 0], [1, 2]])


def test_load_rejects_short_row(tmp_path):
    path = _write(tmp_path, "0 0\n1.5\n")
    with pytest.raises(CloudLoadError, match="line 2: expected at least 2 columns"):
        load_point_cloud(path)


def test_load_rejects_malformed_number(tmp_path):
    path = _write(tmp_path, "0 0\n1.0 abc\n")
    with pytest.raises(CloudLoadError, match="line 2: malformed numeric field"):
        load_point_cloud(path)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_point_cloud(tmp_path / "nope.txt")


@pytest.mark.parametrize("bad", [np.full((3, 2), np.nan), [[0.0, np.inf], [1.0, 0.0]]])
def test_cloud_rejects_non_finite(bad):
    with pytest.raises(CloudLoadError, match="non-finite"):
        PointCloud(np.asarray(bad, dtype=float))


def test_cloud_rejects_single_point():
    with pytest.raises(CloudLoadError, match="at least 2 points"):
        PointCloud(np.array([[0.0, 0.0]]))


def test_cloud_rejects_duplicates():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(CloudLoadError, match="duplicate point at rows 0 and 2"):
        PointCloud(pts)


def test_cloud_points_are_read_only():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0


# ---------------------------------------------------------------------------
# kNN


def test_knn_two_point_line():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    got = _knn(cloud, (0.1, 0.0), 2)
    assert [i for i, _ in got] == [0, 1]
    np.testing.assert_allclose([d for _, d in got], [0.1, 0.9])


def test_knn_tie_broken_by_ascending_index():
    """Equidistant neighbors resolve to the smaller point index."""
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    got = _knn(cloud, (0.5, 0.0), 1)
    assert got == [(0, 0.5)]


def test_knn_k_exceeds_cloud():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="k=3 exceeds cloud size 2"):
        _knn(cloud, (0.0, 0.0), 3)


def test_knn_matches_brute_force_random():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.0, 1.0, size=(60, 2))
    cloud = PointCloud(pts)
    for _ in range(50):
        x = rng.uniform(-1.2, 1.2, size=2)
        k = int(rng.integers(1, 7))
        got = _knn(cloud, x, k)
        want = _brute_knn(pts, x, k)
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([d for _, d in got], [d for _, d in want], rtol=1e-12)


def test_knn_tie_on_lattice_prefers_low_index():
    # 4 corners of a square around the query: all at identical distance.
    cloud = PointCloud(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    got = _knn(cloud, (0.0, 0.0), 2)
    assert [i for i, _ in got] == [0, 1]


def _resort_all_rows(points, xs, idx):
    """Oracle of _resort_exact: lexsort every row by (squared distance, index)."""
    diff = points[idx] - xs[:, None, :]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    order = np.lexsort((idx, d2), axis=1)
    return np.take_along_axis(d2, order, axis=1), np.take_along_axis(idx, order, axis=1)


def _assert_knn_matches_full_sort(cloud, xs, k):
    got = _knn_indices_many(cloud, xs, k)
    with mock.patch.object(geometry, "_resort_exact", _resort_all_rows):
        want = _knn_indices_many(cloud, xs, k)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def _tree_rows_out_of_order(cloud, xs, k):
    """Rows whose tree candidates are not in (distance, index) order."""
    _, idx = cloud.tree.query(xs, k=min(len(cloud), k + _TIE_SLACK))
    _, srt = _resort_all_rows(cloud.points, xs, idx)
    return int(np.sum(np.any(srt != idx, axis=1)))


def _shuffled_lattice(g, seed):
    """g x g integer lattice in a seeded random point order."""
    gx, gy = np.meshgrid(np.arange(g, dtype=float), np.arange(g, dtype=float))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return PointCloud(pts[np.random.default_rng(seed).permutation(g * g)])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80), k=st.integers(1, 8))
def test_knn_kernel_matches_full_sort_on_random_clouds(seed, n, k):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.uniform(-1.0, 1.0, (n, 2)))
    xs = np.vstack([rng.uniform(-1.2, 1.2, (40, 2)), cloud.points[:5]])
    _assert_knn_matches_full_sort(cloud, xs, min(k, n))


@given(seed=st.integers(0, 2**32 - 1), g=st.integers(2, 8), k=st.integers(1, 8))
def test_knn_kernel_matches_full_sort_on_lattice_ties(seed, g, k):
    """Lattice centres and nodes see shells of equidistant neighbors."""
    cloud = _shuffled_lattice(g, seed)
    c = np.arange(-1, g, dtype=float) + 0.5
    cx, cy = np.meshgrid(c, c)
    xs = np.vstack([np.column_stack([cx.ravel(), cy.ravel()]), cloud.points])
    _assert_knn_matches_full_sort(cloud, xs, min(k, g * g))


def test_knn_kernel_sorts_tree_rows_out_of_index_order():
    """The lattice case above does exercise the sort: the tree returns some
    equidistant neighbors in descending index order."""
    cloud = _shuffled_lattice(6, 0)
    c = np.arange(6, dtype=float) + 0.5
    cx, cy = np.meshgrid(c, c)
    xs = np.column_stack([cx.ravel(), cy.ravel()])
    assert _tree_rows_out_of_order(cloud, xs, 4) > 0
    idx, _ = _knn_indices_many(cloud, xs, 4)
    want = [[i for i, _ in _brute_knn(cloud.points, x, 4)] for x in xs]
    assert idx.tolist() == want


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
def test_knn_kernel_matches_full_sort_on_near_duplicates(seed, k):
    """Pairs of points 1 ulp apart in x or y."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (12, 2))
    twin = base.copy()
    axis = rng.integers(0, 2, 12)
    twin[np.arange(12), axis] = np.nextafter(base[np.arange(12), axis], np.inf)
    cloud = PointCloud(np.vstack([base, twin])[rng.permutation(24)])
    xs = np.vstack([rng.uniform(-1.2, 1.2, (30, 2)), base, twin])
    _assert_knn_matches_full_sort(cloud, xs, k)


def test_knn_kernel_matches_full_sort_on_ties_straddling_the_window():
    """At a lattice centre the second shell holds 8 equidistant points, so
    for k = 5 the tie runs past the k + _TIE_SLACK candidates and the whole
    cloud is scanned."""
    cloud = _shuffled_lattice(6, 3)
    xs = np.array([[2.5, 2.5], [1.5, 2.5], [2.5, 3.5]])
    k = 5
    _assert_knn_matches_full_sort(cloud, xs, k)
    with mock.patch.object(geometry, "_resort_exact", wraps=geometry._resort_exact) as spy:
        idx, _ = _knn_indices_many(cloud, xs, k)
    assert [c.args[2].shape for c in spy.call_args_list] == [(3, k + _TIE_SLACK), (3, 36)]
    assert idx.tolist() == [[i for i, _ in _brute_knn(cloud.points, x, k)] for x in xs]


def test_knn_kernel_matches_full_sort_on_c3_lattice():
    """C3's cloud of seed 1008 (k = 4) on its full 1024 x 1024 lattice."""
    rng = np.random.default_rng(1008)
    cloud = PointCloud(rng.random((int(rng.integers(8, 41)), 2)))
    c = (np.arange(1024) + 0.5) / 1024
    gx, gy = np.meshgrid(c, c, indexing="ij")
    xs = np.column_stack([gx.ravel(), gy.ravel()])
    for rows in np.array_split(xs, 4):
        _assert_knn_matches_full_sort(cloud, rows, 4)


# ---------------------------------------------------------------------------
# local plane fit


def test_fit_plane_collinear_horizontal():
    nb = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    support, normal, iso, _ = _fit(nb)
    np.testing.assert_allclose(support, [1.0, 0.0])
    np.testing.assert_allclose(normal, [0.0, 1.0])
    assert not iso


def test_fit_plane_diagonal_line():
    nb = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    support, normal, _, _ = _fit(nb)
    np.testing.assert_allclose(support, [1.5, 1.5])
    np.testing.assert_allclose(normal, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-15)


def test_fit_plane_normal_is_unit_and_sign_fixed():
    rng = np.random.default_rng(3)
    _, normals, _, _ = fit_planes(rng.normal(size=(40, 5, 2)))
    np.testing.assert_allclose(np.hypot(normals[:, 0], normals[:, 1]), 1.0, atol=1e-14)
    first = np.where(normals[:, 0] != 0.0, normals[:, 0], normals[:, 1])
    assert np.all(first > 0.0)


def test_fit_plane_total_least_squares_orthogonal_residual():
    """The fitted direction minimizes orthogonal scatter, so the normal
    component of the residuals dominates in no direction below it."""
    rng = np.random.default_rng(7)
    base = np.linspace(0.0, 1.0, 9)
    nb = np.column_stack([base, 0.25 * base + 0.01 * rng.normal(size=9)])
    support, normal, _, _ = _fit(nb)
    centered = nb - support
    resid = centered @ normal
    tang = centered @ np.array([-normal[1], normal[0]])
    assert np.sum(resid**2) < np.sum(tang**2)
    # rotating the fitted normal by any small angle increases the residual
    for ang in (0.05, -0.05):
        c, s = np.cos(ang), np.sin(ang)
        n2 = np.array([c * normal[0] - s * normal[1], s * normal[0] + c * normal[1]])
        assert np.sum((centered @ n2) ** 2) >= np.sum(resid**2)


def test_fit_plane_isotropic_flagged_degenerate():
    # 4 points on a circle: scatter matrix is a multiple of the identity.
    nb = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    _, normal, iso, coincident = _fit(nb)
    assert iso and not coincident
    assert np.hypot(*normal) == pytest.approx(1.0, abs=1e-15)


def test_fit_plane_coincident_points_raise():
    """Coincident neighbors are flagged (pca_distance_many raises on the flag)."""
    _, _, iso, coincident = _fit(np.zeros((3, 2)))
    assert coincident and iso


def test_fit_plane_rejects_bad_shape():
    with pytest.raises(ValueError):
        fit_planes(np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        fit_planes(np.zeros((3, 2)))


def test_fit_plane_single_point_rejected():
    with pytest.raises(ValueError):
        fit_planes(np.array([[[1.0, 2.0]]]))


# ---------------------------------------------------------------------------
# plane-fit distance


def test_distance_inside_radius_uses_plane():
    cloud = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]))
    d = _dist(cloud, (0.15, 0.05), DistanceParams(k=4, r=1.0))
    assert d == pytest.approx(0.05, abs=1e-14)


def test_distance_far_point_falls_back_to_nearest_neighbor():
    """Beyond the cutoff radius the reported value is the plain point
    distance, so the field stays 1-Lipschitz far from the cloud."""
    cloud = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]))
    d = _dist(cloud, (0.3, 5.0), DistanceParams(k=4, r=0.2))
    assert d == pytest.approx(5.0, rel=1e-12)


def test_distance_radius_boundary_is_inclusive():
    """At nearest distance == r the plane fit is still trusted; just below,
    the fallback reports the raw point distance.  A circle separates the two
    branches: the chord plane through the neighbors lies inside the circle."""
    ang = 2.0 * np.pi * np.arange(8) / 8.0
    cloud = PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]))
    near = _dist(cloud, (0.0, 0.0), DistanceParams(k=4, r=1.0))
    far = _dist(cloud, (0.0, 0.0), DistanceParams(k=4, r=0.999))
    assert far == pytest.approx(1.0, abs=1e-12)
    assert near < 0.99


def test_distance_line_cloud_is_exact_height():
    xs = np.arange(-0.5, 1.5001, 0.05)
    cloud = PointCloud(np.column_stack([xs, np.zeros_like(xs)]))
    params = DistanceParams(k=4, r=1.0)
    rng = np.random.default_rng(11)
    probes = np.column_stack([rng.uniform(0.0, 1.0, 40), rng.uniform(-0.3, 0.3, 40)])
    d = pca_distance_many(cloud, probes, params)
    np.testing.assert_allclose(d, np.abs(probes[:, 1]), atol=1e-13)


def test_distance_many_matches_scalar():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(size=(30, 2)))
    params = DistanceParams(k=5, r=0.4)
    xs = rng.uniform(-0.2, 1.2, size=(25, 2))
    many = pca_distance_many(cloud, xs, params)
    one = [_dist(cloud, x, params) for x in xs]
    np.testing.assert_allclose(many, one, rtol=1e-13)


def test_distance_nonnegative_and_zero_on_cloud():
    rng = np.random.default_rng(9)
    pts = rng.uniform(size=(40, 2))
    cloud = PointCloud(pts)
    params = DistanceParams(k=4, r=0.5)
    d = pca_distance_many(cloud, pts, params)
    assert np.all(d >= 0.0)
    xs = rng.uniform(-0.5, 1.5, size=(100, 2))
    assert np.all(pca_distance_many(cloud, xs, params) >= 0.0)


def test_distance_params_validation():
    with pytest.raises(ValueError):
        DistanceParams(k=0, r=1.0)
    with pytest.raises(ValueError):
        DistanceParams(k=2, r=0.0)
    with pytest.raises(ValueError):
        DistanceParams(k=2, r=-1.0)


def test_distance_k_must_fit_cloud():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        _dist(cloud, (0.5, 0.5), DistanceParams(k=3, r=1.0))


def test_distance_k1_within_radius_rejected():
    # one neighbor cannot span a plane
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateGeometryError):
        _dist(cloud, (0.2, 0.3), DistanceParams(k=1, r=10.0))
