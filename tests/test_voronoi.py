"""Higher-order Voronoi region queries against independent oracles."""

import numpy as np
import pytest
from scipy.optimize import linprog

from pointcell import PointCloud, brute_force_regions_in_box, region_keys_many

_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _key(cloud, x, k):
    """Key of the region containing the single point x."""
    return tuple(int(i) for i in region_keys_many(cloud, np.asarray([x], dtype=float), k)[0])


def _brute_key(points, x, k):
    d2 = np.sum((points - np.asarray(x)) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return tuple(sorted(int(i) for i in order[:k]))


def _order2_region_margin(points, i, j, box=10.0):
    """Best equidistance margin of the order-2 region {i, j} via an LP.

    Maximizes t subject to |x - p_m|^2 + t <= |x - p_l|^2 for m in {i, j} and
    every other l; a positive optimum certifies a region with interior."""
    others = [l for l in range(len(points)) if l not in (i, j)]
    A, b = [], []
    for m in (i, j):
        pm = points[m]
        for l in others:
            pl = points[l]
            A.append([2.0 * (pl[0] - pm[0]), 2.0 * (pl[1] - pm[1]), 1.0])
            b.append(float(pl @ pl - pm @ pm))
    res = linprog([0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(-box, box), (-box, box), (None, None)])
    assert res.status == 0
    return float(res.x[2])


# ---------------------------------------------------------------------------
# single-point keys


def test_key_first_order_square():
    cloud = PointCloud(_CORNERS)
    assert _key(cloud, (0.25, 0.25), 1) == (0,)
    assert _key(cloud, (0.75, 0.25), 1) == (1,)
    assert _key(cloud, (0.25, 0.75), 1) == (2,)
    assert _key(cloud, (0.75, 0.75), 1) == (3,)


def test_key_second_order_square():
    cloud = PointCloud(_CORNERS)
    assert _key(cloud, (0.5, 0.25), 2) == (0, 1)
    assert _key(cloud, (0.25, 0.5), 2) == (0, 2)
    assert _key(cloud, (0.75, 0.5), 2) == (1, 3)
    assert _key(cloud, (0.5, 0.75), 2) == (2, 3)


def test_key_full_order_is_whole_cloud():
    cloud = PointCloud(_CORNERS)
    assert _key(cloud, (0.31, 0.77), 4) == (0, 1, 2, 3)
    assert _key(cloud, (-5.0, 9.0), 4) == (0, 1, 2, 3)


def test_key_is_sorted_ascending():
    cloud = PointCloud(_CORNERS)
    # nearest two at this probe are p3 then p1; the key is still ascending
    key = _key(cloud, (0.9, 0.6), 2)
    assert key == (1, 3)


def test_key_tie_on_bisector_uses_lower_index():
    cloud = PointCloud(_CORNERS)
    assert _key(cloud, (0.5, 0.25), 1) == (0,)
    assert _key(cloud, (0.5, 0.5), 2) == (0, 1)


def test_key_matches_brute_oracle_random():
    rng = np.random.default_rng(17)
    pts = rng.uniform(size=(23, 2))
    cloud = PointCloud(pts)
    for _ in range(80):
        x = rng.uniform(-0.3, 1.3, size=2)
        k = int(rng.integers(1, 7))
        assert _key(cloud, x, k) == _brute_key(pts, x, k)


def test_keys_many_matches_scalar():
    rng = np.random.default_rng(23)
    pts = rng.uniform(size=(15, 2))
    cloud = PointCloud(pts)
    xs = rng.uniform(-0.2, 1.2, size=(60, 2))
    keys = region_keys_many(cloud, xs, 3)
    assert keys.shape == (60, 3)
    for row, x in zip(keys, xs):
        assert tuple(int(i) for i in row) == _key(cloud, x, 3)


def test_key_validation():
    cloud = PointCloud(_CORNERS)
    with pytest.raises(ValueError):
        _key(cloud, (0.5, 0.5), 0)
    with pytest.raises(ValueError):
        _key(cloud, (0.5, 0.5), 5)


# ---------------------------------------------------------------------------
# membership


def test_contains_roundtrip_random():
    rng = np.random.default_rng(31)
    pts = rng.uniform(size=(12, 2))
    cloud = PointCloud(pts)
    xs = rng.uniform(size=(40, 2))
    keys = region_keys_many(cloud, xs, 2)
    for x, key in zip(xs, keys):
        assert _key(cloud, x, 2) == tuple(int(i) for i in key)
    assert _key(cloud, (0.0, 0.0), 1) != _key(cloud, (0.99, 0.99), 1)


def test_contains_many_partitions_lattice():
    """Every sample point belongs to exactly one order-k region."""
    rng = np.random.default_rng(37)
    pts = rng.uniform(size=(9, 2))
    cloud = PointCloud(pts)
    g = np.linspace(0.05, 0.95, 12)
    xs = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
    rows = region_keys_many(cloud, xs, 2)
    hits = np.zeros(xs.shape[0], dtype=int)
    for key in {tuple(int(i) for i in row) for row in rows}:
        hits += np.all(rows == key, axis=1).astype(int)
    np.testing.assert_array_equal(hits, 1)


# ---------------------------------------------------------------------------
# region enumeration in a box


def test_brute_force_first_order_square():
    cloud = PointCloud(_CORNERS)
    got = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 1, 16)
    assert got == {(0,), (1,), (2,), (3,)}


def test_brute_force_second_order_square_matches_lp_oracle():
    """Order-2 corner regions are exactly the edge-adjacent pairs; the two
    diagonal pairs have empty interior (both half-planes cannot hold)."""
    cloud = PointCloud(_CORNERS)
    feasible = set()
    for i in range(4):
        for j in range(i + 1, 4):
            if _order2_region_margin(_CORNERS, i, j) > 1e-9:
                feasible.add((i, j))
    assert feasible == {(0, 1), (0, 2), (1, 3), (2, 3)}
    got = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 2, 64)
    assert got == feasible


def test_brute_force_full_order_single_region():
    cloud = PointCloud(_CORNERS)
    got = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 4, 8)
    assert got == {(0, 1, 2, 3)}


def test_brute_force_against_lp_oracle_random():
    """Dual-route check on a generic cloud: every sampled order-2 key is
    LP-feasible, every clearly infeasible pair never appears."""
    rng = np.random.default_rng(41)
    pts = rng.uniform(size=(7, 2))
    cloud = PointCloud(pts)
    got = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 2, 256)
    margins = {}
    for i in range(7):
        for j in range(i + 1, 7):
            margins[(i, j)] = _order2_region_margin(pts, i, j)
    for key in got:
        assert margins[key] > -1e-12
    for key, t in margins.items():
        if t <= 0.0:
            assert key not in got


def test_brute_force_lattice_is_cell_centered():
    # resolution 2 on the unit square samples the four quadrant centers
    cloud = PointCloud(_CORNERS)
    got = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 1, 2)
    assert got == {(0,), (1,), (2,), (3,)}


def test_brute_force_subset_under_refinement():
    rng = np.random.default_rng(47)
    pts = rng.uniform(size=(10, 2))
    cloud = PointCloud(pts)
    coarse = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 2, 64)
    fine = brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 2, 192)
    assert coarse <= fine


def test_brute_force_validation():
    cloud = PointCloud(_CORNERS)
    with pytest.raises(ValueError):
        brute_force_regions_in_box(cloud, ((0.0, 0.0), (0.0, 1.0)), 1, 8)
    with pytest.raises(ValueError):
        brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 1, 0)
    with pytest.raises(ValueError):
        brute_force_regions_in_box(cloud, ((0.0, 0.0), (1.0, 1.0)), 9, 8)
