"""Mesh layout, embedded-domain volume assembly, and the linear solve."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcell import (AnnularConfig, GlobalSystem, IndicatorField, MeshQueryError,
                       PenaltyParams, PlaneStress, PointCloud, PoissonCoefficient,
                       SolverError, StructuredMesh, add_operators, apply_strong_zero,
                       assemble_diffuse_penalty, assemble_reference_penalty,
                       assemble_sharp_penalty, assemble_volume, build_alpha_tree,
                       build_annular_problem, build_membrane_problem, circle_cloud,
                       circle_polyline, collect_sharp_segments,
                       component_dofs, default_diffuse_params, default_sharp_params,
                       eval_basis, evaluate, everywhere, gauss_legendre_1d,
                       solve, strain_energy, tree_quadrature_points)
from pointcell import benchmarks, fcm, penalty
from pointcell.fcm import scatter_cells

_NOTHING = IndicatorField(inside=lambda pts: np.zeros(pts.shape[0], dtype=bool))


def _linear_coeffs(mesh, a, b, c):
    """Scalar dof vector reproducing a + b x + c y (vertex modes only)."""
    coeffs = np.zeros(mesh.n_scalar_dofs)
    n1 = mesh.degree + 1
    for ix, iy in mesh.cells():
        # the cell's modes N_a(x) N_b(y) with a, b in {0, 1}: its corners
        corners = mesh.cell_dofs(ix, iy).reshape(n1, n1)[:2, :2]
        x = mesh.origin[0] + (ix + np.array([[0], [1]])) * mesh.hx
        y = mesh.origin[1] + (iy + np.array([0, 1])) * mesh.hy
        coeffs[corners] = a + b * x + c * y
    return coeffs


class _VerticesFirstMesh(StructuredMesh):
    """A mesh whose dof lines are numbered vertices first, then each
    element's internal modes: with two elements or more and p >= 2, a
    vertex's row is not a run of consecutive ids."""

    def _dof_line(self, ne):
        e = np.arange(ne)[:, None]
        return np.hstack([e, e + 1, (ne + 1) + e * (self.degree - 1) + np.arange(self.degree - 1)])


class _FarEndMesh(StructuredMesh):
    """A mesh whose dof lines are numbered along the line from the far end,
    n p - (e p + [0, p, 1, ..., p - 1]) for element e of n: every row is
    still a run of consecutive ids, so the mesh must serve it."""

    def _dof_line(self, ne):
        return ne * self.degree - super()._dof_line(ne)


def _element_laplace_4x4():
    """Bilinear Laplace element matrix on a square cell, any size.

    Diagonal 2/3, edge-adjacent pairs -1/6, diagonally opposite -1/3, in the
    local ordering (-1,-1), (-1,+1), (+1,-1), (+1,+1)."""
    K = np.full((4, 4), -1.0 / 3.0)
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        K[i, j] = K[j, i] = -1.0 / 6.0
    np.fill_diagonal(K, 2.0 / 3.0)
    return K


# ---------------------------------------------------------------------------
# mesh layout


def test_mesh_validation():
    with pytest.raises(ValueError):
        StructuredMesh((0, 0), (1, 1), 0, 2, 1)
    with pytest.raises(ValueError):
        StructuredMesh((0, 0), (1, 1), 2, 2, 0)
    with pytest.raises(ValueError):
        StructuredMesh((0, 0), (0, 1), 2, 2, 1)


def test_mesh_dof_counts():
    mesh = StructuredMesh((0, 0), (1, 1), 3, 2, 4)
    assert mesh.n_scalar_dofs == (3 * 4 + 1) * (2 * 4 + 1)
    assert mesh.hx == pytest.approx(1.0 / 3.0)
    assert len(list(mesh.cells())) == 6


def test_adjacent_cells_share_an_edge_line():
    """Neighboring cells share exactly p + 1 scalar dofs, giving C0 glue."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    a = set(int(i) for i in mesh.cell_dofs(0, 0))
    b = set(int(i) for i in mesh.cell_dofs(1, 0))
    assert len(a) == len(b) == 16
    assert len(a & b) == 4
    c = set(int(i) for i in mesh.cell_dofs(1, 1))
    assert len(a & c) == 1


def test_cell_bounds_and_local_coords_roundtrip():
    mesh = StructuredMesh((-1.0, 2.0), (2.0, 4.0), 2, 4, 1)
    x0, y0, x1, y1 = mesh.cell_bounds(1, 2)
    assert (x0, y0, x1, y1) == (0.0, 4.0, 1.0, 5.0)
    xi, eta = mesh.local_coords(1, 2, np.array([[0.5, 4.5], [0.0, 4.0], [1.0, 5.0]]))
    np.testing.assert_allclose(xi, [0.0, -1.0, 1.0])
    np.testing.assert_allclose(eta, [0.0, -1.0, 1.0])


def test_cell_index_numbers_cells_in_cells_order():
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 3, 2, 1)
    ix, iy = mesh.cell_index()
    assert list(zip(ix.tolist(), iy.tolist())) == list(mesh.cells())
    ix, iy = mesh.cell_index(np.array([5, 0, 3]))
    assert (ix.tolist(), iy.tolist()) == ([2, 0, 0], [1, 0, 1])


def _membrane_mesh():
    """The membrane mesh: 16 x 16 cells on [-1.1, 1.1]^2, where x - origin
    of 6 of the 15 interior grid lines falls below a multiple of hx."""
    return StructuredMesh((-1.1, -1.1), (2.2, 2.2), 16, 16, 1)


def test_cell_of_half_open_cells_closed_at_the_upper_edges():
    """A point on an interior grid line is in the cell above it or to its
    right, a point on the upper edge in the last cell, and a point outside
    the mesh (or nan) in none."""
    mesh = _membrane_mesh()
    xe, ye = mesh.grid_lines
    row = np.full(xe.size, 0.5 * (ye[3] + ye[4]))
    on_x = np.column_stack([xe, row])
    last = np.minimum(np.arange(17), 15)
    np.testing.assert_array_equal(mesh.cell_of(on_x), 3 * 16 + last)
    np.testing.assert_array_equal(mesh.cell_of(on_x[:, ::-1]), 16 * last + 3)
    np.testing.assert_array_equal(mesh.cell_of([[xe[-1], ye[-1]], [xe[0], ye[0]]]), [255, 0])
    out = [[np.nextafter(xe[0], -np.inf), 0.0], [0.0, np.nextafter(ye[-1], np.inf)],
           [np.nan, 0.0], [0.0, np.inf]]
    np.testing.assert_array_equal(mesh.cell_of(out), [-1] * 4)


def test_locate_uses_the_cell_rule_and_its_tolerance():
    """locate puts every vertex in the cell whose lower corner it is (the
    last cell on the upper edges), as cell_of does; a point within 1e-12 of
    the mesh size outside it counts as on its edge."""
    mesh = _membrane_mesh()
    xe, ye = mesh.grid_lines
    xs = np.array([[x, y] for x in xe for y in ye])
    ix, iy, xi, eta = mesh.locate(xs)
    last = np.minimum(np.arange(17), 15)
    np.testing.assert_array_equal(ix, np.repeat(last, 17))
    np.testing.assert_array_equal(iy, np.tile(last, 17))
    np.testing.assert_array_equal(iy * mesh.nx + ix, mesh.cell_of(xs))
    inner = np.repeat(np.arange(17) < 16, 17)
    np.testing.assert_allclose(xi[inner], -1.0, atol=1e-14)
    ix, iy, xi, _ = mesh.locate([[xe[-1] + 1e-13, 0.0], [xe[0] - 1e-13, 0.0]])
    assert ix.tolist() == [15, 0] and xi.tolist() == [1.0, -1.0]


def test_locate_computes_local_coordinates_as_local_coords():
    """locate's local coordinates are local_coords' in the cell it picks, bit
    for bit: evaluate and the assemblers map a point by one formula."""
    mesh = _membrane_mesh()
    xs = np.random.default_rng(0).uniform(-1.1, 1.1, size=(200_000, 2))
    ix, iy, xi, eta = mesh.locate(xs)
    want_xi, want_eta = mesh.local_coords(ix, iy, xs)
    np.testing.assert_array_equal(xi, want_xi)
    np.testing.assert_array_equal(eta, want_eta)
    for k in (0, 1234, 199_999):
        one = mesh.local_coords(ix[k], iy[k], xs[k])
        assert (one[0][0], one[1][0]) == (xi[k], eta[k])


def test_locate_rejects_outside_points():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 1)
    with pytest.raises(MeshQueryError, match="outside the mesh"):
        evaluate(mesh, np.zeros(mesh.n_scalar_dofs), np.array([[1.5, 0.5]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf]])
def test_locate_rejects_non_finite_points(point):
    """NaN fails every comparison, so a point that is not inside the bounds
    is rejected as outside rather than cast to a cell index."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 1)
    with pytest.raises(MeshQueryError, match="outside the mesh"):
        evaluate(mesh, np.zeros(mesh.n_scalar_dofs), np.array([point]))


def test_evaluate_rejects_a_plane_stress_field_read_as_scalar():
    """On 2 x 2 cells at p = 3 the default ncomp = 1 used to read the 98
    interleaved values as 49 scalar ones (0.0 at the centre)."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    u = np.tile([1.0, 0.0], mesh.n_scalar_dofs)
    with pytest.raises(ValueError, match="98 values, but the mesh has 49 dofs at ncomp=1"):
        evaluate(mesh, u, [[0.5, 0.5]])
    np.testing.assert_allclose(evaluate(mesh, u, [[0.5, 0.5]], ncomp=2), [[1.0, 0.0]])


def test_evaluate_rejects_a_short_coefficient_array():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    with pytest.raises(ValueError, match="48 values, but the mesh has 49 dofs at ncomp=1"):
        evaluate(mesh, np.zeros(48), [[0.9, 0.9]])


def test_global_system_checks_the_dof_layout():
    """A plane-stress pair wrapped without ncomp = 2, or a load of the wrong
    size, is refused when the system is built, not in the solve."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    vol = assemble_volume(mesh, PlaneStress(), IndicatorField(inside=everywhere))
    with pytest.raises(ValueError, match=r"\(98, 98\).*\(98,\).*49 dofs at ncomp=1"):
        GlobalSystem(K=vol.K, f=vol.f, mesh=mesh)
    with pytest.raises(ValueError, match="98 dofs at ncomp=2"):
        GlobalSystem(K=vol.K, f=vol.f[:-1], mesh=mesh, ncomp=2)
    assert GlobalSystem(K=vol.K, f=vol.f, mesh=mesh, ncomp=2).ndof == 98


def test_boundary_scalar_dofs_silence_the_rim():
    """Zeroing the reported boundary dofs kills the trace of any field."""
    mesh = StructuredMesh((0, 0), (1, 1), 3, 2, 4)
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=mesh.n_scalar_dofs)
    coeffs[mesh.boundary_scalar_dofs()] = 0.0
    t = np.linspace(0.0, 1.0, 201)
    rim = np.concatenate([
        np.column_stack([t, np.zeros_like(t)]),
        np.column_stack([t, np.ones_like(t)]),
        np.column_stack([np.zeros_like(t), t]),
        np.column_stack([np.ones_like(t), t]),
    ])
    vals = evaluate(mesh, coeffs, rim)
    assert np.max(np.abs(vals)) <= 1e-12
    # and the rest of the field survives
    assert np.max(np.abs(evaluate(mesh, coeffs, np.array([[0.4, 0.6]])))) > 1e-3


def test_boundary_dof_count():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 2)
    assert len(mesh.boundary_scalar_dofs()) == 2 * mesh.n1x + 2 * mesh.n1y - 4


# ---------------------------------------------------------------------------
# volume assembly


@pytest.mark.parametrize("size", [1.0, 0.35])
def test_single_cell_bilinear_laplace_matrix(size):
    """The assembled p = 1 diffusion matrix is the textbook element matrix,
    independent of cell size."""
    mesh = StructuredMesh((0, 0), (size, size), 1, 1, 1)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere))
    np.testing.assert_allclose(sysm.K.toarray(), _element_laplace_4x4(),
                               rtol=1e-14, atol=1e-15)


def test_diffusion_coefficient_scales_matrix():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 2)
    ind = IndicatorField(inside=everywhere)
    K1 = assemble_volume(mesh, PoissonCoefficient(c=1.0), ind).K
    K4 = assemble_volume(mesh, PoissonCoefficient(c=4.0), ind).K
    np.testing.assert_array_equal(K4.toarray(), 4.0 * K1.toarray())


def test_fictitious_scaling_is_exactly_linear():
    """With the whole mesh fictitious every weight carries alpha, so scaling
    alpha by a power of two scales the matrix bit for bit."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    nothing = lambda pts: np.zeros(pts.shape[0], dtype=bool)
    a = 2.0**-26
    K1 = assemble_volume(mesh, PoissonCoefficient(),
                         IndicatorField(inside=nothing, alpha_fic=a)).K
    K2 = assemble_volume(mesh, PoissonCoefficient(),
                         IndicatorField(inside=nothing, alpha_fic=2.0 * a)).K
    np.testing.assert_array_equal(K2.toarray(), 2.0 * K1.toarray())


def test_volume_stats_uniform_mesh():
    mesh = StructuredMesh((0, 0), (1, 1), 3, 3, 2)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           n_gauss=4)
    assert sysm.stats == {"volume_points": 9 * 16, "cut_cells": 0}
    assert sysm.ncomp == 1


def test_cut_cell_counter_sees_interface():
    mesh = StructuredMesh((0, 0), (1, 1), 4, 4, 1)
    half = IndicatorField(inside=lambda pts: pts[:, 0] < 0.6)
    sysm = assemble_volume(mesh, PoissonCoefficient(), half, tree_depth=3)
    assert sysm.stats["cut_cells"] == 4
    full = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere))
    assert full.stats["cut_cells"] == 0


def _assert_exactly_symmetric(K):
    """K equals K^T entry for entry and in its stored pattern, so its CSR
    arrays are exactly the CSC arrays of K, which solve relies on."""
    assert (K != K.T).nnz == 0
    C = K.tocsc()
    for got, want in ((K.indptr, C.indptr), (K.indices, C.indices), (K.data, C.data)):
        assert np.array_equal(got, want)


def test_assembled_matrix_is_symmetric():
    """Scalar and vector volume operators, cut and uncut, and their strong
    pins (apply_strong_zero)."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 5)
    disc = IndicatorField(inside=lambda pts: (pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.5) ** 2 < 0.16)
    for material in (PoissonCoefficient(), PlaneStress(E=2.0, nu=0.3)):
        for indicator, depth in ((disc, 4), (IndicatorField(inside=everywhere), 0)):
            sysm = assemble_volume(mesh, material, indicator, tree_depth=depth)
            assert (sysm.stats["cut_cells"] > 0) == (indicator is disc)
            _assert_exactly_symmetric(sysm.K)
            _assert_exactly_symmetric(apply_strong_zero(sysm, mesh.boundary_scalar_dofs()).K)


def test_annular_indicator_measure():
    """Depth-10 boundary-adapted cells integrate the annulus area to 1e-6."""
    def inside(pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return (r2 >= 0.0625) & (r2 <= 1.0)

    mesh = StructuredMesh((-1.2, -1.2), (2.4, 2.4), 4, 4, 2)
    rule = gauss_legendre_1d(9)
    area = 0.0
    for ix, iy in mesh.cells():
        b = mesh.cell_bounds(ix, iy)
        tree = build_alpha_tree(((b[0], b[1]), (b[2], b[3])), inside, 10)
        pts, wts, _ = tree_quadrature_points(tree, rule)
        area += float(np.sum(inside(pts) * wts))
    want = np.pi * (1.0 - 0.0625)
    assert abs(area - want) / want <= 1e-6


def _dense_volume_oracle(mesh, material, indicator, body, tree_depth, n_gauss):
    """Pointwise volume assembly: every 2D mode at every Gauss point of every
    leaf, then sum of kron((G_d w)^T G_e, C_de) per cell, into a dense matrix."""
    p, ncomp = mesh.degree, material.ncomp
    rule = gauss_legendre_1d(n_gauss)
    ndof = mesh.n_scalar_dofs * ncomp
    K = np.zeros((ndof, ndof))
    f = np.zeros(ndof)
    for ix, iy in mesh.cells():
        tree = build_alpha_tree(mesh.cell_bounds(ix, iy), indicator.inside, tree_depth)
        pts, wts, _ = tree_quadrature_points(tree, rule)
        w = wts * indicator.alpha(pts)
        xi, eta = mesh.local_coords(ix, iy, pts)
        V, Gxi, Geta = eval_basis(p, xi, eta)
        G = (Gxi * (2.0 / mesh.hx), Geta * (2.0 / mesh.hy))
        idx = component_dofs(mesh.cell_dofs(ix, iy), ncomp)
        K[np.ix_(idx, idx)] += sum(np.kron((G[d] * w[:, None]).T @ G[e], C)
                                   for d, e, C in material.blocks())
        if body is not None:
            B = np.asarray(body(pts), dtype=float).reshape(-1, ncomp)
            f[idx] += (V.T @ (w[:, None] * B)).reshape(-1)
    return 0.5 * (K + K.T), f


def _disc(q):
    return (q[:, 0] - 0.45) ** 2 + (q[:, 1] - 0.55) ** 2 < 0.12


def test_oracle_disc_leaves_mixed_leaves_at_max_depth():
    """The oracle comparison below exercises leaves whose Gauss points see
    both alpha values, which only the pointwise weight can resolve."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 0.8), 2, 2, 1)
    rule = gauss_legendre_1d(2)
    mixed = 0
    for ix, iy in mesh.cells():
        tree = build_alpha_tree(mesh.cell_bounds(ix, iy), _disc, 4)
        pts, _, _ = tree_quadrature_points(tree, rule)
        flags = _disc(pts).reshape(tree.n_leaves, -1)
        mixed += int(np.sum(flags.any(axis=1) & ~flags.all(axis=1) & (tree.depths == 4)))
    assert mixed > 0


def test_oracle_disc_4x4_mesh_holds_every_kind_of_cell():
    """On 4 x 4 cells the disc leaves cells uncut inside, uncut outside and
    cut, so the oracle comparison below covers the shared uncut path too."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 0.8), 4, 4, 1)
    kinds = []
    for ix, iy in mesh.cells():
        tree = build_alpha_tree(mesh.cell_bounds(ix, iy), _disc, 4)
        flags = _disc(tree_quadrature_points(tree, gauss_legendre_1d(2))[0])
        kinds.append("cut" if tree.n_leaves > 1 else "inside" if flags.all() else "outside")
    assert set(kinds) == {"cut", "inside", "outside"}


def _oracle_cases(test):
    """The oracle comparison's cases: material, degree, rule size relative
    to p + 1 and load."""
    test = pytest.mark.parametrize(
        "material", [PoissonCoefficient(c=1.5), PlaneStress(E=2.0, nu=0.3)],
        ids=["poisson", "plane_stress"])(test)
    test = pytest.mark.parametrize("p", [1, 3, 8])(test)
    test = pytest.mark.parametrize("extra", [-1, 0, 2])(test)
    return pytest.mark.parametrize("with_body", [False, True])(test)


@_oracle_cases
def test_factorized_volume_matches_dense_oracle(material, p, extra, with_body):
    """The sum-factorized cell contraction equals the pointwise dense one on a
    cut disc whose deepest leaves still mix inside and outside points."""
    _check_volume_against_oracle(2, material, p, extra, with_body)


@_oracle_cases
def test_uncut_and_cut_volume_matches_dense_oracle(material, p, extra, with_body):
    """So does the shared contraction of the uncut cells, on 4 x 4 cells that
    are uncut inside the disc, uncut outside it and cut."""
    _check_volume_against_oracle(4, material, p, extra, with_body)


def _check_volume_against_oracle(cells, material, p, extra, with_body):
    """K and f of assemble_volume on cells x cells over the _disc embedding
    against _dense_volume_oracle, and its stats against the points and cut
    cells of per-cell quadtrees."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 0.8), cells, cells, p)
    indicator = IndicatorField(inside=_disc, alpha_fic=1e-3)
    n_gauss, depth = p + 1 + extra, 4
    def body(q):
        load = np.column_stack([np.sin(3.0 * q[:, 0]), q[:, 1] ** 2])
        return load.sum(axis=1) if material.ncomp == 1 else load

    body = body if with_body else None
    got = assemble_volume(mesh, material, indicator, body=body, tree_depth=depth,
                          n_gauss=n_gauss)
    K, f = _dense_volume_oracle(mesh, material, indicator, body, depth, n_gauss)
    assert np.linalg.norm(got.K.toarray() - K) <= 1e-12 * np.linalg.norm(K)
    if with_body:
        assert np.linalg.norm(got.f - f) <= 1e-12 * np.linalg.norm(f)
    else:
        assert not np.any(got.f)
    leaves = [build_alpha_tree(mesh.cell_bounds(ix, iy), _disc, depth).n_leaves
              for ix, iy in mesh.cells()]
    assert got.stats == {"volume_points": sum(leaves) * n_gauss**2,
                         "cut_cells": sum(n > 1 for n in leaves)}


@pytest.fixture
def counted_blocks(monkeypatch):
    """The weight array of every fcm._factorized_block call."""
    calls = []
    block = fcm._factorized_block

    def counting(W, *tables):
        calls.append(W)
        return block(W, *tables)

    monkeypatch.setattr(fcm, "_factorized_block", counting)
    return calls


@pytest.mark.parametrize("material, blocks", [(PoissonCoefficient(c=1.5), 2),
                                              (PlaneStress(E=2.0, nu=0.3), 4)],
                         ids=["poisson", "plane_stress"])
def test_uncut_mesh_runs_one_contraction_per_block(counted_blocks, material, blocks):
    """Every cell of an uncut mesh shares one element matrix: one contraction
    per material block in all, not one per block and cell."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 0.8), 4, 4, 3)
    indicator = IndicatorField(inside=everywhere, alpha_fic=1e-3)
    got = assemble_volume(mesh, material, indicator, tree_depth=3)
    assert len(counted_blocks) == blocks
    assert got.stats == {"volume_points": 16 * 4 * 4, "cut_cells": 0}
    K, _ = _dense_volume_oracle(mesh, material, indicator, None, 3, 4)
    assert np.linalg.norm(got.K.toarray() - K) <= 1e-12 * np.linalg.norm(K)


def test_uncut_cells_with_mixed_points_keep_their_own_weights(counted_blocks):
    """Without a quadtree the disc's boundary cells are single leaves whose
    points see both alphas; each distinct weight array gets its own
    contraction, and the result stays the pointwise one."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 0.8), 4, 4, 3)
    indicator = IndicatorField(inside=_disc, alpha_fic=1e-3)
    body = lambda q: np.sin(3.0 * q[:, 0]) + q[:, 1] ** 2
    got = assemble_volume(mesh, PoissonCoefficient(), indicator, body=body)
    rule = gauss_legendre_1d(4)
    alphas = set()
    for ix, iy in mesh.cells():
        pts, _, _ = tree_quadrature_points(build_alpha_tree(mesh.cell_bounds(ix, iy), _disc, 0), rule)
        alphas.add(tuple(indicator.alpha(pts)))
    assert 2 < len(alphas) < 16
    assert len(counted_blocks) == 2 * len(alphas)
    K, f = _dense_volume_oracle(mesh, PoissonCoefficient(), indicator, body, 0, 4)
    assert np.linalg.norm(got.K.toarray() - K) <= 1e-12 * np.linalg.norm(K)
    assert np.linalg.norm(got.f - f) <= 1e-12 * np.linalg.norm(f)


def test_annular_volume_peak_memory():
    """The annular workload's volume (4 x 4 cells, p = 8, depth 8) allocates
    per-leaf 1D tables, not points x modes arrays: peak stays under 64 MiB."""
    def inside(q):
        r2 = q[:, 0] ** 2 + q[:, 1] ** 2
        return (r2 >= 0.0625) & (r2 <= 1.0)

    mesh = StructuredMesh((-1.2, -1.2), (2.4, 2.4), 4, 4, 8)
    tracemalloc.start()
    try:
        system = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside),
                                 body=lambda q: inside(q).astype(float), tree_depth=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.stats == {"volume_points": 1_033_560, "cut_cells": 16}
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# the mesh pattern and the scatter


def _coo_scatter(mesh, ncomp, pairs):
    """The former scatter, kept as the oracle: COO triplets of every cell
    pair, converted to CSR, then 0.5 (K + K^T)."""
    ndof = mesh.n_scalar_dofs * ncomp
    rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    f = np.zeros(ndof)
    for ix, iy, Ke, fe in pairs:
        idx = component_dofs(mesh.cell_dofs(ix, iy), ncomp)
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(Ke.reshape(-1))
        np.add.at(f, idx, fe)
    K = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    return (0.5 * (K + K.T)).tocsr(), f


def _rel_frobenius(A, B):
    return spla.norm(A - B) / spla.norm(B)


@settings(max_examples=40)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), p=st.integers(1, 5),
       ncomp=st.sampled_from([1, 2]))
def test_mesh_pattern_and_scatter_match_coo_oracle(nx, ny, p, ncomp):
    """Each cell's places address its own (row, col) pairs in the shared
    pattern, the pattern is the union of the cell blocks, and the data
    scatter equals the COO route; the shared index arrays are read-only."""
    mesh = StructuredMesh((0.0, -1.0), (1.0, 2.0), nx, ny, p)
    indptr, indices = mesh.pattern(ncomp)
    rng = np.random.default_rng(nx + 10 * ny + 100 * p + 1000 * ncomp)
    pairs, ones = [], []
    for ix, iy in mesh.cells():
        dofs = component_dofs(mesh.cell_dofs(ix, iy), ncomp)
        pos = mesh.local_positions([ix], [iy], ncomp).reshape(-1)
        np.testing.assert_array_equal(np.searchsorted(indptr, pos, side="right") - 1,
                                      np.repeat(dofs, dofs.size))
        np.testing.assert_array_equal(indices[pos], np.tile(dofs, dofs.size))
        pairs.append((ix, iy, rng.standard_normal((dofs.size, dofs.size)),
                      rng.standard_normal(dofs.size)))
        ones.append((ix, iy, np.ones((dofs.size, dofs.size)), np.zeros(dofs.size)))
    union = _coo_scatter(mesh, ncomp, ones)[0]
    np.testing.assert_array_equal(indptr, union.indptr)
    np.testing.assert_array_equal(indices, union.indices)

    K, f = scatter_cells(mesh, ncomp, pairs)
    want_K, want_f = _coo_scatter(mesh, ncomp, pairs)
    assert _rel_frobenius(K, want_K) <= 1e-15
    np.testing.assert_array_equal(f, want_f)

    assert np.shares_memory(K.indices, indices) and np.shares_memory(K.indptr, indptr)
    assert not indices.flags.writeable and not indptr.flags.writeable
    with pytest.raises(ValueError):
        K.eliminate_zeros()
    K.has_sorted_indices = False
    with pytest.raises(ValueError):
        K.sort_indices()
    np.testing.assert_array_equal(mesh.pattern(ncomp)[1], union.indices)


@pytest.fixture
def recorded_scatter(monkeypatch):
    """Every scatter_cells call of the volume and penalty assemblers, as
    (mesh, ncomp, cell pairs)."""
    calls = []

    def recording(mesh, ncomp, cell_pairs):
        pairs = list(cell_pairs)
        calls.append((mesh, ncomp, pairs))
        return scatter_cells(mesh, ncomp, pairs)

    monkeypatch.setattr(fcm, "scatter_cells", recording)
    monkeypatch.setattr(penalty, "scatter_cells", recording)
    return calls


@pytest.mark.parametrize("cut", [False, True], ids=["uncut", "cut"])
@pytest.mark.parametrize("material", [PoissonCoefficient(c=1.5), PlaneStress(E=2.0, nu=0.3)],
                         ids=["poisson", "plane_stress"])
def test_volume_matches_coo_route(recorded_scatter, material, cut):
    ncomp = material.ncomp
    mesh = StructuredMesh((0.0, 0.0), (1.0, 0.8), 3, 2, 4)
    indicator = IndicatorField(inside=_disc if cut else everywhere, alpha_fic=1e-3)
    got = assemble_volume(mesh, material, indicator, tree_depth=4 if cut else 0,
                          body=lambda q: np.column_stack([np.sin(3.0 * q[:, 0]), q[:, 1]])[:, :ncomp])
    assert (got.stats["cut_cells"] > 0) == cut
    (_, _, pairs), = recorded_scatter
    want_K, want_f = _coo_scatter(mesh, ncomp, pairs)
    assert _rel_frobenius(got.K, want_K) <= 1e-15
    np.testing.assert_array_equal(got.f, want_f)


def _light_annulus_routes():
    """A light annulus and its sharp, diffuse and reference pairs at beta = 3."""
    prob = build_annular_problem(AnnularConfig(n_points=200, degree=6, n_cells=2,
                                               volume_depth=6, r=0.02))
    mesh, cloud = prob.mesh, prob.cloud
    pen = PenaltyParams(beta=3.0, u_hat=prob.u_hat)
    sharp = default_sharp_params(prob.config)
    return prob, [
        assemble_sharp_penalty(mesh, collect_sharp_segments(mesh, cloud, prob.dparams, sharp),
                               pen, sharp.n_gauss),
        assemble_diffuse_penalty(mesh, cloud, prob.dparams,
                                 default_diffuse_params(2e-2, prob.config), pen),
        assemble_reference_penalty(mesh, np.vstack([circle_polyline(0.25, 128),
                                                    circle_polyline(1.0, 512)]), pen, n_gauss=6),
    ]


def test_penalty_pairs_match_coo_route(recorded_scatter):
    """The sharp, diffuse and reference pairs of a light annulus, at beta = 3."""
    prob, routes = _light_annulus_routes()
    assert len(recorded_scatter) == 4  # the volume, then one per route
    for (Kp, fp, stats), (_, ncomp, pairs) in zip(routes, recorded_scatter[1:]):
        assert stats["penalty_points"] > 0
        want_K, want_f = _coo_scatter(prob.mesh, ncomp, pairs)
        assert _rel_frobenius(Kp, 3.0 * want_K) <= 1e-15
        np.testing.assert_array_equal(fp, 3.0 * want_f)


def test_penalty_operators_and_sums_are_exactly_symmetric():
    """The penalty pairs of a light annulus, their add_operators sums with
    the volume, and those sums pinned."""
    prob, routes = _light_annulus_routes()
    mesh = prob.mesh
    for Kp, fp, _ in routes:
        _assert_exactly_symmetric(Kp)
        total = GlobalSystem(K=add_operators(prob.volume.K, Kp), f=prob.volume.f + fp, mesh=mesh)
        _assert_exactly_symmetric(total.K)
        _assert_exactly_symmetric(apply_strong_zero(total, mesh.boundary_scalar_dofs()).K)


def test_scatter_cells_peak_memory():
    """Scattering 256 cells of p = 10 into the 3,690,241-entry membrane
    pattern allocates the pattern and one data array, not COO triplets:
    its peak measured 43 MiB, against 227 MiB for the COO route."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 16, 16, 10)
    rng = np.random.default_rng(3)
    Ke, fe = rng.standard_normal((121, 121)), rng.standard_normal(121)
    pairs = [(ix, iy, Ke, fe) for ix, iy in mesh.cells()]
    tracemalloc.start()
    try:
        K, _ = scatter_cells(mesh, 1, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.nnz == 3_690_241
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# solving and evaluation


def test_interior_load_solution_is_exact_in_span():
    """u = x(1-x) y(1-y) lies in the p = 2 space with a zero trace, so the
    strong-zero Galerkin solution reproduces it to solver precision."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 2)
    body = lambda pts: 2.0 * (pts[:, 0] * (1.0 - pts[:, 0]) + pts[:, 1] * (1.0 - pts[:, 1]))
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           body=body, n_gauss=4)
    pinned = apply_strong_zero(sysm, mesh.boundary_scalar_dofs())
    u = solve(pinned)
    rng = np.random.default_rng(12)
    xs = rng.uniform(0.0, 1.0, size=(50, 2))
    want = xs[:, 0] * (1.0 - xs[:, 0]) * xs[:, 1] * (1.0 - xs[:, 1])
    np.testing.assert_allclose(evaluate(mesh, u, xs), want, atol=1e-11)
    assert pinned.last_residual is None or pinned.last_residual < 1e-10


def _disc_indicator(center, radius, alpha_fic):
    c = np.asarray(center, dtype=float)
    inside = lambda q: np.sum((q - c) ** 2, axis=1) <= radius**2
    return IndicatorField(inside=inside, alpha_fic=alpha_fic)


def test_solve_reports_singular_matrix():
    """The zero matrix of a p = 1 cell has no interior modes, and the
    skeleton factor's diagonal pivots stop at its exact zero pivot.  A K
    that is nonzero except for the rows of modes supported only in the
    unpenalized fictitious region is stopped earlier, by the Cholesky
    factor of an interior block that is not positive definite."""
    mesh = StructuredMesh((0, 0), (1, 1), 1, 1, 1)
    empty = assemble_volume(mesh, PoissonCoefficient(),
                            IndicatorField(inside=lambda p: np.zeros(p.shape[0], bool),
                                           alpha_fic=0.0))
    mesh = StructuredMesh((0, 0), (1, 1), 4, 4, 3)
    vol = assemble_volume(mesh, PoissonCoefficient(), _disc_indicator((0.5, 0.5), 0.2, 0.0),
                          body=lambda q: np.ones(q.shape[0]), tree_depth=4)
    Kp, fp, _ = assemble_reference_penalty(
        mesh, circle_polyline(0.2, 64, center=(0.5, 0.5)),
        PenaltyParams(beta=1e3, u_hat=1.0), n_gauss=4)
    holed = GlobalSystem(K=add_operators(vol.K, Kp), f=vol.f + fp, mesh=mesh)
    # on the mesh pattern these rows are stored, as explicit zeros
    zero_rows = np.asarray(abs(holed.K).sum(axis=1)).ravel() == 0.0
    assert zero_rows.sum() == 120 and holed.ndof == 169
    for sysm in (empty, holed):
        with pytest.raises(SolverError):
            solve(sysm)


@pytest.mark.filterwarnings("error")
def test_solve_raises_on_an_unconstrained_system():
    """A pure-Neumann volume system (unit load, no Dirichlet constraint) on
    2 x 2 cells at p = 2 factors without a zero pivot and used to come back
    with max |u| = 4.5e15 and only a residual warning; its residual is
    above 1e-10, so the solve raises instead."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 2)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           body=lambda q: np.ones(q.shape[0]))
    with pytest.raises(SolverError, match="residual .* exceeds 1.0e-10"):
        solve(sysm)
    assert sysm.last_residual > 1e-10


def test_solve_fill_stays_sparse():
    """On an 8 x 8, p = 8 Poisson system (4,225 dofs) the condensation
    leaves the 1,089 skeleton dofs, and the SPD ordering keeps their factor
    well under a million nonzeros; factoring all 4,225 dofs with an
    unsymmetric column ordering and partial pivoting fills 2.4 million."""
    mesh = StructuredMesh((0, 0), (1, 1), 8, 8, 8)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           body=lambda q: np.ones(q.shape[0]))
    pinned = apply_strong_zero(sysm, mesh.boundary_scalar_dofs())
    assert pinned.ndof == 4225
    solve(pinned)
    assert pinned.last_residual < 1e-12
    assert pinned.stats["skeleton_dofs"] == 1089
    assert 0 < pinned.stats["factor_nnz"] < 1_000_000


def _solve_via_tocsc(system):
    """Oracle of solve: the former factorization of all dofs, on a CSC copy
    of K, without condensation."""
    lu = spla.splu(system.K.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return lu.solve(system.f)


def test_solve_matches_tocsc_route_on_membrane(monkeypatch):
    """The condensed solve of membrane-512 leaves a round-off residual on
    the full K and the coefficients of the full factorization to 1e-8 of
    their size (1.2e-10 measured); 5,185 of its 25,921 dofs are skeleton."""
    systems = []
    monkeypatch.setattr(benchmarks, "solve", lambda s: systems.append(s) or solve(s))
    res = build_membrane_problem(PointCloud(circle_cloud(1.0, 512)))
    system, = systems
    assert system.last_residual <= 1e-13
    assert system.stats["skeleton_dofs"] == 5185 and system.ndof == 25921
    want = _solve_via_tocsc(system)
    assert np.max(np.abs(res.coeffs - want)) <= 1e-8 * np.max(np.abs(want))


def test_solve_matches_tocsc_route_on_annular():
    """On the cut annulus, whose fictitious coefficients are determined only
    to alpha_fic, the two solves agree in the volume energy to 1e-9."""
    config = AnnularConfig(n_points=500, degree=8, volume_depth=8)
    prob = build_annular_problem(config)
    sharp = default_sharp_params(config)
    segments = collect_sharp_segments(prob.mesh, prob.cloud, prob.dparams, sharp)
    Kp, fp, _ = assemble_sharp_penalty(prob.mesh, segments,
                                       PenaltyParams(beta=1e4, u_hat=prob.u_hat), sharp.n_gauss)
    system = GlobalSystem(K=add_operators(prob.volume.K, Kp), f=prob.volume.f + fp,
                          mesh=prob.mesh)
    u = solve(system)
    assert system.last_residual <= 1e-13
    want = strain_energy(prob.volume, _solve_via_tocsc(system))
    assert abs(strain_energy(prob.volume, u) - want) <= 1e-9 * abs(want)


def _cut_disc_system(mesh, material, radius=0.4):
    """Volume of a cut disc around the mesh center, plus a reference penalty
    on its rim at beta = 1e6, as (volume, K_penalty, f_penalty)."""
    ncomp = material.ncomp
    center = mesh.origin + 0.5 * mesh.lengths
    vol = assemble_volume(mesh, material, _disc_indicator(center, radius, 1e-8),
                          body=lambda q: np.ones((q.shape[0], ncomp)), tree_depth=4)
    slopes = np.array([[0.5, -0.25], [-0.3, 0.4]])[:ncomp]
    Kp, fp, _ = assemble_reference_penalty(
        mesh, circle_polyline(radius, 128, center=center),
        PenaltyParams(beta=1e6, u_hat=lambda q: 1.0 + q @ slopes.T), n_gauss=6, ncomp=ncomp)
    return vol, Kp, fp


@pytest.mark.parametrize("degree, material", [(1, PoissonCoefficient()), (4, PlaneStress())],
                         ids=["p1_poisson", "p4_plane_stress"])
def test_condensed_solve_matches_oracle_on_small_meshes(degree, material):
    """p = 1 has no interior modes, so every dof is skeleton; plane stress
    condenses two components per interior mode.  Both leave a round-off
    residual and the energy of the full factorization."""
    mesh = StructuredMesh((0.0, 0.0), (1.2, 0.8), 3, 2, degree)
    vol, Kp, fp = _cut_disc_system(mesh, material)
    sysm = GlobalSystem(K=add_operators(vol.K, Kp), f=vol.f + fp, mesh=mesh, ncomp=material.ncomp)
    u = solve(sysm)
    assert sysm.last_residual <= 1e-13
    n_interior = 6 * (degree - 1) ** 2 * material.ncomp
    assert sysm.stats["skeleton_dofs"] == sysm.ndof - n_interior
    want = strain_energy(vol, _solve_via_tocsc(sysm))
    assert abs(strain_energy(vol, u) - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("nx, ny, p", [(3, 2, 4), (1, 2, 2)], ids=["3-2-4", "y-line-1-2-2"])
def test_mesh_rejects_a_numbering_whose_rows_are_not_runs(nx, ny, p):
    """Numbered vertices first, a line of ne elements gives vertex 0 the row
    {0, 1, ne + 1, ..., ne + p - 1}, which skips ids; on the 1 x 2 mesh only
    the y line has two elements."""
    with pytest.raises(ValueError, match="each row consecutive ids"):
        _VerticesFirstMesh((0.0, 0.0), (1.0, 0.8), nx, ny, p)


def test_solve_restores_an_operator_stored_off_the_mesh_pattern():
    """The pinned rim rows of the corner cells, which the penalty misses,
    are explicit zeros, and scipy's A + B drops them; solve re-stores the
    sum on the mesh pattern and returns the bits of add_operators(A, B)."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 4, 4, 3)
    vol, Kp, fp = _cut_disc_system(mesh, PoissonCoefficient(), radius=0.3)
    A = apply_strong_zero(vol, mesh.boundary_scalar_dofs())
    summed = (A.K + Kp).tocsr()
    assert summed.nnz < Kp.nnz
    on_pattern = GlobalSystem(K=add_operators(A.K, Kp), f=A.f + fp, mesh=mesh)
    off_pattern = GlobalSystem(K=summed, f=A.f + fp, mesh=mesh)
    np.testing.assert_array_equal(solve(off_pattern), solve(on_pattern))
    assert off_pattern.last_residual <= 1e-13


def test_solve_rejects_an_entry_outside_the_mesh_pattern():
    """The vertices (0, 0) and (2, 0) of a 2 x 1 mesh, the first corner of
    cell 0 and the (+1, -1) corner of cell 1: no cell holds both, so the
    pattern has no entry between them."""
    mesh = StructuredMesh((0.0, 0.0), (2.0, 1.0), 2, 1, 2)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           body=lambda q: np.ones(q.shape[0]))
    pinned = apply_strong_zero(sysm, mesh.boundary_scalar_dofs())
    near, far_end = mesh.cell_dofs(0, 0)[0], mesh.cell_dofs(1, 0)[mesh.degree + 1]
    far = sp.csr_matrix(([1e-3, 1e-3], ([near, far_end], [far_end, near])),
                        shape=pinned.K.shape)
    with pytest.raises(ValueError, match="outside the mesh"):
        solve(GlobalSystem(K=(pinned.K + far).tocsr(), f=pinned.f, mesh=mesh))


def test_solve_returns_zero_at_a_pinned_interior_dof():
    """A strong pin on an interior mode gives its Cholesky row a unit
    diagonal and nothing else, so the back substitution returns exactly 0."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 2, 2, 3)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           body=lambda q: np.ones(q.shape[0]))
    interiors = mesh.condensation().interior
    pinned = apply_strong_zero(sysm, np.append(mesh.boundary_scalar_dofs(), interiors[3, 2]))
    u = solve(pinned)
    assert u[interiors[3, 2]] == 0.0
    assert np.count_nonzero(u[interiors]) == interiors.size - 1
    assert pinned.last_residual <= 1e-13


@pytest.mark.parametrize("mesh_type, nx, ny, p, ncomp", [
    pytest.param(StructuredMesh, 3, 2, 4, 1, id="3-2-4-1"),
    pytest.param(StructuredMesh, 2, 3, 3, 2, id="2-3-3-2"),
    pytest.param(StructuredMesh, 1, 1, 2, 2, id="1-1-2-2"),
    pytest.param(StructuredMesh, 2, 2, 1, 1, id="2-2-1-1"),
    pytest.param(_FarEndMesh, 3, 2, 4, 1, id="along-line-3-2-4-1"),
    pytest.param(_FarEndMesh, 2, 3, 3, 2, id="along-line-2-3-3-2")])
def test_condensation_plan_matches_local_positions(mesh_type, nx, ny, p, ncomp):
    """The plan's interior and interior-skeleton places equal the closed
    form of local_positions; its skeleton operator holds the skeleton rows
    and columns of K, and ss addresses each cell's skeleton block in it, in
    the mesh's own numbering and numbered from the far end of each line."""
    mesh = mesh_type((0.0, 0.0), (1.0, 1.0), nx, ny, p)
    plan = mesh.condensation(ncomp)
    n1 = p + 1
    a, b, _ = np.unravel_index(np.arange(n1 * n1 * ncomp), (n1, n1, ncomp))
    inner = (a >= 2) & (b >= 2)
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    every = mesh.local_positions(ix, iy, ncomp)
    np.testing.assert_array_equal(plan.ii, every[:, inner][:, :, inner])
    np.testing.assert_array_equal(plan.i_s, every[:, inner][:, :, ~inner])
    np.testing.assert_array_equal(plan.keep[plan.ss], every[:, ~inner][:, :, ~inner])
    indptr, indices = mesh.pattern(ncomp)
    ndof = ncomp * mesh.n_scalar_dofs
    ramp = np.arange(1.0, indices.size + 1)
    K = sp.csr_matrix((ramp, indices, indptr), shape=(ndof, ndof)).toarray()
    n = plan.skeleton.size
    skel = sp.csr_matrix((ramp[plan.keep], plan.indices, plan.indptr), shape=(n, n))
    np.testing.assert_array_equal(skel.toarray(), K[np.ix_(plan.skeleton, plan.skeleton)])
    assert skel.nnz == np.count_nonzero(K[np.ix_(plan.skeleton, plan.skeleton)])
    interior = np.setdiff1d(np.arange(ndof), plan.skeleton)
    np.testing.assert_array_equal(np.sort(plan.interior, axis=None), interior)
    every_dofs = mesh.cell_dofs(ix, iy)
    for k, (cx, cy) in enumerate(zip(ix, iy)):
        np.testing.assert_array_equal(every_dofs[k], mesh.cell_dofs(cx, cy))
        dofs = component_dofs(mesh.cell_dofs(cx, cy), ncomp)
        np.testing.assert_array_equal(plan.interior[k], dofs[inner])
        np.testing.assert_array_equal(plan.skeleton[plan.cell_skeleton[k]], dofs[~inner])
    none = mesh.local_positions([], [], ncomp)
    assert none.shape == (0, n1 * n1 * ncomp, n1 * n1 * ncomp) and none.dtype == indptr.dtype


# the dense solver warns about the fictitious region's rcond ~ 1e-16
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("material", [PoissonCoefficient(), PlaneStress()],
                         ids=["poisson", "plane_stress"])
def test_solve_matches_dense_cholesky(material):
    """A cut-disc system with a stiff reference penalty: the sparse solve
    leaves a round-off residual and the energy of a dense Cholesky solve.
    The fictitious-region coefficients are determined only to rcond ~ 1e-16,
    so the coefficient vectors of two exact solvers are not compared."""
    ncomp = material.ncomp
    mesh = StructuredMesh((-1.2, -1.2), (2.4, 2.4), 3, 3, 6)
    vol = assemble_volume(mesh, material, _disc_indicator((0.0, 0.0), 1.0, 1e-8),
                          body=lambda q: np.ones((q.shape[0], ncomp)), tree_depth=5)
    slopes = np.array([[0.5, -0.25], [-0.3, 0.4]])[:ncomp]
    u_hat = lambda q: 1.0 + q @ slopes.T
    Kp, fp, _ = assemble_reference_penalty(mesh, circle_polyline(1.0, 256),
                                           PenaltyParams(beta=1e6, u_hat=u_hat),
                                           n_gauss=7, ncomp=ncomp)
    sysm = GlobalSystem(K=(vol.K + Kp).tocsr(), f=vol.f + fp, mesh=mesh, ncomp=ncomp)
    u = solve(sysm)
    assert sysm.last_residual <= 1e-13
    dense = scipy.linalg.solve(sysm.K.toarray(), sysm.f, assume_a="pos")
    want = strain_energy(vol, dense)
    assert abs(strain_energy(vol, u) - want) <= 1e-7 * abs(want)


def test_apply_strong_zero_returns_new_system():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 1)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           body=lambda pts: np.ones(pts.shape[0]))
    before = sysm.K.toarray().copy()
    pinned = apply_strong_zero(sysm, mesh.boundary_scalar_dofs())
    assert pinned is not sysm
    np.testing.assert_array_equal(sysm.K.toarray(), before)
    u = solve(pinned)
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u[mesh.boundary_scalar_dofs()])) == 0.0


@pytest.mark.parametrize("material", [PoissonCoefficient(), PlaneStress()],
                         ids=["poisson", "plane_stress"])
def test_apply_strong_zero_matches_pin_oracle(material):
    """The data mask equals D K D + P exactly (D the free, P the fixed
    indicator on the diagonal) and leaves the input system untouched."""
    ncomp = material.ncomp
    mesh = StructuredMesh((0, 0), (1, 1), 3, 2, 3)
    sysm = assemble_volume(mesh, material, IndicatorField(inside=everywhere),
                           body=lambda q: np.ones((q.shape[0], ncomp)))
    data, f = sysm.K.data.tobytes(), sysm.f.tobytes()
    listed = np.array([0, 5, 5, 17, mesh.n_scalar_dofs - 1])
    pinned = apply_strong_zero(sysm, listed)
    assert sysm.K.data.tobytes() == data and sysm.f.tobytes() == f
    free = np.ones(sysm.ndof)
    free[component_dofs(listed, ncomp)] = 0.0
    D = sp.diags(free)
    want = (D @ sysm.K @ D + sp.diags(1.0 - free)).toarray()
    np.testing.assert_array_equal(pinned.K.toarray(), want)
    np.testing.assert_array_equal(pinned.f, sysm.f * free)
    assert np.shares_memory(pinned.K.indices, sysm.K.indices)


def test_apply_strong_zero_needs_a_stored_diagonal():
    """A pin writes 1 on a stored diagonal; a K built without one (here by
    scipy, which drops zeros) is rejected rather than pinned to zero."""
    mesh = StructuredMesh((0, 0), (1, 1), 1, 1, 1)
    K = sp.csr_matrix(np.diag([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="no stored diagonal"):
        apply_strong_zero(GlobalSystem(K=K, f=np.zeros(4), mesh=mesh), [1])


def test_apply_strong_zero_needs_the_mesh_pattern():
    """The fixed columns are found at the places of the mesh's pattern, so
    an operator stored on another one (here scipy's, diagonal only) is
    rejected rather than pinned at the wrong places."""
    mesh = StructuredMesh((0, 0), (1, 1), 1, 1, 1)
    K = sp.csr_matrix(np.eye(4))
    with pytest.raises(ValueError, match="not stored on the mesh's sparsity pattern"):
        apply_strong_zero(GlobalSystem(K=K, f=np.ones(4), mesh=mesh), [1])


@pytest.mark.parametrize("ncomp", [1, 2])
def test_evaluate_matches_eval_basis_oracle(ncomp):
    """Values against the 2D modes of eval_basis, at interior points, on
    cell interfaces, on the mesh's edges and at its corners."""
    mesh = StructuredMesh((-0.5, 0.25), (1.5, 0.8), 3, 2, 5)
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=mesh.n_scalar_dofs * ncomp)
    xe = mesh.origin[0] + mesh.hx * np.arange(mesh.nx + 1)
    ye = mesh.origin[1] + mesh.hy * np.arange(mesh.ny + 1)
    hi = mesh.origin + mesh.lengths
    t = rng.uniform(0.0, 1.0, 12)
    xs = np.vstack([
        mesh.origin + rng.uniform(0.0, 1.0, (40, 2)) * mesh.lengths,
        np.array([[x, y] for x in xe for y in ye]),  # vertices, corners included
        np.column_stack([np.repeat(xe, 12), np.tile(ye[0] + t * mesh.lengths[1], xe.size)]),
        np.column_stack([np.tile(xe[0] + t * mesh.lengths[0], ye.size), np.repeat(ye, 12)]),
        [hi, [hi[0], mesh.origin[1]], [mesh.origin[0], hi[1]]],
    ])
    vals = evaluate(mesh, coeffs, xs, ncomp=ncomp)
    ix, iy, xi, eta = mesh.locate(xs)
    by_dof = coeffs.reshape(-1, ncomp)
    want = np.empty((xs.shape[0], ncomp))
    for k in range(xs.shape[0]):
        V, _, _ = eval_basis(mesh.degree, xi[k:k + 1], eta[k:k + 1])
        want[k] = (V @ by_dof[mesh.cell_dofs(ix[k], iy[k])])[0]
    if ncomp == 1:
        want = want[:, 0]
    assert vals.shape == want.shape
    assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))


def test_evaluate_takes_no_gradients_option():
    """evaluate returns values only; a gradient request is a TypeError."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 4)
    with pytest.raises(TypeError, match="gradients"):
        evaluate(mesh, np.zeros(mesh.n_scalar_dofs), [[0.5, 0.5]], gradients=True)


def test_strain_energy_matches_quadratic_form():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere))
    rng = np.random.default_rng(6)
    u = rng.normal(size=mesh.n_scalar_dofs)
    want = 0.5 * u @ (sysm.K @ u)
    assert strain_energy(sysm, u) == pytest.approx(want, rel=1e-14)


def test_grid_sampler_matches_evaluate():
    """write_field_vtk's sampler against evaluate at the same points: the
    membrane-512 solution on its 101 x 101 grid, and random coefficients on
    a 3 x 2 mesh whose samples include every interior grid line."""
    result = build_membrane_problem(PointCloud(circle_cloud(1.0, 512)))
    mesh = StructuredMesh((-0.5, 0.25), (1.5, 0.8), 3, 2, 5)
    xe, ye = mesh.grid_lines
    cases = [(result.mesh, result.coeffs, *(np.linspace(o, o + s, 101) for o, s in
                                            zip(result.mesh.origin, result.mesh.lengths))),
             (mesh, np.random.default_rng(4).normal(size=mesh.n_scalar_dofs),
              np.sort(np.append(xe, 0.5 * (xe[1:] + xe[:-1]))), np.linspace(ye[0], ye[-1], 9))]
    for mesh, coeffs, xs, ys in cases:
        X, Y = np.meshgrid(xs, ys)
        want = evaluate(mesh, coeffs, np.column_stack([X.ravel(), Y.ravel()])).reshape(X.shape)
        got = fcm.evaluate_grid(mesh, coeffs, xs, ys)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the place rule against the scans it replaced


def _scan_condensation(mesh, ncomp):
    """The plan built by scanning, kept as the oracle: the skeleton rows and
    columns of a scipy matrix whose data are the mesh places, and the
    inverse of its data over every stored entry."""
    indptr, indices = mesh.pattern(ncomp)
    dt = indptr.dtype
    n1 = mesh.degree + 1
    a, b, _ = np.unravel_index(np.arange(n1 * n1 * ncomp), (n1, n1, ncomp))
    inner = (a >= 2) & (b >= 2)
    rows_i, rows_s = np.nonzero(inner)[0], np.nonzero(~inner)[0]
    ix, iy = mesh.cell_index()
    dofs = component_dofs(mesh.cell_dofs(ix, iy), ncomp).reshape(ix.size, -1)
    is_skeleton = np.ones(mesh.n_scalar_dofs * ncomp, dtype=bool)
    is_skeleton[dofs[:, rows_i]] = False
    skeleton = np.nonzero(is_skeleton)[0]
    n = indptr.size - 1
    places = sp.csr_matrix((np.arange(indices.size, dtype=dt), indices, indptr), shape=(n, n))
    skel = places[skeleton][:, skeleton]
    skel_place = np.empty(indices.size, dtype=dt)
    skel_place[skel.data] = np.arange(skel.nnz, dtype=dt)
    pos = mesh.local_positions(ix, iy, ncomp)
    return fcm.Condensation(
        interior=dofs[:, rows_i], cell_skeleton=(np.cumsum(is_skeleton) - 1)[dofs[:, rows_s]],
        skeleton=skeleton, ii=pos[:, rows_i[:, None], rows_i],
        i_s=pos[:, rows_i[:, None], rows_s], ss=skel_place[pos[:, rows_s[:, None], rows_s]],
        keep=skel.data, indptr=skel.indptr.astype(dt), indices=skel.indices.astype(dt))


def _cell_by_cell_scatter(mesh, ncomp, cell_pairs):
    """scatter_cells one cell at a time, kept as the oracle."""
    indptr, indices = mesh.pattern(ncomp)
    data = np.zeros(indices.size)
    f = np.zeros(mesh.n_scalar_dofs * ncomp)
    for ix, iy, Ke, fe in cell_pairs:
        sym = Ke + Ke.T
        sym *= 0.5
        data[mesh.local_positions([ix], [iy], ncomp).reshape(-1).astype(np.intp)] += sym.reshape(-1)
        f[component_dofs(mesh.cell_dofs(ix, iy), ncomp)] += fe
    return sp.csr_matrix((data, indices, indptr), shape=(f.size, f.size)), f


def _mask_pins(system, scalar_dofs):
    """apply_strong_zero as a mask over every stored entry, kept as the oracle."""
    K = system.K
    fixed = np.zeros(system.ndof, dtype=bool)
    fixed[component_dofs(scalar_dofs, system.ncomp)] = True
    data = np.where(np.take(fixed, K.indices), 0.0, K.data)
    rows = np.nonzero(fixed)[0]
    starts = K.indptr[rows]
    counts = K.indptr[rows + 1] - starts
    entries = np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)
    data[entries] = 0.0
    data[entries[K.indices[entries] == np.repeat(rows, counts)]] = 1.0
    return data, np.where(fixed, 0.0, system.f)


def _sorted_key_data(K, mesh, ncomp):
    """_mesh_pattern_data by one sorted-key lookup of K's (row, col) keys in
    the keys of every stored entry of the pattern, kept as the oracle."""
    indptr, indices = mesh.pattern(ncomp)
    n = K.shape[0]
    rows = np.arange(n, dtype=np.int64)
    keys = np.repeat(rows, np.diff(K.indptr)) * n + K.indices
    mesh_keys = np.repeat(rows, np.diff(indptr)) * n + indices
    at = np.minimum(np.searchsorted(mesh_keys, keys), mesh_keys.size - 1)
    assert np.array_equal(mesh_keys[at], keys)
    return np.bincount(at, weights=K.data, minlength=indices.size)


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_places_match_the_scans(mesh, ncomp, rng):
    """Every Condensation field, the scattered and the pinned K and f, and a
    foreign operator's data on the pattern equal the scans' bit for bit;
    places gives every stored entry its own place."""
    indptr, indices = mesh.pattern(ncomp)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    _assert_same(mesh.places(rows, indices, ncomp), np.arange(indices.size, dtype=indptr.dtype))
    plan, want = mesh.condensation(ncomp), _scan_condensation(mesh, ncomp)
    for name in fcm.Condensation.__dataclass_fields__:
        _assert_same(getattr(plan, name), getattr(want, name))
    del plan, want
    n = (mesh.degree + 1) ** 2 * ncomp
    blocks = [rng.standard_normal((n, n)) for _ in range(3)]
    pairs = [(ix, iy, blocks[(ix + 2 * iy) % 3], rng.standard_normal(n))
             for ix, iy in mesh.cells()]
    K, f = scatter_cells(mesh, ncomp, pairs)
    want_K, want_f = _cell_by_cell_scatter(mesh, ncomp, pairs)
    _assert_same(K.data, want_K.data)
    _assert_same(f, want_f)
    del want_K
    system = GlobalSystem(K=K, f=f, mesh=mesh, ncomp=ncomp)
    fixed = np.append(rng.integers(0, mesh.n_scalar_dofs, size=3), mesh.boundary_scalar_dofs())
    pinned = apply_strong_zero(system, fixed)
    for got, want in zip((pinned.K.data, pinned.f), _mask_pins(system, fixed)):
        _assert_same(got, want)
    del pinned
    C = K.tocoo()
    some = rng.random(C.nnz) < 0.5
    foreign = sp.csr_matrix((C.data[some], (C.row[some], C.col[some])), shape=K.shape)
    _assert_same(fcm._mesh_pattern_data(foreign, mesh, ncomp),
                 _sorted_key_data(foreign, mesh, ncomp))


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), p=st.integers(1, 5),
       ncomp=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
def test_places_match_the_scans(nx, ny, p, ncomp, seed):
    """p = 1 has no interior modes."""
    mesh = StructuredMesh((0.0, -1.0), (1.0, 2.0), nx, ny, p)
    _assert_places_match_the_scans(mesh, ncomp, np.random.default_rng(seed))


@pytest.mark.parametrize("ncomp", [1, 2])
def test_places_match_the_scans_on_the_membrane_mesh(ncomp):
    """16 x 16 cells at p = 10, 3,690,241 stored entries at ncomp = 1."""
    mesh = StructuredMesh((-1.1, -1.1), (2.2, 2.2), 16, 16, 10)
    _assert_places_match_the_scans(mesh, ncomp, np.random.default_rng(ncomp))


def test_places_rejects_a_pair_outside_the_pattern():
    """The vertices (0, 0) and (2, 0) of a 2 x 1 mesh share no cell, and ids
    outside [0, ndof) name no dof: a negative one would wrap."""
    mesh = StructuredMesh((0.0, 0.0), (2.0, 1.0), 2, 1, 2)
    near, far = mesh.cell_dofs(0, 0)[0], mesh.cell_dofs(1, 0)[mesh.degree + 1]
    indptr, indices = mesh.pattern(2)
    at = mesh.places(2 * near + 1, 2 * near, 2)
    assert indptr[2 * near + 1] <= at < indptr[2 * near + 2] and indices[at] == 2 * near
    for rows, cols in [([near], [far]), ([far, near], [far, far])]:
        with pytest.raises(ValueError, match="outside the mesh's sparsity pattern"):
            mesh.places(rows, cols)
    for bad in (-1, mesh.n_scalar_dofs):
        for rows, cols in [([bad], [0]), ([0], [bad])]:
            with pytest.raises(ValueError, match=rf"must lie in \[0, {mesh.n_scalar_dofs}\)"):
                mesh.places(rows, cols)


def test_membrane_condensation_plan_peak_memory():
    """The membrane mesh's plan (16 x 16 cells, p = 10) holds 14.1 MiB and
    allocates nothing over every stored entry: its peak measured 18.6 MiB,
    against 58.5 MiB for the scan it replaced."""
    mesh = StructuredMesh((-1.1, -1.1), (2.2, 2.2), 16, 16, 10)
    mesh.pattern(1)
    tracemalloc.start()
    try:
        plan = mesh.condensation(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.skeleton.size == 5185
    assert peak <= 20 * 2**20


@pytest.mark.parametrize("dof", [-1, 10**6])
def test_apply_strong_zero_rejects_a_dof_outside_the_mesh(dof):
    """-1 would pin the last dof and 10**6 end in a bare IndexError."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere))
    with pytest.raises(ValueError, match=rf"scalar dof {dof} lies outside \[0, 49\)"):
        apply_strong_zero(sysm, [0, dof])


def test_add_operators_needs_one_pattern():
    """Operators on the mesh's index arrays, or on equal copies of them, add
    their data; a scipy matrix drops the explicit zeros of the pinned rim
    rows, so its pattern differs."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    vol = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere))
    pinned = apply_strong_zero(vol, mesh.boundary_scalar_dofs()).K
    for other in (vol.K, vol.K.copy()):
        total = add_operators(pinned, other)
        np.testing.assert_array_equal(total.data, pinned.data + vol.K.data)
        assert np.shares_memory(total.indices, mesh.pattern()[1])
    with pytest.raises(ValueError, match="one sparsity pattern"):
        add_operators(vol.K, sp.csr_matrix(pinned.toarray()))


# ---------------------------------------------------------------------------
# plane stress


def test_plane_stress_rigid_modes_have_no_energy():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 2)
    sysm = assemble_volume(mesh, PlaneStress(), IndicatorField(inside=everywhere))
    n = mesh.n_scalar_dofs
    for sx, sy in [(_linear_coeffs(mesh, 1.0, 0.0, 0.0), _linear_coeffs(mesh, 0.0, 0.0, 0.0)),
                   (_linear_coeffs(mesh, 0.0, 0.0, -1.0), _linear_coeffs(mesh, 0.0, 1.0, 0.0))]:
        u = np.empty(2 * n)
        u[0::2] = sx
        u[1::2] = sy
        assert abs(strain_energy(sysm, u)) <= 1e-12


@pytest.mark.parametrize("mode,want", [
    ("stretch", 0.5 / 0.91),
    ("shear", 0.5 / 2.6),
])
def test_plane_stress_constant_strain_energy(mode, want):
    """Uniaxial stretch u = (x, 0) stores E/(2 (1 - nu^2)); simple shear
    u = (y, 0) stores G/2, with G = E / (2 (1 + nu))."""
    mesh = StructuredMesh((0, 0), (1, 1), 3, 2, 3)
    sysm = assemble_volume(mesh, PlaneStress(), IndicatorField(inside=everywhere))
    n = mesh.n_scalar_dofs
    if mode == "stretch":
        sx = _linear_coeffs(mesh, 0.0, 1.0, 0.0)
    else:
        sx = _linear_coeffs(mesh, 0.0, 0.0, 1.0)
    u = np.zeros(2 * n)
    u[0::2] = sx
    assert strain_energy(sysm, u) == pytest.approx(want, rel=1e-12)


def test_plane_stress_vector_evaluate():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 2)
    n = mesh.n_scalar_dofs
    u = np.zeros(2 * n)
    u[0::2] = _linear_coeffs(mesh, 0.5, 2.0, 0.0)
    u[1::2] = _linear_coeffs(mesh, 0.0, 0.0, -1.0)
    xs = np.array([[0.25, 0.75], [0.5, 0.5]])
    vals = evaluate(mesh, u, xs, ncomp=2)
    np.testing.assert_allclose(vals[:, 0], 0.5 + 2.0 * xs[:, 0], rtol=1e-13)
    np.testing.assert_allclose(vals[:, 1], -xs[:, 1], rtol=1e-13)


def test_plane_stress_cell_matrix_matches_strain_oracle():
    """One stretched cell at p = 3 against sum over Gauss points of
    w B^T D B, with B the strain-displacement matrix on interleaved dofs
    (u_x, u_y of each mode in turn); this reaches the d12 coupling."""
    mesh = StructuredMesh((0.5, -1.0), (2.0, 0.5), 1, 1, 3)
    mat = PlaneStress(E=2.0, nu=0.3)
    K = assemble_volume(mesh, mat, IndicatorField(inside=everywhere)).K.toarray()
    rule = gauss_legendre_1d(4)
    xi = np.repeat(rule.points, 4)
    eta = np.tile(rule.points, 4)
    w = np.repeat(rule.weights, 4) * np.tile(rule.weights, 4) * (0.25 * mesh.hx * mesh.hy)
    _, Gxi, Geta = eval_basis(3, xi, eta)
    Gx, Gy = Gxi * (2.0 / mesh.hx), Geta * (2.0 / mesh.hy)
    nmodes = Gx.shape[1]
    B = np.zeros((xi.size, 3, 2 * nmodes))
    B[:, 0, 0::2] = Gx
    B[:, 1, 1::2] = Gy
    B[:, 2, 0::2] = Gy
    B[:, 2, 1::2] = Gx
    nu = mat.nu
    D = mat.E / (1.0 - nu**2) * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0],
                                          [0.0, 0.0, 0.5 * (1.0 - nu)]])
    want = np.einsum("q,qai,ab,qbj->ij", w, B, D, B)
    dofs = mesh.cell_dofs(0, 0)
    idx = (2 * dofs[:, None] + np.arange(2)).reshape(-1)
    got = K[np.ix_(idx, idx)]
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_plane_stress_constant_body_force_splits_by_component():
    """A constant force (bx, by) loads component c with b_c times the
    scalar load of the unit source, on a cut mesh as well."""
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    disc = IndicatorField(inside=lambda q: (q[:, 0] - 0.4) ** 2 + (q[:, 1] - 0.5) ** 2 < 0.1)
    bx, by = 0.7, -1.3
    fv = assemble_volume(mesh, PlaneStress(), disc, tree_depth=3,
                         body=lambda q: np.tile([bx, by], (q.shape[0], 1))).f
    fs = assemble_volume(mesh, PoissonCoefficient(), disc, tree_depth=3,
                         body=lambda q: np.ones(q.shape[0])).f
    np.testing.assert_allclose(fv[0::2], bx * fs, rtol=1e-13)
    np.testing.assert_allclose(fv[1::2], by * fs, rtol=1e-13)


def test_apply_strong_zero_pins_both_plane_stress_components():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 2)
    sysm = assemble_volume(mesh, PlaneStress(), IndicatorField(inside=everywhere),
                           body=lambda q: np.tile([1.0, -2.0], (q.shape[0], 1)))
    listed = np.array([0, 7, 12])
    pinned = apply_strong_zero(sysm, listed)
    assert pinned.ncomp == 2
    fixed = np.zeros(sysm.ndof, dtype=bool)
    fixed[2 * listed] = True
    fixed[2 * listed + 1] = True
    K0, K1 = sysm.K.toarray(), pinned.K.toarray()
    np.testing.assert_array_equal(K1[np.ix_(~fixed, ~fixed)], K0[np.ix_(~fixed, ~fixed)])
    np.testing.assert_array_equal(K1[fixed], np.eye(sysm.ndof)[fixed])
    np.testing.assert_array_equal(K1[:, fixed], np.eye(sysm.ndof)[:, fixed])
    np.testing.assert_array_equal(pinned.f[~fixed], sysm.f[~fixed])
    assert np.all(pinned.f[fixed] == 0.0)


def test_material_validation():
    with pytest.raises(ValueError):
        PoissonCoefficient(c=0.0)
    with pytest.raises(ValueError):
        PlaneStress(E=-1.0)
    with pytest.raises(ValueError):
        PlaneStress(nu=0.5)
    with pytest.raises(ValueError):
        PlaneStress(nu=-0.1)
