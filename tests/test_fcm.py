"""Mesh layout, embedded-domain volume assembly, and the linear solve."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from pointcell import (GlobalSystem, IndicatorField, MeshQueryError,
                       PenaltyParams, PlaneStress, PoissonCoefficient,
                       SolverError, StructuredMesh, apply_strong_zero,
                       assemble_reference_penalty, assemble_volume,
                       build_alpha_tree, circle_polyline, component_dofs,
                       eval_basis, evaluate, everywhere, gauss_legendre_1d,
                       integrate_over_tree, solve, strain_energy,
                       tree_quadrature_points)

_NOTHING = IndicatorField(inside=lambda pts: np.zeros(pts.shape[0], dtype=bool))


def _linear_coeffs(mesh, a, b, c):
    """Scalar dof vector reproducing a + b x + c y (vertex modes only)."""
    coeffs = np.zeros(mesh.n_scalar_dofs)
    for vx in range(mesh.nx + 1):
        for vy in range(mesh.ny + 1):
            x = mesh.origin[0] + vx * mesh.hx
            y = mesh.origin[1] + vy * mesh.hy
            coeffs[vx * mesh.n1y + vy] = a + b * x + c * y
    return coeffs


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


def test_locate_rejects_outside_points():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 1)
    with pytest.raises(MeshQueryError, match="outside the mesh"):
        evaluate(mesh, np.zeros(mesh.n_scalar_dofs), np.array([[1.5, 0.5]]))


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


def test_assembled_matrix_is_symmetric():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 5)
    disc = IndicatorField(inside=lambda pts: (pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.5) ** 2 < 0.16)
    sysm = assemble_volume(mesh, PoissonCoefficient(), disc, tree_depth=4)
    d = sysm.K - sysm.K.T
    assert abs(d).max() == 0.0


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
        area += integrate_over_tree(tree, lambda q: inside(q).astype(float), rule)
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


@pytest.mark.parametrize("with_body", [False, True])
@pytest.mark.parametrize("extra", [-1, 0, 2])
@pytest.mark.parametrize("p", [1, 3, 8])
@pytest.mark.parametrize("material", [PoissonCoefficient(c=1.5), PlaneStress(E=2.0, nu=0.3)],
                         ids=["poisson", "plane_stress"])
def test_factorized_volume_matches_dense_oracle(material, p, extra, with_body):
    """The sum-factorized cell contraction equals the pointwise dense one on a
    cut disc whose deepest leaves still mix inside and outside points."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 0.8), 2, 2, p)
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
    """Diagonal pivots without a threshold still stop at an exact zero pivot:
    on the zero matrix, and on a K that is nonzero except for the rows of
    modes supported only in the unpenalized fictitious region."""
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
    holed = GlobalSystem(K=(vol.K + Kp).tocsr(), f=vol.f + fp, mesh=mesh)
    zero_rows = np.diff(holed.K.indptr) == 0
    assert zero_rows.sum() == 120 and holed.ndof == 169
    for sysm in (empty, holed):
        with pytest.raises(SolverError):
            solve(sysm)


def test_solve_fill_stays_sparse():
    """The SPD ordering keeps the factor of an 8 x 8, p = 8 Poisson system
    (4,225 dofs) well under a million nonzeros; an unsymmetric column ordering
    with partial pivoting fills it to 2.4 million."""
    mesh = StructuredMesh((0, 0), (1, 1), 8, 8, 8)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere),
                           body=lambda q: np.ones(q.shape[0]))
    pinned = apply_strong_zero(sysm, mesh.boundary_scalar_dofs())
    assert pinned.ndof == 4225
    solve(pinned)
    assert pinned.last_residual < 1e-12
    assert 0 < pinned.stats["factor_nnz"] < 1_000_000


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


def test_evaluate_gradients_match_finite_differences():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 4)
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=mesh.n_scalar_dofs)
    xs = rng.uniform(0.1, 0.9, size=(20, 2))
    _, grads = evaluate(mesh, coeffs, xs, gradients=True)
    h = 1e-6
    for axis in (0, 1):
        dp = xs.copy()
        dm = xs.copy()
        dp[:, axis] += h
        dm[:, axis] -= h
        fd = (evaluate(mesh, coeffs, dp) - evaluate(mesh, coeffs, dm)) / (2 * h)
        np.testing.assert_allclose(grads[:, axis], fd, atol=2e-8)


def test_strain_energy_matches_quadratic_form():
    mesh = StructuredMesh((0, 0), (1, 1), 2, 2, 3)
    sysm = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside=everywhere))
    rng = np.random.default_rng(6)
    u = rng.normal(size=mesh.n_scalar_dofs)
    want = 0.5 * u @ (sysm.K @ u)
    assert strain_energy(sysm, u) == pytest.approx(want, rel=1e-14)


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
