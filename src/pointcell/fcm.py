"""Structured embedding mesh, fictitious-domain assembly and solution access.

The physical domain is embedded in a rectangle meshed by nx x ny equal cells
carrying tensor shape functions of degree p.  An indicator field classifies
points as physical or fictitious; the fictitious material is scaled by a small
alpha so the discrete operator stays regular without meshing the boundary.
Volume terms are integrated on indicator-driven quadtrees per cell.  Every
quadtree leaf is a rectangle carrying a tensor Gauss rule, so a cell's volume
integrals are sum-factorized: the 1D shape functions are tabulated only at
each leaf's x and y abscissae, and the pointwise weight alpha * w is
contracted with the y tables leaf by leaf and then with the x tables in one
matrix product (Orszag's sum factorization on the finite-cell quadtree rule).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import basis as basis_mod
from .errors import MeshQueryError, SolverError
from .quadrature import build_alpha_tree, gauss_legendre_1d, tree_quadrature_points


class StructuredMesh:
    """Uniform rectangular grid with a shared polynomial degree.

    Scalar degrees of freedom are the tensor product of two 1D p-version dof
    lines (vertices first, then per-element internal modes), which makes the
    basis C0 across cell interfaces without any orientation bookkeeping.
    """

    def __init__(self, origin, lengths, nx: int, ny: int, degree: int):
        if nx < 1 or ny < 1:
            raise ValueError(f"cell counts must be >= 1, got {nx} x {ny}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.origin = np.asarray(origin, dtype=float).reshape(2)
        self.lengths = np.asarray(lengths, dtype=float).reshape(2)
        if not np.all(self.lengths > 0.0):
            raise ValueError(f"mesh extents must be positive, got {self.lengths}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.degree = int(degree)
        self.hx = self.lengths[0] / self.nx
        self.hy = self.lengths[1] / self.ny
        p = self.degree
        self.n1x = self.nx * p + 1
        self.n1y = self.ny * p + 1
        self.n_scalar_dofs = self.n1x * self.n1y
        self._dof_1d_x = self._dof_line(self.nx)
        self._dof_1d_y = self._dof_line(self.ny)

    def _dof_line(self, ne):
        p = self.degree
        table = np.empty((ne, p + 1), dtype=int)
        for e in range(ne):
            table[e, 0] = e
            table[e, 1] = e + 1
            for a in range(2, p + 1):
                table[e, a] = (ne + 1) + e * (p - 1) + (a - 2)
        return table

    def cell_bounds(self, ix: int, iy: int):
        x0 = self.origin[0] + ix * self.hx
        y0 = self.origin[1] + iy * self.hy
        return np.array([x0, y0, x0 + self.hx, y0 + self.hy])

    def cells(self):
        for iy in range(self.ny):
            for ix in range(self.nx):
                yield ix, iy

    def cell_dofs(self, ix: int, iy: int):
        """Global scalar dof ids of cell (ix, iy) in flat tensor mode order."""
        gx = self._dof_1d_x[ix]
        gy = self._dof_1d_y[iy]
        return (gx[:, None] * self.n1y + gy[None, :]).reshape(-1)

    def locate(self, xs):
        """Cell indices and local coordinates for points xs (m, 2)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        rel = xs - self.origin
        tol = 1e-12 * max(self.lengths)
        if np.any(rel < -tol) or np.any(rel > self.lengths + tol):
            bad = xs[np.any((rel < -tol) | (rel > self.lengths + tol), axis=1)][0]
            raise MeshQueryError(f"point {bad} lies outside the mesh")
        ix = np.clip((rel[:, 0] // self.hx).astype(int), 0, self.nx - 1)
        iy = np.clip((rel[:, 1] // self.hy).astype(int), 0, self.ny - 1)
        xi = np.clip(2.0 * (rel[:, 0] - ix * self.hx) / self.hx - 1.0, -1.0, 1.0)
        eta = np.clip(2.0 * (rel[:, 1] - iy * self.hy) / self.hy - 1.0, -1.0, 1.0)
        return ix, iy, xi, eta

    def local_coords(self, ix, iy, xs):
        """Local coordinates of xs within a known cell, computed exactly at
        the center (no clipping)."""
        b = self.cell_bounds(ix, iy)
        xc = 0.5 * (b[0] + b[2])
        yc = 0.5 * (b[1] + b[3])
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return (xs[:, 0] - xc) * (2.0 / self.hx), (xs[:, 1] - yc) * (2.0 / self.hy)

    def boundary_scalar_dofs(self):
        """Scalar dofs whose basis functions are nonzero on the mesh boundary."""
        A = np.arange(self.n1x)
        B = np.arange(self.n1y)
        on_x = np.isin(A, [0, self.nx])
        on_y = np.isin(B, [0, self.ny])
        grid = on_x[:, None] | on_y[None, :]
        return np.nonzero(grid.reshape(-1))[0]


@dataclass(frozen=True)
class PoissonCoefficient:
    """Scalar diffusion material: integrand c * grad u . grad w."""

    c: float = 1.0
    ncomp: int = field(default=1, init=False)

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.c}")

    def blocks(self):
        """Nonzero coupling blocks (d, e, C_de); see assemble_volume."""
        c = np.array([[self.c]])
        return [(0, 0, c), (1, 1, c)]


@dataclass(frozen=True)
class PlaneStress:
    """Linear elastic plane stress material."""

    E: float = 1.0
    nu: float = 0.3
    ncomp: int = field(default=2, init=False)

    def __post_init__(self):
        if not self.E > 0.0:
            raise ValueError(f"Young's modulus must be positive, got {self.E}")
        if not 0.0 <= self.nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {self.nu}")

    def moduli(self):
        d11 = self.E / (1.0 - self.nu**2)
        return d11, self.nu * d11, 0.5 * self.E / (1.0 + self.nu)

    def blocks(self):
        """Nonzero coupling blocks (d, e, C_de) of eps(w)^T D eps(u); see
        assemble_volume."""
        d11, d12, d33 = self.moduli()
        return [(0, 0, np.array([[d11, 0.0], [0.0, d33]])),
                (1, 1, np.array([[d33, 0.0], [0.0, d11]])),
                (0, 1, np.array([[0.0, d12], [d33, 0.0]])),
                (1, 0, np.array([[0.0, d33], [d12, 0.0]]))]


@dataclass(frozen=True)
class IndicatorField:
    """Physical-domain classifier with fictitious stiffness scaling.

    inside maps (m, 2) points to a boolean array; alpha multiplies both the
    stiffness and the body-force integrand (1 inside, alpha_fic outside).
    """

    inside: object
    alpha_fic: float = 1e-8

    def alpha(self, pts):
        flags = np.asarray(self.inside(pts), dtype=bool)
        return np.where(flags, 1.0, self.alpha_fic)


def everywhere(pts):
    """Indicator for a purely physical embedding domain."""
    return np.ones(pts.shape[0], dtype=bool)


@dataclass
class GlobalSystem:
    """Assembled sparse operator and load vector.

    ncomp is 1 for scalar problems and 2 for plane stress; component c of
    scalar dof s is dof ncomp * s + c (see component_dofs).  stats carries
    assembly counters.
    """

    K: sp.csr_matrix
    f: np.ndarray
    mesh: StructuredMesh
    ncomp: int = 1
    stats: dict = field(default_factory=dict)
    last_residual: float | None = None

    @property
    def ndof(self):
        return self.f.size


def component_dofs(scalar_dofs, ncomp: int):
    """Dof ids of all ncomp components of the given scalar dofs.

    The layout is interleaved: component c of scalar dof s is dof
    ncomp * s + c, so the result lists each scalar dof's components in turn.
    For ncomp = 1 the scalar ids are returned unchanged.
    """
    scalar_dofs = np.asarray(scalar_dofs, dtype=int)
    return (ncomp * scalar_dofs[:, None] + np.arange(ncomp)).reshape(-1)


def scatter_cells(mesh: StructuredMesh, ncomp: int, cell_pairs):
    """Sum cell-local pairs into a global symmetric operator and load.

    cell_pairs yields (ix, iy, Ke, fe) with Ke, fe in the cell's flat mode
    order, each mode's ncomp components in turn (the layout of
    component_dofs).  Returns (K, f) with K the CSR matrix 0.5 * (K + K^T).
    """
    ndof = mesh.n_scalar_dofs * ncomp
    rows, cols, vals = [], [], []
    f = np.zeros(ndof)
    for ix, iy, Ke, fe in cell_pairs:
        idx = component_dofs(mesh.cell_dofs(ix, iy), ncomp)
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(Ke.reshape(-1))
        np.add.at(f, idx, fe)
    if not rows:
        return sp.csr_matrix((ndof, ndof)), f
    K = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    return (0.5 * (K + K.T)).tocsr(), f


def _factorized_block(W, Xd, Xe, Yd, Ye):
    """sum over points of W (X_d Y_d)^T (X_e Y_e) in flat mode order.

    W is (L, n, n); the tables are (L, n, p + 1).  The y sum is a batched
    product per leaf, the x sum one matrix product over all leaves.
    """
    L, n, n1 = Xd.shape
    YY = (Yd[:, :, :, None] * Ye[:, :, None, :]).reshape(L, n, n1 * n1)
    T = (W @ YY).reshape(L * n, n1 * n1)
    XX = (Xd[:, :, :, None] * Xe[:, :, None, :]).reshape(L * n, n1 * n1)
    K4 = (XX.T @ T).reshape(n1, n1, n1, n1)
    return K4.transpose(0, 2, 1, 3).reshape(n1 * n1, n1 * n1)


def assemble_volume(mesh: StructuredMesh, material, indicator: IndicatorField,
                    body=None, tree_depth: int = 0, n_gauss: int | None = None) -> GlobalSystem:
    """Volume stiffness and body load over the embedding domain.

    Each cell is integrated on an indicator-driven quadtree of depth
    tree_depth with an n_gauss x n_gauss Gauss rule per leaf (default
    p + 1 points).  body maps (m, 2) points to (m,) values (scalar) or
    (m, ncomp) rows; the indicator's alpha multiplies both integrands.

    The material's blocks() give the integrand as the sum over gradient
    directions d, e of (d_d w)^T C_de (d_e u), with C_de ncomp x ncomp, so
    the cell matrix is the sum of kron(G_d^T W G_e, C_de) in the layout of
    component_dofs.  Mode (a, b) is N_a(x) N_b(y), so the gradient factors
    into 1D tables: d/dx is X_0 = N_a'(x), Y_0 = N_b(y) and d/dy is
    X_1 = N_a(x), Y_1 = N_b'(y).  On a cell with L leaves of n x n points,
    point (l, i, j) has the leaf's i-th x- and j-th y-abscissa, and

        G_d^T W G_e [(a, b), (a', b')]
            = sum_{l, i} X_d[a, l, i] X_e[a', l, i]
                         sum_j W[l, i, j] Y_d[b, l, j] Y_e[b', l, j],

    a batched (n x n) @ (n x (p + 1)^2) product per leaf followed by one
    ((p + 1)^2 x L n) @ (L n x (p + 1)^2) product.  The body load is
    f[a, b, c] = sum_{l, i, j} N_a(x_li) N_b(y_lj) W[l, i, j] B_c[l, i, j]
    in the same two steps.  W = alpha * w stays pointwise, so the
    factorization is exact for any indicator; work and memory per cell are
    O(L n (p + 1)^2) tables instead of O(L n^2 (p + 1)^2).
    """
    p = mesh.degree
    n1 = p + 1
    ncomp = material.ncomp
    blocks = material.blocks()
    if n_gauss is None:
        n_gauss = p + 1
    rule = gauss_legendre_1d(n_gauss)
    n = rule.n
    pairs = []
    n_points = 0
    n_cut = 0
    for ix, iy in mesh.cells():
        bounds = mesh.cell_bounds(ix, iy)
        tree = build_alpha_tree(bounds, indicator.inside, tree_depth)
        if tree.n_leaves > 1:
            n_cut += 1
        pts, wts, _ = tree_quadrature_points(tree, rule)
        n_points += pts.shape[0]
        L = tree.n_leaves
        W = (wts * indicator.alpha(pts)).reshape(L, n, n)
        xi, eta = mesh.local_coords(ix, iy, pts)
        # Point (l, i, j) sits at the i-th x- and the j-th y-abscissa of leaf l;
        # the 1D tables are (L, n, p + 1).
        Nx, dNx = (t.reshape(n1, L, n).transpose(1, 2, 0) for t in
                   basis_mod.shape_functions_1d(p, xi.reshape(L, n, n)[:, :, 0].ravel()))
        Ny, dNy = (t.reshape(n1, L, n).transpose(1, 2, 0) for t in
                   basis_mod.shape_functions_1d(p, eta.reshape(L, n, n)[:, 0, :].ravel()))
        X = (dNx * (2.0 / mesh.hx), Nx)
        Y = (Ny, dNy * (2.0 / mesh.hy))
        Ke = sum(np.kron(_factorized_block(W, X[d], X[e], Y[d], Y[e]), C)
                 for d, e, C in blocks)
        if body is None:
            fe = np.zeros(n1 * n1 * ncomp)
        else:
            B = np.asarray(body(pts), dtype=float).reshape(L, n, n, ncomp)
            WB = (W[..., None] * B).transpose(0, 3, 1, 2)
            # S[(l, i), (b, c)] = sum_j (W B)[l, i, j, c] N_b(y_lj)
            S = (WB @ Ny[:, None]).transpose(0, 2, 3, 1).reshape(L * n, n1 * ncomp)
            fe = (Nx.reshape(L * n, n1).T @ S).reshape(-1)
        pairs.append((ix, iy, Ke, fe))
    K, fvec = scatter_cells(mesh, ncomp, pairs)
    return GlobalSystem(K=K, f=fvec, mesh=mesh, ncomp=ncomp,
                        stats={"volume_points": n_points, "cut_cells": n_cut})


def solve(system: GlobalSystem) -> np.ndarray:
    """Direct sparse solve of K u = f for a symmetric positive definite K.

    Every operator this package assembles is SPD: a volume stiffness with
    alpha_fic > 0 (or no fictitious region), plus positive semidefinite
    penalty pairs, plus unit-diagonal strong pins.  K is therefore factored
    symmetrically: a minimum-degree ordering of the pattern of K + K^T,
    eliminated with diagonal pivots (SuperLU's symmetric mode with a zero
    pivot threshold).  For SPD matrices this is Cholesky, which is backward
    stable without pivoting; partial pivoting and an unsymmetric column
    ordering only add fill (12x on the 16 x 16, p = 10 membrane).

    The relative residual is stored on system.last_residual (a RuntimeWarning
    is issued above 1e-10) and the number of nonzeros in L + U on
    system.stats["factor_nnz"].  A SolverError is raised when the factor is
    exactly singular or the solution is not finite (typically a system with
    no Dirichlet constraints at all).
    """
    K = system.K.tocsc()
    try:
        lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        u = lu.solve(system.f)
    except RuntimeError as exc:
        raise SolverError(
            f"sparse factorization failed ({exc}); the system is singular, "
            "check that Dirichlet constraints (penalty or strong) were added"
        ) from None
    system.stats["factor_nnz"] = int(lu.L.nnz + lu.U.nnz)
    if not np.all(np.isfinite(u)):
        raise SolverError("solution contains non-finite entries; system is singular "
                          "or lacks Dirichlet constraints")
    scale = max(float(np.linalg.norm(system.f)), np.finfo(float).tiny)
    system.last_residual = float(np.linalg.norm(system.K @ u - system.f) / scale)
    if system.last_residual > 1e-10:
        warnings.warn(f"solver residual {system.last_residual:.3e} exceeds 1.0e-10",
                      RuntimeWarning, stacklevel=2)
    return u


def apply_strong_zero(system: GlobalSystem, scalar_dofs) -> GlobalSystem:
    """Homogeneous strong constraints by row/column elimination.

    scalar_dofs index scalar basis functions; every component of each is
    fixed (component_dofs).  Eliminated rows and columns are zeroed
    with a unit diagonal and zero load.
    """
    fixed = component_dofs(scalar_dofs, system.ncomp)
    free = np.ones(system.ndof)
    free[fixed] = 0.0
    D = sp.diags(free)
    pin = sp.diags(1.0 - free)
    K = (D @ system.K @ D + pin).tocsr()
    f = system.f * free
    return GlobalSystem(K=K, f=f, mesh=system.mesh, ncomp=system.ncomp,
                        stats=dict(system.stats))


def evaluate(mesh: StructuredMesh, coeffs: np.ndarray, xs, ncomp: int = 1,
             gradients: bool = False):
    """Discrete field (and optionally gradients) at points inside the mesh.

    coeffs is in the layout of component_dofs.  Returns values of shape
    (m,) for scalar fields or (m, ncomp) for vector fields; with
    gradients=True a tuple (values, grads) where grads has one xy pair per
    component.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    p = mesh.degree
    ix, iy, xi, eta = mesh.locate(xs)
    m = xs.shape[0]
    by_dof = np.asarray(coeffs).reshape(-1, ncomp)
    vals = np.zeros((m, ncomp))
    grads = np.zeros((m, ncomp, 2)) if gradients else None
    cell_ids = ix * mesh.ny + iy
    for cid in np.unique(cell_ids):
        sel = np.nonzero(cell_ids == cid)[0]
        cx, cy = int(cid) // mesh.ny, int(cid) % mesh.ny
        cc = by_dof[mesh.cell_dofs(cx, cy)]
        V, Gxi, Geta = basis_mod.eval_basis(p, xi[sel], eta[sel])
        vals[sel] = V @ cc
        if gradients:
            grads[sel, :, 0] = (Gxi * (2.0 / mesh.hx)) @ cc
            grads[sel, :, 1] = (Geta * (2.0 / mesh.hy)) @ cc
    if ncomp == 1:
        vals = vals[:, 0]
        if gradients:
            grads = grads[:, 0, :]
    return (vals, grads) if gradients else vals


def strain_energy(volume_system: GlobalSystem, coeffs: np.ndarray) -> float:
    """Energy 0.5 u^T K u of the volume (penalty-free) operator."""
    return 0.5 * float(coeffs @ (volume_system.K @ coeffs))
