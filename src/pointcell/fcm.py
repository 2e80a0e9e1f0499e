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
A cell the indicator does not cut is one leaf on the rule's own abscissae,
so all uncut cells share their 1D tables, and one contraction per distinct
weight array gives the element matrix of every uncut cell that has it.

StructuredMesh._dof_line alone fixes the dof numbering of each 1D line; the
line patterns, cell dofs and places, boundary dofs and condensation plan all
derive from it, so another numbering is a change to that one method.
Likewise cell_of alone decides which cell holds a point, and cell_index
alone maps the cell numbers iy * nx + ix to (ix, iy).
Every operator on a mesh shares one sparsity pattern, the tensor product of
the two 1D dof lines (StructuredMesh.pattern), and stores the entries it
never touches as explicit zeros.  Cell matrices are added straight into its
data array; sums of operators (add_operators), scaling by beta and strong
pins (apply_strong_zero) act on the data alone.  Field sampling uses the
same factorization as assembly: 1D tables at each point's xi and eta and
one contraction with the cell's coefficient block.

The solve condenses statically: a cell's (p - 1)^2 interior modes couple
only with that cell's modes, so they are eliminated cell by cell (one
batched Cholesky factorization of the interior blocks, whose places in the
data array StructuredMesh.condensation gives) and only the skeleton of
vertex and edge modes is factored as a sparse matrix.  This needs K
symmetric positive definite, interior blocks included, and exactly
symmetric entry for entry; every operator the package assembles is.  The
solve records the skeleton's size and the fill of its factor in the
system's stats (skeleton_dofs, factor_nnz).  A relative residual above
1e-10, typically of a system no Dirichlet constraint holds, is a SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import basis as basis_mod
from .errors import MeshQueryError, SolverError
from .quadrature import (build_alpha_tree, gauss_legendre_1d, is_cut, tensor_points,
                         tree_quadrature_points)


class StructuredMesh:
    """Uniform rectangular grid with a shared polynomial degree.

    Scalar degrees of freedom are the tensor product of two 1D p-version dof
    lines (numbered by _dof_line), which makes the basis C0 across cell
    interfaces without any orientation bookkeeping.
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
        self.grid_lines = (self.origin[0] + self.hx * np.arange(self.nx + 1),
                           self.origin[1] + self.hy * np.arange(self.ny + 1))
        p = self.degree
        self.n1x = self.nx * p + 1
        self.n1y = self.ny * p + 1
        self.n_scalar_dofs = self.n1x * self.n1y
        self._dof_1d_x = self._dof_line(self.nx)
        self._dof_1d_y = self._dof_line(self.ny)
        self._line_x = self._line_pattern(self.nx)
        self._line_y = self._line_pattern(self.ny)
        self._patterns = {}
        self._condensations = {}

    def _dof_line(self, ne):
        """Global ids of the 1D modes of each of ne elements, (ne, p + 1): left
        vertex, right vertex, internal modes.  The only code that knows the
        order: vertices first, then each element's internal modes."""
        e = np.arange(ne)[:, None]
        return np.hstack([e, e + 1, (ne + 1) + e * (self.degree - 1) + np.arange(self.degree - 1)])

    def _line_pattern(self, ne):
        """Sparsity of a dof line with ne elements: two dofs couple when they
        share an element.

        Returns (indptr, indices, rank) of the 1D CSR pattern, with
        rank[e, a, a'] the place of the element's dof a' within the row of
        its dof a.
        """
        dofs = self._dof_line(ne)
        n = ne * self.degree + 1
        pairs = dofs[:, :, None] * n + dofs[:, None, :]
        keys = np.unique(pairs)
        rows, indices = np.divmod(keys, n)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        return indptr, indices, np.searchsorted(keys, pairs) - indptr[dofs][:, :, None]

    def pattern(self, ncomp: int = 1):
        """CSR index arrays (indptr, indices) shared by every operator on the
        mesh with ncomp components per scalar dof.

        The pattern is the tensor product of the two 1D line patterns with
        the components interleaved as in component_dofs: the row of
        component c of scalar dof (gx, gy) holds, in ascending order, every
        (gx', gy', c') with gx' in row gx of the x line and gy' in row gy of
        the y line, so entry (kx, ky, c') of the row lies at offset
        (kx * len_y(gy) + ky) * ncomp + c'.  Entries that a particular
        operator never touches are stored as explicit zeros.  Built once per
        ncomp; both arrays are read-only, so an in-place scipy call on one
        operator (sort_indices, eliminate_zeros) raises instead of changing
        the pattern of all the others.
        """
        if ncomp not in self._patterns:
            self._patterns[ncomp] = self._build_pattern(ncomp)
        return self._patterns[ncomp]

    def _build_pattern(self, ncomp):
        xp, xi, _ = self._line_x
        yp, yi, _ = self._line_y
        lx = np.diff(xp)
        nnz = int(xi.size * yi.size * ncomp * ncomp)
        dtype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
        # The y factor has one row per (gy, c), holding (gy', c') for gy' in
        # row gy of the y line.  Row (gx, gy, c) holds, for each x neighbour
        # gx' in turn, that y row shifted by ncomp n1y gx'.
        ycols = (ncomp * yi[:, None] + np.arange(ncomp)).astype(dtype).reshape(-1)
        yrows = [ycols[ncomp * yp[g]:ncomp * yp[g + 1]] for g in range(self.n1y)
                 for _ in range(ncomp)]
        ylen = np.array([r.size for r in yrows])
        widths = np.unique(lx)
        ypart = {L: np.concatenate([np.tile(r, L) for r in yrows]) for L in widths}
        repeats = {L: np.repeat(ylen, L) for L in widths}
        xcols = (ncomp * self.n1y * xi).astype(dtype)
        xpart = np.concatenate([np.tile(xcols[xp[g]:xp[g + 1]], len(yrows))
                                for g in range(self.n1x)])
        indices = (np.repeat(xpart, np.concatenate([repeats[L] for L in lx]))
                   + np.concatenate([ypart[L] for L in lx]))
        indptr = np.zeros(self.n1x * len(yrows) + 1, dtype=dtype)
        np.cumsum(np.outer(lx, ylen).reshape(-1), out=indptr[1:])
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

    def local_positions(self, ix, iy, ncomp: int = 1):
        """Places in pattern(ncomp)'s data array of the local matrices of the
        cells (ix[k], iy[k]), shape (m, n, n) with n = (p + 1)^2 ncomp.

        Rows and columns are local dofs in the layout of component_dofs:
        entry (a, b, c) x (a', b', c') of mode (a, b) = N_a(x) N_b(y) lies
        at indptr[row] + (rank_x(a, a') * len_y(b) + rank_y(b, b')) * ncomp
        + c', with the ranks read from the 1D line patterns.  The result
        has the pattern's index dtype.
        """
        indptr, _ = self.pattern(ncomp)
        dt = indptr.dtype
        n1 = self.degree + 1
        n = n1 * n1 * ncomp
        comps = np.arange(ncomp, dtype=dt)
        rows = component_dofs(self.cell_dofs(ix, iy), ncomp).reshape(-1, n1, n1, ncomp)
        len_y = (ncomp * np.diff(self._line_y[0])[self._dof_1d_y[iy]]).astype(dt)
        rank_x = self._line_x[2][ix].astype(dt)
        rank_y = self._line_y[2][iy].astype(dt)
        # x part over (m, a, b, c, a'), y part over (m, b, (b', c'))
        xpart = (indptr[rows][..., None]
                 + (rank_x[:, :, None, :] * len_y[:, None, :, None])[:, :, :, None, :])
        ypart = (ncomp * rank_y[..., None] + comps).reshape(len(iy), n1, n1 * ncomp)
        return (xpart[..., None] + ypart[:, None, :, None, None]).reshape(-1, n, n)

    def condensation(self, ncomp: int = 1):
        """Index plan of the static condensation in solve, built once per
        ncomp (see Condensation)."""
        if ncomp not in self._condensations:
            self._condensations[ncomp] = self._build_condensation(ncomp)
        return self._condensations[ncomp]

    def _build_condensation(self, ncomp):
        indptr, indices = self.pattern(ncomp)
        dt = indptr.dtype
        n1 = self.degree + 1
        a, b, _ = np.unravel_index(np.arange(n1 * n1 * ncomp), (n1, n1, ncomp))
        inner = (a >= 2) & (b >= 2)
        rows_i, rows_s = np.nonzero(inner)[0], np.nonzero(~inner)[0]
        ix, iy = self.cell_index()
        dofs = component_dofs(self.cell_dofs(ix, iy), ncomp).reshape(ix.size, -1)
        is_skeleton = np.ones(self.n_scalar_dofs * ncomp, dtype=bool)
        is_skeleton[dofs[:, rows_i]] = False
        skeleton = np.nonzero(is_skeleton)[0]
        # The skeleton rows and columns of a matrix whose data are the places
        # in the mesh data array: their data is keep, their pattern the
        # skeleton operator's.
        n = indptr.size - 1
        places = sp.csr_matrix((np.arange(indices.size, dtype=dt), indices, indptr), shape=(n, n))
        skel = places[skeleton][:, skeleton]
        skel_place = np.empty(indices.size, dtype=dt)
        skel_place[skel.data] = np.arange(skel.nnz, dtype=dt)
        pos = self.local_positions(ix, iy, ncomp)
        return Condensation(
            interior=dofs[:, rows_i], cell_skeleton=(np.cumsum(is_skeleton) - 1)[dofs[:, rows_s]],
            skeleton=skeleton, ii=pos[:, rows_i[:, None], rows_i],
            i_s=pos[:, rows_i[:, None], rows_s], ss=skel_place[pos[:, rows_s[:, None], rows_s]],
            keep=skel.data, indptr=skel.indptr.astype(dt), indices=skel.indices.astype(dt))

    def cell_bounds(self, ix, iy):
        """(x0, y0, x1, y1) of cell (ix, iy); for arrays of cells, one row
        per cell."""
        x0 = self.origin[0] + np.asarray(ix) * self.hx
        y0 = self.origin[1] + np.asarray(iy) * self.hy
        return np.stack([x0, y0, x0 + self.hx, y0 + self.hy], axis=-1)

    def cells(self):
        """Iterator of every cell's (ix, iy), iy outer, as cell_index numbers them."""
        return zip(*(a.tolist() for a in self.cell_index()))

    def cell_index(self, cid=None):
        """(ix, iy) of the cells numbered cid = iy * nx + ix, the order of
        cells(); every cell's when cid is None."""
        iy, ix = np.divmod(np.arange(self.nx * self.ny) if cid is None else cid, self.nx)
        return ix, iy

    def cell_of(self, xs):
        """Number iy * nx + ix of the cell holding each (m, 2) point xs, -1
        outside the mesh.  Cells are half-open, [x_i, x_i+1) x [y_j, y_j+1),
        and closed at the mesh's upper edges: a point on an interior grid
        line is in the cell above it or to its right."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        # each point's last lower edge at or below it; "inside" fails for nan
        ix, iy = (np.searchsorted(g[:-1], x, side="right") - 1
                  for g, x in zip(self.grid_lines, xs.T))
        lo, hi = np.array([[g[0], g[-1]] for g in self.grid_lines]).T
        inside = np.all((xs >= lo) & (xs <= hi), axis=1)
        return np.where(inside, iy * self.nx + ix, -1)

    def cell_dofs(self, ix, iy):
        """Global scalar dof ids of cell (ix, iy) in flat tensor mode order;
        for arrays of cells, one row per cell."""
        gx = self._dof_1d_x[ix]
        gy = self._dof_1d_y[iy]
        n1 = self.degree + 1
        return (gx[..., :, None] * self.n1y + gy[..., None, :]).reshape(*np.shape(ix), n1 * n1)

    def locate(self, xs):
        """Cell indices (cell_of's) and local coordinates for points xs (m, 2);
        a point within 1e-12 of the mesh size outside it is on its edge."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        rel = xs - self.origin
        tol = 1e-12 * max(self.lengths)
        # "not inside", so that a non-finite point is outside too
        outside = ~np.all((rel >= -tol) & (rel <= self.lengths + tol), axis=1)
        if np.any(outside):
            raise MeshQueryError(f"point {xs[outside][0]} lies outside the mesh")
        xe, ye = self.grid_lines
        ix, iy = self.cell_index(self.cell_of(np.clip(xs, [xe[0], ye[0]], [xe[-1], ye[-1]])))
        xi, eta = np.clip(self.local_coords(ix, iy, xs), -1.0, 1.0)
        return ix, iy, xi, eta

    def local_coords(self, ix, iy, xs):
        """Local coordinates of xs within a known cell, computed exactly at
        the center (no clipping); for arrays of cells, one per point."""
        b = self.cell_bounds(ix, iy)
        xc, yc = (0.5 * (b[..., i] + b[..., i + 2]) for i in (0, 1))
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return (xs[:, 0] - xc) * (2.0 / self.hx), (xs[:, 1] - yc) * (2.0 / self.hy)

    def boundary_scalar_dofs(self):
        """Scalar dofs whose basis functions are nonzero on the mesh boundary."""
        # the first element's left and the last element's right vertex
        on_x = np.isin(np.arange(self.n1x), self._dof_1d_x[[0, -1], [0, 1]])
        on_y = np.isin(np.arange(self.n1y), self._dof_1d_y[[0, -1], [0, 1]])
        grid = on_x[:, None] | on_y[None, :]
        return np.nonzero(grid.reshape(-1))[0]


@dataclass(frozen=True)
class Condensation:
    """Index plan of solve's static condensation on one mesh and ncomp.

    A cell's interior modes, N_a(x) N_b(y) with a, b >= 2, couple only with
    the modes of that cell; every other dof is a skeleton dof.  Per cell,
    in cell order (iy outer, ix inner) and local dof order:

    - interior: the interior dofs, (cells, nI) global ids;
    - cell_skeleton: the skeleton dofs, (cells, nS) ids in the skeleton
      numbering, which keeps the global order;
    - ii, i_s: places in pattern(ncomp)'s data array of the
      interior-interior and interior-skeleton blocks, (cells, nI, nI) and
      (cells, nI, nS);
    - ss: places of the skeleton-skeleton block in the skeleton operator's
      data array, (cells, nS, nS).

    skeleton lists the skeleton dofs in global order; keep holds the places
    in the mesh data array of the skeleton operator's entries, stored as
    the CSR pattern (indptr, indices) of the skeleton rows and columns.
    """

    interior: np.ndarray
    cell_skeleton: np.ndarray
    skeleton: np.ndarray
    ii: np.ndarray
    i_s: np.ndarray
    keep: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    ss: np.ndarray


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
    scalar dof s is dof ncomp * s + c (see component_dofs), and K and f hold
    every dof (ValueError otherwise).  stats carries assembly counters.
    """

    K: sp.csr_matrix
    f: np.ndarray
    mesh: StructuredMesh
    ncomp: int = 1
    stats: dict = field(default_factory=dict)
    last_residual: float | None = None

    def __post_init__(self):
        n = self.mesh.n_scalar_dofs * self.ncomp
        if self.K.shape != (n, n) or np.shape(self.f) != (n,):
            raise ValueError(f"K of shape {self.K.shape} and f of shape {np.shape(self.f)} do "
                             f"not match the mesh's {n} dofs at ncomp={self.ncomp}")

    @property
    def ndof(self):
        return self.f.size


def component_dofs(scalar_dofs, ncomp: int):
    """Dof ids of all ncomp components of the given scalar dofs.

    The layout is interleaved: component c of scalar dof s is dof
    ncomp * s + c, so the result lists each scalar dof's components in turn,
    flat (an array's rows one after another).  For ncomp = 1 it is the ids.
    """
    scalar_dofs = np.asarray(scalar_dofs, dtype=int)
    return (ncomp * scalar_dofs[..., None] + np.arange(ncomp)).reshape(-1)


def scatter_cells(mesh: StructuredMesh, ncomp: int, cell_pairs):
    """Sum cell-local pairs into a global symmetric operator and load.

    cell_pairs yields (ix, iy, Ke, fe) with Ke, fe in the cell's flat mode
    order, each mode's ncomp components in turn (the layout of
    component_dofs).  Each Ke enters as its symmetric part 0.5 (Ke + Ke^T),
    added straight into the data array of the mesh's pattern at the cell's
    places (StructuredMesh.local_positions of that one cell).  Returns (K, f)
    with K a CSR matrix on that pattern, sharing its index arrays.
    """
    indptr, indices = mesh.pattern(ncomp)
    data = np.zeros(indices.size)
    f = np.zeros(mesh.n_scalar_dofs * ncomp)
    for ix, iy, Ke, fe in cell_pairs:
        # A cell touches each of its positions and dofs once, so fancy-index
        # adds accumulate without loss.
        sym = Ke + Ke.T
        sym *= 0.5
        # intp places: a fancy-index add converts int32 ones on both read and write
        data[mesh.local_positions([ix], [iy], ncomp).reshape(-1).astype(np.intp)] += sym.reshape(-1)
        f[component_dofs(mesh.cell_dofs(ix, iy), ncomp)] += fe
    return sp.csr_matrix((data, indices, indptr), shape=(f.size, f.size)), f


def add_operators(A, B) -> sp.csr_matrix:
    """A + B for two CSR operators stored on one pattern, as a sum of data.

    The result keeps A's pattern, explicit zeros included, and shares its
    index arrays; scipy's A + B would build a new pattern without the
    zeros.  Raises ValueError when the patterns differ.
    """
    if A.shape != B.shape or not (np.array_equal(A.indptr, B.indptr)
                                  and np.array_equal(A.indices, B.indices)):
        raise ValueError("operators are not stored on one sparsity pattern")
    return sp.csr_matrix((A.data + B.data, A.indices, A.indptr), shape=A.shape)


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

    One is_cut call over every cell's root stencil classifies the mesh.  An
    uncut cell (tree_depth 0, or a stencil that agrees) is the one leaf
    build_alpha_tree would give: its points sit at the rule's own abscissae
    and its Jacobian is 0.25 hx hy on every cell, so the 1D tables are
    tabulated once at rule.points and the uncut cells differ only in their
    weight arrays W.  The contraction runs once per distinct W (one on an
    uncut mesh, typically two on an embedding: alpha 1 and alpha_fic), and
    the uncut loads are one batched product.  A cell whose points still see
    mixed alpha has a W of its own, so the sharing is exact.  Cut cells
    build their quadtree (build_alpha_tree, tree_quadrature_points).
    """
    p = mesh.degree
    n1 = p + 1
    ncomp = material.ncomp
    blocks = material.blocks()
    if n_gauss is None:
        n_gauss = p + 1
    rule = gauss_legendre_1d(n_gauss)
    n = rule.n
    # every cell's bounds, in mesh.cells() order
    bounds = mesh.cell_bounds(*mesh.cell_index())
    uncut = (np.ones(len(bounds), dtype=bool) if tree_depth == 0
             else ~is_cut(bounds, indicator.inside))
    n_uncut = int(uncut.sum())
    stats = {"volume_points": n_uncut * n * n, "cut_cells": len(bounds) - n_uncut}

    # The uncut cells: shared 1D tables, one element matrix per distinct W.
    pts = tensor_points(bounds[uncut], rule)
    wt2 = (0.25 * mesh.hx * mesh.hy) * np.outer(rule.weights, rule.weights).reshape(-1)
    W_uncut = wt2 * indicator.alpha(pts).reshape(-1, n * n)
    W_rows, row_of = np.unique(W_uncut, axis=0, return_inverse=True)
    # the 1D modes at the rule's abscissae; as tables of one leaf, (1, n, p + 1)
    N, dN = basis_mod.shape_functions_1d(p, rule.points)
    X = (dN.T[None] * (2.0 / mesh.hx), N.T[None])
    Y = (N.T[None], dN.T[None] * (2.0 / mesh.hy))
    Ke_rows = [sum(np.kron(_factorized_block(w.reshape(1, n, n), X[d], X[e], Y[d], Y[e]), C)
                   for d, e, C in blocks) for w in W_rows]
    if body is None:
        fe_uncut = np.zeros((n_uncut, n1 * n1 * ncomp))
    else:
        B = np.asarray(body(pts), dtype=float).reshape(n_uncut, n, n, ncomp)
        WB = (W_uncut.reshape(n_uncut, n, n, 1) * B).reshape(n_uncut, n, n * ncomp)
        # fe[k, a, b, c] = sum_j N_b(y_j) sum_i N_a(x_i) (W B)[k, i, j, c]
        fe_uncut = (N @ (N @ WB).reshape(n_uncut, n1, n, ncomp)).reshape(n_uncut, n1 * n1 * ncomp)
    uncut_pairs = zip(row_of.ravel(), fe_uncut)

    def cell_pairs():
        # a generator, so each cell is scattered while its Ke is still in cache
        for k, (ix, iy) in enumerate(mesh.cells()):
            if uncut[k]:
                row, fe = next(uncut_pairs)
                yield ix, iy, Ke_rows[row], fe
                continue
            tree = build_alpha_tree(bounds[k], indicator.inside, tree_depth)
            pts, wts, _ = tree_quadrature_points(tree, rule)
            stats["volume_points"] += pts.shape[0]
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
            yield ix, iy, Ke, fe
    K, fvec = scatter_cells(mesh, ncomp, cell_pairs())
    return GlobalSystem(K=K, f=fvec, mesh=mesh, ncomp=ncomp, stats=stats)


def _mesh_pattern_data(K, mesh: StructuredMesh, ncomp: int):
    """K's entries as a data array on mesh.pattern(ncomp).

    An operator already stored on the pattern gives its own data.  Any other
    CSR operator is re-stored with one sorted-key lookup of its (row, col)
    pairs in the pattern's, which lists them in ascending order; its
    unstored entries become zeros.  Raises ValueError for a stored entry
    outside the pattern.
    """
    indptr, indices = mesh.pattern(ncomp)
    if (K.indices is indices and K.indptr is indptr) or (
            np.array_equal(K.indptr, indptr) and np.array_equal(K.indices, indices)):
        return K.data
    n = K.shape[0]
    rows = np.arange(n, dtype=np.int64)
    keys = np.repeat(rows, np.diff(K.indptr)) * n + K.indices
    mesh_keys = np.repeat(rows, np.diff(indptr)) * n + indices
    at = np.minimum(np.searchsorted(mesh_keys, keys), mesh_keys.size - 1)
    if not np.array_equal(mesh_keys[at], keys):
        raise ValueError("the operator stores an entry outside the mesh's sparsity pattern")
    return np.bincount(at, weights=K.data, minlength=indices.size)


def solve(system: GlobalSystem) -> np.ndarray:
    """Direct solve of K u = f for a symmetric positive definite K, with
    every cell's interior modes condensed out first.

    A cell's interior modes (N_a(x) N_b(y) with a, b >= 2; (p - 1)^2 ncomp
    dofs) couple only with the modes of that cell, so they are eliminated
    cell by cell before the global factorization, the static condensation
    of p-version finite elements (Szabo & Babuska, Finite Element Analysis,
    1991).  With the cell blocks A_II, A_IS of K (Condensation gives their
    places in K's data array) and A_II = L L^T:

    1. all interior blocks are factored in one batched Cholesky call;
    2. W = L^-1 [A_IS | f_I], and the skeleton operator is
       K_SS - sum over cells of W_S^T W_S, its load f_S - W_S^T w_f;
    3. the skeleton system is factored with a minimum-degree ordering of
       the pattern of K_SS + K_SS^T and diagonal pivots (SuperLU's
       symmetric mode with a zero pivot threshold), which for SPD matrices
       is a sparse Cholesky;
    4. the interiors follow as u_I = L^-T (w_f - W_S u_S).

    The symmetric form W_S^T W_S keeps the accuracy of the Cholesky factor
    at large penalties, where the unsymmetric A_SI X with X = A_II^-1 A_IS
    loses it.

    Every operator this package assembles is SPD: a volume stiffness with
    alpha_fic > 0 (or no fictitious region), plus positive semidefinite
    penalty pairs, plus unit-diagonal strong pins; so is each of its
    interior blocks.  K must also be exactly symmetric, entry for entry:
    each W_S^T W_S is symmetrized and the cells are summed in one order for
    (i, j) and (j, i), so the skeleton operator is exactly symmetric too,
    and its CSR arrays are handed to SuperLU as the CSC arrays of its
    transpose.  scatter_cells symmetrizes each cell's matrix in the same
    order for (i, j) and (j, i) on a symmetric pattern, and add_operators
    and apply_strong_zero preserve that.  K is read on the mesh's pattern;
    an operator stored on another pattern (such as scipy's A + B) is
    re-stored on it first, and an entry outside it raises ValueError.

    The relative residual of the full K is stored on system.last_residual,
    the number of nonzeros in the skeleton factor's L + U on
    system.stats["factor_nnz"] and the number of skeleton dofs on
    system.stats["skeleton_dofs"].  A SolverError is raised when an
    interior block is not positive definite (typically modes supported
    only in a fictitious region with alpha_fic = 0), when the skeleton
    factor is exactly singular, when the solution is not finite, or when
    the relative residual exceeds 1e-10; the last three typically mean a
    system with no Dirichlet constraints at all.
    """
    plan = system.mesh.condensation(system.ncomp)
    data = _mesh_pattern_data(system.K, system.mesh, system.ncomp)
    f = system.f
    # np.take: fancy indexing would first copy the int32 places to intp
    try:
        chol = np.linalg.cholesky(data.take(plan.ii))
    except np.linalg.LinAlgError:
        raise SolverError(
            "a cell's interior block is not positive definite; the system is singular, "
            "check the fictitious stiffness alpha_fic and the Dirichlet constraints"
        ) from None
    n_s = plan.ss.shape[1]
    # a non-finite entry fails the Cholesky factor or the final check
    W = scipy.linalg.solve_triangular(
        chol, np.concatenate([data.take(plan.i_s), f[plan.interior][..., None]], axis=2),
        lower=True, check_finite=False)
    G = W.transpose(0, 2, 1) @ W
    S = G[:, :n_s, :n_s] + G[:, :n_s, :n_s].transpose(0, 2, 1)
    S *= 0.5
    n = plan.skeleton.size
    schur = np.bincount(plan.ss.ravel(), S.ravel(), minlength=plan.keep.size)
    K_s = sp.csc_matrix((data.take(plan.keep) - schur, plan.indices, plan.indptr), shape=(n, n))
    f_s = f[plan.skeleton] - np.bincount(plan.cell_skeleton.ravel(), G[:, :n_s, n_s].ravel(),
                                         minlength=n)
    try:
        lu = spla.splu(K_s, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        u_s = lu.solve(f_s)
    except RuntimeError as exc:
        raise SolverError(
            f"sparse factorization failed ({exc}); the system is singular, "
            "check that Dirichlet constraints (penalty or strong) were added"
        ) from None
    system.stats["factor_nnz"] = int(lu.L.nnz + lu.U.nnz)
    system.stats["skeleton_dofs"] = n
    u = np.empty(f.size)
    u[plan.skeleton] = u_s
    rhs = W[:, :, n_s:] - W[:, :, :n_s] @ u_s[plan.cell_skeleton][..., None]
    u[plan.interior] = scipy.linalg.solve_triangular(chol, rhs, lower=True, trans="T",
                                                         check_finite=False)[..., 0]
    if not np.all(np.isfinite(u)):
        raise SolverError("solution contains non-finite entries; system is singular "
                          "or lacks Dirichlet constraints")
    scale = max(float(np.linalg.norm(f)), np.finfo(float).tiny)
    system.last_residual = float(np.linalg.norm(system.K @ u - f) / scale)
    if system.last_residual > 1e-10:
        raise SolverError(f"solver residual {system.last_residual:.3e} exceeds 1.0e-10; "
                          "system is singular or lacks Dirichlet constraints")
    return u


def apply_strong_zero(system: GlobalSystem, scalar_dofs) -> GlobalSystem:
    """Homogeneous strong constraints by row/column elimination.

    scalar_dofs index scalar basis functions; every component of each is
    fixed (component_dofs).  Eliminated rows and columns are zeroed
    with a unit diagonal and zero load.  This is D K D + P with D the free
    and P the fixed indicator on the diagonal, computed as a mask on a copy
    of K's data, so the result keeps K's pattern and K is left unchanged;
    every fixed row must store its diagonal.
    """
    K = system.K
    fixed = np.zeros(system.ndof, dtype=bool)
    fixed[component_dofs(scalar_dofs, system.ncomp)] = True
    data = np.where(np.take(fixed, K.indices), 0.0, K.data)
    rows = np.nonzero(fixed)[0]
    starts = K.indptr[rows]
    counts = K.indptr[rows + 1] - starts
    # the stored entries of the fixed rows, row after row
    entries = np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)
    data[entries] = 0.0
    diagonal = entries[K.indices[entries] == np.repeat(rows, counts)]
    if diagonal.size != rows.size:
        raise ValueError("a fixed dof has no stored diagonal entry")
    data[diagonal] = 1.0
    return GlobalSystem(K=sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape),
                        f=np.where(fixed, 0.0, system.f), mesh=system.mesh,
                        ncomp=system.ncomp, stats=dict(system.stats))


def evaluate(mesh: StructuredMesh, coeffs: np.ndarray, xs, ncomp: int = 1):
    """Discrete field at points inside the mesh.

    coeffs is in the layout of component_dofs, ncomp values per scalar dof
    (ValueError otherwise).  Returns values of shape (m,) for scalar fields
    or (m, ncomp) for vector fields.

    The 1D modes are tabulated once at every point's xi and eta.  The
    points are then grouped by cell and each cell's coefficient block
    C[a, b, c] is contracted as sum_ab N_a(xi) C_abc N_b(eta).
    """
    if np.size(coeffs) != mesh.n_scalar_dofs * ncomp:
        raise ValueError(f"coeffs holds {np.size(coeffs)} values, but the mesh has "
                         f"{mesh.n_scalar_dofs * ncomp} dofs at ncomp={ncomp}")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n1 = mesh.degree + 1
    ix, iy, xi, eta = mesh.locate(xs)
    cell_ids = iy * mesh.nx + ix
    order = np.argsort(cell_ids, kind="stable")
    cells, starts = np.unique(cell_ids[order], return_index=True)
    # (m, p + 1) tables in cell order, so each cell reads a contiguous block
    Nx, Ny = (basis_mod.shape_functions_1d(mesh.degree, t)[0].T[order] for t in (xi, eta))
    by_dof = np.asarray(coeffs).reshape(-1, ncomp)
    srt = np.empty((xs.shape[0], ncomp))
    for cx, cy, lo, hi in zip(*mesh.cell_index(cells), starts, np.append(starts[1:], xs.shape[0])):
        C = by_dof[mesh.cell_dofs(cx, cy)].reshape(n1, n1 * ncomp)
        # T[k, b, c] = sum_a N_a(xi_k) C[a, b, c]
        T = (Nx[lo:hi] @ C).reshape(-1, n1, ncomp)
        srt[lo:hi] = np.einsum("kbc,kb->kc", T, Ny[lo:hi])
    out = np.empty_like(srt)
    out[order] = srt
    return out[:, 0] if ncomp == 1 else out


def strain_energy(volume_system: GlobalSystem, coeffs: np.ndarray) -> float:
    """Energy 0.5 u^T K u of the volume (penalty-free) operator."""
    return 0.5 * float(coeffs @ (volume_system.K @ coeffs))
