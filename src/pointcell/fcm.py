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

StructuredMesh._dof_line alone fixes the dof numbering of each 1D line,
along the line, so the row of each line dof is a run [lo, lo + length) of
consecutive dofs; the line patterns, cell dofs and places, boundary dofs and
condensation plan all derive from it, and a numbering whose rows are not
runs is rejected.  Likewise cell_of alone decides which cell holds a point,
cell_index alone maps the cell numbers iy * nx + ix to (ix, iy), and
StructuredMesh._offsets alone gives a (row, col) pair's offset within its
row by lo/length arithmetic: places, the cells' places, the condensation
plan, the strong pins and the lookup of an operator stored on another
pattern all use it, and none searches or scans the stored entries.
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

import itertools
import math
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
        self._line_x = self._line_pattern(self._dof_1d_x)
        self._line_y = self._line_pattern(self._dof_1d_y)
        self._patterns = {}
        self._condensations = {}

    def _dof_line(self, ne):
        """Global ids of the 1D modes of each of ne elements, (ne, p + 1): left
        vertex, right vertex, internal modes.  The only code that knows the
        order: along the line, element e's left vertex e p, its internal modes
        e p + 1, ..., e p + p - 1 and its right vertex e p + p."""
        p = self.degree
        return np.arange(ne)[:, None] * p + np.concatenate([[0, p], np.arange(1, p)])

    def _line_pattern(self, dofs):
        """The _Line of the dof line whose elements have the global dofs
        dofs, (ne, p + 1) from _dof_line: two dofs couple when they share an
        element.  Raises ValueError unless every dof's row, the dofs it
        couples with, is a run of consecutive ids."""
        n = dofs.size - dofs.shape[0] + 1
        rows, cols = np.divmod(np.unique(dofs[:, :, None] * n + dofs[:, None, :]), n)
        length = np.bincount(rows, minlength=n)
        ends = np.cumsum(length)
        lo = cols[ends - length]
        if not np.array_equal(cols[ends - 1] - lo + 1, length):
            raise ValueError("the dof line numbering must give each row consecutive ids")
        # Local modes 0 and 1 are the vertices; below[g] counts the vertices
        # numbered before g.
        vertex = np.zeros(n, dtype=bool)
        vertex[dofs[:, :2]] = True
        below = np.concatenate([[0], np.cumsum(vertex)])
        nvertex = below[lo + length] - below[lo]
        # What _offsets reads of an element: its dofs' places and vertex
        # places within each other's rows, their row lengths and vertex counts.
        row_lo = lo[dofs][:, :, None]
        first = {}
        kind = np.array([first.setdefault(key.tobytes(), e) for e, key in enumerate(np.hstack(
            [(dofs[:, None, :] - row_lo).reshape(len(dofs), -1),
             (below[dofs][:, None, :] - below[row_lo]).reshape(len(dofs), -1),
             length[dofs], nvertex[dofs]]))])
        return _Line(lo, length, vertex, below, nvertex, kind)

    def pattern(self, ncomp: int = 1):
        """CSR index arrays (indptr, indices) shared by every operator on the
        mesh with ncomp components per scalar dof.

        The pattern is the tensor product of the two 1D line patterns with
        the components interleaved as in component_dofs: the row of
        component c of scalar dof (gx, gy) holds, in ascending order, every
        (gx', gy', c') with gx' in row gx of the x line and gy' in row gy of
        the y line, so entry (kx, ky, c') of the row lies at offset
        (kx * len_y(gy) + ky) * ncomp + c' (see places).  Entries that a
        particular operator never touches are stored as explicit zeros.
        Built once per ncomp; both arrays are read-only, so an in-place scipy
        call on one operator (sort_indices, eliminate_zeros) raises instead
        of changing the pattern of all the others.
        """
        if ncomp not in self._patterns:
            self._patterns[ncomp] = self._build_pattern(ncomp)
        return self._patterns[ncomp]

    def _build_pattern(self, ncomp):
        lx, ly = self._line_x, self._line_y
        nnz = int(lx.length.sum() * ly.length.sum() * ncomp * ncomp)
        dtype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
        # A line row is the run [lo, lo + length), so the columns (gy', c')
        # of row (gy, c) in the y factor are the run ncomp [lo, lo + length).
        # Row (gx, gy, c) holds that run shifted by stride (lo_x(gx) + kx)
        # for each kx < len_x(gx): all rows of one gx are the block of its
        # length len_x(gx), shifted by stride lo_x(gx).
        ystart, ylen = (np.repeat(ncomp * a, ncomp) for a in (ly.lo, ly.length))
        stride = ncomp * self.n1y
        block = {L: _runs((ystart[:, None] + stride * np.arange(L)).reshape(-1),
                          np.repeat(ylen, L), dtype) for L in np.unique(lx.length)}
        indptr = np.zeros(self.n1x * ystart.size + 1, dtype=dtype)
        np.cumsum(np.outer(lx.length, ylen).reshape(-1), out=indptr[1:])
        indices = np.empty(nnz, dtype=dtype)
        at = indptr[::ystart.size].tolist()
        for s, e, L, shift in zip(at, at[1:], lx.length.tolist(), (stride * lx.lo).tolist()):
            np.add(block[L], shift, out=indices[s:e])
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return indptr, indices

    def _offsets(self, gx, gy, gx2, gy2, skeleton=False):
        """Offset of each scalar column (gx2, gy2) within the row of scalar
        dof (gx, gy), all four broadcast; ValueError for a pair outside the
        pattern.  The one offset rule: with kx = gx2 - lo_x(gx) and ky = gy2
        - lo_y(gy), it is kx len_y(gy) + ky in the pattern and, with
        skeleton, vr_x (len_y - nv_y) + kx nv_y + (ky if gx2 is a vertex,
        else vr_y) in the skeleton operator (_build_condensation), where nv_y
        counts the vertex columns of row gy and vr those before gx2 and gy2
        in their rows."""
        lx, ly = self._line_x, self._line_y
        lo_x, lo_y, len_y = lx.lo[gx], ly.lo[gy], ly.length[gy]
        kx, ky = gx2 - lo_x, gy2 - lo_y
        if not (np.all((kx >= 0) & (kx < lx.length[gx])) and np.all((ky >= 0) & (ky < len_y))):
            raise ValueError("a (row, col) pair lies outside the mesh's sparsity pattern")
        if not skeleton:
            return kx * len_y + ky
        nv = ly.nvertex[gy]
        return ((lx.below[gx2] - lx.below[lo_x]) * (len_y - nv) + kx * nv
                + np.where(lx.vertex[gx2], ky, ly.below[gy2] - ly.below[lo_y]))

    def places(self, rows, cols, ncomp: int = 1):
        """Place in pattern(ncomp)'s data array of each (row, col) pair of
        global dofs, rows and cols broadcast against each other; the result
        has the pattern's index dtype.

        With row = component c of scalar dof (gx, gy) and col = component c'
        of (gx', gy') (component_dofs), the place is indptr[row] + offset *
        ncomp + c', offset the place of (gx', gy') in row (gx, gy) that
        _offsets gives from the two 1D line patterns; nothing else is read.
        Raises ValueError for a pair outside the pattern.
        """
        n = self.n_scalar_dofs * ncomp
        rows, cols = np.asarray(rows), np.asarray(cols)
        if any(ids.size and (ids.min() < 0 or ids.max() >= n) for ids in (rows, cols)):
            raise ValueError(f"dof ids must lie in [0, {n}), the mesh's sparsity pattern")
        (gx, gy), (gx2, gy2) = (np.divmod(ids // ncomp, self.n1y) for ids in (rows, cols))
        indptr = self.pattern(ncomp)[0]
        offset = self._offsets(gx, gy, gx2, gy2) * ncomp + cols % ncomp
        return (indptr[rows] + offset).astype(indptr.dtype)

    def local_positions(self, ix, iy, ncomp: int = 1):
        """Places in pattern(ncomp)'s data array of the local matrices of the
        cells (ix[k], iy[k]), shape (m, n, n) with n = (p + 1)^2 ncomp.

        The cell view of places: rows and columns are local dofs in the
        layout of component_dofs, mode (a, b) = N_a(x) N_b(y).  A row's
        start is indptr[row]; the offsets within the rows depend on the cell
        only through the kinds of its x and y elements (_Line.kind), so
        they are formed once per kind of element pair and added to the
        starts.
        """
        every = (slice(None), slice(None))
        n1 = self.degree + 1
        return self._cell_places(ix, iy, ncomp, self.pattern(ncomp)[0], every,
                                 np.ix_(range(n1), range(n1), range(ncomp)))

    def _cell_places(self, ix, iy, ncomp, starts, rows, cols, skeleton=False):
        """Places of each cell's local rows (a, b, c) against its local
        columns, (m, rows, columns): rows is a pair of slices of a and b
        (every c), cols three broadcastable arrays of a', b' and c'.  The row
        of global dof r starts at starts[r]; the offsets within the rows are
        _offsets', of the skeleton operator with skeleton."""
        ix, iy = np.asarray(ix, dtype=int), np.asarray(iy, dtype=int)
        lx, ly = self._line_x, self._line_y
        (ra, rb), (a2, b2, c2) = rows, cols
        # The offsets within the rows, once per kind of (x, y) element pair
        # among the cells, on axes (pair, a, b) + the columns' shape.
        kinds, pair = np.unique(lx.kind[ix] * self.ny + ly.kind[iy], return_inverse=True)
        dx, dy = self._dof_1d_x[kinds // self.ny], self._dof_1d_y[kinds % self.ny]
        pad = (1,) * np.ndim(a2)
        gx, gy = dx[:, ra, None], dy[:, None, rb]
        offsets = self._offsets(gx.reshape(gx.shape + pad), gy.reshape(gy.shape + pad),
                                dx[:, None, None, a2], dy[:, None, None, b2], skeleton)
        # the same offsets for every row component c: axes (pair, a, b, c) + columns
        offsets = np.expand_dims(offsets * ncomp + c2, 3)
        shape = offsets.shape[:3] + (ncomp,) + offsets.shape[4:]
        offsets = np.broadcast_to(offsets, shape).reshape(
            kinds.size, math.prod(shape[1:4]), math.prod(shape[4:]))
        gx, gy = self._dof_1d_x[ix], self._dof_1d_y[iy]
        out = np.take(offsets.astype(starts.dtype), pair.reshape(-1), axis=0)
        out += starts[component_dofs(gx[:, ra, None] * self.n1y + gy[:, None, rb], ncomp)].reshape(
            ix.size, offsets.shape[1], 1)
        return out

    def condensation(self, ncomp: int = 1):
        """Index plan of the static condensation in solve, built once per
        ncomp (see Condensation)."""
        if ncomp not in self._condensations:
            self._condensations[ncomp] = self._build_condensation(ncomp)
        return self._condensations[ncomp]

    def _build_condensation(self, ncomp):
        mesh_starts = self.pattern(ncomp)[0]
        dt = mesh_starts.dtype
        n1 = self.degree + 1
        lx, ly = self._line_x, self._line_y
        ix, iy = self.cell_index()
        # A cell's interior modes are N_a(x) N_b(y) with a, b >= 2; its
        # skeleton modes, in local order, the blocks (a < 2, every b) and
        # (a >= 2, b < 2).  A scalar dof is a skeleton dof unless both its x
        # and its y dof are internal, not vertices.
        a, b, c = np.unravel_index(np.arange(n1 * n1 * ncomp), (n1, n1, ncomp))
        inner = (a >= 2) & (b >= 2)
        skel_cols = (a[~inner], b[~inner], c[~inner])
        low, high = slice(0, 2), slice(2, None)
        skel_rows = [(low, slice(None)), (high, low)]
        dofs = component_dofs(self.cell_dofs(ix, iy), ncomp).reshape(ix.size, -1)
        is_skeleton = np.repeat((lx.vertex[:, None] | ly.vertex).reshape(-1), ncomp)
        skeleton = np.nonzero(is_skeleton)[0]
        number = np.cumsum(is_skeleton) - 1
        cell_skeleton = number[dofs[:, ~inner]]
        # The skeleton operator keeps, in order, the entries of a skeleton row
        # (gx, gy, c) whose column (gx', gy', c') has a vertex gx' or gy': with
        # nv the vertex count of a line row, ncomp (nv_x len_y + (len_x -
        # nv_x) nv_y) of them, and its entry (gx', gy', c') at offset
        # _offsets(..., skeleton=True) ncomp + c'.  Each of its entries lies in
        # some cell's skeleton block, so the blocks fill keep and indices.
        gx, gy = np.divmod(skeleton // ncomp, self.n1y)
        indptr = np.zeros(skeleton.size + 1, dtype=dt)
        np.cumsum(ncomp * (lx.nvertex[gx] * ly.length[gy]
                           + (lx.length[gx] - lx.nvertex[gx]) * ly.nvertex[gy]), out=indptr[1:])

        def cell_places(starts, rows, cols, skeleton=False):
            return self._cell_places(ix, iy, ncomp, starts, rows, cols, skeleton)

        ss = np.concatenate([cell_places(indptr[number], rows, skel_cols, skeleton=True)
                             for rows in skel_rows], axis=1)
        at = ss.astype(np.intp)
        keep = np.empty(indptr[-1], dtype=dt)
        keep[at] = np.concatenate([cell_places(mesh_starts, rows, skel_cols)
                                   for rows in skel_rows], axis=1)
        indices = np.empty(indptr[-1], dtype=dt)
        indices[at] = cell_skeleton[:, None, :]
        inner_rows = (high, high)
        return Condensation(
            interior=dofs[:, inner], cell_skeleton=cell_skeleton, skeleton=skeleton,
            ii=cell_places(mesh_starts, inner_rows,
                           np.ix_(range(2, n1), range(2, n1), range(ncomp))),
            i_s=cell_places(mesh_starts, inner_rows, skel_cols), keep=keep, indptr=indptr,
            indices=indices, ss=ss)

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


def _runs(starts, lengths, dtype):
    """The runs [starts[i], starts[i] + lengths[i]) one after another, as one
    array of the given dtype."""
    ends = np.cumsum(lengths)
    out = np.arange(ends[-1], dtype=dtype)
    out += np.repeat((starts - (ends - lengths)).astype(dtype), lengths)
    return out


@dataclass(frozen=True)
class _Line:
    """A 1D dof line as the place rules read it (StructuredMesh._line_pattern).

    Per dof g: its row, the dofs sharing an element with it, is the run
    [lo[g], lo[g] + length[g]); vertex flags the vertices, below[g] counts
    the vertices numbered before g and nvertex[g] those in its row.  Per
    element e: kind[e] is the first element alike e in all of these.
    """

    lo: np.ndarray
    length: np.ndarray
    vertex: np.ndarray
    below: np.ndarray
    nvertex: np.ndarray
    kind: np.ndarray


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


# Cells per block of scatter_cells: one local_positions call, one
# symmetrization and one dof lookup per block.
_SCATTER_BLOCK = 16


def scatter_cells(mesh: StructuredMesh, ncomp: int, cell_pairs):
    """Sum cell-local pairs into a global symmetric operator and load.

    cell_pairs yields (ix, iy, Ke, fe) with Ke, fe in the cell's flat mode
    order, each mode's ncomp components in turn (the layout of
    component_dofs).  Each Ke enters as its symmetric part 0.5 (Ke + Ke^T),
    added straight into the data array of the mesh's pattern at the cell's
    places (StructuredMesh.local_positions).  The pairs are taken in blocks
    of _SCATTER_BLOCK cells, whose places, symmetric parts and dofs are
    found together, and the cells are added one by one in the order given.
    Returns (K, f) with K a CSR matrix on that pattern, sharing its index
    arrays.
    """
    indptr, indices = mesh.pattern(ncomp)
    data = np.zeros(indices.size)
    f = np.zeros(mesh.n_scalar_dofs * ncomp)
    n = (mesh.degree + 1) ** 2 * ncomp
    # Each pair is copied into the block buffers as it comes, so that the
    # caller's arrays are not held while the next cells are computed (held,
    # they raised the annular workload's peak RSS by 2-5 MB).
    Ke, fe = np.empty((_SCATTER_BLOCK, n, n)), np.empty((_SCATTER_BLOCK, n))
    pairs = iter(cell_pairs)
    while True:
        cells = []
        for ix, iy, cell_K, cell_f in itertools.islice(pairs, _SCATTER_BLOCK):
            Ke[len(cells)], fe[len(cells)] = cell_K, cell_f
            cells.append((ix, iy))
        if not cells:
            break
        m = len(cells)
        ix, iy = np.array(cells).T
        sym = Ke[:m] + Ke[:m].transpose(0, 2, 1)
        sym *= 0.5
        # add.at adds entry after entry, so cell after cell
        np.add.at(data, mesh.local_positions(ix, iy, ncomp).reshape(-1), sym.reshape(-1))
        np.add.at(f, component_dofs(mesh.cell_dofs(ix, iy), ncomp), fe[:m].reshape(-1))
    return sp.csr_matrix((data, indices, indptr), shape=(f.size, f.size)), f


def _same_buffer(a, b):
    """Whether arrays a and b view the same memory the same way, and so are
    equal without comparing them."""
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides)


def _on_pattern(K, indptr, indices):
    """Whether the CSR operator K is stored on the pattern (indptr, indices):
    at once when it views the same index buffers, as every operator on one
    mesh pattern does, else by comparing them."""
    return all(_same_buffer(a, b) or np.array_equal(a, b)
               for a, b in ((K.indptr, indptr), (K.indices, indices)))


def add_operators(A, B) -> sp.csr_matrix:
    """A + B for two CSR operators stored on one pattern, as a sum of data.

    The result keeps A's pattern, explicit zeros included, and shares its
    index arrays; scipy's A + B would build a new pattern without the
    zeros.  Raises ValueError when the patterns differ.
    """
    if A.shape != B.shape or not _on_pattern(A, B.indptr, B.indices):
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
    CSR operator is re-stored at the places (StructuredMesh.places) of its
    (row, col) pairs; its unstored entries become zeros.  Raises ValueError
    for a stored entry outside the pattern.
    """
    indptr, indices = mesh.pattern(ncomp)
    if _on_pattern(K, indptr, indices):
        return K.data
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    return np.bincount(mesh.places(rows, K.indices, ncomp), weights=K.data,
                       minlength=indices.size)


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

    scalar_dofs index scalar basis functions, each in [0, n_scalar_dofs)
    (ValueError otherwise); every component of each is fixed
    (component_dofs).  Eliminated rows and columns are zeroed with a unit
    diagonal and zero load.  This is D K D + P with D the free and P the
    fixed indicator on the diagonal, computed on a copy of K's data, so the
    result keeps K's pattern and K is left unchanged.  Every fixed row must
    store its diagonal, and K must be stored on the mesh's pattern
    (ValueError otherwise): the pattern is symmetric, so the fixed columns'
    entries are the transposes of the fixed rows' entries, at their places
    (StructuredMesh.places).
    """
    K, mesh, ncomp = system.K, system.mesh, system.ncomp
    scalar_dofs = np.asarray(scalar_dofs, dtype=int)
    outside = (scalar_dofs < 0) | (scalar_dofs >= mesh.n_scalar_dofs)
    if np.any(outside):
        raise ValueError(f"scalar dof {scalar_dofs[outside][0]} lies outside "
                         f"[0, {mesh.n_scalar_dofs})")
    fixed = np.zeros(system.ndof, dtype=bool)
    fixed[component_dofs(scalar_dofs, ncomp)] = True
    rows = np.nonzero(fixed)[0]
    starts = K.indptr[rows]
    counts = K.indptr[rows + 1] - starts
    # the stored entries of the fixed rows, row after row
    entries = np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)
    row_of, cols = np.repeat(rows, counts), K.indices[entries]
    diagonal = entries[cols == row_of]
    if diagonal.size != rows.size:
        raise ValueError("a fixed dof has no stored diagonal entry")
    if not _on_pattern(K, *mesh.pattern(ncomp)):
        raise ValueError("the operator is not stored on the mesh's sparsity pattern")
    data = K.data.copy()
    data[entries] = 0.0
    data[mesh.places(cols, row_of, ncomp)] = 0.0
    data[diagonal] = 1.0
    return GlobalSystem(K=sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape),
                        f=np.where(fixed, 0.0, system.f), mesh=mesh, ncomp=ncomp,
                        stats=dict(system.stats))


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


def evaluate_grid(mesh: StructuredMesh, coeffs: np.ndarray, xs, ys):
    """Scalar field on the tensor grid of the samples xs and ys, shape
    (len(ys), len(xs)).

    Per axis, one locate call on that axis's samples (the other coordinate
    at the mesh origin) gives each sample's cell and local coordinate, as
    for evaluate, and so a table T[i, g] of the 1D modes at sample i on the
    line dofs g of its cell, zero elsewhere.  With C = coeffs.reshape(n1x,
    n1y), the scalar dofs gx * n1y + gy of cell_dofs, the values are
    Ty (Tx C)^T.  They agree with evaluate at the grid points to round-off.
    """
    if np.size(coeffs) != mesh.n_scalar_dofs:
        raise ValueError(f"coeffs holds {np.size(coeffs)} values, but the mesh has "
                         f"{mesh.n_scalar_dofs} scalar dofs")
    tables = []
    for axis, (t, dofs, n) in enumerate(zip((xs, ys), (mesh._dof_1d_x, mesh._dof_1d_y),
                                             (mesh.n1x, mesh.n1y))):
        pts = np.tile(mesh.origin, (len(t), 1))
        pts[:, axis] = t
        cells, local = mesh.locate(pts)[axis::2]
        table = np.zeros((len(t), n))
        np.put_along_axis(table, dofs[cells], basis_mod.shape_functions_1d(mesh.degree, local)[0].T,
                          axis=1)
        tables.append(table)
    return tables[1] @ (tables[0] @ np.asarray(coeffs).reshape(mesh.n1x, mesh.n1y)).T


def strain_energy(volume_system: GlobalSystem, coeffs: np.ndarray) -> float:
    """Energy 0.5 u^T K u of the volume (penalty-free) operator."""
    return 0.5 * float(coeffs @ (volume_system.K @ coeffs))
