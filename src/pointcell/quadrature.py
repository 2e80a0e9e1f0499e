"""Gauss-Legendre rules and adaptive quadtree quadrature.

Cut cells are integrated over a quadtree of subcells.  Two builders exist: an
indicator-driven tree that refines wherever an inside/outside classifier
disagrees across a 3x3 sample stencil, and a distance-driven tree for thin
regularized-delta layers that refines wherever a per-subcell probe grid finds
the layer within reach.  Every leaf carries the same tensor Gauss rule.

Each subcell decision has one home here: _lattice samples every box (Gauss
points, the is_cut stencil, the diffuse probes and the sharp route's query
samples), _split divides a box into its four children, and _build_tree is the
only level-by-level refinement loop, which the sharp route's region query
(penalty.identify_contributing_regions) also runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probes per direction of each diffuse-tree subcell (endpoints included).
_DIFFUSE_TEST_GRID = 5


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes and weights of an n-point Gauss-Legendre rule on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n(self):
        return self.points.size


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x), n >= 2, by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def gauss_legendre_1d(n: int) -> QuadratureRule1D:
    """n-point Gauss-Legendre rule, exact for polynomials of degree 2n - 1.

    Nodes are the roots of the Legendre polynomial P_n, found by Newton
    iteration from the Chebyshev-type initial guesses cos(pi (i - 1/4)/(n + 1/2))
    and polished to a residual below 1e-15; weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    if n < 1:
        raise ValueError(f"rule order must be >= 1, got {n}")
    if n == 1:
        return QuadratureRule1D(points=np.zeros(1), weights=np.full(1, 2.0))
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(p)) < 1e-15 and np.max(np.abs(dx)) < 1e-15:
            break
    p, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    # Enforce the exact symmetry of the rule (kills last-ulp asymmetry).
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureRule1D(points=x, weights=w)


@dataclass(frozen=True)
class DiffuseParams:
    """Diffuse-layer controls.

    epsilon: layer half-width of the regularized delta.
    n_sub: maximum depth of the distance-driven tree.
    n_gauss: rule order per leaf.
    """

    epsilon: float
    n_sub: int
    n_gauss: int

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.n_sub < 0:
            raise ValueError(f"tree depth must be >= 0, got {self.n_sub}")
        if self.n_gauss < 1:
            raise ValueError(f"n_gauss must be >= 1, got {self.n_gauss}")


class SpaceTree:
    """Axis-aligned quadtree over rectangular cells, stored leaf-wise.

    leaves is an (m, 4) array of (x0, y0, x1, y1) bounds and depths the
    matching depth per leaf.  Leaves tile the roots exactly.
    """

    def __init__(self, leaves, depths):
        self.leaves = np.asarray(leaves, dtype=float)
        self.depths = np.asarray(depths, dtype=int)

    @property
    def n_leaves(self):
        return self.leaves.shape[0]


def _as_root(cell):
    root = np.asarray(cell, dtype=float).reshape(4)
    if not (root[2] > root[0] and root[3] > root[1]):
        raise ValueError(f"degenerate cell bounds {root}")
    return root


def _split(cells):
    """Split each (m, 4) cell into its four children, child-major order."""
    x0, y0, x1, y1 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    quads = [
        np.column_stack([x0, y0, xm, ym]),
        np.column_stack([xm, y0, x1, ym]),
        np.column_stack([x0, ym, xm, y1]),
        np.column_stack([xm, ym, x1, y1]),
    ]
    return np.concatenate(quads, axis=0)


def _lattice(boxes, frac):
    """Points (x0 + w frac_i, y0 + h frac_j) of each (m, 4) box, shape
    (m, g^2, 2) for g fractions; point (i, j) of a box is at index i g + j."""
    frac = np.asarray(frac, dtype=float)
    px = boxes[:, 0, None] + (boxes[:, 2] - boxes[:, 0])[:, None] * frac
    py = boxes[:, 1, None] + (boxes[:, 3] - boxes[:, 1])[:, None] * frac
    pts = np.stack(np.broadcast_arrays(px[:, :, None], py[:, None, :]), axis=-1)
    return pts.reshape(boxes.shape[0], frac.size ** 2, 2)


def _build_tree(roots, refine, max_depth: int) -> SpaceTree:
    """Quadtree over the (m, 4) roots, built level by level.

    refine maps the (m, 4) active subcells of a level shallower than
    max_depth to an (m,) mask of those to split; the others become leaves.
    Every subcell still active at max_depth becomes a leaf.  Leaves come
    level by level, each level in the order of its active subcells.
    """
    leaves, depths = [np.zeros((0, 4))], [np.zeros(0, dtype=int)]
    active = roots
    for depth in range(max_depth + 1):
        if active.shape[0] == 0:
            break
        if depth == max_depth:
            keep = np.ones(active.shape[0], dtype=bool)
        else:
            keep = ~refine(active)
        leaves.append(active[keep])
        depths.append(np.full(int(keep.sum()), depth))
        active = _split(active[~keep])
    return SpaceTree(np.concatenate(leaves, axis=0), np.concatenate(depths))


def is_cut(cells, inside_test):
    """(m,) mask of the (m, 4) cells whose 3x3 stencil (corners, edge
    midpoints, center) disagrees about being inside, from one inside_test
    call over all their stencils."""
    pts = _lattice(cells, (0.0, 0.5, 1.0)).reshape(-1, 2)
    flags = np.asarray(inside_test(pts), dtype=bool).reshape(cells.shape[0], 9)
    return ~(np.all(flags, axis=1) | np.all(~flags, axis=1))


def build_alpha_tree(cell, inside_test, max_depth: int) -> SpaceTree:
    """Quadtree refined wherever the domain indicator is cut.

    inside_test maps an (m, 2) array to an (m,) boolean array.  A subcell is
    subdivided when its 3x3 stencil disagrees about being inside (is_cut);
    sampling is pointwise, so features thinner than the stencil spacing can
    be missed (cheap and adequate for smooth boundaries).  The tree is one
    leaf exactly when max_depth is 0 or the root itself is not cut.
    """
    return _build_tree(_as_root(cell)[None, :], lambda active: is_cut(active, inside_test),
                       max_depth)


def build_diffuse_tree(cell, dist, params: DiffuseParams) -> SpaceTree:
    """Quadtree refined where the regularized-delta layer around dist(x) = 0
    may reach.

    Each subcell is probed on a _DIFFUSE_TEST_GRID-square equidistant lattice
    (endpoints included); it is subdivided while shallower than n_sub when
    min(dist) <= epsilon + g, g being the farthest any subcell point lies
    from a probe.  A coarse subcell that intersects the layer thus cannot
    sneak past the probes (dist is treated as 1-Lipschitz), and a subcell
    with 10*epsilon clearance is still left alone.  Leaves that never met
    the layer remain part of the tree and are integrated like any other.
    """
    eps = params.epsilon
    g = _DIFFUSE_TEST_GRID
    frac = np.linspace(0.0, 1.0, g)

    def near_layer(active):
        pts = _lattice(active, frac).reshape(-1, 2)
        d = np.asarray(dist(pts), dtype=float).reshape(active.shape[0], g * g)
        spacing = np.maximum(active[:, 2] - active[:, 0], active[:, 3] - active[:, 1]) / (g - 1)
        return d.min(axis=1) <= eps + spacing * (np.sqrt(2.0) / 2.0)

    return _build_tree(_as_root(cell)[None, :], near_layer, params.n_sub)


def regularized_delta_raw(t, epsilon: float):
    """Cosine-bump approximation of a Dirac delta, vectorized over t >= 0.

    (1 / (2 epsilon)) (1 + cos(pi t / epsilon)) for |t| <= epsilon, else 0.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    inside = t <= epsilon
    out[inside] = (0.5 / epsilon) * (1.0 + np.cos(np.pi * t[inside] / epsilon))
    return out


def tensor_points(boxes, rule: QuadratureRule1D):
    """Tensor Gauss points of each (m, 4) box, shape (m n^2, 2), box by box;
    within a box point (i, j) has the i-th x- and the j-th y-abscissa."""
    return _lattice(boxes, 0.5 * (rule.points + 1.0)).reshape(-1, 2)


def tree_quadrature_points(tree: SpaceTree, rule: QuadratureRule1D):
    """All tensor Gauss points of a tree with their physical weights.

    Returns (points, weights, leaf_of_point) with points ordered leaf by leaf
    in construction order (tensor_points); weights include the per-leaf
    Jacobian, so plain summation integrates over the root.
    """
    m = tree.n_leaves
    n = rule.n
    pts = tensor_points(tree.leaves, rule)
    w = tree.leaves[:, 2] - tree.leaves[:, 0]
    h = tree.leaves[:, 3] - tree.leaves[:, 1]
    wt2 = rule.weights[:, None] * rule.weights[None, :]
    jac = 0.25 * w * h
    wts = (jac[:, None, None] * wt2[None, :, :]).reshape(m * n * n)
    leaf_of = np.repeat(np.arange(m), n * n)
    return pts, wts, leaf_of
