"""Hierarchic p-version shape functions on the reference square [-1, 1]^2.

The 1D basis holds the two linear hat functions plus integrated Legendre
modes (L_j - L_{j-2}) / sqrt(4j - 2) for j = 2..p, which vanish at both ends;
2D functions are the full tensor product, (p + 1)^2 modes per cell.  Mode
(a, b) is stored at flat index a * (p + 1) + b.
"""

from __future__ import annotations

import numpy as np


def _legendre_table(p: int, x: np.ndarray):
    """Legendre polynomials L_0..L_p at x, shape (p + 1, m)."""
    L = np.empty((p + 1, x.size))
    L[0] = 1.0
    if p >= 1:
        L[1] = x
    for j in range(2, p + 1):
        L[j] = ((2 * j - 1) * x * L[j - 1] - (j - 1) * L[j - 2]) / j
    return L


def shape_functions_1d(p: int, x):
    """Values and derivatives of the p + 1 hierarchic 1D modes at x.

    Mode 0 and 1 are the hats (1 -+ x)/2; mode j >= 2 is the integrated
    Legendre function (L_j - L_{j-2}) / sqrt(4j - 2) of polynomial degree j,
    whose derivative is sqrt((2j - 1) / 2) L_{j-1}, so the derivatives need
    no recurrence of their own.  Returns (N, dN), each of shape (p + 1, m).
    """
    if p < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {p}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    L = _legendre_table(p, x)
    j = np.arange(2, p + 1)[:, None]
    N = np.empty((p + 1, x.size))
    dN = np.empty((p + 1, x.size))
    N[0] = 0.5 * (1.0 - x)
    dN[0] = -0.5
    N[1] = 0.5 * (1.0 + x)
    dN[1] = 0.5
    N[2:] = (L[2:] - L[:-2]) * (1.0 / np.sqrt(4.0 * j - 2.0))
    dN[2:] = np.sqrt((2.0 * j - 1.0) / 2.0) * L[1:-1]
    return N, dN


def _modes(p: int, xi, eta, gradients: bool):
    """The (m, (p + 1)^2) tensor modes at (xi, eta), with their xi and eta
    derivatives when gradients is set.  xi and eta must be arrays of one
    shape inside [-1, 1] (ValueError otherwise)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if xi.shape != eta.shape:
        raise ValueError(f"xi and eta differ in shape: {xi.shape} vs {eta.shape}")
    if np.any((xi < -1.0) | (xi > 1.0) | (eta < -1.0) | (eta > 1.0)):
        raise ValueError("local coordinates outside the reference square [-1, 1]^2")
    Nx, dNx = shape_functions_1d(p, xi)
    Ny, dNy = shape_functions_1d(p, eta)
    tensor = lambda X, Y: (X[:, None, :] * Y[None, :, :]).reshape((p + 1) ** 2, xi.size).T
    if not gradients:
        return tensor(Nx, Ny)
    return tensor(Nx, Ny), tensor(dNx, Ny), tensor(Nx, dNy)


def eval_basis(p: int, xi, eta):
    """All (p + 1)^2 tensor modes and their reference gradients at (xi, eta).

    xi, eta are arrays of equal length m inside [-1, 1]; returns
    (values, d_xi, d_eta), each of shape (m, (p + 1)^2).
    """
    return _modes(p, xi, eta, gradients=True)


def eval_values(p: int, xi, eta):
    """Tensor mode values only, shape (m, (p + 1)^2); xi, eta as in eval_basis."""
    return _modes(p, xi, eta, gradients=False)
