"""Hierarchic shape functions: endpoint values, orthogonality, tensor layout."""

import numpy as np
import pytest

from pointcell import eval_basis, eval_values, gauss_legendre_1d, shape_functions_1d


def test_hat_modes():
    N, dN = shape_functions_1d(3, np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(N[0], [1.0, 0.5, 0.0])
    np.testing.assert_array_equal(N[1], [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(dN[0], [-0.5, -0.5, -0.5])
    np.testing.assert_array_equal(dN[1], [0.5, 0.5, 0.5])


@pytest.mark.parametrize("p", [2, 4, 7, 10])
def test_internal_modes_vanish_at_endpoints(p):
    N, _ = shape_functions_1d(p, np.array([-1.0, 1.0]))
    np.testing.assert_allclose(N[2:], 0.0, atol=1e-13)


@pytest.mark.parametrize("p", [3, 6, 10])
def test_internal_mode_derivative_is_scaled_legendre(p):
    """d/dx (L_j - L_{j-2}) / sqrt(4j - 2) = sqrt((2j - 1) / 2) L_{j-1}."""
    x = np.linspace(-1.0, 1.0, 17)
    _, dN = shape_functions_1d(p, x)
    for j in range(2, p + 1):
        lj1 = np.polynomial.legendre.legval(x, np.eye(p + 1)[j - 1])
        np.testing.assert_allclose(dN[j], np.sqrt((2 * j - 1) / 2.0) * lj1,
                                   rtol=1e-12, atol=1e-12)


def _shape_functions_by_recurrence(p, x):
    """The former shape_functions_1d, kept as the oracle: N from the Legendre
    recurrence, dN from the recurrence of the Legendre derivatives."""
    L = np.empty((p + 1, x.size))
    dL = np.empty((p + 1, x.size))
    L[0] = 1.0
    dL[0] = 0.0
    if p >= 1:
        L[1] = x
        dL[1] = 1.0
    for j in range(2, p + 1):
        L[j] = ((2 * j - 1) * x * L[j - 1] - (j - 1) * L[j - 2]) / j
        dL[j] = ((2 * j - 1) * (L[j - 1] + x * dL[j - 1]) - (j - 1) * dL[j - 2]) / j
    N = np.empty((p + 1, x.size))
    dN = np.empty((p + 1, x.size))
    N[0] = 0.5 * (1.0 - x)
    dN[0] = -0.5
    N[1] = 0.5 * (1.0 + x)
    dN[1] = 0.5
    for j in range(2, p + 1):
        s = 1.0 / np.sqrt(4.0 * j - 2.0)
        N[j] = (L[j] - L[j - 2]) * s
        dN[j] = (dL[j] - dL[j - 2]) * s
    return N, dN


@pytest.mark.parametrize("p", range(1, 13))
def test_shape_functions_match_recurrence_oracle(p):
    """N keeps the recurrence's bits; dN, now sqrt((2j - 1) / 2) L_{j-1},
    agrees with the derivative recurrence to 1e-13 over 1,001 points."""
    x = np.linspace(-1.0, 1.0, 1001)
    N, dN = shape_functions_1d(p, x)
    want_N, want_dN = _shape_functions_by_recurrence(p, x)
    np.testing.assert_array_equal(N, want_N)
    np.testing.assert_allclose(dN, want_dN, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("p", [4, 9])
def test_stiffness_orthonormality(p):
    """Internal-mode derivatives are orthonormal in L2(-1, 1) and orthogonal
    to the constant hat derivatives, so the 1D stiffness block is an identity
    bordered by the hat couplings."""
    rule = gauss_legendre_1d(p + 2)
    _, dN = shape_functions_1d(p, rule.points)
    G = (dN * rule.weights) @ dN.T
    np.testing.assert_allclose(G[2:, 2:], np.eye(p - 1), atol=1e-13)
    np.testing.assert_allclose(G[:2, 2:], 0.0, atol=1e-13)
    np.testing.assert_allclose(G[:2, :2], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)


def test_partition_of_unity_hats():
    x = np.linspace(-1.0, 1.0, 9)
    N, _ = shape_functions_1d(1, x)
    np.testing.assert_allclose(N.sum(axis=0), 1.0, rtol=1e-15)


def test_degree_validation():
    with pytest.raises(ValueError):
        shape_functions_1d(0, np.array([0.0]))


def test_tensor_layout_row_major_in_xi():
    """Flat mode a * (p + 1) + b is the product of 1D mode a in xi and b in
    eta."""
    p = 3
    xi = np.array([0.3, -0.7])
    eta = np.array([-0.2, 0.5])
    vals = eval_values(p, xi, eta)
    Nx, _ = shape_functions_1d(p, xi)
    Ny, _ = shape_functions_1d(p, eta)
    for a in range(p + 1):
        for b in range(p + 1):
            np.testing.assert_allclose(vals[:, a * (p + 1) + b], Nx[a] * Ny[b],
                                       rtol=1e-14)


def test_eval_basis_gradients_match_finite_differences():
    p = 5
    rng = np.random.default_rng(2)
    xi = rng.uniform(-0.9, 0.9, 20)
    eta = rng.uniform(-0.9, 0.9, 20)
    vals, dxi, deta = eval_basis(p, xi, eta)
    h = 1e-6
    vp, _, _ = eval_basis(p, xi + h, eta)
    vm, _, _ = eval_basis(p, xi - h, eta)
    np.testing.assert_allclose(dxi, (vp - vm) / (2 * h), atol=5e-9)
    vp, _, _ = eval_basis(p, xi, eta + h)
    vm, _, _ = eval_basis(p, xi, eta - h)
    np.testing.assert_allclose(deta, (vp - vm) / (2 * h), atol=5e-9)


def test_eval_rejects_points_outside_reference_square():
    with pytest.raises(ValueError):
        eval_values(2, np.array([1.2]), np.array([0.0]))
    with pytest.raises(ValueError):
        eval_basis(2, np.array([0.0]), np.array([-1.01]))


def test_eval_basis_shape_mismatch():
    with pytest.raises(ValueError):
        eval_basis(2, np.array([0.0, 0.5]), np.array([0.0]))


@pytest.mark.parametrize("n_xi,n_eta", [(2, 3), (1, 3)])
@pytest.mark.parametrize("tabulate", [eval_basis, eval_values])
def test_eval_rejects_coordinates_of_different_shapes(tabulate, n_xi, n_eta):
    """Both tabulations check the shapes before any broadcast or reshape."""
    with pytest.raises(ValueError, match="xi and eta differ in shape"):
        tabulate(2, np.zeros(n_xi), np.zeros(n_eta))


def test_eval_of_no_points_is_empty():
    vals, dxi, deta = eval_basis(3, np.zeros(0), np.zeros(0))
    assert vals.shape == dxi.shape == deta.shape == eval_values(3, [], []).shape == (0, 16)
