"""Manufactured annular problem, penalty sweeps, and the membrane pipeline."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from pointcell import (AnnularConfig, BoundaryNotFoundError, DiffuseParams,
                       DistanceParams, PointCloud, SharpBoundaryWarning, SharpParams,
                       assemble_diffuse_penalty,
                       PenaltyParams, beta_grid, build_annular_problem,
                       build_membrane_problem, circle_cloud, circle_polyline,
                       count_diffuse_points, default_diffuse_params,
                       default_membrane_params, default_sharp_params,
                       energy_error, gauss_legendre_1d,
                       StructuredMesh, load_scaled_cloud, run_beta_study)
from pointcell import benchmarks


def _light_config(**kw):
    base = dict(n_points=200, degree=6, n_cells=2, volume_depth=6, r=0.02)
    base.update(kw)
    return AnnularConfig(**base)


# ---------------------------------------------------------------------------
# error measure and sweep grid


def test_energy_error_percent():
    assert energy_error(1.01, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert energy_error(1.0, 1.0) == 0.0
    assert energy_error(0.99, 1.0) == pytest.approx(10.0, rel=1e-12)


def test_energy_error_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        energy_error(1.0, 0.0)
    with pytest.raises(ValueError):
        energy_error(1.0, -2.0)


def test_beta_grid_log26():
    g = beta_grid()
    assert g.shape == (26,)
    assert g[0] == pytest.approx(50.0 * 10.0 ** (-2.0 / 3.0), rel=1e-14)
    assert g[3] == pytest.approx(50.0, rel=1e-14)
    assert g[-1] == pytest.approx(3.8712e6, rel=1e-4)
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, 10.0 ** (2.0 / 9.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# circle samplers


def test_circle_cloud_layout():
    pts = circle_cloud(2.0, 8, center=(1.0, -1.0))
    assert pts.shape == (8, 2)
    r = np.hypot(pts[:, 0] - 1.0, pts[:, 1] + 1.0)
    np.testing.assert_allclose(r, 2.0, rtol=1e-14)
    np.testing.assert_allclose(pts[0], [3.0, -1.0], atol=1e-15)
    gaps = np.diff(np.arctan2(pts[:, 1] + 1.0, pts[:, 0] - 1.0))
    np.testing.assert_allclose(np.abs(gaps[np.abs(gaps) < 3.0]), 2.0 * np.pi / 8.0,
                               rtol=1e-12)


def test_circle_cloud_phase_rotates():
    a = circle_cloud(1.0, 4)
    b = circle_cloud(1.0, 4, phase=np.pi / 4.0)
    assert np.max(np.abs(a - b)) > 0.5
    np.testing.assert_allclose(np.hypot(b[:, 0], b[:, 1]), 1.0, rtol=1e-14)


def test_circle_polyline_closes_and_matches_circumference():
    segs = circle_polyline(1.5, 4096)
    assert segs.shape == (4096, 4)
    np.testing.assert_allclose(segs[1:, 0:2], segs[:-1, 2:4], atol=1e-15)
    np.testing.assert_allclose(segs[0, 0:2], segs[-1, 2:4], atol=1e-12)
    total = np.sum(np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]))
    assert abs(total - 2.0 * np.pi * 1.5) / (2.0 * np.pi * 1.5) <= 1e-6


@pytest.mark.parametrize("n", [0, -3])
def test_circle_polyline_needs_a_chord(n):
    with pytest.raises(ValueError, match="n >= 1 chords"):
        circle_polyline(1.0, n)


# ---------------------------------------------------------------------------
# manufactured annular problem


def test_annular_config_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        AnnularConfig(k=0)
    with pytest.raises(ValueError, match="r must be positive"):
        AnnularConfig(r=0.0)
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        AnnularConfig(n_points=0)
    with pytest.raises(ValueError, match="n_cells must be >= 1"):
        AnnularConfig(n_cells=0)
    cfg = AnnularConfig(n_points=100)
    assert cfg.spacing == pytest.approx(2.0 * np.pi * cfg.r_inner / 100.0, rel=1e-14)


_ANNULUS = {"r_inner": 0.25, "r_outer": 1.0, "extent": 1.2, "amp": 10.0, "slope": 0.1}


def test_annular_config_sets_only_the_discretization():
    """The annulus is one problem: its radii, embedding square and field
    shape are constants, and the config's fields are its discretization."""
    assert [f.name for f in dataclasses.fields(AnnularConfig)] == [
        "n_points", "n_cells", "degree", "volume_depth", "k", "r"]
    for name, value in _ANNULUS.items():
        assert getattr(AnnularConfig, name) == value
        assert getattr(AnnularConfig(n_points=50), name) == value


@pytest.mark.parametrize("name", sorted(_ANNULUS))
def test_annular_config_rejects_a_shape_value(name):
    """r_outer = 2.0 kept 11.1 % of the two circles' length, without a
    warning, in a mesh of half-width 1.2; no shape value is an argument."""
    with pytest.raises(TypeError):
        AnnularConfig(**{name: 2.0})



def test_annular_cloud_has_both_circles():
    prob = build_annular_problem(_light_config())
    pts = prob.cloud.points
    assert len(prob.cloud) == 5 * 200
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.sum(np.isclose(r, prob.config.r_inner, rtol=1e-12)) == 200
    assert np.sum(np.isclose(r, prob.config.r_outer, rtol=1e-12)) == 4 * 200


def test_annular_exact_solution_boundary_values():
    prob = build_annular_problem(_light_config())
    inner = circle_cloud(prob.config.r_inner, 64)
    outer = circle_cloud(prob.config.r_outer, 64)
    np.testing.assert_allclose(prob.u_exact(inner), 0.0, atol=1e-14)
    u_out = prob.u_exact(outer)
    np.testing.assert_allclose(u_out, u_out[0], rtol=1e-13)
    np.testing.assert_allclose(prob.u_hat(inner), 0.0, atol=1e-14)
    np.testing.assert_allclose(prob.u_hat(outer), u_out[0], rtol=1e-13)


def test_annular_body_force_is_negative_laplacian():
    """Finite-difference oracle for the manufactured load inside the
    annulus."""
    prob = build_annular_problem(_light_config())
    rng = np.random.default_rng(10)
    r = rng.uniform(0.35, 0.9, 40)
    th = rng.uniform(0.0, 2.0 * np.pi, 40)
    xs = np.column_stack([r * np.cos(th), r * np.sin(th)])
    h = 5e-4
    lap = np.zeros(40)
    for dx, dy in [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)]:
        lap += prob.u_exact(xs + np.array([dx, dy]))
    lap = (lap - 4.0 * prob.u_exact(xs)) / h**2
    got = prob.body(xs)
    np.testing.assert_allclose(got, -lap, rtol=5e-4, atol=5e-3)


def test_annular_body_force_vanishes_outside():
    prob = build_annular_problem(_light_config())
    far = np.array([[0.0, 0.0], [0.1, 0.1], [1.1, 0.0], [-1.15, 1.15]])
    np.testing.assert_array_equal(prob.body(far), 0.0)
    inside = np.array([[0.6, 0.0]])
    assert prob.body(inside)[0] != 0.0


def test_annular_reference_energy_quadrature_oracle():
    """U_ref equals 2 pi int rho q(rho)^2 drho for the radial profile q; a
    30-point Gauss rule on the rho interval is exact for the integrand."""
    cfg = _light_config()
    prob = build_annular_problem(cfg)
    rho_i, rho_o = cfg.r_inner**2, cfg.r_outer**2
    rule = gauss_legendre_1d(30)
    rho = 0.5 * (rho_i + rho_o) + 0.5 * (rho_o - rho_i) * rule.points
    q = cfg.amp * (rho - rho_i) * (rho_o - rho) + cfg.slope
    integral = 0.5 * (rho_o - rho_i) * np.sum(rule.weights * rho * q**2)
    assert prob.u_ref == pytest.approx(2.0 * np.pi * integral, rel=1e-12)
    assert prob.u_ref == pytest.approx(9.0058, abs=2e-3)


def test_annular_volume_system_sees_the_interface():
    prob = build_annular_problem(_light_config())
    assert prob.volume.stats["cut_cells"] > 0
    assert prob.volume.stats["volume_points"] > 0
    assert prob.volume.K.shape[0] == prob.mesh.n_scalar_dofs


# ---------------------------------------------------------------------------
# default parameters and sweeps


def test_default_sharp_params_formulas():
    cfg = AnnularConfig()
    sp = default_sharp_params(cfg)
    cell = 2.0 * cfg.extent / cfg.n_cells
    assert sp.n_query == int(np.ceil(np.log2(2.0 * cell / (3.0 * cfg.spacing))))
    assert sp.n_gauss == 6


def test_default_diffuse_params_formulas():
    dp = default_diffuse_params(5e-3)
    assert dp.epsilon == 5e-3
    assert dp.n_sub == int(np.ceil(np.log2(0.6 / 5e-3)))
    assert dp.n_gauss == 4


def test_default_params_take_the_rule_order():
    """A rule order given to the derivation is the one a replace used to put
    in its result; the depths stay derived."""
    cfg = AnnularConfig()
    assert default_sharp_params(cfg, n_gauss=5) == dataclasses.replace(
        default_sharp_params(cfg), n_gauss=5)
    light = _light_config()
    assert default_diffuse_params(2e-2, light, n_gauss=3) == dataclasses.replace(
        default_diffuse_params(2e-2, light), n_gauss=3)


@pytest.mark.parametrize("config,n_sub", [
    (AnnularConfig(), (7, 5)),
    (AnnularConfig(n_cells=2), (8, 6)),
    (AnnularConfig(n_points=500, degree=8, volume_depth=8), (7, 5)),  # perfbench annular
], ids=["default", "n_cells-2", "bench"])
def test_default_diffuse_params_read_the_cells_of_the_config(config, n_sub):
    """The diffuse depth follows the config's own cells: at n_cells = 2 a
    depth taken from the default 4 cells (5 at epsilon = 2e-2) placed 18,112
    penalty points on the light annulus instead of 46,528."""
    for epsilon, depth in zip((5e-3, 2e-2), n_sub):
        assert default_diffuse_params(epsilon, config) == DiffuseParams(epsilon, depth, 4)


@pytest.mark.parametrize("route,derive", [
    ("sharp", default_sharp_params),
    ("diffuse", lambda config: default_diffuse_params(5e-3, config)),
], ids=["sharp", "diffuse"])
def test_annular_derivations_reject_k_below_2(route, derive):
    """k = 1 admits no plane fit; the derivation says so before any assembly
    rather than the geometry layer failing inside route_pairs."""
    with pytest.raises(ValueError,
                       match=f"^k must be >= 2 for the {route} route's plane fit, got 1$"):
        derive(AnnularConfig(k=1))


@pytest.mark.parametrize("route,params", [
    ("sharp", {"sharp": SharpParams(n_query=3, n_gauss=4)}),
    ("diffuse", {"diffuse": DiffuseParams(5e-3, 7, 4)}),
], ids=["sharp", "diffuse"])
def test_route_pairs_rejects_k_below_2(route, params, monkeypatch):
    """Hand-made controls on a k = 1 problem are rejected with the
    derivations' message before any penalty work, rather than failing in
    the geometry layer."""
    prob = build_annular_problem(AnnularConfig(n_points=96, k=1, n_cells=2, degree=3,
                                               volume_depth=2))
    monkeypatch.setattr(benchmarks, "collect_sharp_segments", None)
    monkeypatch.setattr(benchmarks, "assemble_diffuse_penalty", None)
    with pytest.raises(ValueError,
                       match=f"^k must be >= 2 for the {route} route's plane fit, got 1$"):
        benchmarks.route_pairs(prob, **params)


def test_run_beta_study_light_sweep():
    prob = build_annular_problem(_light_config())
    volume = prob.volume.K.data.tobytes(), prob.volume.f.tobytes()
    betas = np.array([1e3, 1e4, 1e5])
    out = run_beta_study(prob, betas,
                         sharp=default_sharp_params(prob.config),
                         diffuse=default_diffuse_params(2e-2, prob.config),
                         reference_chords=256)
    # every sum with a penalty pair is a new data array
    assert (prob.volume.K.data.tobytes(), prob.volume.f.tobytes()) == volume
    np.testing.assert_array_equal(out["beta"], betas)
    for route in ("sharp", "diffuse", "reference"):
        assert out[route].shape == (3,)
        assert np.all(np.isfinite(out[route]))
        assert np.all(out[route] > 0.0)
        assert out[f"{route}_points"] > 0
    # stiffer penalties help every route in this well-resolved range
    assert out["sharp"][2] < out["sharp"][0]
    assert out["reference"][2] < out["reference"][0]


def test_run_beta_study_rejects_a_route_without_penalty_points():
    """A cloud far outside the mesh gives the sharp and diffuse routes no
    boundary; the study names both rather than sweeping an unconstrained
    system."""
    prob = build_annular_problem(_light_config(n_points=24))
    far = dataclasses.replace(prob, cloud=PointCloud(circle_cloud(0.1, 24, center=(9.0, 9.0))))
    with pytest.raises(BoundaryNotFoundError, match=r"route\(s\) sharp, diffuse"):
        run_beta_study(far, [1e3], sharp=default_sharp_params(prob.config),
                       diffuse=default_diffuse_params(2e-2, prob.config))


def test_count_diffuse_points_matches_assembler():
    """Also on a mesh with cells far from the cloud, which the assembler
    skips and the count must skip too."""
    prob = build_annular_problem(_light_config())
    far = StructuredMesh((-1.1, -1.1), (2.2, 2.2), 8, 8, 2)
    cases = [(prob.mesh, prob.cloud, prob.dparams,
              DiffuseParams(epsilon=2e-2, n_sub=5, n_gauss=3)),
             (far, PointCloud(circle_cloud(0.5, 200)), DistanceParams(k=4, r=0.05),
              DiffuseParams(epsilon=2e-2, n_sub=4, n_gauss=3))]
    for mesh, cloud, dparams, diff in cases:
        n = count_diffuse_points(mesh, cloud, dparams, diff)
        _, _, stats = assemble_diffuse_penalty(mesh, cloud, dparams, diff,
                                               PenaltyParams(beta=1.0))
        assert n == stats["penalty_points"]
        assert n > 0


# ---------------------------------------------------------------------------
# membrane pipeline


def test_load_scaled_cloud_normalizes_extent(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n4 1\n4 0\n0 1\n")
    cloud = load_scaled_cloud(path)
    np.testing.assert_allclose(cloud.points.min(axis=0), [-1.0, -0.25], atol=1e-15)
    np.testing.assert_allclose(cloud.points.max(axis=0), [1.0, 0.25], atol=1e-15)


@pytest.mark.parametrize("kwargs,message", [
    ({"extent": 0.0}, "extent must be positive"),
    ({"extent": -1.0}, "extent must be positive"),
    ({"n_cells": 0}, "n_cells must be >= 1"),
    ({"k": 1}, "k must be >= 2 for the sharp route's plane fit, got 1"),
    ({"k": 65}, "k=65 exceeds cloud size 64"),
    ({"n_gauss": 0}, "n_gauss must be >= 1"),
    ({"extent": 0.9}, r"the cloud leaves the mesh \[-0.9, 0.9\]\^2"),
])
def test_default_membrane_params_reject_bad_sizes(kwargs, message):
    cloud = PointCloud(circle_cloud(1.0, 64))
    with pytest.raises(ValueError, match=message):
        default_membrane_params(cloud, **kwargs)


def test_membrane_takes_no_derived_controls():
    cloud = PointCloud(circle_cloud(1.0, 64))
    dparams, sparams = default_membrane_params(cloud)
    with pytest.raises(TypeError):
        build_membrane_problem(cloud, dparams=dparams)
    with pytest.raises(TypeError):
        build_membrane_problem(cloud, sparams=sparams)


def test_membrane_derives_its_controls_from_k_r_and_n_gauss(monkeypatch):
    """The pair build_membrane_problem hands the reconstruction is the one the
    command line used to build: the derivation's, with the user's k and rule
    order in place."""
    cloud = PointCloud(circle_cloud(1.0, 512))
    seen = []

    class Seen(Exception):
        pass

    def record(mesh, cloud, dparams, sparams):
        seen.append((dparams, sparams))
        raise Seen

    monkeypatch.setattr(benchmarks, "collect_sharp_segments", record)
    with pytest.raises(Seen):
        build_membrane_problem(cloud, k=5, r=0.1, n_gauss=6)
    assert seen == [(DistanceParams(5, 0.1), dataclasses.replace(
        default_membrane_params(cloud, r=0.1)[1], n_gauss=6))]


def test_membrane_raises_when_no_boundary_found():
    corners = PointCloud(np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]]))
    with pytest.warns():
        with pytest.raises(BoundaryNotFoundError):
            build_membrane_problem(corners, n_cells=4, degree=3)


def test_membrane_square_cloud_warns_once():
    """The corners of a square skip regions in every cell that meets them;
    the whole run reports them in one warning with plain integer keys."""
    s = -1.0 + 2.0 * np.arange(8) / 8
    one = np.ones(8)
    square = np.vstack([np.column_stack([s, -one]), np.column_stack([one, s]),
                        np.column_stack([-s, one]), np.column_stack([-one, -s])])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_membrane_problem(PointCloud(square), n_cells=8, degree=4)
    assert len(caught) == 1
    assert caught[0].category is SharpBoundaryWarning
    text = str(caught[0].message)
    assert "np.int64" not in text
    assert "line misses its region" in text


def test_membrane_releases_its_operators_before_the_solve():
    """The volume operator and the penalty pair are dropped once summed, so
    only the sum and the pinned sum (3,690,241 entries each) reach the
    solve: the peak measured 101.7 MiB, against 158.4 MiB with all four."""
    cloud = PointCloud(circle_cloud(1.0, 512))
    tracemalloc.start()
    try:
        res = build_membrane_problem(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.mean_abs_mismatch < 1e-2
    assert peak < 128 * 2**20


def test_membrane_circle_light_run():
    cloud = PointCloud(circle_cloud(1.0, 96))
    res = build_membrane_problem(cloud, n_cells=6, degree=6, beta=1e5)
    assert res.mean_abs_mismatch < 0.05
    assert res.stats["n_regions"] > 0
    assert res.stats["penalty_points"] > 0
    assert res.stats["dofs"] == res.mesh.n_scalar_dofs
    assert res.boundary_points.shape[1] == 2
    # rim values hug the prescribed value; the center carries the load
    from pointcell import evaluate
    center = evaluate(res.mesh, res.coeffs, np.array([[0.0, 0.0]]))[0]
    assert center > 1.0
