"""Benchmark problems with known energies for comparing the two penalty routes.

The annular problem is one fixed problem, manufactured so that every error
source is controlled; a run sets only its discretization (AnnularConfig).
On the annulus r_i = 0.25 <= |x| <= r_o = 1, embedded in [-1.2, 1.2]^2, the
field is radial, u = P(|x|^2) with P a cubic, so u is a degree-6 bivariate
polynomial that the tensor basis contains exactly from p = 6 on; what remains
in the energy error is purely the boundary enforcement and the cut-cell
quadrature.  P is built from its derivative q(rho) = amp * (rho - r_i^2)
(r_o^2 - rho) + slope, with amp = 10 and slope = 0.1, so the radial
gradient is large mid-annulus (the energy is O(10)) but only 2*slope*r at the
two circles, keeping the error contribution of small geometric offsets in the
reconstructed boundary proportionally small.  The source term and the exact
energy follow in closed form.

The prescribed boundary value is extended constant per circle (the trace
value of the nearer circle), which is what a point cloud carrying one sample
value per point provides; the extension is constant along the boundary
normal, so a layer-type enforcement that grips this data off the boundary
also flattens the normal gradient there.

The membrane problem loads a unit disc held at a constant rim value; it has
no manufactured solution and is judged by how well the rim value is met and
by the axial symmetry of the response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import BoundaryNotFoundError, SolverError
from .fcm import (GlobalSystem, IndicatorField, PoissonCoefficient,
                  StructuredMesh, add_operators, apply_strong_zero, assemble_volume,
                  everywhere, solve, strain_energy)
from .geometry import DistanceParams, PointCloud
from .penalty import (DiffuseParams, PenaltyParams, SharpParams, _segment_rows,
                      assemble_diffuse_penalty, assemble_reference_penalty,
                      assemble_sharp_penalty, collect_sharp_segments)


def energy_error(u_num: float, u_ref: float) -> float:
    """Energy-norm error in percent, sqrt(|U - U_ref| / U_ref) * 100."""
    if not u_ref > 0.0:
        raise ValueError(f"reference energy must be positive, got {u_ref}")
    return 100.0 * math.sqrt(abs(u_num - u_ref) / u_ref)


def beta_grid() -> np.ndarray:
    """Penalty factor sweep: 26 log-spaced values from 1.08e1 to 3.87e6."""
    j = np.arange(26)
    return 50.0 * 10.0 ** (2.0 * (j - 3) / 9.0)


def circle_cloud(radius: float, n: int, center=(0.0, 0.0), phase: float = 0.0):
    """n equispaced points on a circle, (n, 2)."""
    th = phase + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([center[0] + radius * np.cos(th),
                            center[1] + radius * np.sin(th)])


def circle_polyline(radius: float, n: int, center=(0.0, 0.0)) -> np.ndarray:
    """Closed polyline with n >= 1 chords, as (n, 4) segment rows."""
    if n < 1:
        raise ValueError(f"a polyline needs n >= 1 chords, got {n}")
    th = 2.0 * np.pi * np.arange(n + 1) / n
    x = center[0] + radius * np.cos(th)
    y = center[1] + radius * np.sin(th)
    return np.column_stack([x[:-1], y[:-1], x[1:], y[1:]])


@dataclass(frozen=True)
class AnnularConfig:
    """Discretization of the annular benchmark, which is one fixed problem.

    The problem's shape is class constants: the circles r_inner and r_outer,
    the embedding square [-extent, extent]^2 that holds them, and amp and
    slope, which shape the manufactured field (see the module docstring).
    n_points sits on the inner circle and 4 * n_points on the outer; with
    r_outer = 4 * r_inner both have the arc spacing `spacing`.  k may not
    exceed the 5 * n_points points of the cloud.
    """

    r_inner: ClassVar[float] = 0.25
    r_outer: ClassVar[float] = 1.0
    extent: ClassVar[float] = 1.2
    amp: ClassVar[float] = 10.0
    slope: ClassVar[float] = 0.1

    n_points: int = 2000
    n_cells: int = 4
    degree: int = 10
    volume_depth: int = 10
    k: int = 4
    r: float = 0.01

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")
        DistanceParams(k=self.k, r=self.r)  # checks k and r
        if self.k > 5 * self.n_points:
            raise ValueError(f"k={self.k} exceeds cloud size {5 * self.n_points}")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi * self.r_inner / self.n_points


@dataclass
class AnnularProblem:
    config: AnnularConfig
    mesh: StructuredMesh
    cloud: PointCloud
    dparams: DistanceParams
    u_exact: object
    u_hat: object
    body: object
    u_ref: float
    volume: GlobalSystem = field(repr=False)


def _manufactured_radial(config: AnnularConfig):
    """Exact field, source, and energy of the manufactured annular problem.

    With rho = r^2 and u = P(rho):  -lap u = -4 d/drho (rho P'(rho)), and
    U = 0.5 int |grad u|^2 dA = 2 pi int rho P'(rho)^2 drho over the annulus.
    Returns (u_of_rho, b_of_rho, u_ref) with the first two as polynomials.
    """
    Poly = np.polynomial.Polynomial
    rho_i, rho_o = config.r_inner ** 2, config.r_outer ** 2
    q = config.amp * Poly([-rho_i, 1.0]) * Poly([rho_o, -1.0]) + Poly([config.slope])
    P = q.integ(lbnd=rho_i)
    rho = Poly([0.0, 1.0])
    b = -4.0 * (rho * q).deriv()
    energy_density = rho * q * q
    u_ref = 2.0 * np.pi * float(energy_density.integ(lbnd=rho_i)(rho_o))
    return P, b, u_ref


def build_annular_problem(config: AnnularConfig = AnnularConfig()) -> AnnularProblem:
    """Assemble the volume system of the annular benchmark once.

    The embedding indicator uses the exact annulus; the point cloud enters
    only through the boundary enforcement.
    """
    ri, ro = config.r_inner, config.r_outer
    pts = np.vstack([circle_cloud(ri, config.n_points),
                     circle_cloud(ro, 4 * config.n_points)])
    cloud = PointCloud(pts)
    dparams = DistanceParams(k=config.k, r=config.r)
    mesh = StructuredMesh((-config.extent, -config.extent),
                          (2 * config.extent, 2 * config.extent),
                          config.n_cells, config.n_cells, config.degree)
    P, b_poly, u_ref = _manufactured_radial(config)
    rho_mid = (0.5 * (ri + ro)) ** 2
    g_inner, g_outer = float(P(ri * ri)), float(P(ro * ro))

    def u_exact(xs):
        return P(xs[:, 0] ** 2 + xs[:, 1] ** 2)

    def u_hat(xs):
        rho = xs[:, 0] ** 2 + xs[:, 1] ** 2
        return np.where(rho < rho_mid, g_inner, g_outer)

    def inside(xs):
        rho = xs[:, 0] ** 2 + xs[:, 1] ** 2
        return (rho >= ri * ri) & (rho <= ro * ro)

    def body(xs):
        # The polynomial grows fast beyond r_outer; a nonzero source in the
        # fictitious part would drive the extension there at full amplitude
        # (the indicator cancels from that region's stationarity condition).
        rho = xs[:, 0] ** 2 + xs[:, 1] ** 2
        return np.where((rho >= ri * ri) & (rho <= ro * ro), b_poly(rho), 0.0)

    volume = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(inside),
                             body=body, tree_depth=config.volume_depth)
    return AnnularProblem(config=config, mesh=mesh, cloud=cloud, dparams=dparams,
                          u_exact=u_exact, u_hat=u_hat, body=body, u_ref=u_ref,
                          volume=volume)


def _plane_fit_k(k: int, route: str) -> None:
    """Raise ValueError unless k admits the route's plane fit (k >= 2); every
    derivation of a route that fits planes calls it first."""
    if k < 2:
        raise ValueError(f"k must be >= 2 for the {route} route's plane fit, got {k}")


def default_sharp_params(config: AnnularConfig, n_gauss: int = 6) -> SharpParams:
    """Sharp controls of the annulus from its spacing and fit radius (_sharp_params)."""
    _plane_fit_k(config.k, "sharp")
    return _sharp_params(2.0 * config.extent / config.n_cells, config.spacing, config.r,
                         n_gauss)


def _sharp_params(cell: float, h: float, r: float, n_gauss: int) -> SharpParams:
    """Sharp controls on cells `cell` wide for a cloud of spacing h fitted within r:
    the shallowest query depth at which the sample pitch, cell / (2^n_query *
    test_grid), is at most min(h, 2r) / 2, fine enough to land in every region
    (about h wide) and in the band within r of the cloud (2r wide)."""
    test_grid = 3
    n_query = max(0, math.ceil(math.log2(2.0 * cell / (test_grid * min(h, 2.0 * r)))))
    return SharpParams(n_query=n_query, n_gauss=n_gauss, test_grid=test_grid)


def default_diffuse_params(epsilon: float = 5e-3, config: AnnularConfig = AnnularConfig(),
                           n_gauss: int = 4) -> DiffuseParams:
    """Tree depth resolving the layer on the config's cells: leaves no wider
    than epsilon.  A non-positive epsilon is passed on for DiffuseParams to
    reject."""
    _plane_fit_k(config.k, "diffuse")
    cell = 2.0 * config.extent / config.n_cells
    n_sub = max(1, math.ceil(math.log2(cell / epsilon))) if epsilon > 0.0 else 0
    return DiffuseParams(epsilon=epsilon, n_sub=n_sub, n_gauss=n_gauss)


def route_pairs(problem: AnnularProblem, *, sharp: SharpParams | None = None,
                diffuse: DiffuseParams | None = None,
                reference_chords: int | None = None) -> dict:
    """Unit-penalty pair of each requested route of the annular problem.

    Returns {route: (K, f, stats)} for the routes given, in the order sharp,
    diffuse, reference, as the route's assembler returns them; scale K and f
    by beta to enforce.  Raises ValueError before any penalty work when a
    route that fits planes is requested with the problem's k < 2, and
    BoundaryNotFoundError, naming every such route, when a route places no
    penalty points.
    """
    for route, params in (("sharp", sharp), ("diffuse", diffuse)):
        if params is not None:
            _plane_fit_k(problem.dparams.k, route)
    pairs = {}
    unit = PenaltyParams(beta=1.0, u_hat=problem.u_hat)
    if sharp is not None:
        segments = collect_sharp_segments(problem.mesh, problem.cloud,
                                          problem.dparams, sharp)
        pairs["sharp"] = assemble_sharp_penalty(problem.mesh, segments, unit, sharp.n_gauss)
    if diffuse is not None:
        pairs["diffuse"] = assemble_diffuse_penalty(problem.mesh, problem.cloud,
                                                    problem.dparams, diffuse, unit)
    if reference_chords is not None:
        segs = np.vstack([
            circle_polyline(problem.config.r_inner, reference_chords),
            circle_polyline(problem.config.r_outer, 4 * reference_chords),
        ])
        pairs["reference"] = assemble_reference_penalty(problem.mesh, segs, unit,
                                                        n_gauss=6)
    empty = [name for name, (_, _, st) in pairs.items() if st["penalty_points"] == 0]
    if empty:
        raise BoundaryNotFoundError(f"no penalty points from route(s) {', '.join(empty)}")
    return pairs


def run_beta_study(problem: AnnularProblem, betas, *, sharp: SharpParams | None = None,
                   diffuse: DiffuseParams | None = None,
                   reference_chords: int | None = None) -> dict:
    """Energy error over a penalty sweep for any subset of the routes.

    The volume pair and each route's unit-penalty pair (route_pairs) are
    assembled once; scaling by beta is exact, so the sweep costs one small
    solve per point.  A failed solve leaves nan in that slot.  Returns a
    dict of columns ("beta", one per route, and "<route>_points" counters).
    Raises BoundaryNotFoundError, naming the routes, when a route places no
    penalty points.
    """
    betas = np.asarray(betas, dtype=float)
    pairs = route_pairs(problem, sharp=sharp, diffuse=diffuse,
                        reference_chords=reference_chords)
    out: dict = {"beta": betas}
    out.update({f"{name}_points": st["penalty_points"] for name, (_, _, st) in pairs.items()})
    for name, (Kp, fp, _) in pairs.items():
        errs = np.full(betas.size, np.nan)
        for i, b in enumerate(betas):
            try:
                errs[i] = solve_annular(problem, b * Kp, b * fp)[2]
            except SolverError:
                continue
        out[name] = errs
    return out


def solve_annular(problem: AnnularProblem, Kp, fp):
    """Solve the volume system plus one penalty pair (Kp, fp), already scaled
    by its beta.  Returns (u, energy, energy error in percent); raises
    SolverError when the solve fails."""
    system = GlobalSystem(K=add_operators(problem.volume.K, Kp), f=problem.volume.f + fp,
                          mesh=problem.mesh)
    u = solve(system)
    energy = strain_energy(problem.volume, u)
    return u, energy, energy_error(energy, problem.u_ref)


# ---------------------------------------------------------------------------
# membrane

# The membrane's embedding square [-MEMBRANE_EXTENT, MEMBRANE_EXTENT]^2 and
# its cells per side.
MEMBRANE_EXTENT = 1.1
MEMBRANE_CELLS = 16


@dataclass
class MembraneResult:
    mesh: StructuredMesh
    cloud: PointCloud
    coeffs: np.ndarray
    segments: list
    boundary_points: np.ndarray
    mean_abs_mismatch: float
    stats: dict


def load_scaled_cloud(path) -> PointCloud:
    """Point cloud from file, centered and scaled to half-extent 1."""
    from .geometry import load_point_cloud

    raw = load_point_cloud(path)
    pts = raw.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = 0.5 * (lo + hi)
    halfext = float(np.max(hi - center))
    if not halfext > 0.0:
        raise ValueError("cloud has zero extent")
    return PointCloud((pts - center) / halfext)


def default_membrane_params(cloud: PointCloud, extent: float = MEMBRANE_EXTENT,
                            n_cells: int = MEMBRANE_CELLS, r: float | None = None,
                            k: int = 4, n_gauss: int = 4):
    """Distance and sharp controls of a membrane run from the cloud spacing.

    h is the median nearest-neighbor spacing of the cloud.  The fit radius
    is r (3h when not given); the query depth follows h, and r only below
    h/2 (_sharp_params).  Raises ValueError unless extent > 0, n_cells >= 1,
    2 <= k <= len(cloud), n_gauss >= 1 and the cloud lies in the mesh
    [-extent, extent]^2.  Returns (DistanceParams, SharpParams).
    """
    if not extent > 0.0:
        raise ValueError(f"extent must be positive, got {extent}")
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    _plane_fit_k(k, "sharp")
    if k > len(cloud):
        raise ValueError(f"k={k} exceeds cloud size {len(cloud)}")
    if np.max(np.abs(cloud.points)) > extent:
        raise ValueError(f"the cloud leaves the mesh [{-extent}, {extent}]^2")
    h = float(np.median(cloud.tree.query(cloud.points, k=2)[0][:, 1]))
    dparams = DistanceParams(k=k, r=3.0 * h if r is None else r)
    return dparams, _sharp_params(2.0 * extent / n_cells, h, dparams.r, n_gauss)


def build_membrane_problem(cloud: PointCloud, *, extent: float = MEMBRANE_EXTENT,
                           n_cells: int = MEMBRANE_CELLS, degree: int = 10,
                           beta: float = 1e6, load: float = 10.0,
                           rim_value: float = 1.0, k: int = 4, r: float | None = None,
                           n_gauss: int = 4) -> MembraneResult:
    """Membrane held at the cloud with a uniform load, sharp enforcement.

    The full embedding square carries the operator (no fictitious damping);
    the mesh boundary is clamped at zero strongly, the cloud at rim_value by
    the sharp penalty.  The controls are default_membrane_params' for k, r
    and n_gauss, which checks the run.  Raises when the reconstruction finds
    no boundary.
    """
    dparams, sparams = default_membrane_params(cloud, extent, n_cells, r, k, n_gauss)
    mesh = StructuredMesh((-extent, -extent), (2 * extent, 2 * extent),
                          n_cells, n_cells, degree)
    volume = assemble_volume(mesh, PoissonCoefficient(), IndicatorField(everywhere),
                             body=lambda xs: np.full(xs.shape[0], load))
    pen = PenaltyParams(beta=beta, u_hat=rim_value)
    segments = collect_sharp_segments(mesh, cloud, dparams, sparams)
    Kp, fp, pstats = assemble_sharp_penalty(mesh, segments, pen, sparams.n_gauss)
    if pstats["penalty_points"] == 0:
        raise BoundaryNotFoundError(
            "sharp reconstruction found no boundary segments; check r")
    system = GlobalSystem(K=add_operators(volume.K, Kp), f=volume.f + fp, mesh=mesh)
    # The summed operator is all the solve needs; the parts would stay alive through it.
    del volume, Kp, fp
    system = apply_strong_zero(system, mesh.boundary_scalar_dofs())
    u = solve(system)
    # Points entered the penalty, so some segment exists.
    ends = _segment_rows(segments)
    bpts = np.unique(np.vstack([ends[:, 0:2], ends[:, 2:4]]), axis=0)
    from .fcm import evaluate

    mismatch = float(np.mean(np.abs(evaluate(mesh, u, bpts) - rim_value)))
    stats = {"penalty_points": pstats["penalty_points"], "n_regions": len(segments),
             "dofs": system.ndof}
    return MembraneResult(mesh=mesh, cloud=cloud, coeffs=u, segments=segments,
                          boundary_points=bpts, mean_abs_mismatch=mismatch,
                          stats=stats)
