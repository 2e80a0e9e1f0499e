"""Embedded-domain solver with point-cloud Dirichlet boundaries.

The physical boundary exists only as a point cloud.  Volume terms are
integrated on an embedding mesh with an indicator-weighted quadtree rule;
Dirichlet data is enforced by penalty either over a diffuse layer around the
cloud or over a sharp piecewise-linear boundary reconstructed from implicitly
queried order-k Voronoi regions.
"""

import os as _os

_threads = _os.environ.get("POINTCELL_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import (BoundaryNotFoundError, CloudLoadError,
                     DegenerateGeometryError, MeshQueryError,
                     SharpBoundaryWarning, SolverError)
from .geometry import (DistanceParams, PointCloud, fit_planes,
                       load_point_cloud, pca_distance_many)
from .voronoi import brute_force_regions_in_box, region_keys_many
from .quadrature import (SpaceTree, build_alpha_tree, build_diffuse_tree,
                         gauss_legendre_1d, regularized_delta_raw,
                         tree_quadrature_points)
from .basis import eval_basis, eval_values, shape_functions_1d
from .fcm import (GlobalSystem, IndicatorField, PlaneStress,
                  PoissonCoefficient, StructuredMesh, add_operators,
                  apply_strong_zero, assemble_volume, component_dofs, evaluate,
                  everywhere, solve, strain_energy)
from .penalty import (BoundedSegment, DiffuseParams, PenaltyParams,
                      SharpParams, assemble_diffuse_penalty,
                      assemble_reference_penalty, assemble_sharp_penalty,
                      bisect_plane_segments, collect_sharp_segments,
                      diffuse_penalty_cell, identify_contributing_regions,
                      sharp_penalty_cell)
from .benchmarks import (AnnularConfig, AnnularProblem, MembraneResult,
                         beta_grid, build_annular_problem,
                         build_membrane_problem, circle_cloud, circle_polyline,
                         count_diffuse_points, default_diffuse_params,
                         default_membrane_params, default_sharp_params,
                         energy_error, load_scaled_cloud, run_beta_study)

__version__ = "0.1.0"
