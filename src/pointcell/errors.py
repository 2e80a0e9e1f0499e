"""Exception types shared across the package."""


class CloudLoadError(ValueError):
    """Point cloud file could not be parsed or is unusable."""


class DegenerateGeometryError(ValueError):
    """Geometry construction failed (coincident points, empty neighbor set)."""


class SolverError(RuntimeError):
    """Linear solve failed (singular or badly constrained system)."""


class MeshQueryError(ValueError):
    """A query point lies outside the structured mesh."""


class BoundaryNotFoundError(RuntimeError):
    """No contributing boundary regions were found for a problem."""


class SharpBoundaryWarning(UserWarning):
    """A Voronoi region had to be skipped during sharp-interface integration."""
