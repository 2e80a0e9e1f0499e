"""Result emission: CSV tables, VTK field dumps, segment dumps.

All writers go through an atomic temp-file-plus-rename so a crashed run never
leaves a truncated artifact behind.  Numbers are written with repr-level
precision; rerunning an identical configuration reproduces the files byte for
byte.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .fcm import StructuredMesh, evaluate_grid
# perfbench binds ("export", "evaluate"), which tests/test_perfbench_bindings.py checks
from .fcm import evaluate  # noqa: F401


def atomic_write(path, text: str) -> None:
    """Write text to path via a sibling temp file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(value: float) -> str:
    return repr(float(value))


def write_study_csv(path, betas, errors) -> None:
    """Two-column table "beta,e_percent"; nan rows record solver failures.
    Raises ValueError, writing nothing, when the columns differ in length."""
    if len(betas) != len(errors):
        raise ValueError(f"{len(betas)} betas but {len(errors)} errors")
    lines = ["beta,e_percent"]
    for b, e in zip(np.asarray(betas), np.asarray(errors)):
        lines.append(f"{_fmt(b)},{_fmt(e)}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_segments_csv(path, segments) -> None:
    """Sharp segments as "x0,y0,x1,y1,key"; key indices space-separated."""
    lines = ["x0,y0,x1,y1,key"]
    for seg in segments:
        key = " ".join(str(i) for i in seg.key)
        for x0, y0, x1, y1 in seg.endpoints():
            lines.append(f"{_fmt(x0)},{_fmt(y0)},{_fmt(x1)},{_fmt(y1)},{key}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_field_vtk(path, mesh: StructuredMesh, coeffs: np.ndarray,
                    resolution: int = 101) -> None:
    """Legacy-ASCII structured-points dump of a scalar field on the mesh,
    sampled on a resolution x resolution grid (resolution >= 2) by
    evaluate_grid."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    xs = np.linspace(mesh.origin[0], mesh.origin[0] + mesh.lengths[0], resolution)
    ys = np.linspace(mesh.origin[1], mesh.origin[1] + mesh.lengths[1], resolution)
    # x fastest, as the structured points list them
    vals = np.ravel(evaluate_grid(mesh, coeffs, xs, ys))
    lines = [
        "# vtk DataFile Version 3.0",
        "pointcell field",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {resolution} {resolution} 1",
        f"ORIGIN {_fmt(xs[0])} {_fmt(ys[0])} 0.0",
        f"SPACING {_fmt(xs[1] - xs[0])} {_fmt(ys[1] - ys[0])} 1.0",
        f"POINT_DATA {resolution * resolution}",
        "SCALARS u double 1",
        "LOOKUP_TABLE default",
    ]
    # tolist gives Python floats, whose repr is _fmt's text
    lines.extend(map(repr, vals.tolist()))
    atomic_write(path, "\n".join(lines) + "\n")
