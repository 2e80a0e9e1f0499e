"""File writers: atomicity, headers, and byte-exact reproducibility."""

import os

import numpy as np
import pytest

from pointcell import StructuredMesh, export
from pointcell.export import (atomic_write, write_field_vtk, write_segments_csv,
                              write_study_csv)


class _Seg:
    """Minimal stand-in for a bounded segment: a key and endpoint rows."""

    def __init__(self, key, rows):
        self.key = key
        self._rows = np.asarray(rows, dtype=float)

    def endpoints(self):
        return self._rows


def test_atomic_write_creates_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, "hello\n")
    assert path.read_text() == "hello\n"


def test_atomic_write_failure_leaves_nothing(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(TypeError):
        atomic_write(path, None)
    assert not path.exists()
    assert os.listdir(tmp_path) == []


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write(path, "new")
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_study_csv_rejects_columns_of_different_lengths(tmp_path):
    """zip would keep the first row only and drop the other two betas."""
    path = tmp_path / "study.csv"
    with pytest.raises(ValueError, match="3 betas but 1 errors"):
        write_study_csv(path, [1.0, 2.0, 3.0], [1.0])
    assert not path.exists()


def test_study_csv_roundtrip(tmp_path):
    path = tmp_path / "study.csv"
    betas = [10.0, 0.1, 5e6]
    errors = [0.5, float("nan"), 2.25]
    write_study_csv(path, betas, errors)
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,e_percent"
    assert lines[1] == "10.0,0.5"
    assert lines[2].startswith("0.1,nan")
    back = np.genfromtxt(path, delimiter=",", skip_header=1)
    np.testing.assert_array_equal(back[:, 0], betas)
    assert np.isnan(back[1, 1])
    assert back[2, 1] == 2.25


def test_segments_csv_layout(tmp_path):
    path = tmp_path / "segments.csv"
    segs = [_Seg((2, 7), [[0.0, 0.5, 1.0, 0.5]]),
            _Seg((0, 1, 3), [[0.0, 0.0, 0.25, 0.0], [0.5, 0.0, 1.0, 0.0]])]
    write_segments_csv(path, segs)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,y0,x1,y1,key"
    assert len(lines) == 4
    assert lines[1] == "0.0,0.5,1.0,0.5,2 7"
    assert lines[2].endswith(",0 1 3")
    assert lines[3] == "0.5,0.0,1.0,0.0,0 1 3"


def test_field_vtk_structured_points(tmp_path):
    mesh = StructuredMesh((0.0, 0.0), (2.0, 1.0), 1, 1, 1)
    # bilinear vertex coefficients reproducing 1 + 2x - y exactly; the
    # cell's mode (a, b) is its local dof 2 a + b
    coeffs = np.zeros(mesh.n_scalar_dofs)
    for vx, x in enumerate([0.0, 2.0]):
        for vy, y in enumerate([0.0, 1.0]):
            coeffs[mesh.cell_dofs(0, 0)[2 * vx + vy]] = 1.0 + 2.0 * x - y
    path = tmp_path / "field.vtk"
    write_field_vtk(path, mesh, coeffs, resolution=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 5 5 1"
    assert lines[7] == "POINT_DATA 25"
    assert lines[8].startswith("SCALARS u double")
    assert lines[9] == "LOOKUP_TABLE default"
    vals = np.array([float(v) for v in lines[10:]])
    assert vals.shape == (25,)
    xs = np.linspace(0.0, 2.0, 5)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys)
    np.testing.assert_allclose(vals, (1.0 + 2.0 * X - Y).ravel(), atol=1e-13)


@pytest.mark.parametrize("resolution", [0, 1])
def test_field_vtk_needs_two_samples_per_side(tmp_path, resolution):
    """The grid spacing needs two samples per side; fewer is rejected
    before anything is evaluated or written."""
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 1, 1, 1)
    path = tmp_path / "field.vtk"
    with pytest.raises(ValueError, match="resolution must be >= 2"):
        write_field_vtk(path, mesh, np.zeros(mesh.n_scalar_dofs), resolution=resolution)
    assert not path.exists()


def test_field_vtk_values_are_reprs_of_each_float(monkeypatch, tmp_path):
    """The value lines are repr(float(v)) written one by one, signed zeros
    and extreme magnitudes included, x fastest as the sampler lists them."""
    rng = np.random.default_rng(7)
    vals = np.concatenate([rng.normal(scale=3.0, size=21), [0.0, -0.0, 1e-300, 1e300]])
    rng.shuffle(vals)
    monkeypatch.setattr(export, "evaluate_grid", lambda mesh, coeffs, xs, ys: vals.reshape(5, 5))
    mesh = StructuredMesh((0.0, 0.0), (1.0, 1.0), 1, 1, 1)
    path = tmp_path / "field.vtk"
    write_field_vtk(path, mesh, np.zeros(mesh.n_scalar_dofs), resolution=5)
    lines = path.read_text().splitlines()
    assert lines[10:] == [repr(float(v)) for v in vals]
    assert "-0.0" in lines[10:] and "1e-300" in lines[10:] and "1e+300" in lines[10:]


def test_writers_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    betas = np.geomspace(0.1, 1e6, 8)
    errors = np.sqrt(betas) / 3.0
    write_study_csv(a, betas, errors)
    write_study_csv(b, betas, errors)
    assert a.read_bytes() == b.read_bytes()
    back = np.genfromtxt(a, delimiter=",", skip_header=1)
    np.testing.assert_array_equal(back[:, 0], betas)
    np.testing.assert_array_equal(back[:, 1], errors)
