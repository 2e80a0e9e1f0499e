"""The benchmark workloads: inputs from a seed, one timed task, checks.

Every workload is one user task of the ``pointcell`` command line, driven
through the public library API: from a ready point cloud to the written
result files.  The seed sets the sampling phase of each circle cloud (a
rotation by less than one point spacing), which moves every point off the
positions the acceptance tests use while keeping the spacing, and hence the
discretization parameters, fixed.

A task returns the workload's accuracy measure and the files it wrote.
``check`` compares them with the acceptance cap of the guarantee the task
reproduces and reads the files back; it runs outside the timed region and
never replaces any of the timed work.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from pointcell import benchmarks, export, fcm, geometry


def _phases(seed, *n_points):
    """One phase in [0, 2 pi / n) per circle of n points, drawn from the seed."""
    n = np.asarray(n_points, dtype=float)
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=n.size) / n


def _read_csv(path):
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in handle]
    return header, rows


class Annular:
    """``beta-study`` on a reduced annulus, all three routes, study CSVs.

    The acceptance config (2,000 inner points, volume depth 10) takes about
    25 s, one operation per run, and its run-to-run spread on a shared host
    was too wide; a quarter of the points and two fewer volume levels keep
    the volume stage the largest and the C5 floor met at about 7 s.
    """

    config = benchmarks.AnnularConfig(n_points=500, degree=8, volume_depth=8)
    betas = np.append(benchmarks.beta_grid(), 5e6)
    cap = 0.1  # C5 floor: best sharp error in the 1e3..1e6 window, percent
    accuracy_name = "energy_error_pct"

    def __init__(self, seed):
        n = self.config.n_points
        self.phase_inner, self.phase_outer = _phases(seed, n, 4 * n)

    def setup(self):
        c = self.config
        pts = np.vstack([
            benchmarks.circle_cloud(c.r_inner, c.n_points, phase=self.phase_inner),
            benchmarks.circle_cloud(c.r_outer, 4 * c.n_points,
                                    phase=self.phase_outer)])
        self.cloud = geometry.PointCloud(pts)

    def run(self, outdir):
        problem = benchmarks.build_annular_problem(self.config)
        problem = dataclasses.replace(problem, cloud=self.cloud)
        table = benchmarks.run_beta_study(
            problem, self.betas,
            sharp=benchmarks.default_sharp_params(self.config),
            diffuse=benchmarks.default_diffuse_params(5e-3),
            reference_chords=2048)
        files = []
        for route in ("sharp", "diffuse", "reference"):
            path = os.path.join(outdir, f"study_{route}.csv")
            export.write_study_csv(path, table["beta"], table[route])
            files.append(path)
        return {"table": table, "files": files,
                "accuracy": float(np.nanmin(table["sharp"]))}

    def check(self, result):
        table = result["table"]
        problems = []
        for route in ("sharp", "diffuse", "reference"):
            if not np.all(np.isfinite(table[route])):
                problems.append(f"{route} errors not all finite")
        window = (self.betas >= 1e3) & (self.betas <= 1e6)
        floor = float(np.min(table["sharp"][window]))
        if not floor < self.cap:
            problems.append(f"sharp floor {floor!r} not below {self.cap}%")
        for route, path in zip(("sharp", "diffuse", "reference"), result["files"]):
            header, rows = _read_csv(path)
            got = np.array(rows, dtype=float)
            want = np.column_stack([table["beta"], table[route]])
            if header != "beta,e_percent" or not np.array_equal(got, want,
                                                               equal_nan=True):
                problems.append(f"{os.path.basename(path)} does not read back")
        return problems


class Membrane:
    """``solve`` on a 512-point unit circle: field VTK and segments CSV."""

    n_points = 512
    resolution = 201
    cap = 1e-2  # C8: mean absolute rim mismatch
    axisymmetry_cap = 1e-3  # C8: deviation on two inner rings
    accuracy_name = "rim_mismatch"

    def __init__(self, seed):
        self.phase, = _phases(seed, self.n_points)

    def setup(self):
        self.cloud = geometry.PointCloud(
            benchmarks.circle_cloud(1.0, self.n_points, phase=self.phase))

    def run(self, outdir):
        result = benchmarks.build_membrane_problem(self.cloud)
        vtk = os.path.join(outdir, "field.vtk")
        csv = os.path.join(outdir, "segments.csv")
        export.write_field_vtk(vtk, result.mesh, result.coeffs,
                               resolution=self.resolution)
        export.write_segments_csv(csv, result.segments)
        return {"membrane": result, "files": [vtk, csv],
                "accuracy": result.mean_abs_mismatch}

    def check(self, result):
        res = result["membrane"]
        problems = []
        if not res.mean_abs_mismatch <= self.cap:
            problems.append(f"rim mismatch {res.mean_abs_mismatch!r} above {self.cap}")
        if not np.all(np.isfinite(res.coeffs)):
            problems.append("solution not finite")
        th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        for radius in (0.3, 0.5):
            ring = radius * np.column_stack([np.cos(th), np.sin(th)])
            vals = fcm.evaluate(res.mesh, res.coeffs, ring)
            dev = float(np.max(np.abs(vals - vals.mean())))
            if not dev <= self.axisymmetry_cap:
                problems.append(f"axisymmetry deviation {dev!r} at r={radius}")
        vtk, csv = result["files"]
        with open(vtk) as handle:
            lines = handle.read().splitlines()
        values = np.array(lines[10:], dtype=float)
        if values.size != self.resolution ** 2 or not np.all(np.isfinite(values)):
            problems.append("field.vtk does not hold a finite full grid")
        problems += _check_segments_csv(csv, res.segments)
        return problems


def _check_segments_csv(path, segments):
    header, rows = _read_csv(path)
    want = sum(s.intervals.shape[0] for s in segments)
    coords = np.array([row[:4] for row in rows], dtype=float).reshape(-1, 4)
    if header != "x0,y0,x1,y1,key" or len(rows) != want \
            or not np.all(np.isfinite(coords)):
        return [f"segments.csv holds {len(rows)} rows, expected {want} finite"]
    return []


WORKLOADS = {"annular": Annular, "membrane": Membrane}
