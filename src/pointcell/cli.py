"""Command-line front end: solve, beta-study, reconstruct.

Runs are driven by an INI-style config file; a handful of flags override the
file so parameter sweeps don't need one file per run.  Unknown sections or
keys are rejected by name rather than ignored, since a typo that silently
falls back to a default is the most expensive way to lose an afternoon.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from . import benchmarks, export
from .errors import (BoundaryNotFoundError, CloudLoadError, SolverError)
from .geometry import DistanceParams
from .penalty import (DiffuseParams, PenaltyParams, SharpParams,
                      assemble_diffuse_penalty, assemble_sharp_penalty,
                      collect_sharp_segments)

_KNOWN_KEYS = {
    "problem": {"kind", "cloud", "n_points", "r_inner", "r_outer", "amp",
                "slope", "beta", "method", "load", "rim_value", "volume_depth"},
    "mesh": {"extent", "n_cells", "degree"},
    "distance": {"k", "r"},
    "diffuse": {"epsilon", "n_sub", "n_gauss"},
    "sharp": {"n_query", "n_sub", "n_gauss", "l_max", "test_grid"},
    "study": {"preset", "betas", "methods", "epsilon", "reference_chords"},
    "output": {"dir", "field_resolution"},
}


class ConfigError(Exception):
    pass


def _load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser.read(path)
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
    return parser


def _get(cfg, section, key, cast, default):
    try:
        raw = cfg.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _distance_params(cfg, args, default_r) -> DistanceParams:
    k = args.k if args.k is not None else _get(cfg, "distance", "k", int, 4)
    r = args.r if args.r is not None else _get(cfg, "distance", "r", float, default_r)
    try:
        return DistanceParams(k=k, r=r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _checked_beta(beta, source) -> float:
    """beta if it is a valid penalty factor (finite and positive)."""
    try:
        return PenaltyParams(beta=beta).beta
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _beta(cfg, args, default) -> float:
    if args.beta is not None:
        return _checked_beta(args.beta, "--beta")
    return _checked_beta(_get(cfg, "problem", "beta", float, default), "[problem] beta")


def _sharp_params(cfg, args, default_l_max) -> SharpParams:
    pick = lambda flag, key, cast, dflt: (
        flag if flag is not None else _get(cfg, "sharp", key, cast, dflt))
    try:
        return SharpParams(
            n_query=pick(args.n_query_s, "n_query", int, 5),
            n_sub=pick(args.n_sub_s, "n_sub", int, 6),
            n_gauss=pick(args.n_gauss_s, "n_gauss", int, 4),
            l_max=pick(args.l_max_s, "l_max", float, default_l_max),
            test_grid=_get(cfg, "sharp", "test_grid", int, 3))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _diffuse_params(cfg, args) -> DiffuseParams:
    pick = lambda flag, key, cast, dflt: (
        flag if flag is not None else _get(cfg, "diffuse", key, cast, dflt))
    try:
        return DiffuseParams(
            epsilon=pick(args.epsilon, "epsilon", float, 5e-3),
            n_sub=pick(args.n_sub_eps, "n_sub", int, 7),
            n_gauss=pick(args.n_gauss_eps, "n_gauss", int, 4))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _annular_config(cfg, args) -> benchmarks.AnnularConfig:
    dparams = _distance_params(cfg, args, default_r=0.01)
    try:
        return benchmarks.AnnularConfig(
            n_points=_get(cfg, "problem", "n_points", int, 2000),
            r_inner=_get(cfg, "problem", "r_inner", float, 0.25),
            r_outer=_get(cfg, "problem", "r_outer", float, 1.0),
            amp=_get(cfg, "problem", "amp", float, 10.0),
            slope=_get(cfg, "problem", "slope", float, 0.1),
            extent=_get(cfg, "mesh", "extent", float, 1.2),
            n_cells=_get(cfg, "mesh", "n_cells", int, 4),
            degree=_get(cfg, "mesh", "degree", int, 10),
            volume_depth=_get(cfg, "problem", "volume_depth", int, 10),
            k=dparams.k, r=dparams.r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _outdir(cfg, args) -> str:
    """Output directory, created on the spot: call it once every other config
    value has been read and checked, so a rejected run leaves nothing behind."""
    out = args.out_dir or _get(cfg, "output", "dir", str, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _load_cloud(cfg, args):
    path = args.cloud or _get(cfg, "problem", "cloud", str, None)
    if path is None:
        raise ConfigError("membrane run needs a cloud file ([problem] cloud)")
    return benchmarks.load_scaled_cloud(path)


def _cmd_solve(cfg, args) -> int:
    kind = _get(cfg, "problem", "kind", str, "membrane")
    resolution = _get(cfg, "output", "field_resolution", int, 101)
    if kind == "membrane":
        beta = _beta(cfg, args, 1e6)
        cloud = _load_cloud(cfg, args)
        dparams = _distance_params(cfg, args, default_r=0.05)
        h = float(np.median(cloud.tree.query(cloud.points, k=2)[0][:, 1]))
        sparams = _sharp_params(cfg, args, default_l_max=3.0 * h)
        extent = _get(cfg, "mesh", "extent", float, 1.1)
        n_cells = _get(cfg, "mesh", "n_cells", int, 16)
        degree = _get(cfg, "mesh", "degree", int, 10)
        load = _get(cfg, "problem", "load", float, 10.0)
        rim_value = _get(cfg, "problem", "rim_value", float, 1.0)
        out = _outdir(cfg, args)
        result = benchmarks.build_membrane_problem(
            cloud, extent=extent, n_cells=n_cells, degree=degree, beta=beta,
            load=load, rim_value=rim_value, dparams=dparams, sparams=sparams)
        export.write_field_vtk(os.path.join(out, "field.vtk"), result.mesh,
                               result.coeffs, resolution=resolution)
        export.write_segments_csv(os.path.join(out, "segments.csv"),
                                  result.segments)
        print(f"dofs={result.stats['dofs']} "
              f"penalty_points={result.stats['penalty_points']} "
              f"segments={result.stats['n_segments']} "
              f"mean_abs_mismatch={result.mean_abs_mismatch:.6e}")
        return 0
    if kind == "annular":
        config = _annular_config(cfg, args)
        beta = _beta(cfg, args, 1e5)
        method = args.method or _get(cfg, "problem", "method", str, "sharp")
        if method == "sharp":
            sparams = _sharp_params(cfg, args,
                                    default_l_max=3.0 * config.spacing)
        elif method == "diffuse":
            diffuse = _diffuse_params(cfg, args)
        else:
            raise ConfigError(f"unknown method {method!r}")
        out = _outdir(cfg, args)
        problem = benchmarks.build_annular_problem(config)
        pen = PenaltyParams(beta=beta, u_hat=problem.u_hat)
        if method == "sharp":
            segments = collect_sharp_segments(
                problem.mesh, problem.cloud, problem.dparams, sparams)
            Kp, fp, stats = assemble_sharp_penalty(
                problem.mesh, problem.cloud, segments, pen, sparams.n_gauss)
        else:
            Kp, fp, stats = assemble_diffuse_penalty(
                problem.mesh, problem.cloud, problem.dparams, diffuse, pen)
        u, energy, error = benchmarks.solve_annular(problem, Kp, fp)
        export.write_field_vtk(os.path.join(out, "field.vtk"), problem.mesh, u,
                               resolution=resolution)
        print(f"dofs={problem.volume.ndof} penalty_points={stats['penalty_points']} "
              f"energy={energy:.10e} error_percent={error:.6e}")
        return 0
    raise ConfigError(f"unknown problem kind {kind!r}")


def _cmd_beta_study(cfg, args) -> int:
    config = _annular_config(cfg, args)
    preset = _get(cfg, "study", "preset", str, "log26")
    raw = _get(cfg, "study", "betas", str, None)
    if raw is not None:
        try:
            betas = np.array([float(tok) for tok in raw.split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad [study] betas list: {raw!r}") from exc
        for beta in betas:
            _checked_beta(beta, "[study] betas")
    else:
        betas = benchmarks.beta_grid(preset)
    methods = _get(cfg, "study", "methods", str, "sharp,diffuse").split(",")
    kwargs = {}
    for method in methods:
        method = method.strip()
        if method == "sharp":
            kwargs["sharp"] = _sharp_params(cfg, args,
                                            default_l_max=3.0 * config.spacing)
        elif method == "diffuse":
            kwargs["diffuse"] = _diffuse_params(cfg, args)
        elif method == "reference":
            kwargs["reference_chords"] = _get(cfg, "study", "reference_chords",
                                              int, 2048)
        else:
            raise ConfigError(f"unknown study method {method!r}")
    out = _outdir(cfg, args)
    problem = benchmarks.build_annular_problem(config)
    table = benchmarks.run_beta_study(problem, betas, **kwargs)
    for name in ("sharp", "diffuse", "reference"):
        if name in table:
            export.write_study_csv(os.path.join(out, f"study_{name}.csv"),
                                   table["beta"], table[name])
    counts = {name: table.get(f"{name}_points") for name in
              ("sharp", "diffuse", "reference") if f"{name}_points" in table}
    errors = {name: np.nanmin(table[name]) for name in
              ("sharp", "diffuse", "reference") if name in table}
    best = min(errors.values()) if errors else float("nan")
    print(f"dofs={problem.volume.ndof} penalty_points={counts} "
          f"rows={betas.size} best_error_percent={best:.6e}")
    return 0


def _cmd_reconstruct(cfg, args) -> int:
    cloud = _load_cloud(cfg, args)
    dparams = _distance_params(cfg, args, default_r=0.05)
    h = float(np.median(cloud.tree.query(cloud.points, k=2)[0][:, 1]))
    sparams = _sharp_params(cfg, args, default_l_max=3.0 * h)
    from .fcm import StructuredMesh

    extent = _get(cfg, "mesh", "extent", float, 1.1)
    n_cells = _get(cfg, "mesh", "n_cells", int, 16)
    out = _outdir(cfg, args)
    mesh = StructuredMesh((-extent, -extent), (2 * extent, 2 * extent),
                          n_cells, n_cells, 1)
    segments = collect_sharp_segments(mesh, cloud, dparams, sparams)
    if not segments:
        raise BoundaryNotFoundError("no contributing regions found")
    export.write_segments_csv(os.path.join(out, "segments.csv"), segments)
    total = sum(s.total_length for s in segments)
    print(f"regions={len(segments)} "
          f"subsegments={sum(s.intervals.shape[0] for s in segments)} "
          f"total_length={total:.10e}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointcell",
        description="embedded-domain solver with point-cloud Dirichlet data")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--cloud", default=None, help="cloud file override")
    parser.add_argument("--method", default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--r", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--n-sub-eps", dest="n_sub_eps", type=int, default=None)
    parser.add_argument("--n-gauss-eps", dest="n_gauss_eps", type=int, default=None)
    parser.add_argument("--n-query-s", dest="n_query_s", type=int, default=None)
    parser.add_argument("--n-sub-s", dest="n_sub_s", type=int, default=None)
    parser.add_argument("--n-gauss-s", dest="n_gauss_s", type=int, default=None)
    parser.add_argument("--l-max-s", dest="l_max_s", type=float, default=None)
    parser.add_argument("command", choices=["solve", "beta-study", "reconstruct"])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = (_load_config(args.config) if args.config
               else configparser.ConfigParser())
        if args.command == "solve":
            return _cmd_solve(cfg, args)
        if args.command == "beta-study":
            return _cmd_beta_study(cfg, args)
        return _cmd_reconstruct(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CloudLoadError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (BoundaryNotFoundError, SolverError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
