"""Command-line front end: solve, beta-study, reconstruct.

Runs are driven by an INI-style config file; a handful of flags override the
file so parameter sweeps don't need one file per run.  Unknown sections or
keys are rejected by name rather than ignored, since a typo that silently
falls back to a default is the most expensive way to lose an afternoon, and
so is a flag the run never reads.  Only the values the user set are passed
on; the library's derivations (default_*_params) take them, derive the
rest and check the run.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys

import numpy as np

from . import benchmarks, export
from .errors import (BoundaryNotFoundError, CloudLoadError, SolverError)
from .fcm import StructuredMesh
from .penalty import PenaltyParams, collect_sharp_segments

# Every config key and the type its value is read as.
_KEYS = {
    "problem": {"kind": str, "cloud": str, "n_points": int, "beta": float,
                "method": str, "load": float, "rim_value": float, "volume_depth": int},
    "mesh": {"extent": float, "n_cells": int, "degree": int},
    "distance": {"k": int, "r": float},
    "diffuse": {"epsilon": float, "n_gauss": int},
    "sharp": {"n_gauss": int},
    "study": {"betas": str, "methods": str, "reference_chords": int},
    "output": {"dir": str, "field_resolution": int},
}

# The integer keys whose values have a lower bound, and the bound.
_AT_LEAST = {("output", "field_resolution"): 2, ("study", "reference_chords"): 1,
             ("mesh", "degree"): 1, ("problem", "volume_depth"): 0}

# Every flag and the config key it overrides.
_FLAGS = {
    "out-dir": ("output", "dir"), "cloud": ("problem", "cloud"),
    "method": ("problem", "method"), "k": ("distance", "k"), "r": ("distance", "r"),
    "beta": ("problem", "beta"), "epsilon": ("diffuse", "epsilon"),
    "n-gauss-eps": ("diffuse", "n_gauss"), "n-gauss-s": ("sharp", "n_gauss"),
}


class ConfigError(Exception):
    pass


class _Settings(dict):
    """The values the user set, {(section, key): value}.  Every get is
    recorded in read, and flags maps the key of each flag given to the
    flag, so that _outdir can reject a flag the run never read."""

    def __init__(self, values, flags):
        super().__init__(values)
        self.flags, self.read = flags, set()

    def get(self, where, default=None):
        self.read.add(where)
        return super().get(where, default)


def _settings(args) -> _Settings:
    """The values the user set; a flag replaces the file's value of its key."""
    out, flags = {}, {}
    if args.config is not None:
        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                try:
                    out[section, key] = _KEYS[section][key](raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    for flag, where in _FLAGS.items():
        if vars(args)[flag] is not None:
            out[where] = vars(args)[flag]
            flags[where] = f"--{flag}"
    for (section, key), low in _AT_LEAST.items():
        if out.get((section, key), low) < low:
            raise ConfigError(f"[{section}] {key} must be >= {low}, got {out[section, key]}")
    if ("problem", "beta") in out:
        _checked_beta(out["problem", "beta"],
                      "--beta" if args.beta is not None else "[problem] beta")
    return _Settings(out, flags)


def _user(cfg, section, keys=None) -> dict:
    """The user's values of one section, restricted to keys when given."""
    return {key: cfg.get((sec, key)) for sec, key in cfg
            if sec == section and (keys is None or key in keys)}


def _checked_beta(beta, source) -> float:
    """beta if it is a valid penalty factor (finite and positive)."""
    try:
        return PenaltyParams(beta=beta).beta
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), with the library's own checks as config errors."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _kind(cfg, command, *kinds) -> str:
    """[problem] kind: one of the kinds command runs, the first by default."""
    kind = cfg.get(("problem", "kind"), kinds[0])
    if kind not in kinds:
        raise ConfigError(f"unknown problem kind {kind!r} for {command}, "
                          f"which runs {' or '.join(kinds)}")
    return kind


def _annular_config(cfg) -> benchmarks.AnnularConfig:
    """The user's values of AnnularConfig's fields; [mesh] extent is membrane's."""
    names = {f.name for f in dataclasses.fields(benchmarks.AnnularConfig)}
    values = {key: cfg.get((sec, key)) for sec, key in cfg
              if sec in ("problem", "mesh", "distance") and key in names}
    return _checked(benchmarks.AnnularConfig, **values)


def _route_params(cfg, config, method) -> dict:
    """The keyword route_pairs takes for one annular route, with its controls."""
    if method == "sharp":
        return {"sharp": _checked(benchmarks.default_sharp_params, config, **_user(cfg, "sharp"))}
    if method == "diffuse":
        return {"diffuse": _checked(benchmarks.default_diffuse_params, config=config,
                                    **_user(cfg, "diffuse"))}
    if method == "reference":
        return {"reference_chords": cfg.get(("study", "reference_chords"), 2048)}
    raise ConfigError(f"unknown method {method!r}")


def _membrane_params(cfg, cloud, **sharp):
    """(DistanceParams, SharpParams) of a membrane run on cloud; sharp holds
    the [sharp] values of a run whose output depends on them."""
    return _checked(benchmarks.default_membrane_params, cloud, **_user(cfg, "distance"),
                    **_user(cfg, "mesh", {"extent", "n_cells"}), **sharp)


def _membrane_keywords(cfg) -> dict:
    """The user's keywords of build_membrane_problem."""
    return {**_user(cfg, "mesh"), **_user(cfg, "distance"), **_user(cfg, "sharp"),
            **_user(cfg, "problem", {"beta", "load", "rim_value"})}


def _outdir(cfg) -> str:
    """Output directory, created on the spot: call it once every other config
    value has been read and checked, so a rejected run (also one given a flag
    it has not read) leaves nothing behind."""
    out = cfg.get(("output", "dir"), ".")
    unread = [flag for where, flag in cfg.flags.items() if where not in cfg.read]
    if unread:
        raise ConfigError(f"this run does not read {', '.join(unread)}")
    os.makedirs(out, exist_ok=True)
    return out


def _load_cloud(cfg):
    path = cfg.get(("problem", "cloud"))
    if path is None:
        raise ConfigError("membrane run needs a cloud file ([problem] cloud)")
    return benchmarks.load_scaled_cloud(path)


def _field_keywords(cfg) -> dict:
    """write_field_vtk's keywords: the user's resolution, if set."""
    resolution = cfg.get(("output", "field_resolution"))
    return {} if resolution is None else {"resolution": resolution}


def _cmd_solve(cfg) -> int:
    kind = _kind(cfg, "solve", "membrane", "annular")
    field = _field_keywords(cfg)
    if kind == "membrane":
        cloud = _load_cloud(cfg)
        _membrane_params(cfg, cloud, **_user(cfg, "sharp"))  # checks the run before _outdir
        keywords = _membrane_keywords(cfg)
        out = _outdir(cfg)
        result = benchmarks.build_membrane_problem(cloud, **keywords)
        export.write_field_vtk(os.path.join(out, "field.vtk"), result.mesh, result.coeffs,
                               **field)
        export.write_segments_csv(os.path.join(out, "segments.csv"),
                                  result.segments)
        print(f"dofs={result.stats['dofs']} "
              f"penalty_points={result.stats['penalty_points']} "
              f"segments={result.stats['n_regions']} "
              f"mean_abs_mismatch={result.mean_abs_mismatch:.6e}")
        return 0
    config = _annular_config(cfg)
    beta = cfg.get(("problem", "beta"), 1e5)
    params = _route_params(cfg, config, cfg.get(("problem", "method"), "sharp"))
    out = _outdir(cfg)
    problem = benchmarks.build_annular_problem(config)
    (Kp, fp, stats), = benchmarks.route_pairs(problem, **params).values()
    u, energy, error = benchmarks.solve_annular(problem, beta * Kp, beta * fp)
    export.write_field_vtk(os.path.join(out, "field.vtk"), problem.mesh, u, **field)
    print(f"dofs={problem.volume.ndof} penalty_points={stats['penalty_points']} "
          f"energy={energy:.10e} error_percent={error:.6e}")
    return 0


def _cmd_beta_study(cfg) -> int:
    _kind(cfg, "beta-study", "annular")
    config = _annular_config(cfg)
    raw = cfg.get(("study", "betas"))
    if raw is not None:
        try:
            betas = np.array([float(tok) for tok in raw.split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad [study] betas list: {raw!r}") from exc
        for beta in betas:
            _checked_beta(beta, "[study] betas")
    else:
        betas = benchmarks.beta_grid()
    kwargs = {}
    for method in cfg.get(("study", "methods"), "sharp,diffuse").split(","):
        kwargs.update(_route_params(cfg, config, method.strip()))
    out = _outdir(cfg)
    problem = benchmarks.build_annular_problem(config)
    table = benchmarks.run_beta_study(problem, betas, **kwargs)
    routes = [name for name in ("sharp", "diffuse", "reference") if name in table]
    for name in routes:
        export.write_study_csv(os.path.join(out, f"study_{name}.csv"),
                               table["beta"], table[name])
    counts = {name: table[f"{name}_points"] for name in routes}
    best = min((np.nanmin(table[name]) for name in routes), default=float("nan"))
    print(f"dofs={problem.volume.ndof} penalty_points={counts} "
          f"rows={betas.size} best_error_percent={best:.6e}")
    return 0


def _cmd_reconstruct(cfg) -> int:
    _kind(cfg, "reconstruct", "membrane")
    cloud = _load_cloud(cfg)
    dparams, sparams = _membrane_params(cfg, cloud)
    extent = cfg.get(("mesh", "extent"), benchmarks.MEMBRANE_EXTENT)
    n_cells = cfg.get(("mesh", "n_cells"), benchmarks.MEMBRANE_CELLS)
    out = _outdir(cfg)
    mesh = StructuredMesh((-extent, -extent), (2 * extent, 2 * extent),
                          n_cells, n_cells, 1)
    segments = collect_sharp_segments(mesh, cloud, dparams, sparams)
    if not segments:
        raise BoundaryNotFoundError("no contributing regions found")
    export.write_segments_csv(os.path.join(out, "segments.csv"), segments)
    total = sum(seg.total_length for seg in segments)
    print(f"regions={len(segments)} total_length={total:.10e}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointcell",
        description="embedded-domain solver with point-cloud Dirichlet data")
    parser.add_argument("--config", default=None, help="INI config file")
    for flag, (section, key) in _FLAGS.items():
        parser.add_argument(f"--{flag}", dest=flag, type=_KEYS[section][key],
                            help=f"overrides [{section}] {key}")
    parser.add_argument("command", choices=["solve", "beta-study", "reconstruct"])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _settings(args)
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "beta-study":
            return _cmd_beta_study(cfg)
        return _cmd_reconstruct(cfg)
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
