"""End-to-end runs of the command-line front end."""

import dataclasses
import inspect
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pointcell import (AnnularConfig, PointCloud, build_annular_problem, build_membrane_problem,
                       circle_cloud, default_diffuse_params, default_membrane_params,
                       default_sharp_params, load_scaled_cloud, run_beta_study)
from pointcell import benchmarks, cli
from pointcell.cli import main
from pointcell.export import write_field_vtk, write_segments_csv


def _write(path, body: str) -> str:
    path.write_text(textwrap.dedent(body))
    return str(path)


def _line_cloud_file(tmp_path, n=41, lo=-1.0, hi=1.0):
    xs = np.linspace(lo, hi, n)
    path = tmp_path / "line.txt"
    np.savetxt(path, np.column_stack([xs, np.zeros(n)]))
    return str(path)


def _tiny_annular(extra: str = "") -> str:
    return f"""\
        [problem]
        kind = annular
        n_points = 96
        volume_depth = 4
        beta = 1e4
        [mesh]
        n_cells = 2
        degree = 4
        [distance]
        k = 4
        r = 0.02
        [sharp]
        n_gauss = 3
        [output]
        field_resolution = 9
        {extra}"""


# ---------------------------------------------------------------------------
# config validation


def test_unknown_key_is_rejected(tmp_path, capsys):
    """A typo and the removed keys are rejected by name, before the output
    directory is made: [sharp] n_sub, which no result read, [sharp] l_max,
    now each region's own cap, the tree depths, which the library derives
    from the lengths they must resolve, and the annulus's shape, which is
    one fixed problem."""
    made = tmp_path / "made"
    for section, key in [("mesh", "extnet"), ("sharp", "n_sub"), ("sharp", "l_max"),
                         ("sharp", "n_query"), ("sharp", "test_grid"), ("diffuse", "n_sub"),
                         ("problem", "r_inner"), ("problem", "r_outer"),
                         ("problem", "amp"), ("problem", "slope")]:
        ini = _write(tmp_path / "run.ini", f"""\
            [{section}]
            {key} = 3
            """)
        assert main(["--config", ini, "--out-dir", str(made), "solve"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert f"unknown config key [{section}] {key}" in err
        assert not made.exists()
    assert cli._KEYS["sharp"] == {"n_gauss": int}


def test_removed_sharp_depth_flag_is_rejected(tmp_path, capsys):
    """The removed depth flags, --n-sub-s, --l-max-s, --n-query-s and
    --n-sub-eps, exit 2 before the output directory is made."""
    made = tmp_path / "made"
    for flag in ("--n-sub-s", "--l-max-s", "--n-query-s", "--n-sub-eps"):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(made), "solve", f"{flag}=5"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not made.exists()


def test_readme_lists_every_flag():
    """The README's flag sentence names exactly the flags the parser takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Flags override file values:", 1)[1].split(".\n", 1)[0]
    assert (sorted(re.findall(r"`(--[a-z-]+)`", sentence))
            == sorted(f"--{flag}" for flag in cli._FLAGS))


def test_membrane_solve_keys_are_build_membrane_problem_keywords():
    """The keys a membrane solve passes on, [mesh], [distance], [sharp] and
    [problem] beta, load and rim_value, are exactly the keyword-only
    parameters of build_membrane_problem."""
    every = cli._Settings({(section, key): None for section, keys in cli._KEYS.items()
                           for key in keys}, {})
    params = inspect.signature(build_membrane_problem).parameters.values()
    assert (sorted(cli._membrane_keywords(every))
            == sorted(p.name for p in params if p.kind is p.KEYWORD_ONLY))


def test_readme_lists_every_config_key():
    """The README's table of config keys names exactly the keys the parser
    reads, section by section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| section | keys |", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[2:]:
        section, keys = re.fullmatch(r"\| `\[(\w+)\]` \| (.*) \|", row).groups()
        listed[section] = sorted(re.findall(r"`(\w+)`", keys))
    assert listed == {section: sorted(keys) for section, keys in cli._KEYS.items()}


@pytest.mark.parametrize("key", ["preset = log26", "epsilon = 5e-3"])
def test_dead_study_keys_are_rejected(tmp_path, capsys, key):
    ini = _write(tmp_path / "run.ini", _tiny_annular(f"[study]\n        {key}"))
    made = tmp_path / "made"
    assert main(["--config", ini, "--out-dir", str(made), "beta-study"]) == 2
    assert "unknown config key [study]" in capsys.readouterr().err
    assert not made.exists()


def test_unknown_section_is_rejected(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", """\
        [grid]
        n_cells = 3
        """)
    assert main(["--config", ini, "solve"]) == 2
    assert "unknown config section [grid]" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["--config", "/no/such/file.ini", "solve"]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_unparsable_value(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", """\
        [problem]
        kind = annular
        [mesh]
        degree = fast
        """)
    assert main(["--config", ini, "solve"]) == 2
    assert "bad value for [mesh] degree" in capsys.readouterr().err


def test_membrane_needs_cloud(capsys):
    assert main(["solve"]) == 2
    assert "cloud file" in capsys.readouterr().err


def test_missing_cloud_file(capsys, tmp_path):
    rc = main(["--cloud", str(tmp_path / "absent.txt"),
               "--out-dir", str(tmp_path), "solve"])
    assert rc == 1
    assert "input error:" in capsys.readouterr().err


def test_unknown_problem_kind(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", """\
        [problem]
        kind = plate
        """)
    assert main(["--config", ini, "solve"]) == 2
    assert "unknown problem kind" in capsys.readouterr().err


def test_unknown_method(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", _tiny_annular())
    rc = main(["--config", ini, "--out-dir", str(tmp_path / "o"),
               "--method", "nodal", "solve"])
    assert rc == 2
    assert "unknown method" in capsys.readouterr().err


def test_zero_sharp_rule_order_is_config_error(tmp_path, capsys):
    path = tmp_path / "circle.txt"
    np.savetxt(path, circle_cloud(1.0, 96))
    rc = main(["--cloud", str(path), "--out-dir", str(tmp_path / "o"),
               "--n-gauss-s", "0", "solve"])
    assert rc == 2
    assert "config error: n_gauss must be >= 1" in capsys.readouterr().err


# A membrane mesh that the unit circle leaves.
_MEMBRANE_IN_09 = "[mesh]\nextent = 0.9\nn_cells = 4\ndegree = 3\n"

_BAD_NUMBERS = {
    "annular-k": (_tiny_annular(), ["--k", "0"], "solve", "k must be >= 1"),
    "annular-r": (_tiny_annular(), ["--r", "-1"], "beta-study", "r must be positive"),
    "membrane-beta": ("[problem]\n", ["--beta=-1e6"], "solve",
                      "--beta: beta must be finite and positive"),
    "nan-beta": (_tiny_annular(), ["--beta", "nan"], "solve",
                 "--beta: beta must be finite and positive"),
    "config-beta": (_tiny_annular().replace("beta = 1e4", "beta = 0"), [], "solve",
                    "[problem] beta: beta must be finite and positive"),
    "study-betas": (_tiny_annular("[study]\n        betas = -10, 100"), [], "beta-study",
                    "[study] betas: beta must be finite and positive"),
    "annular-n-points": (_tiny_annular().replace("n_points = 96", "n_points = 0"), [],
                         "solve", "n_points must be >= 1"),
    "membrane-extent": ("[mesh]\nextent = 0\n", [], "solve", "extent must be positive"),
    "field-resolution": (_tiny_annular().replace("field_resolution = 9", "field_resolution = 1"),
                         [], "solve", "[output] field_resolution must be >= 2, got 1"),
    "reference-chords": (_tiny_annular("[study]\n        methods = reference\n"
                                       "        reference_chords = 0"), [], "beta-study",
                         "[study] reference_chords must be >= 1, got 0"),
    "membrane-k-above-cloud": ("[problem]\n", ["--k", "65"], "reconstruct",
                               "k=65 exceeds cloud size 64"),
    "annular-k-above-cloud": (_tiny_annular().replace("n_points = 96", "n_points = 1"),
                              ["--k", "8"], "solve", "k=8 exceeds cloud size 5"),
    "membrane-k-1": ("[problem]\n", ["--k", "1"], "solve",
                     "k must be >= 2 for the sharp route's plane fit, got 1"),
    "membrane-k-1-reconstruct": ("[problem]\n", ["--k", "1"], "reconstruct",
                                 "k must be >= 2 for the sharp route's plane fit, got 1"),
    "membrane-degree-0": ("[mesh]\ndegree = 0\n", [], "solve",
                          "[mesh] degree must be >= 1, got 0"),
    "annular-degree-0": (_tiny_annular().replace("degree = 4", "degree = 0"), [], "solve",
                         "[mesh] degree must be >= 1, got 0"),
    "annular-volume-depth": (_tiny_annular().replace("volume_depth = 4", "volume_depth = -1"),
                             [], "solve", "[problem] volume_depth must be >= 0, got -1"),
    "annular-k-1": (_tiny_annular().replace("k = 4", "k = 1"), [], "solve",
                    "k must be >= 2 for the sharp route's plane fit, got 1"),
    "annular-diffuse-k-1": (_tiny_annular().replace("k = 4", "k = 1"),
                            ["--method", "diffuse"], "solve",
                            "k must be >= 2 for the diffuse route's plane fit, got 1"),
    "membrane-cloud-outside-mesh": (_MEMBRANE_IN_09, [], "solve",
                                    "the cloud leaves the mesh [-0.9, 0.9]^2"),
    "membrane-cloud-outside-mesh-reconstruct": (_MEMBRANE_IN_09, [], "reconstruct",
                                                "the cloud leaves the mesh [-0.9, 0.9]^2"),
}


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_bad_number_is_config_error(tmp_path, capsys, case):
    """Out-of-range numbers exit 2 before any assembly, never with a traceback."""
    text, flags, command, message = _BAD_NUMBERS[case]
    cloud = tmp_path / "circle.txt"
    np.savetxt(cloud, circle_cloud(1.0, 64))
    ini = _write(tmp_path / "run.ini", text)
    rc = main(["--config", ini, "--cloud", str(cloud), "--out-dir", str(tmp_path / "o"),
               *flags, command])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text,flags,command", [
    ("[problem]\n", ["--beta", "nan"], "solve"),
    (_tiny_annular("[study]\n        betas = -10, 100"), [], "beta-study"),
    (_tiny_annular().replace("field_resolution = 9", "field_resolution = 0"), [], "solve"),
    (_tiny_annular().replace("n_points = 96", "n_points = 1"), ["--k", "8"], "solve"),
    ("[problem]\n", ["--k", "1"], "solve"),
    (_tiny_annular().replace("k = 4", "k = 1"), [], "solve"),
    ("[mesh]\ndegree = 0\n", [], "solve"),
    (_tiny_annular().replace("degree = 4", "degree = 0"), [], "solve"),
    (_tiny_annular().replace("volume_depth = 4", "volume_depth = -1"), [], "solve"),
    (_MEMBRANE_IN_09, [], "solve"),
    (_MEMBRANE_IN_09, [], "reconstruct"),
], ids=["nan-beta-solve", "negative-study-beta", "field-resolution-solve",
        "annular-k-above-cloud-solve", "membrane-k-1-solve", "annular-k-1-solve",
        "membrane-degree-0-solve", "annular-degree-0-solve", "annular-volume-depth-solve",
        "membrane-cloud-outside-mesh-solve", "membrane-cloud-outside-mesh-reconstruct"])
def test_rejected_run_leaves_no_output_dir(tmp_path, capsys, text, flags, command):
    """A membrane run gets a cloud, so that its own bound rejects it."""
    ini = _write(tmp_path / "run.ini", text)
    made = tmp_path / "made"
    cloud = [] if "kind = annular" in text else ["--cloud", _circle_file(tmp_path)]
    assert main(["--config", ini, *cloud, "--out-dir", str(made), *flags, command]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "cloud file" not in err
    assert not made.exists()


@pytest.mark.parametrize("text,flags,command,message", [
    ("[problem]\n", ["--cloud", "{cloud}", "--method", "diffuse", "--epsilon", "0.3"], "solve",
     "this run does not read --method, --epsilon"),
    ("[problem]\n", ["--cloud", "{cloud}", "--method", "nonsense"], "solve",
     "this run does not read --method"),
    ("[problem]\n", ["--cloud", "{cloud}", "--beta", "1e3"], "reconstruct",
     "this run does not read --beta"),
    (_tiny_annular(), ["--beta", "7e2"], "beta-study", "this run does not read --beta"),
    (_tiny_annular("[study]\n        methods = sharp"),
     ["--cloud", "{cloud}", "--method", "diffuse", "--epsilon", "0.3"], "beta-study",
     "this run does not read --cloud, --method, --epsilon"),
    (_tiny_annular(), ["--epsilon", "0.3", "--n-gauss-eps", "9"], "solve",
     "this run does not read --epsilon, --n-gauss-eps"),
    ("[problem]\nkind = membrane\n", ["--cloud", "{cloud}"], "beta-study",
     "unknown problem kind 'membrane' for beta-study, which runs annular"),
    (_tiny_annular(), [], "reconstruct",
     "unknown problem kind 'annular' for reconstruct, which runs membrane"),
    ("[problem]\n", ["--cloud", "{cloud}", "--n-gauss-s", "9"], "reconstruct",
     "this run does not read --n-gauss-s"),
], ids=["membrane-solve-method-epsilon", "membrane-solve-method", "reconstruct-beta",
        "beta-study-beta", "beta-study-cloud-method-epsilon", "annular-sharp-solve-diffuse",
        "beta-study-membrane-kind", "reconstruct-annular-kind", "reconstruct-n-gauss-s"])
def test_flag_the_run_does_not_read_is_rejected(tmp_path, capsys, text, flags, command,
                                                message):
    """A flag whose key the run never reads, and a [problem] kind the command
    does not run, exit 2 before the output directory is made."""
    ini = _write(tmp_path / "run.ini", text)
    made = tmp_path / "made"
    flags = [flag.format(cloud=_circle_file(tmp_path)) for flag in flags]
    assert main(["--config", ini, "--out-dir", str(made), *flags, command]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not made.exists()


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_line(tmp_path, capsys):
    cloud = _line_cloud_file(tmp_path)
    ini = _write(tmp_path / "run.ini", """\
        [mesh]
        extent = 1.1
        n_cells = 5
        """)
    out = tmp_path / "out"
    rc = main(["--config", ini, "--cloud", cloud, "--out-dir", str(out),
               "reconstruct"])
    assert rc == 0
    stdout = capsys.readouterr().out
    m = re.fullmatch(r"regions=(\d+) total_length=([\d.e+-]+)", stdout.strip())
    assert m, stdout
    assert int(m.group(1)) > 5
    assert 1.8 <= float(m.group(2)) <= 2.5
    lines = (out / "segments.csv").read_text().splitlines()
    assert lines[0] == "x0,y0,x1,y1,key"
    assert len(lines) == 1 + int(m.group(1))


@pytest.mark.filterwarnings("ignore")
def test_reconstruct_without_boundary(tmp_path, capsys):
    path = tmp_path / "corners.txt"
    np.savetxt(path, [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    rc = main(["--cloud", str(path), "--out-dir", str(tmp_path / "o"),
               "reconstruct"])
    assert rc == 1
    assert "run failed:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve


def test_solve_annular_sharp(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", _tiny_annular())
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), "solve"]) == 0
    stdout = capsys.readouterr().out
    m = re.search(r"dofs=(\d+) penalty_points=(\d+) energy=([\d.e+-]+) "
                  r"error_percent=([\d.e+-]+)", stdout)
    assert m, stdout
    assert int(m.group(1)) == (2 * 4 + 1) ** 2
    assert int(m.group(2)) > 0
    assert float(m.group(3)) > 0.0
    header = (out / "field.vtk").read_text().splitlines()
    assert "DIMENSIONS 9 9 1" in header


@pytest.mark.filterwarnings("ignore")
def test_solve_annular_without_penalty_points_fails(tmp_path, capsys, monkeypatch):
    """A route that places no penalty points fails as in beta-study, rather
    than solving a system the boundary never constrains: here the cloud lies
    far outside the mesh."""
    real = benchmarks.build_annular_problem
    far = circle_cloud(0.1, 24, center=(9.0, 9.0))
    monkeypatch.setattr(benchmarks, "build_annular_problem", lambda config: dataclasses.replace(
        real(config), cloud=PointCloud(far)))
    ini = _write(tmp_path / "run.ini", """\
        [problem]
        kind = annular
        n_points = 1
        volume_depth = 2
        [mesh]
        n_cells = 2
        degree = 2
        """)
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), "solve"]) == 1
    assert "run failed: no penalty points from route(s) sharp" in capsys.readouterr().err
    assert not (out / "field.vtk").exists()


def test_annular_solve_does_not_read_the_mesh_extent(tmp_path, capsys):
    """The annulus has its own square; [mesh] extent is the membrane's key.
    Read by the annular run, 0.9 left the outer circle outside the mesh and
    dropped its penalty points without a word."""
    lines = []
    with_extent = _tiny_annular().replace("[mesh]", "[mesh]\n        extent = 0.9")
    for text in (_tiny_annular(), with_extent):
        ini = _write(tmp_path / "run.ini", text)
        assert main(["--config", ini, "--out-dir", str(tmp_path / "o"), "solve"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]


def test_solve_annular_diffuse_flag_override(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", _tiny_annular())
    out = tmp_path / "out"
    rc = main(["--config", ini, "--out-dir", str(out), "--method", "diffuse",
               "--epsilon", "0.02", "--n-gauss-eps", "3",
               "solve"])
    assert rc == 0
    assert "error_percent=" in capsys.readouterr().out


def test_beta_flag_changes_the_run(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", _tiny_annular())
    energies = []
    for beta in ("1e3", "1e7"):
        rc = main(["--config", ini, "--out-dir", str(tmp_path / beta),
                   "--beta", beta, "solve"])
        assert rc == 0
        stdout = capsys.readouterr().out
        energies.append(float(re.search(r"energy=([\d.e+-]+)", stdout).group(1)))
    assert energies[0] != energies[1]


def test_solve_membrane(tmp_path, capsys):
    path = tmp_path / "circle.txt"
    np.savetxt(path, circle_cloud(1.0, 96))
    ini = _write(tmp_path / "run.ini", """\
        [problem]
        beta = 1e5
        [mesh]
        n_cells = 6
        degree = 5
        [output]
        field_resolution = 11
        """)
    out = tmp_path / "out"
    rc = main(["--config", ini, "--cloud", str(path), "--r", "0.2",
               "--out-dir", str(out), "solve"])
    assert rc == 0
    stdout = capsys.readouterr().out
    m = re.search(r"dofs=(\d+) penalty_points=(\d+) segments=(\d+) "
                  r"mean_abs_mismatch=([\d.e+-]+)", stdout)
    assert m, stdout
    assert int(m.group(1)) == (6 * 5 + 1) ** 2
    assert float(m.group(4)) < 0.05
    assert (out / "field.vtk").exists()
    seg_lines = (out / "segments.csv").read_text().splitlines()
    assert seg_lines[0] == "x0,y0,x1,y1,key"
    assert len(seg_lines) == 1 + int(m.group(3))


def _circle_file(tmp_path, n=96):
    path = tmp_path / "circle.txt"
    np.savetxt(path, circle_cloud(1.0, n))
    return str(path)


def test_solve_without_config_runs_the_library_defaults(tmp_path):
    """No config and no flags: the files of build_membrane_problem with its
    own defaults, written at write_field_vtk's default resolution."""
    path = _circle_file(tmp_path)
    out = tmp_path / "cli"
    assert main(["--cloud", path, "--out-dir", str(out), "solve"]) == 0
    result = build_membrane_problem(load_scaled_cloud(path))
    write_field_vtk(tmp_path / "field.vtk", result.mesh, result.coeffs)
    write_segments_csv(tmp_path / "segments.csv", result.segments)
    for name in ("segments.csv", "field.vtk"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_reconstruct_writes_the_segments_of_solve(tmp_path):
    path = _circle_file(tmp_path)
    ini = _write(tmp_path / "run.ini", """\
        [mesh]
        n_cells = 6
        degree = 3
        [distance]
        r = 0.2
        """)
    for command in ("solve", "reconstruct"):
        assert main(["--config", ini, "--cloud", path, "--out-dir",
                     str(tmp_path / command), command]) == 0
    assert ((tmp_path / "solve" / "segments.csv").read_bytes()
            == (tmp_path / "reconstruct" / "segments.csv").read_bytes())


def _recorded_params(monkeypatch, argv, module=cli):
    """The (DistanceParams, SharpParams) a CLI run hands to collect_sharp_segments
    in module: cli for reconstruct, benchmarks for the membrane solve."""
    seen = []

    def record(mesh, cloud, dparams, sparams):
        seen.append((dparams, sparams))
        return real(mesh, cloud, dparams, sparams)

    real = module.collect_sharp_segments
    monkeypatch.setattr(module, "collect_sharp_segments", record)
    assert main(argv) == 0
    return seen[0]


def test_flag_replaces_its_field_and_derived_values_follow(tmp_path, monkeypatch):
    """--n-gauss-s sets n_gauss only (read by solve, whose penalty uses it);
    n_query stays derived from the spacing (h = 0.065 here), and from the
    user's r when --r is below h/2."""
    path = _circle_file(tmp_path)
    cloud = load_scaled_cloud(path)
    base = ["--cloud", path, "--out-dir", str(tmp_path)]
    dparams, sparams = default_membrane_params(cloud)
    got = _recorded_params(monkeypatch, base + ["--n-gauss-s", "5", "solve"], benchmarks)
    assert got == (dparams, dataclasses.replace(sparams, n_gauss=5))
    assert _recorded_params(monkeypatch, base + ["reconstruct"]) == (dparams, sparams)
    for r, deeper in (("0.05", False), ("0.01", True)):
        dparams, sparams = default_membrane_params(cloud, r=float(r))
        got = _recorded_params(monkeypatch, base + ["--r", r, "reconstruct"])
        assert got == (dparams, sparams)
        assert (got[1].n_query > default_membrane_params(cloud)[1].n_query) == deeper


def test_diffuse_depth_follows_the_user_epsilon(tmp_path, monkeypatch):
    seen = []
    real = benchmarks.assemble_diffuse_penalty
    monkeypatch.setattr(benchmarks, "assemble_diffuse_penalty",
                        lambda *a: seen.append(a[3]) or real(*a))
    ini = _write(tmp_path / "run.ini", _tiny_annular())
    assert main(["--config", ini, "--out-dir", str(tmp_path / "o"), "--method",
                 "diffuse", "--epsilon", "0.02", "solve"]) == 0
    config = AnnularConfig(n_points=96, volume_depth=4, n_cells=2, degree=4, r=0.02)
    assert seen == [default_diffuse_params(0.02, config)]


_MEMBRANE_NO_DEPTH = """\
    [mesh]
    n_cells = 6
    degree = 5
    [output]
    field_resolution = 11
    """


@pytest.mark.parametrize("text,command,line", [
    (_MEMBRANE_NO_DEPTH, "solve",
     "dofs=961 penalty_points=464 segments=96 mean_abs_mismatch=1.427630e-03"),
    (_MEMBRANE_NO_DEPTH, "reconstruct",
     "regions=96 total_length=6.2686135207e+00"),
    (_tiny_annular(), "solve",
     "dofs=81 penalty_points=1464 energy=8.9371559731e+00 error_percent=8.732995e+00"),
    (_tiny_annular("[study]\n        betas = 1e3,1e5"), "beta-study",
     "dofs=81 penalty_points={'sharp': 1464, 'diffuse': 189568} rows=2 "
     "best_error_percent=4.367981e+00"),
], ids=["membrane-solve", "membrane-reconstruct", "annular-solve", "annular-beta-study"])
def test_run_without_depth_settings_prints_the_derived_depths_summary(
        tmp_path, capsys, text, command, line):
    """With no depth option left, a run's summary is that of the depths the
    library derives, digit for digit as the command line printed it when
    the depths could still be set."""
    ini = _write(tmp_path / "run.ini", text)
    cloud = ["--cloud", _circle_file(tmp_path)] if text == _MEMBRANE_NO_DEPTH else []
    assert main(["--config", ini, *cloud, "--out-dir", str(tmp_path / "o"), command]) == 0
    assert capsys.readouterr().out.strip() == line


def test_beta_study_without_route_sections_counts_the_library_points(tmp_path, capsys):
    """No [sharp] or [diffuse] section: both routes run with the library's
    derived controls for this annulus."""
    ini = _write(tmp_path / "run.ini", """\
        [problem]
        kind = annular
        n_points = 96
        volume_depth = 4
        [mesh]
        n_cells = 2
        degree = 4
        [study]
        betas = 1e3
        """)
    assert main(["--config", ini, "--out-dir", str(tmp_path / "o"), "beta-study"]) == 0
    config = AnnularConfig(n_points=96, volume_depth=4, n_cells=2, degree=4)
    table = run_beta_study(build_annular_problem(config), [1e3],
                           sharp=default_sharp_params(config),
                           diffuse=default_diffuse_params(config=config))
    counts = {"sharp": table["sharp_points"], "diffuse": table["diffuse_points"]}
    assert f"penalty_points={counts} " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# beta-study


def test_beta_study_selected_methods(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", _tiny_annular("""
        [study]
        betas = 1e3,1e5
        methods = sharp,reference
        reference_chords = 128
        """))
    out = tmp_path / "out"
    assert main(["--config", ini, "--out-dir", str(out), "beta-study"]) == 0
    stdout = capsys.readouterr().out
    assert "rows=2" in stdout
    assert "best_error_percent=" in stdout
    for name in ("sharp", "reference"):
        lines = (out / f"study_{name}.csv").read_text().splitlines()
        assert lines[0] == "beta,e_percent"
        assert len(lines) == 3
        assert lines[1].startswith("1000.0,")
    assert not (out / "study_diffuse.csv").exists()


def test_solve_runs_the_reference_route_of_beta_study(tmp_path, capsys):
    """method = reference: solve prints the error beta-study reports for the
    same beta."""
    ini = _write(tmp_path / "run.ini", _tiny_annular("""
        [study]
        betas = 1e4
        methods = reference
        reference_chords = 64
        """).replace("kind = annular", "kind = annular\n        method = reference"))
    assert main(["--config", ini, "--out-dir", str(tmp_path / "s"), "solve"]) == 0
    error = re.search(r"error_percent=(\S+)", capsys.readouterr().out).group(1)
    assert main(["--config", ini, "--out-dir", str(tmp_path / "b"), "beta-study"]) == 0
    assert f"best_error_percent={error}" in capsys.readouterr().out


def test_reference_route_runs_with_k_1(tmp_path):
    """k = 1 is rejected only for the routes that fit planes."""
    ini = _write(tmp_path / "run.ini", _tiny_annular("""
        [study]
        betas = 1e3
        methods = reference
        reference_chords = 64
        """).replace("k = 4", "k = 1"))
    assert main(["--config", ini, "--out-dir", str(tmp_path / "o"), "beta-study"]) == 0


def test_beta_study_bad_beta_list(tmp_path, capsys):
    ini = _write(tmp_path / "run.ini", _tiny_annular("""
        [study]
        betas = 1e3;1e5
        """))
    assert main(["--config", ini, "--out-dir", str(tmp_path / "o"),
                 "beta-study"]) == 2
    assert "bad [study] betas list" in capsys.readouterr().err


def test_beta_study_reruns_identically(tmp_path):
    ini = _write(tmp_path / "run.ini", _tiny_annular("""
        [study]
        betas = 1e3,1e5
        methods = sharp
        """))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", ini, "--out-dir", str(out), "beta-study"]) == 0
        outs.append((out / "study_sharp.csv").read_bytes())
    assert outs[0] == outs[1]
