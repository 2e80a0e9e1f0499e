"""Same-numbers check: the digest of the numbers one tree produces, and the
comparison of this checkout with a local revision.

    python tools/same_numbers.py [TREE] [--acceptance]     # digest, JSON on stdout
    python tools/same_numbers.py --against REV [--acceptance]

The digest of a tree (this checkout by default) holds, under flat keys:

- for both perfbench workloads at seeds 1-3, run through the tree's own
  ``perfbench/workloads.py``: the sha256 of every file the task writes and
  the repr of its accuracy;
- for a fixed set of small command-line runs: the exit code, the summary
  line and the sha256 of every file the run writes;
- with ``--acceptance``: the ``[Cn]`` verdict lines of the tree's
  ``tests/test_acceptance.py``, with their times stripped.

``--against REV`` checks the local revision REV out into a temporary git
worktree and digests it and this checkout, each in its own ``python -B``
process with ``POINTCELL_NUM_THREADS=1``.  It prints every key whose value
differs, removes the worktree and exits 1 if any key differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
WORKLOADS = ("annular", "membrane")

_ANNULAR = """\
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
"""
_MEMBRANE = "[mesh]\nn_cells = 6\ndegree = 5\n[output]\nfield_resolution = 11\n"

# name: (config file, flags, command); {cloud} is a 96-point unit circle.
CLI_RUNS = {
    "membrane-solve": (_MEMBRANE, ["--cloud", "{cloud}"], "solve"),
    "membrane-reconstruct": (_MEMBRANE, ["--cloud", "{cloud}"], "reconstruct"),
    "annular-sharp-solve": (_ANNULAR, [], "solve"),
    "annular-diffuse-solve": (_ANNULAR, ["--method", "diffuse", "--epsilon", "0.02"], "solve"),
    "annular-reference-solve": (_ANNULAR, ["--method", "reference", "--beta", "1e5"], "solve"),
    "annular-beta-study": (_ANNULAR + "[study]\nbetas = 1e3,1e5\n"
                           "methods = sharp,diffuse,reference\nreference_chords = 256\n",
                           [], "beta-study"),
}


def _import_tree(tree: Path):
    """The tree's perfbench workloads module and pointcell's cli, never from elsewhere."""
    src = tree / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pointcell
    from pointcell import benchmarks, cli

    if Path(pointcell.__file__).resolve().parent != (src / "pointcell").resolve():
        raise RuntimeError(f"imported pointcell from {pointcell.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("workloads",
                                                  tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads, benchmarks, cli


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest(tree=ROOT, seeds=SEEDS, workloads=WORKLOADS, runs=CLI_RUNS,
           acceptance=False) -> dict:
    """{key: value} of the numbers tree produces (see the module docstring)."""
    tree = Path(tree).resolve()
    bench, benchmarks, cli = _import_tree(tree)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in workloads:
            for seed in seeds:
                task = bench.WORKLOADS[name](seed)
                task.setup()
                outdir = tmp / f"{name}-{seed}"
                outdir.mkdir()
                result = task.run(str(outdir))
                key = f"perfbench/{name}/seed{seed}"
                out[f"{key}/accuracy"] = repr(result["accuracy"])
                out.update((f"{key}/{Path(path).name}", _sha256(path))
                           for path in result["files"])
        cloud = tmp / "circle.txt"
        cloud.write_text("".join(f"{float(x)!r} {float(y)!r}\n"
                                 for x, y in benchmarks.circle_cloud(1.0, 96)))
        for name, (text, flags, command) in runs.items():
            ini = tmp / f"{name}.ini"
            ini.write_text(text)
            outdir = tmp / name
            argv = ["--config", str(ini), "--out-dir", str(outdir),
                    *(flag.format(cloud=cloud) for flag in flags), command]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main(argv)
            key = f"cli/{name}"
            out[f"{key}/exit"] = code
            out[f"{key}/stdout"] = stdout.getvalue().strip()
            out.update((f"{key}/{path.name}", _sha256(path))
                       for path in sorted(outdir.glob("*")))
    if acceptance:
        out.update(_verdicts(tree))
    return out


def _verdicts(tree: Path) -> dict:
    """{acceptance/Cn: verdict line without its time} of the tree's acceptance file."""
    run = subprocess.run([sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_acceptance.py"],
                         cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                         capture_output=True, text=True, check=False)
    found = re.findall(r"\[(C\d+)\] (PASS|FAIL): (.*)", run.stdout)
    if not found:
        raise RuntimeError(f"no verdict lines from {tree}:\n{run.stdout}{run.stderr}")
    return {f"acceptance/{cid}": f"{verdict}: " + re.sub(r" \(\S+ s\)$", "", detail)
            for cid, verdict, detail in found}


def differences(here: dict, there: dict) -> list:
    """The keys whose values differ, a key missing on one side included."""
    return [key for key in sorted(here.keys() | there.keys())
            if here.get(key, "<missing>") != there.get(key, "<missing>")]


def _digest_in_subprocess(tree: Path, acceptance: bool) -> dict:
    """The digest of tree from a fresh `python -B` process with one thread."""
    env = {**os.environ, "POINTCELL_NUM_THREADS": "1"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    run = subprocess.run([sys.executable, "-B", str(Path(__file__).resolve()), str(tree),
                          *(["--acceptance"] if acceptance else [])],
                         env=env, capture_output=True, text=True, check=False)
    if run.returncode != 0:
        raise RuntimeError(f"digest of {tree} failed:\n{run.stderr}")
    return json.loads(run.stdout)


def against(rev: str, acceptance: bool) -> int:
    """Compare this checkout with the local revision rev; 1 if any key differs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(work), rev], check=True)
        try:
            there = _digest_in_subprocess(work, acceptance)
            here = _digest_in_subprocess(ROOT, acceptance)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(work)], check=True)
    differ = differences(here, there)
    for key in differ:
        print(f"differs {key}:\n  {rev}: {there.get(key, '<missing>')}\n"
              f"  here: {here.get(key, '<missing>')}")
    print(f"{len(here.keys() | there.keys()) - len(differ)} keys identical, "
          f"{len(differ)} differ against {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?",
                        help="the tree to digest (default: this checkout)")
    parser.add_argument("--against", metavar="REV",
                        help="compare this checkout with the local revision REV")
    parser.add_argument("--acceptance", action="store_true",
                        help="also digest the acceptance verdict lines")
    args = parser.parse_args(argv)
    if args.against is not None:
        if args.tree is not None:
            parser.error("--against compares this checkout; it takes no tree")
        return against(args.against, args.acceptance)
    os.environ["POINTCELL_NUM_THREADS"] = "1"  # before pointcell first imports numpy
    print(json.dumps(digest(args.tree or ROOT, acceptance=args.acceptance), indent=1,
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
