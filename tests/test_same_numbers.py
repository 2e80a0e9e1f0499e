"""The same-numbers tool: the digest of one tree is reproducible, and the
comparison names every key that differs."""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_numbers.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_numbers", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_one_small_config_is_reproducible():
    tool = _tool()
    runs = {name: tool.CLI_RUNS[name] for name in ("membrane-reconstruct", "annular-sharp-solve")}
    first, second = (json.dumps(tool.digest(seeds=(1,), workloads=("membrane",), runs=runs),
                                sort_keys=True) for _ in range(2))
    assert first == second
    digest = json.loads(first)
    assert sorted(digest) == [
        "cli/annular-sharp-solve/exit", "cli/annular-sharp-solve/field.vtk",
        "cli/annular-sharp-solve/stdout", "cli/membrane-reconstruct/exit",
        "cli/membrane-reconstruct/segments.csv", "cli/membrane-reconstruct/stdout",
        "perfbench/membrane/seed1/accuracy", "perfbench/membrane/seed1/field.vtk",
        "perfbench/membrane/seed1/segments.csv"]
    assert digest["cli/membrane-reconstruct/stdout"].startswith("regions=96 ")
    assert digest["cli/annular-sharp-solve/exit"] == 0


def test_differences_name_changed_and_missing_keys():
    tool = _tool()
    here = {"a": 1, "b": "x", "c": 3}
    there = {"a": 1, "b": "y", "d": 4}
    assert tool.differences(here, there) == ["b", "c", "d"]
    assert tool.differences(here, dict(here)) == []
