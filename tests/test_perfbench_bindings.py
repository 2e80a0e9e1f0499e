"""perfbench traces the library by name and drives it through its public
API: every name it binds must exist, and every workload must run and pass
its own check."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_binding_names_a_library_attribute():
    spans = _load("spans")
    assert spans.BINDINGS
    missing = [(mod, attr) for mod, attr, _, _ in spans.BINDINGS
               if not hasattr(importlib.import_module(f"pointcell.{mod}"), attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["annular", "membrane"])
def test_every_perfbench_workload_runs_and_passes_its_check(name, tmp_path):
    """One operation at seed 1, as the benchmark runs it: a changed
    signature or a broken accuracy cap fails here first."""
    workload = _load("workloads").WORKLOADS[name](1)
    workload.setup()
    assert workload.check(workload.run(str(tmp_path))) == []
