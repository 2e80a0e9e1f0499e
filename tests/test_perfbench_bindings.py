"""perfbench traces the library by name: every name it binds must exist."""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_perfbench_binding_names_a_library_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    missing = [(mod, attr) for mod, attr, _, _ in spans.BINDINGS
               if not hasattr(importlib.import_module(f"pointcell.{mod}"), attr)]
    assert missing == []
