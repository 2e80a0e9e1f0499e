"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest -q perfbench/check_bench.py

The end-to-end test runs the membrane workload twice, about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _records(stdout):
    lines = [json.loads(line) for line in stdout.splitlines()]
    return [r for r in lines if "op" in r], lines[-1]


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap(leaf, "leaf")
    middle = tracer.wrap(lambda: [traced_leaf() for _ in range(3)], "middle")
    with tracer.operation(7):
        middle()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,), (mid,) = by_name["op"], by_name["middle"]
    leaves = by_name["leaf"]
    assert len(leaves) == 3 and all(s.parent is mid for s in leaves)
    assert mid.parent is root and root.parent is None
    assert {s.op for s in tracer.spans} == {7}
    assert mid.self_s == pytest.approx(mid.duration - sum(s.duration for s in leaves))
    values = spans.layer_values(tracer, "setup", [7])
    assert values["leaf.calls"] == 3 and values["middle.calls"] == 1
    assert 0.0 < values["trace.top_level_share"] <= 1.0


def test_installed_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    from pointcell import basis, benchmarks, export, fcm, geometry, penalty

    modules = {"basis": basis, "benchmarks": benchmarks, "export": export,
               "fcm": fcm, "geometry": geometry, "penalty": penalty}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in spans.BINDINGS}
    with spans.Tracer().installed(modules):
        assert all(getattr(modules[m], a) is not f for (m, a), f in before.items())
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "wall_s", "peak_rss_mb", "error_vs_cap"}
    computed = {"penalty.region_reuse", "trace.top_level_share", "trace.spans",
                "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                "trace.span_cost_s"}
    for metric in spec["per_layer"]:
        if metric["name"] not in computed:
            assert spans.metric_value({}, metric["name"]) == 0


def test_traced_and_untraced_accuracy_are_bit_identical():
    plain = _bench(ROOT, "--workload", "membrane", "--seed", "3",
                   "--seconds", "1", "--trace", "0")
    traced = _bench(ROOT, "--workload", "membrane", "--seed", "3",
                    "--seconds", "1", "--trace", "1")
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    plain_ops, plain_result = _records(plain.stdout)
    traced_ops, traced_result = _records(traced.stdout)
    assert plain_result["correct"] and traced_result["correct"]
    assert [r["traced"] for r in traced_ops] == [False, True]
    # JSON floats round-trip exactly, so equality here is bit equality.
    values = {r["rim_mismatch"] for r in plain_ops + traced_ops}
    assert len(values) == 1
    assert plain_result["metrics"]["error_vs_cap"]["value"] == values.pop() / 1e-2


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "annular", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
