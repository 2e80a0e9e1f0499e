"""pointcell benchmark: user tasks timed end to end, or traced per layer.

    python3 perfbench/run.py --workload annular --seed 1 --seconds 60 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run times complete tasks with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs one
untraced task and then traced ones and reports the per-layer metrics.  The
last line of standard output is the result object; the lines before it hold
the environment and one record per operation.  See perfbench/README.md.
"""

import os
import sys

# Single-threaded baseline: pointcell maps this onto the BLAS thread pools at
# import, so it must be set before numpy is first imported.
os.environ["POINTCELL_NUM_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.pop(_var, None)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh processes timed per run for setup_s, half before the operations and
# half after, so that the median spans the host's speed drift over the run.
SETUP_PROBES = 6


class BenchError(Exception):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["annular", "membrane"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args(argv)


def _load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


def _import_library():
    """Import pointcell from this checkout's src/, never from elsewhere."""
    if not (SRC / "pointcell" / "__init__.py").is_file():
        raise BenchError(f"no pointcell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pointcell

    if Path(pointcell.__file__).resolve().parent != SRC / "pointcell":
        raise BenchError(f"imported pointcell from {pointcell.__file__}")
    from pointcell import basis, benchmarks, export, fcm, geometry, penalty

    return {"basis": basis, "benchmarks": benchmarks, "export": export,
            "fcm": fcm, "geometry": geometry, "penalty": penalty}


def _setup_times(workload, seed, probes):
    """Seconds of fresh-process import plus input build, one per probe."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment():
    import numpy
    import scipy

    lines = 0
    for path in sorted((SRC / "pointcell").glob("*.py")):
        with open(path, "rb") as handle:
            lines += sum(1 for _ in handle)
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "POINTCELL_NUM_THREADS": os.environ.get("POINTCELL_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "commit": _commit(), "src_pointcell_lines": lines}


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_op(wl, outdir, index, tracer=None, modules=None):
    """One timed task; the check and read-back run after the clock stops."""
    record = {"op": index, "traced": tracer is not None, "problems": []}
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            if tracer is None:
                result = wl.run(outdir)
            else:
                with tracer.installed(modules), tracer.operation(index):
                    result = wl.run(outdir)
        record["wall_s"] = time.perf_counter() - t0
        record["peak_rss_mb"] = _peak_rss_mb()
        record["warnings"] = len(caught)
        record[wl.accuracy_name] = result["accuracy"]
        record["problems"] = wl.check(result)
        record["digest"] = _digest(result["files"])
    except Exception:  # a failed operation is counted, not fatal
        record.setdefault("wall_s", time.perf_counter() - t0)
        record["problems"].append(traceback.format_exc(limit=3))
    return record


def _measure(wl, outdir, seconds, tracer, modules):
    """Operations until the next one would end past ``seconds``.

    Untraced: every operation is timed with tracing off.  Traced: one
    untraced operation first, for the overhead and the bit-identity check,
    then at least one traced operation.
    """
    records = []
    start = time.perf_counter()
    while True:
        use_tracer = tracer if records else None
        records.append(_run_op(wl, outdir, len(records), use_tracer, modules))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        traced = sum(r["traced"] for r in records)
        if elapsed + typical > seconds and (tracer is None or traced):
            break
    # Outputs are byte-deterministic at a fixed thread count: every operation,
    # traced or not, must reproduce the first one's accuracy and files.
    first = records[0]
    for r in records[1:]:
        same = (r.get("digest") == first.get("digest")
                and r.get(wl.accuracy_name) == first.get(wl.accuracy_name))
        if not same:
            r["problems"].append("output differs from operation 0")
    return records


def _end_to_end(spec, wl, records, setup_times):
    ok = [r for r in records if not r["problems"]] or records
    accuracy = [r[wl.accuracy_name] for r in ok if wl.accuracy_name in r]
    # The process's first operation warms caches and the allocator and runs
    # 5-15 % slower; it is checked like the others but left out of the median
    # when later ones exist.
    timed = [r for r in ok if r["op"] > 0] or ok
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        # Peak of the set-up and the first task.  Later tasks only add the
        # allocator's fragmentation, which grows with the number of tasks run.
        "peak_rss_mb": records[0].get("peak_rss_mb", _peak_rss_mb()),
        # null only when every operation raised, which also fails the run.
        "error_vs_cap": statistics.median(accuracy) / wl.cap if accuracy else None,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def _per_layer(spec, tracer, records):
    traced = [r for r in records if r["traced"]]
    values = spans.layer_values(tracer, "setup", [r["op"] for r in traced])
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.untraced_wall_s"] = records[0]["wall_s"]
    values["trace.overhead_s"] = values["trace.wall_s"] - records[0]["wall_s"]
    values["trace.span_cost_s"] = spans.span_cost() * values["trace.spans"]
    return {m["name"]: {"value": spans.metric_value(values, m["name"]),
                        "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None):
    args = _parse_args(argv)
    spec = _load_spec()
    modules = _import_library()
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_times = _setup_times(args.workload, args.seed, probes)
    from workloads import WORKLOADS

    print(json.dumps({"environment": _environment()}), flush=True)
    wl = WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        wl.setup()
    else:
        with tracer.installed(modules), tracer.operation("setup"):
            wl.setup()
    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        records = _measure(wl, outdir, args.seconds, tracer, modules)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if not args.trace:
        setup_times += _setup_times(args.workload, args.seed,
                                    SETUP_PROBES - probes)
    for r in records:
        print(json.dumps({k: v for k, v in r.items() if k != "digest"}), flush=True)
    if setup_times:
        print(json.dumps({"setup_s_samples": setup_times}), flush=True)
    failed = sum(1 for r in records if r["problems"])
    metrics = (_per_layer(spec, tracer, records) if tracer is not None
               else _end_to_end(spec, wl, records, setup_times))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
