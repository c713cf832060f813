"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the repository root:

    python3 perfbench/run.py --workload local-triplot --seed 1 --seconds 20 --trace 0

With --trace 0 the run reports the end-to-end metrics, measured with no
tracing. With --trace 1 it measures the first half of the time untraced and
the second half traced, reports the per-layer metrics, and writes the spans
to .perfbench_out/spans-<workload>.json. Timings are scaled to a reference
machine speed (see calibration.py). The line before the result is a report:
environment, reference byte identity, the tail percentile with its sample
count, the unscaled wall-clock figures and the bases of the ratios.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); " \
               "t = time.perf_counter(); import aspectra; print(time.perf_counter() - t)"

END_TO_END = (  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("explainer_ms_p50", "ms", "lower"),
    ("model_calls_per_op", "count", "lower"),
    ("model_rows_per_op", "count", "lower"),
    ("ok_ops_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def load_program():
    """Pin BLAS/OpenMP to one thread and import aspectra from SRC; a problem or None."""
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    if not (SRC / "aspectra" / "__init__.py").is_file():
        return f"no aspectra sources under {SRC}"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import aspectra

    if not Path(aspectra.__file__).resolve().is_relative_to(SRC):
        return f"aspectra imported from {aspectra.__file__}, not {SRC}"
    return None


def import_seconds() -> float:
    """Time `import aspectra` in a fresh interpreter, as a CLI user pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def environment() -> dict:
    import numpy
    import scipy
    from aspectra import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "kernel_backend": getattr(_kernels, "active_backend", lambda: "numpy")(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def set_up(workload_cls, seed: int):
    """Median scaled time of SETUP_REPEATS full set-ups; returns the last workload."""
    from perfbench.calibration import REFERENCE_S, calibrate

    times = []
    for rep in range(SETUP_REPEATS):
        before = calibrate()
        imported = import_seconds()
        start = time.perf_counter()
        wl = workload_cls(seed, OUT)
        wl.setup()
        wl.run(0)  # untimed warm-up operation
        elapsed = imported + time.perf_counter() - start
        times.append(elapsed * 2 * REFERENCE_S / (before + calibrate()))
        if rep < SETUP_REPEATS - 1:
            wl.close()
    return wl, statistics.median(times)


def measure(wl, seconds: float, tracer=None, first_op: int = 0):
    """Closed loop for `seconds`; one record per operation.

    The calibration loop runs between operations; each operation's `scale`
    is REFERENCE_S over the mean of the calibrations before and after it.
    """
    from perfbench.calibration import REFERENCE_S, calibrate

    records = []
    start = time.perf_counter()
    i = first_op
    cal = calibrate()
    while time.perf_counter() - start < seconds:
        k = i % wl.cycle
        calls, rows, model_s = wl.meter.calls, wl.meter.rows, wl.meter.seconds
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(k), None
        except Exception as e:  # an operation that raises counts as failed
            result, error = None, f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        records.append({
            "k": k, "seconds": elapsed, "error": error, "result": result,
            "scale": 2 * REFERENCE_S / (cal + cal_after),
            "model_s": wl.meter.seconds - model_s,
            "calls": wl.meter.calls - calls, "rows": wl.meter.rows - rows,
        })
        cal = cal_after
        i += 1
    return records, time.perf_counter() - start


def check(wl, records, refs) -> dict:
    """Mark each record failed if it raised, missed its reference, or differs from a repeat."""
    from perfbench import reference

    first = {}
    checked = identical = 0
    reasons = []
    for rec in records:
        if rec["error"] is None:
            texts = wl.texts(rec.pop("result"))
            for j, (kind, text) in enumerate(texts):
                ok, same, why = reference.check(kind, text, refs[rec["k"]][j])
                checked += 1
                identical += same
                if not ok:
                    rec["error"] = why
                    break
                if first.setdefault((rec["k"], j), text) != text:
                    rec["error"] = f"operation {rec['k']} {kind} not deterministic within the run"
                    break
        if rec["error"] is not None:
            reasons.append(rec["error"])
    return {"documents_checked": checked, "byte_identical": identical,
            "failures": reasons[:5]}


def timing(records, wall: float):
    """(metrics, report) of the operations that passed check(), in scaled time.

    With none passed there is nothing to time: both are empty.
    """
    from perfbench.tracing import tail

    done = [r for r in records if r["error"] is None]
    if not done:
        return {}, {}
    ms = [1000.0 * r["seconds"] * r["scale"] for r in done]
    tail_ms, pct, n = tail(ms)
    wall_ms = [1000.0 * r["seconds"] for r in done]
    metrics = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": 1000.0 * len(done) / sum(ms),
        "explainer_ms_p50": statistics.median(
            1000.0 * (r["seconds"] - r["model_s"]) * r["scale"] for r in done),
        "model_calls_per_op": sum(r["calls"] for r in done) / len(done),
        "model_rows_per_op": sum(r["rows"] for r in done) / len(done),
    }
    report = {
        "op_ms_tail_percentile": pct,
        "samples": n,
        "samples_beyond_tail": 10 if n > 10 else 0,
        "speed_vs_reference_p50": statistics.median(r["scale"] for r in done),
        "unscaled": {
            "op_ms_p50": statistics.median(wall_ms),
            "op_ms_tail": tail(wall_ms)[0],
            "ops_per_s": len(done) / wall,
        },
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = load_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from perfbench import reference, tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    refs = reference.load(args.workload)
    OUT.mkdir(exist_ok=True)

    wl, setup_s = set_up(workload_cls, args.seed)
    bank_refs = refs["sets"][str(wl.bank)]
    report = {"workload": args.workload, "seed": args.seed, "input_set": wl.bank,
              "loop": "closed, 1 client", "environment": environment()}
    try:
        if args.trace:
            records, wall = measure(wl, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install(tracing.TARGETS)
            try:
                traced_records, traced_wall = measure(wl, args.seconds / 2, tracer, len(records))
            finally:
                tracer.uninstall()
            report["reference"] = check(wl, records + traced_records, bank_refs)
            untraced, _ = timing(records, wall)
            traced, report["timing"] = timing(traced_records, traced_wall)
            names = [name for name, _ in tracing.PER_LAYER]
            values = tracer.layer_metrics(names, len(traced_records))
            if traced:
                values["trace.op_ms_p50"] = traced["op_ms_p50"]
            if traced and untraced:
                values["trace.overhead_ms"] = traced["op_ms_p50"] - untraced["op_ms_p50"]
            units = dict(tracing.PER_LAYER, **{"trace.op_ms_p50": "ms", "trace.overhead_ms": "ms"})
            records += traced_records
            report["traced_ops"] = len(traced_records)
            report["ratio_bases"] = {
                "models.predict.dup_rows_share": tracer.counts["models.predict.rows"],
                "cluster.correlation_matrix.dup_share": values["cluster.correlation_matrix.calls"]
                * len(traced_records),
            }
            spans_file = OUT / f"spans-{args.workload}.json"
            with open(spans_file, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start_s", "end_s", "parent", "op"],
                           "spans": tracer.spans, "counts": tracer.counts}, fh)
            report["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            records, wall = measure(wl, args.seconds)
            report["reference"] = check(wl, records, bank_refs)
            values, report["timing"] = timing(records, wall)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        wl.close()

    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)
    if not args.trace:
        values["ok_ops_share"] = (attempted - failed) / attempted
    # timing metrics are absent when no operation passed
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
