"""The vrelax benchmark: one workload per call, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: evolve-sodium, steady-thermal, scan-interference (see README.md
beside this file for why each exists and what each metric should move).

The program runs from ``src/`` of the checkout, byte-compiled first.  Each
call draws its inputs from ``--seed``, runs the workload's closed loop for
``--seconds`` of operation time in a fresh worker process (which also times
set-up in fresh probe processes between operations), checks every
operation's output, and prints the metrics by name and unit.  The last line of standard output is one JSON object:
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run (spans are also written to perfbench/out/).  A run with a
failed operation prints ``"correct": false``; a run that cannot start
(no program in ``src/``, a crashed worker) exits non-zero and prints none.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# BLAS threads for every process of a run, capped at the cores available
BLAS_THREADS = 2
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 1e6

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "setup.import_ms": "ms", "config.load_ms": "ms", "angular.cache_fill_ms": "ms",
    "environment.k_ms": "ms", "operators.rates_fine_ms": "ms",
    "operators.rates_hyperfine_ms": "ms", "operators.rates_stimulated_ms": "ms",
    "operators.report_ms": "ms", "operators.superop_ms": "ms", "operators.superop_mb": "MB",
    "dynamics.propagate_ms": "ms", "dynamics.rk4_step_us": "us", "dynamics.steady_ms": "ms",
    "csvio.write_ms": "ms", "csvio.mb_per_s": "MB/s", "op.self_ms": "ms",
    "operators.rates_entries": "count", "dynamics.steps": "count",
    "dynamics.generator_nnz": "count", "dynamics.generator_density": "frac",
    "csvio.bytes": "bytes", "trace.overhead_frac": "frac", "failed_frac": "frac",
    "op_p50_s": "s", "op_p90_s": "s",
}
# per-layer self-time metric -> spanned functions it sums
SELF_TIME_GROUPS = {
    "environment.k_ms": ("k_spontaneous", "k_stimulated"),
    "operators.rates_fine_ms": ("rates_fine",),
    "operators.rates_hyperfine_ms": ("rates_hyperfine",),
    "operators.rates_stimulated_ms": ("rates_stimulated",),
    "operators.report_ms": ("interference_report",),
    "operators.superop_ms": tracing.SUPEROP_FUNCTIONS,
    "dynamics.propagate_ms": ("propagate",),
    "dynamics.steady_ms": ("steady_state",),
    "csvio.write_ms": tracing.SPANNED["csvio"],
    "op.self_ms": ("op",),
}
ACCOUNTING_TOL_S = 1e-9


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _conditions(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latencies(records: list[dict]) -> list[float]:
    """Seconds of the timed operations that passed (of all timed ones if none did)."""
    timed = [rec for rec in records if rec["timed"]]
    return [rec["seconds"] for rec in timed if not rec["failed"]] or [
        rec["seconds"] for rec in timed]


def end_to_end(records: list[dict], probes: list[dict], peak_rss_bytes: int) -> dict:
    timed = [rec for rec in records if rec["timed"]]
    return {
        "setup_s": statistics.median(p["setup"] for p in probes),
        "ops_per_s": sum(not rec["failed"] for rec in timed)
        / sum(rec["seconds"] for rec in timed),
        "peak_rss_mb": peak_rss_bytes / MB,
    }


def per_layer(records: list[dict], probes: list[dict], spans: list[list]) -> dict:
    selfs = tracing.self_times(spans)
    timed = [rec for rec in records if rec["timed"]]
    traced = [rec for rec in timed if rec["traced"] and not rec["failed"]]
    bare = [rec["seconds"] for rec in timed if not rec["traced"] and not rec["failed"]]
    per_op = {rec["op"]: dict.fromkeys([*SELF_TIME_GROUPS, "operators.superop_mb"], 0.0)
              for rec in traced}
    for span, self_s in zip(spans, selfs):
        row = per_op.get(span[4])
        if row is None:
            continue
        for key, names in SELF_TIME_GROUPS.items():
            if span[0] in names:
                row[key] += self_s * 1e3
        if span[0] in tracing.SUPEROP_FUNCTIONS:
            row["operators.superop_mb"] += span[5]["bytes"] / MB
    for rec in traced:
        row, counts = per_op[rec["op"]], rec["counts"]
        row["dynamics.rk4_step_us"] = (
            row["dynamics.propagate_ms"] * 1e3 / counts["steps"] if counts["steps"] else 0.0
        )
        row["csvio.mb_per_s"] = (
            counts["csv_bytes"] / MB / (row["csvio.write_ms"] / 1e3)
            if row["csvio.write_ms"] else 0.0
        )
    metrics = {
        key: statistics.median(row[key] for row in per_op.values()) if per_op else 0.0
        for key in list(SELF_TIME_GROUPS) + [
            "operators.superop_mb", "dynamics.rk4_step_us", "csvio.mb_per_s"]
    }
    counts = traced[0]["counts"] if traced else {}
    dim = counts.get("generator_dim", 0)
    metrics.update({
        "setup.import_ms": statistics.median(p["import"] for p in probes) * 1e3,
        "config.load_ms": statistics.median(p["load"] for p in probes) * 1e3,
        "angular.cache_fill_ms": statistics.median(p["cold"] - p["warm"] for p in probes) * 1e3,
        "operators.rates_entries": counts.get("rates_entries", 0),
        "dynamics.steps": counts.get("steps", 0),
        "dynamics.generator_nnz": counts.get("generator_nnz", 0),
        "dynamics.generator_density": counts.get("generator_nnz", 0) / dim**4 if dim else 0.0,
        "csvio.bytes": counts.get("csv_bytes", 0),
        "trace.overhead_frac": (
            statistics.median(rec["seconds"] for rec in traced) / statistics.median(bare) - 1.0
            if traced and bare else 0.0
        ),
        "failed_frac": sum(bool(rec["failed"]) for rec in records) / len(records),
        # the bare (untraced) half, as an untraced run would see them
        "op_p50_s": statistics.median(bare or latencies(records)),
        # every timed operation, so the scan keeps ten or more beyond the
        # 90th percentile; the traced half adds trace.overhead_frac
        "op_p90_s": _percentile_90(
            [rec["seconds"] for rec in timed if not rec["failed"]] or [0.0]),
    })
    return metrics


def span_accounting(records: list[dict], spans: list[list]) -> None:
    """Fail a traced operation whose spans do not add up to its duration."""
    worst: dict[int, float] = {}
    for span, defect in zip(spans, tracing.accounting_defects(spans, tracing.self_times(spans))):
        worst[span[4]] = max(worst.get(span[4], 0.0), defect)
    for rec in records:
        if rec["traced"] and not rec["failed"] and worst.get(rec["op"], 0.0) > ACCOUNTING_TOL_S:
            rec["failed"] = f"child spans plus self time miss the span by {worst[rec['op']]:.3e} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vrelax", "__init__.py")):
        return _fail(f"no program at {src}/vrelax; run from the root of a vrelax checkout")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, src)
    if not compileall.compile_dir(src, quiet=1):
        return _fail("byte-compiling src/ failed")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        spec = workloads.make_spec(args.workload, args.seed, run_dir)
        spec.update(seconds=args.seconds, trace=bool(args.trace))
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        result_path = os.path.join(run_dir, "result.json")
        try:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                timeout=3 * args.seconds + 60, check=True,
            )
        except subprocess.SubprocessError as exc:
            return _fail(f"worker failed: {exc}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)

        records, spans, probes = result["records"], result["spans"], result["probes"]
        for rec, reason in zip(records, workloads.check(spec, records)):
            rec["failed"] = reason
        conditions = _conditions(threads)
        if args.trace:
            span_accounting(records, spans)
            metrics, units = per_layer(records, probes, spans), PER_LAYER_UNITS
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump({"conditions": conditions, "spans": spans,
                           "self_s": tracing.self_times(spans)}, handle)
        else:
            metrics = end_to_end(records, probes, result["peak_rss_bytes"])
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [rec for rec in records if rec["failed"]]
    timed = sum(rec["timed"] for rec in records)
    print("conditions: " + " ".join(f"{key}={value}" for key, value in conditions.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(records)} operations "
          f"({timed} timed, 1 warm-up), {len(failed)} failed")
    seconds = latencies(records)
    print(f"  latency over {len(seconds)} timed operations: min {min(seconds):.4g} s, "
          f"median {statistics.median(seconds):.4g} s, mean {statistics.fmean(seconds):.4g} s")
    setups = [p["setup"] for p in probes]
    print(f"  set-up over {len(setups)} probes: min {min(setups):.4g} s, "
          f"median {statistics.median(setups):.4g} s")
    for rec in failed[:5]:
        print(f"  operation {rec['op']} failed: {rec['failed']}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
