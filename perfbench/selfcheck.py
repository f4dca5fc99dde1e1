"""Fast self-check of the benchmark harness at tiny sizes.

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py

Runs in a few seconds and is not part of the repository's test suite.  It
checks that each workload check accepts the program's real output and
rejects a corrupted copy, that the exact-repeat rule catches a changed count,
that the tracer nests spans which add up and restores every function it
swapped, and that the harness reports exactly the metrics BENCHMARK.json
declares.  Evolve runs the sodium scenario for five RK4 steps; the thermal
steady state uses the D-line; the scan runs one full operation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out")


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck: FAIL {what}")
    print(f"  ok {what}")


def _corrupt_last_value(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    fields = lines[-1].split(",")
    fields[-2] = repr(float(fields[-2]) + 1e-6)
    lines[-1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def check_evolve_traced(run_dir: str) -> None:
    import vrelax  # noqa: F401  (tracer patches loaded modules)
    from vrelax.cli import main

    spec = workloads.make_spec("evolve-sodium", 7, run_dir, t_final=5 * workloads.SODIUM_DT)
    originals = {name: getattr(sys.modules[f"vrelax.{layer}"], name)
                 for layer, names in tracing.SPANNED.items() for name in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin("op", 1)
        code = main(["evolve", "--config", spec["ini"], "--out", spec["out"]])
        tracer.end(root)
    finally:
        tracer.uninstall()
    _expect(code == 0, "tiny sodium evolve exits 0")
    _expect(all(getattr(sys.modules[f"vrelax.{layer}"], name) is originals[name]
                for layer, names in tracing.SPANNED.items() for name in names),
            "tracer restores every swapped function")
    names = [span[0] for span in tracer.spans]
    _expect({"k_spontaneous", "rates_hyperfine", "build_relaxation_superop", "propagate",
             "write_trajectory"} <= set(names), "traced evolve records each layer's span")
    defects = tracing.accounting_defects(tracer.spans, tracing.self_times(tracer.spans))
    _expect(max(defects) < run.ACCOUNTING_TOL_S, "child spans plus self time equal each span")
    record = {"op": 1, "exit": code, "sha256": workloads.file_digest(spec["out"]),
              "bytes": os.path.getsize(spec["out"])}
    record["counts"] = worker._counts(tracer, root, record)
    _expect(record["counts"]["steps"] == 5, "propagate span counts 5 steps")
    _expect(record["counts"]["generator_nnz"] > 0, "generator nonzeros counted")
    _expect(workloads.check(spec, [record]) == [None], "evolve check accepts exp(G t) agreement")
    probes = [{"import": 0.1, "load": 0.01, "cold": 0.03, "setup": 0.14, "warm": 0.02}]
    records = [dict(record, timed=True, traced=True, failed=None, seconds=0.2),
               dict(record, op=2, timed=True, traced=False, failed=None, seconds=0.2)]
    _expect(set(run.per_layer(records, probes, tracer.spans)) == set(run.PER_LAYER_UNITS),
            "traced run yields every per-layer metric")
    _expect(set(run.end_to_end(records, probes, 10**8)) == set(run.END_TO_END_UNITS),
            "untraced run yields every end-to-end metric")
    changed = dict(record, counts=dict(record["counts"], steps=6))
    _expect(workloads.check(spec, [record, changed])[1] is not None,
            "exact-repeat rule rejects a changed count")
    _corrupt_last_value(spec["out"])
    _expect(workloads.check(spec, [record])[0] is not None, "evolve check rejects a corrupted state")


def check_steady(run_dir: str) -> None:
    from vrelax.cli import main

    spec = {"workload": "steady-thermal", "n_mean": 0.7,
            "out": os.path.join(run_dir, "dline-steady.csv")}
    spec["ini"] = workloads._write(os.path.join(run_dir, "dline-steady.ini"),
                                   workloads._system_lines("fine", "3/2", "1/2", "1/2") + [
                                       "", "[environment]", "kind = isotropic",
                                       f"n_mean = {spec['n_mean']!r}"])
    code = main(["steady", "--config", spec["ini"], "--out", spec["out"]])
    record = {"op": 0, "exit": code, "sha256": workloads.file_digest(spec["out"]),
              "bytes": os.path.getsize(spec["out"])}
    _expect(workloads.check(spec, [record]) == [None], "D-line thermal steady state passes")
    other = dict(record, sha256="0" * 64)
    _expect(workloads.check(spec, [record, other])[1] is not None,
            "byte-identity rule rejects differing output")
    _corrupt_last_value(spec["out"])
    _expect(workloads.check(spec, [record])[0] is not None, "steady check rejects a perturbed population")


def check_scan(run_dir: str) -> None:
    spec = workloads.make_spec("scan-interference", 3, run_dir)
    run_op, summarize = workloads.operation(spec)
    record = summarize(0, run_op(0))
    _expect(workloads.check(spec, [record]) == [None], "scan matches its closed forms and sum rules")
    bad = dict(record, p=[[-0.5, 0.5 + 1e-9]] + record["p"][1:])
    _expect(workloads.check(spec, [bad])[0] is not None, "scan check rejects a wrong p(1/2)")
    for index, name in ((2, "J_b=15/2"), (6, "stimulated J_b=7/2")):
        p = [list(values) for values in record["p"]]
        p[index][-1] += 1e-9
        _expect(workloads.check(spec, [dict(record, p=p)])[0] is not None,
                f"scan check rejects a wrong {name} p(M)")
    for index, name in ((3, "I=3/2"), (4, "I=7/2")):
        traces = [dict(t) for t in record["traces"]]
        traces[index]["b"] *= 1.0 + 1e-9
        _expect(workloads.check(spec, [dict(record, traces=traces)])[0] is not None,
                f"scan check rejects a wrong {name} hyperfine rate trace")


def check_declared_metrics() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        names = {m["name"]: m["unit"] for m in declared[section]}
        _expect(names == units, f"harness reports exactly the declared {section} metrics")
    _expect([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
            "declared workloads are the harness's")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "vrelax", "__init__.py")):
        print("selfcheck: run from the root of a vrelax checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as run_dir:
        check_evolve_traced(run_dir)
        check_steady(run_dir)
        check_scan(run_dir)
    check_declared_metrics()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
