"""One workload's closed loop, in a fresh process of its own.

Usage: python3 worker.py SPEC.json RESULT.json

One client sends the next operation only after the previous one returned.
Operation 0 is a warm-up (caches filled, lazy set-up done): it is checked
like every other operation but not timed.  Then operations run until their
timed total reaches ``spec["seconds"]``.  With ``spec["trace"]`` set, every
other timed operation runs under the tracer and the rest run bare, so the
traced run also measures what tracing costs.  Only the operation itself is
timed; summaries, counts and digests are taken after it.

The set-up probes (probe.py, each a fresh process) run between operations,
spread evenly over the timed loop while this process waits, so set-up and
operations are sampled over the same stretch of time on a shared machine.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback

import tracing
import workloads

SETUP_PROBES = 11
WARM_REPEATS = 3
PROBE_TIMEOUT_S = 30


def _probe(spec_path: str, warm: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
         spec_path, str(warm)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _counts(tracer: tracing.Tracer, root: int, summary: dict) -> dict:
    """Exact-repeat counts of one traced operation."""
    spans = tracer.spans[root + 1:]  # the operation's descendants
    counts = {
        # rate sets handed back to the caller, not ones built inside another
        "rates_entries": sum(
            span[5].get("entries", 0) for span in spans
            if tracer.spans[span[3]][0] not in tracing.RATES_FUNCTIONS
        ),
        "steps": sum(span[5].get("steps", 0) for span in spans),
        "csv_bytes": summary.get("bytes", 0),
        "generator_nnz": 0,
        "generator_dim": 0,
    }
    for hamiltonian, superops in tracer.pending_generators:
        nnz, n = tracing.generator_nnz(hamiltonian, superops)
        counts["generator_nnz"] += nnz
        counts["generator_dim"] = n
    tracer.pending_generators.clear()
    return counts


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    run, summarize = workloads.operation(spec)
    tracer = tracing.Tracer() if spec["trace"] else None
    records: list[dict] = []

    def one(i: int, timed: bool, traced: bool) -> None:
        record = {"op": i, "timed": timed, "traced": traced}
        if traced:
            tracer.install()
            root = len(tracer.spans)
        try:
            start = time.perf_counter()
            if traced:
                tracer.begin("op", i)
            try:
                result = run(i)
            finally:
                if traced:
                    tracer.end(root)
            record["seconds"] = time.perf_counter() - start
            record.update(summarize(i, result))
            if traced:
                record["counts"] = _counts(tracer, root, record)
        except Exception as exc:  # the loop must go on; the failure is counted
            record.setdefault("seconds", time.perf_counter() - start)
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        records.append(record)

    warm = WARM_REPEATS if spec["trace"] else 0
    # the first probe runs before the warm-up, so that no timed operation
    # systematically follows one
    probes = [_probe(spec_path, warm)]
    one(0, timed=False, traced=False)
    timed_total, i = 0.0, 1
    while timed_total < spec["seconds"]:
        # probe k once k/(SETUP_PROBES - 1) of the loop is done; the last one after it
        if len(probes) <= (SETUP_PROBES - 1) * timed_total / spec["seconds"]:
            probes.append(_probe(spec_path, warm))
        one(i, timed=True, traced=tracer is not None and i % 2 == 1)
        timed_total += records[-1]["seconds"]
        i += 1
    while len(probes) < SETUP_PROBES:
        probes.append(_probe(spec_path, warm))

    result = {
        "records": records,
        "probes": probes,
        "spans": tracer.spans if tracer is not None else [],
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
