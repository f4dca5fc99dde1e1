"""Set-up time of one fresh process: import, scenario load, first assembly.

Usage: python3 probe.py SPEC.json WARM_REPEATS

Prints one JSON object, in seconds: ``import``, ``load``, ``cold`` (the first
rate-table assembly, angular caches empty), ``setup`` (their sum) and
``warm`` (median of WARM_REPEATS more identical assemblies, or null).  The
cold-minus-warm difference is what filling the angular caches costs.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import workloads


def main(spec_path: str, warm_repeats: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    t0 = time.perf_counter()
    import vrelax  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    scenario = workloads.load_scenario(spec)
    t2 = time.perf_counter()
    workloads.first_assembly(spec, scenario)
    t3 = time.perf_counter()
    warm = []
    for _ in range(int(warm_repeats)):
        start = time.perf_counter()
        workloads.first_assembly(spec, scenario)
        warm.append(time.perf_counter() - start)
    print(json.dumps({
        "import": t1 - t0,
        "load": t2 - t1,
        "cold": t3 - t2,
        "setup": t3 - t0,
        "warm": statistics.median(warm) if warm else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
