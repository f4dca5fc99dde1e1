"""The three workloads: seeded inputs, one operation each, and its checks.

Inputs are drawn here from the seed and handed to the program only as INI
files (CLI workloads) or parameter values (the library scan).  Operations run
in the worker process; checks run in the harness process, outside every
timed region, against oracles that share no code path with the operation
(an exact exponential, the thermal detailed-balance ratio, closed forms and
angular sum rules).
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("evolve-sodium", "steady-thermal", "scan-interference")

# evolve-sodium: the shipped sodium-hyperfine scenario (I = 3/2, n = 32,
# 1500 RK4 steps).  Kept as a literal so the inputs do not move when the
# program's preset table does.
SODIUM_F_OFFSETS = {
    ("d", "1"): 0.0, ("d", "2"): 0.012,
    ("c", "1"): 0.0, ("c", "2"): 0.0013,
    ("b", "0"): 0.0, ("b", "1"): 0.0004, ("b", "2"): 0.0011, ("b", "3"): 0.0022,
}
SODIUM_DT, SODIUM_T_FINAL = 0.002, 3.0
OMEGA_BD, OMEGA_CD = 1.3, 1.0

# steady-thermal: J_b = 11/2, J_c = 9/2 over J_d = 9/2 (n = 32)
THERMAL_J = ("11/2", "9/2", "9/2")

# scan-interference ladder: (name, j_b, j_c, j_d) fine schemes and
# (name, nuclear spin) hyperfine D-line schemes
SCAN_FINE = (("dline", "3/2", "1/2", "1/2"), ("jb7", "7/2", "5/2", "5/2"),
             ("jb15", "15/2", "13/2", "13/2"))
SCAN_HYPERFINE = (("i3", "3/2"), ("i7", "7/2"))
SCAN_STIMULATED = ("dline", "jb7")

# tolerances of the checks, each well above the agreement seen in practice
EVOLVE_TOL = 1e-10       # RK4 (dt * max|G| <= 0.063) against expm_multiply
STEADY_TOL = 1e-12       # detailed balance, coherences, trace
SCAN_TOL = 1e-12         # closed-form p(M), |p| <= 1, relative trace sum rule


# ---------------------------------------------------------------------------
# inputs (harness process)


def _system_lines(kind, j_b, j_c, j_d, nuclear_spin=None, offsets=None) -> list[str]:
    lines = ["[system]", f"kind = {kind}", f"j_b = {j_b}", f"j_c = {j_c}",
             f"j_d = {j_d}", f"omega_bd = {OMEGA_BD!r}", f"omega_cd = {OMEGA_CD!r}"]
    if nuclear_spin is not None:
        lines.append(f"nuclear_spin = {nuclear_spin}")
    for (level, f), value in (offsets or {}).items():
        lines.append(f"f_offset_{level}_{f} = {value!r}")
    return lines


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def sodium_b_sublevels() -> list[tuple[int, int]]:
    """(F, M) of every b sublevel of sodium (J_b = 3/2, I = 3/2)."""
    return [(f, m) for f in range(4) for m in range(-f, f + 1)]


def make_spec(workload: str, seed: int, run_dir: str, *,
              t_final: float = SODIUM_T_FINAL) -> dict:
    """Draw the workload's inputs from the seed and write its INI files.

    ``t_final`` shortens evolve-sodium for the harness self-check only.
    """
    rng = random.Random(seed)
    spec = {"workload": workload, "seed": seed, "run_dir": run_dir}
    if workload == "evolve-sodium":
        r = rng.uniform(0.5, 0.95)
        f, m = rng.choice(sodium_b_sublevels())
        spec.update(reflectivity=r, f=f, m=m, t_final=t_final,
                    out=os.path.join(run_dir, "evolve.csv"))
        spec["ini"] = _write(os.path.join(run_dir, "evolve.ini"), _system_lines(
            "hyperfine", "3/2", "1/2", "1/2", "3/2", SODIUM_F_OFFSETS) + [
            "", "[environment]", "kind = cavity", f"reflectivity = {r!r}",
            "", "[run]", f"dt = {SODIUM_DT!r}", f"t_final = {t_final!r}",
            f"rho0 = single:b:{f}:{m}"])
    elif workload == "steady-thermal":
        n_mean = rng.uniform(0.2, 3.0)
        spec.update(n_mean=n_mean, out=os.path.join(run_dir, "steady.csv"))
        spec["ini"] = _write(os.path.join(run_dir, "steady.ini"), _system_lines(
            "fine", *THERMAL_J) + [
            "", "[environment]", "kind = isotropic", f"n_mean = {n_mean!r}"])
    elif workload == "scan-interference":
        spec["ladder"] = {}
        for name, j_b, j_c, j_d in SCAN_FINE:
            lines = _system_lines("fine", j_b, j_c, j_d)
            spec["ladder"][name] = _write(os.path.join(run_dir, f"{name}.ini"), lines + [
                "", "[environment]", "kind = vacuum"])
        for name, spin in SCAN_HYPERFINE:
            lines = _system_lines("hyperfine", "3/2", "1/2", "1/2", spin)
            spec["ladder"][name] = _write(os.path.join(run_dir, f"{name}.ini"), lines + [
                "", "[environment]", "kind = vacuum"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


def scan_points(seed: int):
    """Endless seeded (r, n_mean) pairs for the scan, one per operation."""
    rng = random.Random(f"scan-{seed}")
    while True:
        yield rng.uniform(0.5, 0.95), rng.uniform(0.2, 3.0)


# ---------------------------------------------------------------------------
# operations (worker process)


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_scenario(spec: dict):
    """What set-up loads: the CLI config, or the scan ladder's schemes."""
    import vrelax
    from vrelax.config import build_scheme

    if spec["workload"] == "scan-interference":
        return {name: build_scheme(vrelax.load_config(path))
                for name, path in spec["ladder"].items()}
    return vrelax.load_config(spec["ini"])


def first_assembly(spec: dict, scenario) -> None:
    """The first rate-table assembly a user of the workload pays for."""
    from vrelax.config import build_rate_sets

    if spec["workload"] == "scan-interference":
        scan_once(scenario, *next(scan_points(spec["seed"])))
    else:
        build_rate_sets(scenario)


def scan_once(schemes: dict, r: float, n_mean: float) -> list:
    """p(M) of every ladder scheme at one (r, n_mean) point.

    Functions are looked up on the package at call time, so that a tracer
    that swaps them in sees these calls.
    """
    import vrelax as vr

    cavity = vr.ModeDensityModifier.planar_cavity(r)
    sets = []
    for name, *_js in SCAN_FINE:
        scheme = schemes[name]
        sets.append(vr.rates_fine(scheme, vr.k_spontaneous(cavity, scheme.omega_bd),
                                  vr.k_spontaneous(cavity, scheme.omega_cd)))
    for name, _spin in SCAN_HYPERFINE:
        scheme = schemes[name]
        sets.append(vr.rates_hyperfine(scheme, vr.k_spontaneous(cavity, scheme.fine.omega_bd)))
    field = vr.AngularDistribution.axisymmetric_cos2(n_mean)
    for name in SCAN_STIMULATED:
        sets.append(vr.rates_stimulated(schemes[name], field, vr.ModeDensityModifier.vacuum()))
    return [(rates, vr.interference_report(rates)) for rates in sets]


def level_traces(rates) -> dict[str, float]:
    """Sum of the diagonal rates of each excited level, {level: trace}."""
    traces = {"b": 0.0, "c": 0.0}
    for key, value in rates.upper.items():
        mid = len(key) // 2
        if key[:mid] == key[mid:]:
            traces[key[0]] += complex(value).real
    return traces


def operation(spec: dict):
    """(run, summarize): run(i) does operation i; summarize(i, result) is untimed."""
    workload = spec["workload"]
    if workload == "scan-interference":
        schemes = load_scenario(spec)
        points = scan_points(spec["seed"])
        drawn: list[tuple[float, float]] = []

        def run(i: int):
            while len(drawn) <= i:
                drawn.append(next(points))
            return scan_once(schemes, *drawn[i])

        def summarize(i: int, result) -> dict:
            r, n_mean = drawn[i]
            entries = sum(len(rates.upper) + len(rates.feeding) + len(rates.ground or {})
                          for rates, _report in result)
            p = [[point.value for point in report.points] for _rates, report in result]
            return {"r": r, "n_mean": n_mean, "entries": entries, "p": p,
                    "traces": [level_traces(rates) for rates, _report in result]}

        return run, summarize

    from vrelax.cli import main

    command = "evolve" if workload == "evolve-sodium" else "steady"
    argv = [command, "--config", spec["ini"], "--out", spec["out"]]

    def run(_i: int):
        return main(argv)

    def summarize(_i: int, code) -> dict:
        return {"exit": code, "sha256": file_digest(spec["out"]),
                "bytes": os.path.getsize(spec["out"])}

    return run, summarize


# ---------------------------------------------------------------------------
# checks (harness process)


def _data_rows(path: str) -> tuple[dict[int, str], list[str]]:
    """Basis legend {index: label} and the non-comment lines of a CSV."""
    legend, rows = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# basis "):
                index, label = line[len("# basis "):].split(": ", 1)
                legend[int(index)] = label.strip()
            elif not line.startswith("#"):
                rows.append(line.rstrip("\n"))
    return legend, rows


def _last_line(path: str) -> str:
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        handle.seek(max(0, size - (1 << 20)))
        return handle.read().decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]


def _evolve_reference(spec: dict):
    """Exact exp(G t) rho0 from the dense superoperator oracle."""
    import numpy as np
    import vrelax as vr
    from scipy.sparse.linalg import expm_multiply
    from tracing import dense

    fine = vr.LevelScheme(j_b=vr.half("3/2"), j_c=vr.half("1/2"), j_d=vr.half("1/2"),
                          omega_bd=OMEGA_BD, omega_cd=OMEGA_CD)
    offsets = {(level, vr.half(f)): value for (level, f), value in SODIUM_F_OFFSETS.items()}
    scheme = vr.HyperfineScheme(fine=fine, nuclear_spin=vr.half("3/2"), f_offsets=offsets)
    basis = vr.Basis.for_hyperfine(scheme)
    k = vr.k_spontaneous(vr.ModeDensityModifier.planar_cavity(spec["reflectivity"]), OMEGA_BD)
    lmat = dense(vr.build_relaxation_superop(vr.rates_hyperfine(scheme, k), basis).matrix)
    h = vr.build_hamiltonian(scheme, basis).diagonal
    n = len(basis)
    gen = lmat - 1j * np.diag((h[:, None] - h[None, :]).reshape(n * n))
    rho0 = np.zeros((n, n), dtype=complex)
    start = basis.index(vr.BasisState("b", vr.half(str(spec["m"])), vr.half(str(spec["f"]))))
    rho0[start, start] = 1.0
    return expm_multiply(gen * spec["t_final"], rho0.reshape(n * n)).reshape(n, n)


def _check_evolve_file(spec: dict) -> str | None:
    import numpy as np

    fields = _last_line(spec["out"]).split(",")
    t = float(fields[0])
    if abs(t - spec["t_final"]) > 1e-9:
        return f"last sample at t={t!r}, expected {spec['t_final']!r}"
    values = np.array([float(v) for v in fields[1:]])
    got = values[0::2] + 1j * values[1::2]
    want = _evolve_reference(spec).reshape(-1)
    if got.shape != want.shape:
        return f"final state has {got.size} entries, expected {want.size}"
    error = float(np.max(np.abs(got - want)))
    if not error <= EVOLVE_TOL:
        return f"final state differs from exp(G t) rho0 by {error:.3e}"
    return None


def _check_steady_file(spec: dict) -> str | None:
    legend, rows = _data_rows(spec["out"])
    n = len(legend)
    rho = {}
    for row in rows[1:]:
        i, j, re, im = row.split(",")
        rho[int(i), int(j)] = complex(float(re), float(im))
    if len(rho) != n * n:
        return f"density matrix has {len(rho)} entries, expected {n * n}"
    ratio = spec["n_mean"] / (spec["n_mean"] + 1.0)
    ground = [rho[i, i].real for i in range(n) if legend[i].startswith("d:")]
    excited = [rho[i, i].real for i in range(n) if not legend[i].startswith("d:")]
    worst = max(abs(e - ratio * g) for e in excited for g in ground)
    if not worst <= STEADY_TOL:
        return f"excited/ground populations off n/(n+1) by {worst:.3e}"
    coherence = max(abs(v) for (i, j), v in rho.items() if i != j)
    if not coherence <= STEADY_TOL:
        return f"coherence {coherence:.3e} in a thermal steady state"
    trace = sum(rho[i, i] for i in range(n))
    if not abs(trace - 1.0) <= STEADY_TOL:
        return f"trace {trace!r}"
    return None


def _twice(value: str) -> int:
    return int(Fraction(value) * 2)


def clebsch_gordan_twice(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> float:
    """<j1 m1; j2 m2 | j m> by Racah's formula, every argument twice its value.

    The harness's own, so the scan checks share no code with the program's
    angular layer.
    """
    if m1 + m2 != m or abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return 0.0
    if not abs(j1 - j2) <= j <= j1 + j2 or (j1 + j2 + j) % 2:
        return 0.0

    def fact(twice: int) -> int:
        return math.factorial(twice // 2)

    pre = ((j + 1) * fact(j1 + j2 - j) * fact(j1 - j2 + j) * fact(j2 - j1 + j)
           / fact(j1 + j2 + j + 2))
    pre *= fact(j + m) * fact(j - m) * fact(j1 - m1) * fact(j1 + m1) * fact(j2 - m2) * fact(j2 + m2)
    total = 0.0
    for k in range(0, j1 + j2 + j + 2, 2):
        rest = (j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k, j - j2 + m1 + k, j - j1 - m2 + k)
        if min(rest) >= 0:
            total += (-1) ** (k // 2) / (fact(k) * math.prod(fact(x) for x in rest))
    return math.sqrt(pre) * total


def closed_form_p(j_b: str, j_c: str, j_d: str, k: dict[int, float]) -> list[float | None]:
    """p(M) of a fine scheme whose helicity matrix is diag(k[-1], k[0], k[1]).

    p(M) = sum_q k_q C_b C_c / sqrt(sum_q k_q C_b^2 * sum_q k_q C_c^2) with
    C_x = <J_d M-q; 1 q | J_x M>, at every M that J_b and J_c share.
    """
    jb, jc, jd = _twice(j_b), _twice(j_c), _twice(j_d)
    out = []
    for m in range(-jb, jb + 1, 2):
        if abs(m) > jc:
            continue
        terms = [(k[q], clebsch_gordan_twice(jd, m - 2 * q, 2, 2 * q, jb, m),
                  clebsch_gordan_twice(jd, m - 2 * q, 2, 2 * q, jc, m)) for q in (-1, 0, 1)]
        bb = sum(kq * cb * cb for kq, cb, _cc in terms)
        cc = sum(kq * c * c for kq, _cb, c in terms)
        bc = sum(kq * cb * c for kq, cb, c in terms)
        out.append(bc / math.sqrt(bb * cc) if bb * cc > 0.0 else None)
    return out


def scan_expectations(r: float, n_mean: float) -> list[tuple[str, list | None, dict]]:
    """Per ladder set, in scan order: (name, closed-form p or None, level traces).

    The cavity multiplies the free-space 2/3 per channel by (1+r)/(1-r) for
    q = 0 and (1-r)/(1+r) for q = +-1.  The cos^2 field in vacuum gives
    n_mean * (4/15, 2/15, 4/15), the dipole patterns (1 + cos^2)/2 and sin^2
    weighted by cos^2 over dOmega/4pi.  The trace of a level's diagonal
    rates is the angular sum rule (2I+1)(2J+1)(k_-1 + k_0 + k_1)/3 (I = 0
    for fine schemes), since the recoupling to F is unitary.
    """
    cavity = {0: (2.0 / 3.0) * (1.0 + r) / (1.0 - r), 1: (2.0 / 3.0) * (1.0 - r) / (1.0 + r)}
    cavity[-1] = cavity[1]
    field = {-1: 4.0 * n_mean / 15.0, 0: 2.0 * n_mean / 15.0, 1: 4.0 * n_mean / 15.0}
    fine = {name: (j_b, j_c, j_d) for name, j_b, j_c, j_d in SCAN_FINE}

    def traces(k, j_b, j_c, spin=0):
        mean = sum(k.values()) / 3.0
        return {"b": (spin + 1) * (_twice(j_b) + 1) * mean,
                "c": (spin + 1) * (_twice(j_c) + 1) * mean}

    out = [(name, closed_form_p(*js, cavity), traces(cavity, js[0], js[1]))
           for name, js in fine.items()]
    out += [(name, None, traces(cavity, "3/2", "1/2", _twice(spin)))
            for name, spin in SCAN_HYPERFINE]
    out += [(f"{name} stimulated", closed_form_p(*fine[name], field),
             traces(field, *fine[name][:2])) for name in SCAN_STIMULATED]
    return out


def _check_scan(record: dict) -> str | None:
    k0 = (2.0 / 3.0) * (1.0 + record["r"]) / (1.0 - record["r"])
    kp = (2.0 / 3.0) * (1.0 - record["r"]) / (1.0 + record["r"])
    want = math.sqrt(2.0) * (k0 - kp) / math.sqrt((kp + 2.0 * k0) * (2.0 * kp + k0))
    dline = record["p"][0]
    if len(dline) != 2 or dline[1] is None or not abs(dline[1] - want) <= SCAN_TOL:
        return f"D-line p(1/2) = {dline!r}, closed form {want!r}"
    for values in record["p"]:
        for value in values:
            if value is not None and not abs(value) <= 1.0 + SCAN_TOL:
                return f"|p| = {abs(value)!r} > 1"
    expected = scan_expectations(record["r"], record["n_mean"])
    if len(record["p"]) != len(expected):
        return f"{len(record['p'])} rate sets, expected {len(expected)}"
    for (name, p_want, traces), p, got in zip(expected, record["p"], record["traces"]):
        if p_want is not None:
            if len(p) != len(p_want) or any(
                    (a is None) != (b is None) or (a is not None and not abs(a - b) <= SCAN_TOL)
                    for a, b in zip(p, p_want)):
                return f"{name}: p(M) = {p!r}, closed form {p_want!r}"
        for level, value in traces.items():
            if not abs(got[level] - value) <= SCAN_TOL * value:
                return f"{name}: level {level} rate trace {got[level]!r}, sum rule {value!r}"
    return None


def check(spec: dict, records: list[dict]) -> list[str | None]:
    """One failure reason (or None) per operation record.

    Operation records carry ``error`` when the operation raised.  Every
    operation of a run must also repeat the first one's exact counts.
    """
    workload = spec["workload"]
    file_failure = None
    if workload == "evolve-sodium" and any("error" not in rec for rec in records):
        file_failure = _check_evolve_file(spec)
    elif workload == "steady-thermal" and any("error" not in rec for rec in records):
        file_failure = _check_steady_file(spec)
    ok = [rec for rec in records if "error" not in rec]
    first = ok[0] if ok else {}
    first_counts = next((rec["counts"] for rec in ok if "counts" in rec), {})
    keys = ("entries",) if workload == "scan-interference" else ("sha256", "bytes")
    reasons = []
    for rec in records:
        if "error" in rec:
            reasons.append(rec["error"])
        elif workload == "scan-interference":
            reasons.append(_check_scan(rec) or _repeat_failure(first, first_counts, rec, keys))
        elif rec["exit"] != 0:
            reasons.append(f"exit code {rec['exit']}")
        else:
            # the file on disk is the last operation's; byte-identical
            # repeats make its check every operation's check
            reasons.append(file_failure or _repeat_failure(first, first_counts, rec, keys))
    return reasons


def _repeat_failure(first: dict, first_counts: dict, rec: dict, keys) -> str | None:
    """The exact-repeat rule: outputs and layer counts equal the first operation's."""
    for key in keys:
        if rec[key] != first[key]:
            return f"{key} {rec[key]!r} differs from the first operation's {first[key]!r}"
    for key, value in rec.get("counts", {}).items():
        if value != first_counts[key]:
            return f"count {key} = {value!r} differs from the first operation's {first_counts[key]!r}"
    return None
