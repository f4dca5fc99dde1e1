"""The ``vrelax`` command-line front end.

Subcommands::

    vrelax kmatrix  --config x.ini | --preset NAME [--out PATH]
    vrelax rates    ...            rate tables + interference report (CSV)
    vrelax superop  ...            dense relaxation superoperator (CSV)
    vrelax evolve   ...            density-matrix trajectory (CSV)
    vrelax steady   ...            steady state (CSV)
    vrelax doctor   [--jmax J]     numerical self-checks

Exit codes: 0 success, 1 check failure (a failed doctor check or a degenerate
steady state), 2 configuration error (a bad path or an output that cannot be
written included), 3 numerical abort (a marginal steady-state null vector included).

Output is deterministic: the same config produces byte-identical CSV on
every run.  All physical tables carry their normalization convention in the
``#`` header block.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .angular import (
    cg_orthogonality_defect,
    channel_sum_defect,
    d1_orthogonality_defect,
    momentum_cap,
    sixj_sum_rule_defect,
)
from .config import (
    ScenarioConfig,
    _rate_sets,
    build_kmatrix,
    build_rate_sets,
    build_rho0,
    build_scheme,
    load_config,
    preset_config,
    preset_names,
    with_overrides,
)
from .csvio import (
    write_density_matrix,
    write_kmatrix,
    write_rate_tables,
    write_superoperator,
    write_trajectory,
)
from .dynamics import build_hamiltonian, propagate, steady_state, step_count
from .environment import ModeDensityModifier, k_spontaneous, quadrature_selfcheck
from .errors import (
    AngularDomainError,
    ConfigError,
    ConvergenceError,
    DegenerateSteadyStateError,
    DistributionDomainError,
    NumericalAbortError,
    QuadratureOrderError,
    RateSetContractError,
    SchemeError,
)
from .halfint import HalfInt, half, triangle_range
from .operators import (
    Basis,
    LevelScheme,
    Superoperator,
    build_relaxation_superop,
    build_stimulated_superop,
    interference_report,
    rates_fine,
    sparse_sum,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# header comments


def _normalization_lines(cfg: ScenarioConfig) -> list[str]:
    return [
        "normalization: rate coefficients carry the scalar line-strength prefactor "
        "S linearly; photon occupation enters only through the helicity matrix K",
        f"S scale (s_scale) = {cfg.run.s_scale!r}; N scale (n_scale) = {cfg.run.n_scale!r}",
    ]


def _scheme_lines(cfg: ScenarioConfig) -> list[str]:
    system = cfg.system
    line = (
        f"scheme: {system.kind} J_b={system.j_b} J_c={system.j_c} J_d={system.j_d} "
        f"omega_bd={system.omega_bd!r} omega_cd={system.omega_cd!r} "
        f"dipole_mode={system.dipole_mode}"
    )
    if system.kind == "hyperfine":
        line += f" I={system.nuclear_spin}"
    out = [line]
    if system.restrict_excited is not None:
        out.append(
            f"two-level reduction: only level '{system.restrict_excited}' channels kept"
        )
    return out


def _environment_line(cfg: ScenarioConfig) -> str:
    env = cfg.environment
    if env.kind == "isotropic":
        return f"environment: isotropic n_mean={env.n_mean!r}"
    if env.kind == "cos2":
        return f"environment: cos2 n_mean={env.n_mean!r}"
    if env.kind == "tabulated":
        return f"environment: tabulated distribution_csv={env.distribution_csv}"
    if env.kind == "cavity":
        return f"environment: planar cavity reflectivity={env.reflectivity!r}"
    if env.kind == "photonic":
        channels = ", ".join(str(c) for c in env.gapped_channels)
        return (
            f"environment: photonic crystal omega_edge={env.omega_edge!r} "
            f"curvature={env.curvature!r} gapped_channels=[{channels}]"
        )
    if env.kind == "injected":
        values = ", ".join(repr(v) for v in env.k_diag)
        return f"environment: injected k_diag=[{values}] (sigma = -1, 0, +1)"
    return f"environment: {env.kind}"


def _interference_lines(label: str, rates) -> list[str]:
    report = interference_report(rates)
    lines = []
    for point in report.points:
        where = f"M={point.m}" if point.f is None else f"F={point.f} M={point.m}"
        value = "undefined" if point.value is None else repr(point.value)
        lines.append(f"interference {label}: {where} p={value}")
    worst = abs(report.off_diagonal[0][1]) if report.off_diagonal else 0.0
    lines.append(f"interference {label}: off-diagonal max |Gamma| = {worst!r}")
    return lines


def _common_comments(cfg: ScenarioConfig, title: str) -> list[str]:
    return [f"vrelax {title}", *_normalization_lines(cfg), *_scheme_lines(cfg),
            _environment_line(cfg)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_kmatrix(cfg: ScenarioConfig, stream) -> int:
    kmatrix = build_kmatrix(cfg)
    comments = _common_comments(cfg, "kmatrix")
    comments.append(f"provenance: {kmatrix.provenance}")
    if kmatrix.evaluated_at is None:
        comments.append("evaluated_at: frequency-flat")
    else:
        comments.append(f"evaluated_at: {kmatrix.evaluated_at!r}")
    write_kmatrix(stream, kmatrix, comments=comments)
    return 0


def _cmd_rates(cfg: ScenarioConfig, stream) -> int:
    sets = build_rate_sets(cfg)
    if not sets:
        raise ConfigError("environment kind 'none' produces no rate tables")
    comments = _common_comments(cfg, "rates")
    if any(rates.hyperfine for _label, rates in sets):
        comments.append(
            "hyperfine feeding rows pack the ground sublevel as F:M into the Md columns"
        )
    for label, rates in sets:
        ground = 0 if rates.ground is None else len(rates.ground)
        comments.append(
            f"set {label}: structure={rates.kind} upper={len(rates.upper)} "
            f"feeding={len(rates.feeding)} ground={ground}"
        )
    for label, rates in sets:
        comments.extend(_interference_lines(label, rates))
    write_rate_tables(stream, sets, comments=comments)
    return 0


def _superoperators(cfg: ScenarioConfig, scheme) -> list[tuple[str, Superoperator]]:
    build = {"spontaneous": build_relaxation_superop, "stimulated": build_stimulated_superop}
    return [(label, build[rates.kind](rates)) for label, rates in _rate_sets(cfg, scheme)]


def _cmd_superop(cfg: ScenarioConfig, stream) -> int:
    scheme = build_scheme(cfg)
    basis = Basis.for_scheme(scheme)
    parts = _superoperators(cfg, scheme)
    if not parts:
        raise ConfigError("environment kind 'none' has no relaxation superoperator")
    triplets = [(op.matrix.row, op.matrix.col, op.matrix.data) for _label, op in parts]
    combined = Superoperator(sparse_sum(triplets, len(basis) ** 2), basis, "total-relaxation")
    comments = _common_comments(cfg, "superop")
    comments.append("parts: " + " + ".join(label for label, _op in parts))
    write_superoperator(stream, combined, comments=comments)
    return 0


def _cmd_evolve(cfg: ScenarioConfig, stream) -> int:
    run = cfg.run
    if run.dt is None or run.t_final is None:
        raise ConfigError("[run] dt and t_final are required for evolve")
    try:
        step_count(run.t_final, run.dt)
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}") from None
    scheme = build_scheme(cfg)
    basis = Basis.for_scheme(scheme)
    hamiltonian = build_hamiltonian(scheme, basis)
    superops = [op for _label, op in _superoperators(cfg, scheme)]
    rho0 = build_rho0(cfg, scheme, basis)
    trajectory = propagate(
        rho0,
        hamiltonian,
        superops,
        run.t_final,
        run.dt,
        sample_every=run.sample_every,
    )
    comments = _common_comments(cfg, "evolve")
    comments.append(
        f"propagation: dt={run.dt!r} t_final={run.t_final!r} "
        f"sample_every={run.sample_every} rho0={run.rho0}"
    )
    write_trajectory(
        stream,
        trajectory,
        basis.labels(),
        populations_only=run.populations_only,
        comments=comments,
    )
    return 0


def _cmd_steady(cfg: ScenarioConfig, stream) -> int:
    scheme = build_scheme(cfg)
    basis = Basis.for_scheme(scheme)
    hamiltonian = build_hamiltonian(scheme, basis)
    superops = [op for _label, op in _superoperators(cfg, scheme)]
    state = steady_state(hamiltonian, superops)
    comments = _common_comments(cfg, "steady")
    write_density_matrix(stream, state, basis.labels(), comments=comments)
    return 0


# ---------------------------------------------------------------------------
# doctor


_DIAGONALITY_SCHEMES = (
    ("3/2", "1/2", "1/2"),
    ("1/2", "3/2", "1/2"),
    ("2", "1", "1"),
    ("5/2", "3/2", "3/2"),
    ("3", "2", "2"),
)


def _battery_checks(jmax: HalfInt):
    """Angular identity battery, each entry gated on the grid it needs."""
    grid = [HalfInt(t) for t in range(0, jmax.twice + 1)]

    def cg_orthogonality() -> float:
        return max(
            cg_orthogonality_defect(j1, j2) for j1 in grid for j2 in grid
        )

    def channel_sum() -> float:
        worst = 0.0
        for j_d in grid:
            uppers = [j for j in triangle_range(j_d, 1) if j.twice <= jmax.twice]
            for j1 in uppers:
                for j2 in uppers:
                    worst = max(worst, channel_sum_defect(j_d, j1, j2))
        return worst

    def d1_orthogonality() -> float:
        betas = np.linspace(0.0, math.pi, 181)
        return d1_orthogonality_defect(betas)

    def sixj_sum() -> float:
        return sixj_sum_rule_defect(jmax)

    def diagonality() -> float:
        vacuum = ModeDensityModifier.vacuum()
        worst = 0.0
        for j_b, j_c, j_d in _DIAGONALITY_SCHEMES:
            if max(half(j_b).twice, half(j_c).twice, half(j_d).twice) > jmax.twice:
                continue
            scheme = LevelScheme(j_b=half(j_b), j_c=half(j_c), j_d=half(j_d))
            rates = rates_fine(
                scheme, k_spontaneous(vacuum, 1.0), k_spontaneous(vacuum, 1.0)
            )
            for _key, value in interference_report(rates).off_diagonal:
                worst = max(worst, abs(value))
        return worst

    # (name, minimum jmax in twice-units, tolerance, callable)
    return (
        ("cg-orthogonality", 1, 1e-12, cg_orthogonality),
        ("channel-sum-rule", 3, 1e-12, channel_sum),
        ("d1-orthogonality", 0, 1e-12, d1_orthogonality),
        ("sixj-sum-rule", 2, 1e-12, sixj_sum),
        ("free-space-diagonality", 3, 1e-12, diagonality),
    )


def _cmd_doctor(args) -> int:
    try:
        jmax = half(args.jmax)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"--jmax: {exc}") from None
    if jmax.twice < 0:
        raise ConfigError(f"--jmax must be >= 0, got {jmax}")
    if jmax.twice > momentum_cap().twice:
        raise ConfigError(f"--jmax {jmax} exceeds the factorial-table cap {momentum_cap()}")
    forced = args.force_quad_order
    quad_order = args.quad_order if forced is None else forced
    print("vrelax doctor")
    report = quadrature_selfcheck(quad_order, force=forced is not None)
    # the quadrature entries first, as checks that need no grid
    checks = [(e.name, 0, e.tolerance, lambda e=e: e.deviation) for e in report.entries]
    checks += _battery_checks(jmax)
    failures: list[str] = []
    skipped = 0
    for name, required_twice, tol, check in checks:
        if jmax.twice < required_twice:
            skipped += 1
            print(f"  SKIP {name} (needs grid up to J >= {HalfInt(required_twice)}, have {jmax})")
            continue
        deviation = check()
        status = "PASS" if deviation < tol else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(f"  {status} {name} (deviation {deviation:.3e}, tol {tol:g})")
    if failures:
        print(f"doctor: FAIL ({failures[0]})")
        return 1
    print(f"doctor: ok ({len(checks) - skipped} passed, {skipped} skipped)")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


@cache  # one per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrelax",
        description="Relaxation and stimulated-transition operators for "
        "degenerate V-type atoms.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    helps = {
        "kmatrix": "emit the scenario's 3x3 helicity matrix K",
        "rates": "emit the rate tables plus the interference report",
        "superop": "emit the dense relaxation superoperator",
        "evolve": "propagate the density matrix and emit the trajectory",
        "steady": "solve for the steady state",
    }
    for name in ("kmatrix", "rates", "superop", "evolve", "steady"):
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--config", metavar="PATH", help="scenario INI file")
        cmd.add_argument(
            "--preset", metavar="NAME", help=f"one of: {', '.join(preset_names())}"
        )
        cmd.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
        cmd.add_argument(
            "--quad-order", type=int, dest="quad_order", metavar="N",
            help="Gauss-Legendre order for distribution quadrature",
        )
        cmd.add_argument(
            "--r", type=float, dest="reflectivity", metavar="R",
            help="override the cavity reflectivity",
        )
        if name == "evolve":
            cmd.add_argument(
                "--populations-only", action="store_true",
                help="compact trajectory CSV: time and populations only",
            )
    doctor = sub.add_parser("doctor", help="run the numerical self-checks")
    doctor.add_argument(
        "--jmax", default="9/2", metavar="J",
        help="angular-momentum grid cap for the identity battery (default 9/2)",
    )
    doctor.add_argument(
        "--quad-order", type=int, dest="quad_order", default=16, metavar="N",
        help="quadrature order for the self-check (default 16)",
    )
    doctor.add_argument(
        "--force-quad-order", type=int, dest="force_quad_order", default=None,
        help=argparse.SUPPRESS,
    )
    return parser


def _resolve_config(args) -> ScenarioConfig:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = preset_config(args.preset)
    return with_overrides(
        cfg,
        quad_order=args.quad_order,
        out=args.out,
        populations_only=getattr(args, "populations_only", False),
        reflectivity=args.reflectivity,
    )


def _cannot_write(out: str | None, exc: OSError) -> ConfigError:
    where = "to stdout" if out is None else repr(out)
    return ConfigError(f"cannot write output {where}: {exc.strerror}")


class _Output:
    """The output stream: a failed write, or flush or close through ``call``, raises
    the ``cannot write output`` :class:`ConfigError`.  A failed process stdout is
    first pointed at os.devnull, as the SIGPIPE recipe of the ``signal`` docs does,
    so that the flush at exit, which would fail again, has nothing to report."""

    def __init__(self, stream, out: str | None):
        self.stream, self.out = stream, out

    def write(self, text: str) -> None:
        self.call(self.stream.write, text)

    def call(self, method, *args) -> None:
        try:
            method(*args)
        except OSError as exc:
            if self.stream is sys.__stdout__:
                with open(os.devnull, "wb") as devnull:
                    os.dup2(devnull.fileno(), self.stream.fileno())
            raise _cannot_write(self.out, exc) from None


@contextlib.contextmanager
def _output_stream(out: str | None):
    """stdout, or a temporary file beside the output path that replaces it
    only once the command has succeeded: a failed command leaves an earlier
    result in place.  The result keeps an existing file's permission bits.
    A path that exists but is no regular file (a device, a FIFO, a pipe
    under /dev/fd) cannot be replaced and is written in place."""
    if out is None:
        stream = _Output(sys.stdout, None)
        yield stream
        stream.call(sys.stdout.flush)
        return
    try:
        in_place = not stat.S_ISREG(os.stat(out).st_mode)
    except OSError:
        in_place = False  # missing: created through the temporary file
    target = os.path.realpath(out)
    path = out if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        if not in_place and os.path.exists(target):  # writable; not truncated
            os.close(os.open(target, os.O_WRONLY))
        handle = open(path, "w" if in_place else "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise _cannot_write(out, exc) from None
    try:
        stream = _Output(handle, out)
        yield stream
        stream.call(handle.close)
        if not in_place:
            try:
                if os.path.exists(target):
                    os.chmod(path, stat.S_IMODE(os.stat(target).st_mode))
                os.replace(path, target)
            except OSError as exc:
                raise _cannot_write(out, exc) from None
    finally:
        with contextlib.suppress(OSError):  # after a failed write, closing fails again
            handle.close()
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


_DISPATCH = {
    "kmatrix": _cmd_kmatrix,
    "rates": _cmd_rates,
    "superop": _cmd_superop,
    "evolve": _cmd_evolve,
    "steady": _cmd_steady,
}


def _attached_jmax(argv: Sequence[str]) -> list[str]:
    """``--jmax -1/2`` as ``--jmax=-1/2``.

    argparse takes a token that starts with '-' for an option unless it reads
    as a plain negative number, which a fraction does not, so ``-1/2`` would
    stop in argparse instead of at the ``--jmax must be >= 0`` check.
    """
    tokens: list[str] = []
    for token in argv:
        if tokens and tokens[-1] == "--jmax" and token[:1] == "-" and token[1:2].isdigit():
            tokens[-1] = f"--jmax={token}"
        else:
            tokens.append(token)
    return tokens


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attached_jmax(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "doctor":
            with _output_stream(None) as stream, contextlib.redirect_stdout(stream):
                return _cmd_doctor(args)
        cfg = _resolve_config(args)
        with _output_stream(cfg.run.out) as stream:
            return _DISPATCH[args.command](cfg, stream)
    except (
        ConfigError,
        SchemeError,
        DistributionDomainError,
        QuadratureOrderError,
        AngularDomainError,
        RateSetContractError,
        MemoryError,
    ) as exc:
        print(f"vrelax: config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSteadyStateError as exc:
        print(f"vrelax: {exc}", file=sys.stderr)
        return 1
    except (NumericalAbortError, ConvergenceError) as exc:
        print(f"vrelax: numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
