"""Scenario configuration: INI schema, shipped presets, and object builders.

A scenario file is flat INI with three sections.  Unknown sections or keys
are rejected outright, with the offending line number in the message.

``[system]`` describes the level scheme::

    kind = fine | hyperfine
    j_b, j_c, j_d            angular momenta ("3/2", "1", ...)
    omega_bd, omega_cd       transition frequencies (default 1.0)
    dipole_mode = alkali | explicit   (explicit requires mu_bd, mu_cd)
    nuclear_spin             hyperfine only
    f_offset_<level>_<F>     hyperfine energy offsets, e.g. f_offset_b_3 = 0.002
    restrict_excited = b | c  keep only that level's channels (two-level
                              reduction; spontaneous-only environments)

``[environment]`` picks exactly one photon environment::

    kind = none | vacuum | isotropic | cos2 | tabulated | cavity | photonic | injected
    n_mean                   isotropic, cos2
    distribution_csv         tabulated (columns theta_rad, phi_rad, lambda, n_mean)
    reflectivity             cavity
    omega_edge, curvature, gapped_channels   photonic (channels like "-1, 0, 1")
    k_diag                   injected: three values in (sigma=-1, 0, +1) order,
                             fractions allowed ("4/75, 4/15, 4/75")
    include_spontaneous      isotropic/cos2/tabulated (default true) and
                             injected (default false)

Keys belonging to a different kind are configuration errors, which is what
keeps literal K injection and distribution quadrature mutually exclusive.

``[run]`` carries execution parameters (all optional)::

    command                  documentation hint; the CLI subcommand wins
    quad_order = 16          Gauss-Legendre order for distribution quadrature
    dt, t_final              propagation step and span (required by evolve)
    sample_every = 1         output stride
    rho0                     single:<level>:<M>  (hyperfine: single:<level>:<F>:<M>),
                             uniform:<level>, or thermal-ground; no silent default
    workers = 1              accepted for compatibility; changes neither results
                             nor speed (tables are built in one thread)
    populations_only = false trajectory CSV compact mode
    out                      output path (CLI --out overrides)
    s_scale = 1.0            scalar line-strength prefactor S
    n_scale = 1.0            multiplies photon occupations (distribution or k_diag)

The normalization convention: every rate coefficient carries the prefactor S
(``s_scale``) linearly, and photon numbers enter only through the K matrix,
scaled by ``n_scale``.  Output headers repeat this so no table is ambiguous.
"""

from __future__ import annotations

import configparser
import math
import re
import textwrap
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .environment import (
    AngularDistribution,
    KMatrix,
    ModeDensityModifier,
    k_spontaneous,
    k_stimulated,
)
from .errors import ConfigError, SchemeError
from .halfint import HalfInt, half
from .operators import (
    Basis,
    BasisState,
    HyperfineScheme,
    LevelScheme,
    RateSet,
    rates_fine,
    rates_hyperfine,
    rates_injected,
    rates_stimulated,
)

__all__ = [
    "SystemConfig",
    "EnvironmentConfig",
    "RunConfig",
    "ScenarioConfig",
    "parse_config",
    "serialize_config",
    "load_config",
    "preset_config",
    "preset_names",
    "build_scheme",
    "scheme_basis",
    "build_rate_sets",
    "build_kmatrix",
    "build_rho0",
    "COMMANDS",
]

COMMANDS = ("kmatrix", "rates", "superop", "evolve", "steady", "doctor")

_SYSTEM_KINDS = ("fine", "hyperfine")
_ENV_KINDS = (
    "none", "vacuum", "isotropic", "cos2", "tabulated", "cavity", "photonic", "injected",
)
# environments with no photon occupation: only spontaneous decay, possibly
# through a modified mode density
_SPONTANEOUS_ONLY_KINDS = ("none", "vacuum", "cavity", "photonic")

_F_OFFSET_RE = re.compile(r"^f_offset_([bcd])_(.+)$")


# ---------------------------------------------------------------------------
# configuration objects


@dataclass(frozen=True)
class SystemConfig:
    kind: str
    j_b: HalfInt
    j_c: HalfInt
    j_d: HalfInt
    omega_bd: float = 1.0
    omega_cd: float = 1.0
    dipole_mode: str = "alkali"
    mu_bd: Optional[float] = None
    mu_cd: Optional[float] = None
    nuclear_spin: Optional[HalfInt] = None
    f_offsets: tuple[tuple[str, HalfInt, float], ...] = ()
    restrict_excited: Optional[str] = None


@dataclass(frozen=True)
class EnvironmentConfig:
    kind: str
    n_mean: Optional[float] = None
    distribution_csv: Optional[str] = None
    reflectivity: Optional[float] = None
    omega_edge: Optional[float] = None
    curvature: Optional[float] = None
    gapped_channels: Optional[tuple[int, ...]] = None
    k_diag: Optional[tuple[float, float, float]] = None
    include_spontaneous: Optional[bool] = None


@dataclass(frozen=True)
class RunConfig:
    command: Optional[str] = None
    quad_order: int = 16
    dt: Optional[float] = None
    t_final: Optional[float] = None
    sample_every: int = 1
    rho0: Optional[str] = None
    workers: int = 1
    populations_only: bool = False
    out: Optional[str] = None
    s_scale: float = 1.0
    n_scale: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    system: SystemConfig
    environment: EnvironmentConfig
    run: RunConfig = field(default_factory=RunConfig)


# ---------------------------------------------------------------------------
# parsing


def _key_lines(text: str) -> dict:
    """First line number of every (section, key) pair and every section."""
    lines: dict = {}
    section = None
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            lines.setdefault(("section", section), no)
            continue
        if "=" in stripped and not raw[:1].isspace():
            key = stripped.split("=", 1)[0].strip()
            if section is not None:
                lines.setdefault((section, key), no)
    return lines


class _SectionReader:
    """Typed access to one INI section with line-anchored errors."""

    def __init__(self, name: str, raw: dict, lines: dict):
        self.name = name
        self.raw = dict(raw)
        self.lines = lines

    def _where(self, key: str) -> str:
        line = self.lines.get((self.name, key))
        return f"line {line}: " if line else ""

    def error(self, key: str, message: str) -> ConfigError:
        return ConfigError(f"{self._where(key)}[{self.name}] {key}: {message}")

    def get(self, key: str) -> Optional[str]:
        value = self.raw.get(key)
        if value is None:
            return None
        value = value.strip()
        if not value:
            raise self.error(key, "empty value")
        return value

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ConfigError(f"[{self.name}] is missing required key '{key}'")
        return value

    def number(self, key: str) -> Optional[float]:
        raw = self.get(key)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            try:
                value = float(Fraction(raw))
            except (ValueError, ZeroDivisionError):
                raise self.error(key, f"{raw!r} is not a number") from None
        if not math.isfinite(value):
            raise self.error(key, f"{raw!r} is not finite")
        return value

    def integer(self, key: str) -> Optional[int]:
        raw = self.get(key)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise self.error(key, f"{raw!r} is not an integer") from None

    def boolean(self, key: str) -> Optional[bool]:
        raw = self.get(key)
        if raw is None:
            return None
        lowered = raw.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise self.error(key, f"{raw!r} is not a boolean")

    def halfint(self, key: str) -> Optional[HalfInt]:
        raw = self.get(key)
        if raw is None:
            return None
        try:
            return half(raw)
        except (ValueError, TypeError) as exc:
            raise self.error(key, str(exc)) from None

    def choice(self, key: str, allowed: Sequence[str]) -> Optional[str]:
        raw = self.get(key)
        if raw is None:
            return None
        if raw not in allowed:
            raise self.error(key, f"{raw!r} is not one of {', '.join(allowed)}")
        return raw


_SYSTEM_KEYS = {
    "kind", "j_b", "j_c", "j_d", "omega_bd", "omega_cd", "dipole_mode",
    "mu_bd", "mu_cd", "nuclear_spin", "restrict_excited",
}
_ENV_KEYS = {
    "kind", "n_mean", "distribution_csv", "reflectivity", "omega_edge",
    "curvature", "gapped_channels", "k_diag", "include_spontaneous",
}
_RUN_KEYS = {
    "command", "quad_order", "dt", "t_final", "sample_every", "rho0",
    "workers", "populations_only", "out", "s_scale", "n_scale",
}

# which environment kinds each optional key belongs to
_ENV_KEY_OWNERS = {
    "n_mean": ("isotropic", "cos2"),
    "distribution_csv": ("tabulated",),
    "reflectivity": ("cavity",),
    "omega_edge": ("photonic",),
    "curvature": ("photonic",),
    "gapped_channels": ("photonic",),
    "k_diag": ("injected",),
    "include_spontaneous": ("isotropic", "cos2", "tabulated", "injected"),
}
_ENV_REQUIRED = {
    "isotropic": ("n_mean",),
    "cos2": ("n_mean",),
    "tabulated": ("distribution_csv",),
    "cavity": ("reflectivity",),
    "photonic": ("omega_edge", "curvature", "gapped_channels"),
    "injected": ("k_diag",),
}


def _reject_unknown_keys(section: _SectionReader, allowed, extra_ok=None) -> None:
    for key in section.raw:
        if key in allowed:
            continue
        if extra_ok is not None and extra_ok(key):
            continue
        raise section.error(key, "unknown key")


def _parse_system(section: _SectionReader) -> SystemConfig:
    _reject_unknown_keys(section, _SYSTEM_KEYS, extra_ok=lambda k: _F_OFFSET_RE.match(k))
    kind = section.choice("kind", _SYSTEM_KINDS)
    if kind is None:
        raise ConfigError("[system] is missing required key 'kind'")
    for key in ("j_b", "j_c", "j_d"):
        section.require(key)
    j_b, j_c, j_d = (section.halfint(key) for key in ("j_b", "j_c", "j_d"))
    omega_bd = section.number("omega_bd")
    omega_cd = section.number("omega_cd")
    dipole_mode = section.choice("dipole_mode", ("alkali", "explicit")) or "alkali"
    mu_bd = section.number("mu_bd")
    mu_cd = section.number("mu_cd")
    if dipole_mode == "explicit" and (mu_bd is None or mu_cd is None):
        raise section.error("dipole_mode", "explicit mode requires mu_bd and mu_cd")
    if dipole_mode == "alkali" and (mu_bd is not None or mu_cd is not None):
        key = "mu_bd" if mu_bd is not None else "mu_cd"
        raise section.error(key, "dipole moments require dipole_mode = explicit")
    nuclear_spin = section.halfint("nuclear_spin")
    restrict = section.choice("restrict_excited", ("b", "c"))
    offsets: list[tuple[str, HalfInt, float]] = []
    for key in section.raw:
        match = _F_OFFSET_RE.match(key)
        if not match:
            continue
        if kind != "hyperfine":
            raise section.error(key, "hyperfine offsets need kind = hyperfine")
        level = match.group(1)
        try:
            f_value = half(match.group(2))
        except (ValueError, TypeError) as exc:
            raise section.error(key, str(exc)) from None
        offsets.append((level, f_value, section.number(key)))
    if kind == "hyperfine" and nuclear_spin is None:
        raise ConfigError("[system] kind = hyperfine requires nuclear_spin")
    if kind == "fine" and nuclear_spin is not None:
        raise section.error("nuclear_spin", "only meaningful for kind = hyperfine")
    offsets.sort(key=lambda item: ({"d": 0, "c": 1, "b": 2}[item[0]], item[1].twice))
    return SystemConfig(
        kind=kind,
        j_b=j_b,
        j_c=j_c,
        j_d=j_d,
        omega_bd=1.0 if omega_bd is None else omega_bd,
        omega_cd=1.0 if omega_cd is None else omega_cd,
        dipole_mode=dipole_mode,
        mu_bd=mu_bd,
        mu_cd=mu_cd,
        nuclear_spin=nuclear_spin,
        f_offsets=tuple(offsets),
        restrict_excited=restrict,
    )


def _parse_environment(section: _SectionReader) -> EnvironmentConfig:
    _reject_unknown_keys(section, _ENV_KEYS)
    kind = section.choice("kind", _ENV_KINDS)
    if kind is None:
        raise ConfigError("[environment] is missing required key 'kind'")
    for key, owners in _ENV_KEY_OWNERS.items():
        if key in section.raw and kind not in owners:
            raise section.error(
                key, f"only meaningful for kind {' or '.join(repr(o) for o in owners)}"
            )
    for key in _ENV_REQUIRED.get(kind, ()):
        if key not in section.raw:
            raise ConfigError(f"[environment] kind = {kind} requires key '{key}'")
    gapped: Optional[tuple[int, ...]] = None
    raw_gapped = section.get("gapped_channels")
    if raw_gapped is not None:
        parts = [p.strip() for p in raw_gapped.split(",") if p.strip()]
        try:
            channels = tuple(int(p) for p in parts)
        except ValueError:
            raise section.error("gapped_channels", f"{raw_gapped!r} is not a channel list") from None
        if not channels or any(c not in (-1, 0, 1) for c in channels):
            raise section.error("gapped_channels", "channels must come from -1, 0, +1")
        gapped = tuple(sorted(set(channels)))
    k_diag: Optional[tuple[float, float, float]] = None
    raw_k = section.get("k_diag")
    if raw_k is not None:
        parts = [p.strip() for p in raw_k.split(",") if p.strip()]
        if len(parts) != 3:
            raise section.error("k_diag", "needs exactly three values (sigma = -1, 0, +1)")
        values = []
        for part in parts:
            try:
                value = float(part)
            except ValueError:
                try:
                    value = float(Fraction(part))
                except (ValueError, ZeroDivisionError):
                    raise section.error("k_diag", f"{part!r} is not a number") from None
            if not math.isfinite(value) or value < 0:
                raise section.error("k_diag", f"{part!r} is not a finite value >= 0")
            values.append(value)
        k_diag = (values[0], values[1], values[2])
    n_mean = section.number("n_mean")
    if n_mean is not None and n_mean < 0:
        raise section.error("n_mean", "must be >= 0")
    return EnvironmentConfig(
        kind=kind,
        n_mean=n_mean,
        distribution_csv=section.get("distribution_csv"),
        reflectivity=section.number("reflectivity"),
        omega_edge=section.number("omega_edge"),
        curvature=section.number("curvature"),
        gapped_channels=gapped,
        k_diag=k_diag,
        include_spontaneous=section.boolean("include_spontaneous"),
    )


def _parse_run(section: _SectionReader) -> RunConfig:
    _reject_unknown_keys(section, _RUN_KEYS)
    command = section.choice("command", COMMANDS)
    quad_order = section.integer("quad_order")
    if quad_order is not None and quad_order < 1:
        raise section.error("quad_order", "must be >= 1")
    workers = section.integer("workers")
    if workers is not None and workers < 1:
        raise section.error("workers", "must be >= 1")
    sample_every = section.integer("sample_every")
    if sample_every is not None and sample_every < 1:
        raise section.error("sample_every", "must be >= 1")
    dt = section.number("dt")
    if dt is not None and dt <= 0:
        raise section.error("dt", "must be > 0")
    t_final = section.number("t_final")
    if t_final is not None and t_final <= 0:
        raise section.error("t_final", "must be > 0")
    s_scale = section.number("s_scale")
    if s_scale is not None and s_scale <= 0:
        raise section.error("s_scale", "must be > 0")
    n_scale = section.number("n_scale")
    if n_scale is not None and n_scale < 0:
        raise section.error("n_scale", "must be >= 0")
    rho0 = section.get("rho0")
    if rho0 is not None:
        head = rho0.split(":", 1)[0]
        if head not in ("single", "uniform") and rho0 != "thermal-ground":
            raise section.error(
                "rho0",
                f"{rho0!r} is not single:<level>:..., uniform:<level> or thermal-ground",
            )
    return RunConfig(
        command=command,
        quad_order=16 if quad_order is None else quad_order,
        dt=dt,
        t_final=t_final,
        sample_every=1 if sample_every is None else sample_every,
        rho0=rho0,
        workers=1 if workers is None else workers,
        populations_only=bool(section.boolean("populations_only")),
        out=section.get("out"),
        s_scale=1.0 if s_scale is None else s_scale,
        n_scale=1.0 if n_scale is None else n_scale,
    )


def _cross_validate(cfg: ScenarioConfig) -> None:
    system, env = cfg.system, cfg.environment
    if system.kind == "hyperfine" and env.kind in ("isotropic", "cos2", "tabulated"):
        raise ConfigError(
            f"environment kind {env.kind!r} resolves a photon distribution over "
            "fine-structure lines and is not available for hyperfine schemes; "
            "use vacuum, cavity or injected"
        )
    if system.kind == "hyperfine" and env.kind == "photonic":
        raise ConfigError(
            "photonic environments are frequency dependent and hyperfine rate "
            "tables share a single helicity matrix; not supported"
        )
    if system.restrict_excited is not None and env.kind not in _SPONTANEOUS_ONLY_KINDS:
        raise ConfigError(
            "restrict_excited implements the two-level reduction of the decay "
            "tables and is only meaningful for spontaneous-only environments "
            f"(none, vacuum, cavity, photonic), not {env.kind!r}"
        )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate an INI scenario; raises ConfigError on any defect."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep key case as written
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"INI parse failure: {exc}") from None
    lines = _key_lines(text)
    known = {"system", "environment", "run"}
    for name in parser.sections():
        if name not in known:
            line = lines.get(("section", name))
            where = f"line {line}: " if line else ""
            raise ConfigError(f"{where}unknown section [{name}]")
    for name in ("system", "environment"):
        if name not in parser:
            raise ConfigError(f"missing required section [{name}]")
    system = _parse_system(_SectionReader("system", parser["system"], lines))
    environment = _parse_environment(
        _SectionReader("environment", parser["environment"], lines)
    )
    if "run" in parser:
        run = _parse_run(_SectionReader("run", parser["run"], lines))
    else:
        run = RunConfig()
    cfg = ScenarioConfig(system=system, environment=environment, run=run)
    _cross_validate(cfg)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# serialization


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical INI form; parse(serialize(cfg)) == cfg."""
    system, env, run = cfg.system, cfg.environment, cfg.run
    lines = ["[system]", f"kind = {system.kind}"]
    for key in ("j_b", "j_c", "j_d"):
        lines.append(f"{key} = {getattr(system, key)}")
    lines.append(f"omega_bd = {system.omega_bd!r}")
    lines.append(f"omega_cd = {system.omega_cd!r}")
    lines.append(f"dipole_mode = {system.dipole_mode}")
    if system.mu_bd is not None:
        lines.append(f"mu_bd = {system.mu_bd!r}")
    if system.mu_cd is not None:
        lines.append(f"mu_cd = {system.mu_cd!r}")
    if system.nuclear_spin is not None:
        lines.append(f"nuclear_spin = {system.nuclear_spin}")
    for level, f_value, offset in system.f_offsets:
        lines.append(f"f_offset_{level}_{f_value} = {offset!r}")
    if system.restrict_excited is not None:
        lines.append(f"restrict_excited = {system.restrict_excited}")
    lines += ["", "[environment]", f"kind = {env.kind}"]
    if env.n_mean is not None:
        lines.append(f"n_mean = {env.n_mean!r}")
    if env.distribution_csv is not None:
        lines.append(f"distribution_csv = {env.distribution_csv}")
    if env.reflectivity is not None:
        lines.append(f"reflectivity = {env.reflectivity!r}")
    if env.omega_edge is not None:
        lines.append(f"omega_edge = {env.omega_edge!r}")
    if env.curvature is not None:
        lines.append(f"curvature = {env.curvature!r}")
    if env.gapped_channels is not None:
        lines.append("gapped_channels = " + ", ".join(str(c) for c in env.gapped_channels))
    if env.k_diag is not None:
        lines.append("k_diag = " + ", ".join(repr(v) for v in env.k_diag))
    if env.include_spontaneous is not None:
        lines.append(f"include_spontaneous = {'true' if env.include_spontaneous else 'false'}")
    lines += ["", "[run]"]
    if run.command is not None:
        lines.append(f"command = {run.command}")
    lines.append(f"quad_order = {run.quad_order}")
    if run.dt is not None:
        lines.append(f"dt = {run.dt!r}")
    if run.t_final is not None:
        lines.append(f"t_final = {run.t_final!r}")
    lines.append(f"sample_every = {run.sample_every}")
    if run.rho0 is not None:
        lines.append(f"rho0 = {run.rho0}")
    lines.append(f"workers = {run.workers}")
    lines.append(f"populations_only = {'true' if run.populations_only else 'false'}")
    if run.out is not None:
        lines.append(f"out = {run.out}")
    lines.append(f"s_scale = {run.s_scale!r}")
    lines.append(f"n_scale = {run.n_scale!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets


PRESETS = {
    # alkali D-line doublet decaying in free space
    "dline-vacuum": """
        [system]
        kind = fine
        j_b = 3/2
        j_c = 1/2
        j_d = 1/2
        omega_bd = 1.3
        omega_cd = 1.0

        [environment]
        kind = vacuum

        [run]
        dt = 0.0025
        t_final = 7.5
        rho0 = uniform:b
    """,
    # D-line pumped by an isotropic unpolarized photon gas
    "dline-isotropic": """
        [system]
        kind = fine
        j_b = 3/2
        j_c = 1/2
        j_d = 1/2
        omega_bd = 1.3
        omega_cd = 1.0

        [environment]
        kind = isotropic
        n_mean = 1.0

        [run]
        dt = 0.002
        t_final = 6.0
        rho0 = thermal-ground
    """,
    # D-line pumped by an axisymmetric cos^2(theta) photon distribution
    "dline-cos2": """
        [system]
        kind = fine
        j_b = 3/2
        j_c = 1/2
        j_d = 1/2
        omega_bd = 1.3
        omega_cd = 1.0

        [environment]
        kind = cos2
        n_mean = 1.0

        [run]
        quad_order = 16
        dt = 0.002
        t_final = 6.0
        rho0 = thermal-ground
    """,
    # literal K injection: an externally specified anisotropic D-line table
    "dline-paper-k": """
        [system]
        kind = fine
        j_b = 3/2
        j_c = 1/2
        j_d = 1/2
        omega_bd = 1.3
        omega_cd = 1.0

        [environment]
        kind = injected
        k_diag = 4/75, 4/15, 4/75
    """,
    # D-line between planar mirrors; --r overrides the reflectivity
    "dline-cavity": """
        [system]
        kind = fine
        j_b = 3/2
        j_c = 1/2
        j_d = 1/2
        omega_bd = 1.3
        omega_cd = 1.0

        [environment]
        kind = cavity
        reflectivity = 0.5
    """,
    # band edge between the two transition frequencies: the pi channel of the
    # lower line falls inside the gap, so its coefficients vanish exactly and
    # the two cross coefficients become genuinely different numbers
    "dline-photonic": """
        [system]
        kind = fine
        j_b = 3/2
        j_c = 1/2
        j_d = 1/2
        omega_bd = 1.01
        omega_cd = 1.0

        [environment]
        kind = photonic
        omega_edge = 1.005
        curvature = 1.0
        gapped_channels = 0
    """,
    # two-level reduction: keep only the b channels of an equal-J pair
    "twolevel-decay": """
        [system]
        kind = fine
        j_b = 1
        j_c = 1
        j_d = 0
        omega_bd = 1.0
        omega_cd = 1.0
        restrict_excited = b

        [environment]
        kind = vacuum

        [run]
        dt = 0.002
        t_final = 7.5
        rho0 = single:b:1
    """,
    # sodium-like hyperfine D-line in a good planar cavity
    "sodium-hyperfine": """
        [system]
        kind = hyperfine
        j_b = 3/2
        j_c = 1/2
        j_d = 1/2
        omega_bd = 1.3
        omega_cd = 1.0
        nuclear_spin = 3/2
        f_offset_d_1 = 0.0
        f_offset_d_2 = 0.012
        f_offset_c_1 = 0.0
        f_offset_c_2 = 0.0013
        f_offset_b_0 = 0.0
        f_offset_b_1 = 0.0004
        f_offset_b_2 = 0.0011
        f_offset_b_3 = 0.0022

        [environment]
        kind = cavity
        reflectivity = 0.9

        [run]
        dt = 0.002
        t_final = 3.0
        rho0 = single:b:3:0
    """,
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def preset_config(name: str) -> ScenarioConfig:
    try:
        text = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
    return parse_config(textwrap.dedent(text))


# ---------------------------------------------------------------------------
# builders


def build_scheme(cfg: ScenarioConfig) -> LevelScheme | HyperfineScheme:
    """Level scheme with the run block's S scale folded into rate_scale."""
    system = cfg.system
    fine = LevelScheme(
        j_b=system.j_b,
        j_c=system.j_c,
        j_d=system.j_d,
        omega_bd=system.omega_bd,
        omega_cd=system.omega_cd,
        dipole_mode=system.dipole_mode,
        rate_scale=cfg.run.s_scale,
        mu_bd=system.mu_bd,
        mu_cd=system.mu_cd,
    )
    if system.kind == "fine":
        return fine
    return HyperfineScheme(
        fine=fine,
        nuclear_spin=system.nuclear_spin,
        f_offsets={(level, f): off for level, f, off in system.f_offsets},
    )


def scheme_basis(scheme: LevelScheme | HyperfineScheme) -> Basis:
    if isinstance(scheme, HyperfineScheme):
        return Basis.for_hyperfine(scheme)
    return Basis.for_fine(scheme)


def _modifier(env: EnvironmentConfig, reflectivity: Optional[float]) -> ModeDensityModifier:
    if env.kind == "cavity":
        r = env.reflectivity if reflectivity is None else reflectivity
        return ModeDensityModifier.planar_cavity(r)
    if env.kind == "photonic":
        return ModeDensityModifier.photonic_crystal(
            env.omega_edge, env.curvature, env.gapped_channels
        )
    return ModeDensityModifier.vacuum()


def _distribution(env: EnvironmentConfig, n_scale: float) -> AngularDistribution:
    if env.kind == "isotropic":
        dist = AngularDistribution.isotropic(env.n_mean)
    elif env.kind == "cos2":
        dist = AngularDistribution.axisymmetric_cos2(env.n_mean)
    else:
        dist = AngularDistribution.from_csv(env.distribution_csv)
    return dist if n_scale == 1.0 else dist.scaled(n_scale)


def _spontaneous_included(env: EnvironmentConfig) -> bool:
    if env.kind == "none":
        return False
    if env.kind in ("vacuum", "cavity", "photonic"):
        return True
    if env.include_spontaneous is not None:
        return env.include_spontaneous
    return env.kind in ("isotropic", "cos2", "tabulated")


def _restricted(rates: RateSet, level: str) -> RateSet:
    """Two-level reduction: drop every channel touching the other excited level."""

    def keep(key: tuple) -> bool:
        return all(part == level for part in key if isinstance(part, str))

    return RateSet(
        kind=rates.kind,
        scheme=rates.scheme,
        hyperfine=rates.hyperfine,
        upper={k: v for k, v in rates.upper.items() if keep(k)},
        feeding={k: v for k, v in rates.feeding.items() if keep(k)},
        ground=rates.ground,
    )


def build_rate_sets(
    cfg: ScenarioConfig,
    *,
    quad_order: Optional[int] = None,
    reflectivity: Optional[float] = None,
) -> list[tuple[str, RateSet]]:
    """All rate sets the scenario calls for, as (label, RateSet) pairs.

    Labels record provenance: "spontaneous" for decay through the (possibly
    modified) mode density, "stimulated" for distribution quadrature,
    "injected" for literal K values.  Order is fixed: spontaneous first.
    """
    run, env = cfg.run, cfg.environment
    quad = run.quad_order if quad_order is None else quad_order
    scheme = build_scheme(cfg)
    hyper = isinstance(scheme, HyperfineScheme)
    sets: list[tuple[str, RateSet]] = []
    if _spontaneous_included(env):
        mod = _modifier(env, reflectivity)
        if hyper:
            # flat modifiers only (validated), so one evaluation point serves
            k = k_spontaneous(mod, scheme.fine.omega_bd)
            sets.append(("spontaneous", rates_hyperfine(scheme, k)))
        else:
            k_b = k_spontaneous(mod, scheme.omega_bd)
            k_c = k_spontaneous(mod, scheme.omega_cd)
            sets.append(("spontaneous", rates_fine(scheme, k_b, k_c, kind="spontaneous")))
    if env.kind in ("isotropic", "cos2", "tabulated"):
        dist = _distribution(env, run.n_scale)
        rates = rates_stimulated(scheme, dist, ModeDensityModifier.vacuum(), quad_order=quad)
        sets.append(("stimulated", rates))
    elif env.kind == "injected":
        k = KMatrix.from_diagonal([v * run.n_scale for v in env.k_diag])
        if hyper:
            sets.append(("injected", rates_hyperfine(scheme, k)))
        else:
            sets.append(("injected", rates_injected(scheme, k)))
    if cfg.system.restrict_excited is not None:
        sets = [(label, _restricted(rs, cfg.system.restrict_excited)) for label, rs in sets]
    return sets


def build_kmatrix(
    cfg: ScenarioConfig,
    *,
    quad_order: Optional[int] = None,
    reflectivity: Optional[float] = None,
) -> KMatrix:
    """The scenario's helicity matrix, evaluated at omega_bd where it matters."""
    env, run = cfg.environment, cfg.run
    if env.kind == "none":
        raise ConfigError("environment kind 'none' defines no K matrix")
    if env.kind in ("vacuum", "cavity", "photonic"):
        return k_spontaneous(_modifier(env, reflectivity), cfg.system.omega_bd)
    if env.kind == "injected":
        return KMatrix.from_diagonal([v * run.n_scale for v in env.k_diag])
    quad = run.quad_order if quad_order is None else quad_order
    return k_stimulated(
        _distribution(env, run.n_scale),
        ModeDensityModifier.vacuum(),
        cfg.system.omega_bd,
        quad_order=quad,
    )


def build_rho0(
    cfg: ScenarioConfig,
    scheme: LevelScheme | HyperfineScheme,
    basis: Basis,
) -> np.ndarray:
    """Initial density matrix from the run block's rho0 string."""
    spec = cfg.run.rho0
    if spec is None:
        raise ConfigError(
            "[run] rho0 is required for propagation; there is no default "
            "initial state (use single:<level>:<M>, uniform:<level> or thermal-ground)"
        )
    hyper = isinstance(scheme, HyperfineScheme)
    n = len(basis)
    rho = np.zeros((n, n), dtype=complex)
    parts = spec.split(":")
    if spec == "thermal-ground":
        targets = [i for i, state in enumerate(basis) if state.level == "d"]
    elif parts[0] == "uniform":
        if len(parts) != 2 or parts[1] not in ("b", "c", "d"):
            raise ConfigError(f"rho0 {spec!r}: expected uniform:<level>")
        targets = [i for i, state in enumerate(basis) if state.level == parts[1]]
    elif parts[0] == "single":
        want = 4 if hyper else 3
        if len(parts) != want or parts[1] not in ("b", "c", "d"):
            shape = "single:<level>:<F>:<M>" if hyper else "single:<level>:<M>"
            raise ConfigError(f"rho0 {spec!r}: expected {shape}")
        try:
            if hyper:
                state = BasisState(parts[1], half(parts[3]), half(parts[2]))
            else:
                state = BasisState(parts[1], half(parts[2]))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"rho0 {spec!r}: {exc}") from None
        try:
            targets = [basis.index(state)]
        except SchemeError:
            raise ConfigError(
                f"rho0 {spec!r}: state {state.label()} is not in the basis"
            ) from None
    else:
        raise ConfigError(f"rho0 {spec!r} is not a recognized initial-state preset")
    if not targets:
        raise ConfigError(f"rho0 {spec!r} selects no basis states")
    weight = 1.0 / len(targets)
    for i in targets:
        rho[i, i] = weight
    return rho


def with_overrides(
    cfg: ScenarioConfig,
    *,
    workers: Optional[int] = None,
    quad_order: Optional[int] = None,
    out: Optional[str] = None,
    populations_only: Optional[bool] = None,
    reflectivity: Optional[float] = None,
) -> ScenarioConfig:
    """Config with CLI flag overrides applied (reflectivity requires cavity)."""
    run = cfg.run
    if workers is not None:
        if workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {workers}")
        run = replace(run, workers=workers)
    if quad_order is not None:
        if quad_order < 1:
            raise ConfigError(f"--quad-order must be >= 1, got {quad_order}")
        run = replace(run, quad_order=quad_order)
    if out is not None:
        run = replace(run, out=out)
    if populations_only:
        run = replace(run, populations_only=True)
    env = cfg.environment
    if reflectivity is not None:
        if env.kind != "cavity":
            raise ConfigError(
                f"--r overrides the cavity reflectivity and needs environment "
                f"kind = cavity, not {env.kind!r}"
            )
        env = replace(env, reflectivity=reflectivity)
    return ScenarioConfig(system=cfg.system, environment=env, run=run)
