"""Scenario configuration: INI schema, shipped presets, and object builders.

A scenario file is flat INI with three sections.  Unknown sections or keys
are rejected outright, with the offending line number in the message.

Two tables are the one source of this schema: ``_KEYS`` gives each key's
section, reader and bound, ``_ENV_KINDS`` each environment kind's keys and
photon source.  Parsing, the builders' kind dispatch and ``serialize_config``
derive from them and from the config dataclasses, which hold the defaults.

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
from dataclasses import MISSING, dataclass, field, fields, replace
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
    LEVEL_ORDER,
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
    "build_rate_sets",
    "build_kmatrix",
    "build_rho0",
    "COMMANDS",
]

COMMANDS = ("kmatrix", "rates", "superop", "evolve", "steady", "doctor")

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


def _to_float(raw: str) -> Optional[float]:
    """``raw`` as a float, read as a fraction such as ``1/3`` if it is not
    a plain number; None if it is neither."""
    try:
        return float(raw)
    except ValueError:
        try:
            return float(Fraction(raw))
        except (ValueError, ZeroDivisionError):
            return None


class _SectionReader:
    """Typed access to one INI section with line-anchored errors.

    Each reader turns the stripped, non-empty text of one key into its value.
    """

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

    def text(self, key: str, raw: str) -> str:
        return raw

    def number(self, key: str, raw: str) -> float:
        value = _to_float(raw)
        if value is None:
            raise self.error(key, f"{raw!r} is not a number")
        if not math.isfinite(value):
            raise self.error(key, f"{raw!r} is not finite")
        return value

    def integer(self, key: str, raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise self.error(key, f"{raw!r} is not an integer") from None

    def boolean(self, key: str, raw: str) -> bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise self.error(key, f"{raw!r} is not a boolean")

    def halfint(self, key: str, raw: str) -> HalfInt:
        try:
            return half(raw)
        except (ValueError, TypeError) as exc:
            raise self.error(key, str(exc)) from None

    def choice(self, key: str, raw: str, allowed: Sequence[str]) -> str:
        if raw not in allowed:
            raise self.error(key, f"{raw!r} is not one of {', '.join(allowed)}")
        return raw

    def channels(self, key: str, raw: str) -> tuple[int, ...]:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        try:
            channels = tuple(int(p) for p in parts)
        except ValueError:
            raise self.error(key, f"{raw!r} is not a channel list") from None
        if not channels or any(c not in (-1, 0, 1) for c in channels):
            raise self.error(key, "channels must come from -1, 0, +1")
        return tuple(sorted(set(channels)))

    def k_values(self, key: str, raw: str) -> tuple[float, float, float]:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if len(parts) != 3:
            raise self.error(key, "needs exactly three values (sigma = -1, 0, +1)")
        values = []
        for part in parts:
            value = _to_float(part)
            if value is None:
                raise self.error(key, f"{part!r} is not a number")
            if not math.isfinite(value) or value < 0:
                raise self.error(key, f"{part!r} is not a finite value >= 0")
            values.append(value)
        return (values[0], values[1], values[2])

    def initial_state(self, key: str, raw: str) -> str:
        if raw.split(":", 1)[0] not in ("single", "uniform") and raw != "thermal-ground":
            raise self.error(
                key, f"{raw!r} is not single:<level>:..., uniform:<level> or thermal-ground"
            )
        return raw


@dataclass(frozen=True)
class _EnvKind:
    """The keys one environment kind takes, and its photon source: "none"
    (spontaneous decay only, through the kind's mode density),
    "distribution" (quadrature over an angular photon distribution) or
    "injected" (literal K values)."""

    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    photons: str = "none"


# Every environment kind, once.  Ownership of the optional keys, the required
# keys, and the builders' choice of rate sets and K matrix all come from here.
_ENV_KINDS = {
    "none": _EnvKind(),
    "vacuum": _EnvKind(),
    "isotropic": _EnvKind(("n_mean",), ("include_spontaneous",), "distribution"),
    "cos2": _EnvKind(("n_mean",), ("include_spontaneous",), "distribution"),
    "tabulated": _EnvKind(("distribution_csv",), ("include_spontaneous",), "distribution"),
    "cavity": _EnvKind(("reflectivity",)),
    "photonic": _EnvKind(("omega_edge", "curvature", "gapped_channels")),
    "injected": _EnvKind(("k_diag",), ("include_spontaneous",), "injected"),
}

_R = _SectionReader
_NON_NEGATIVE = (">= 0", lambda value: value >= 0)
_AT_LEAST_ONE = (">= 1", lambda value: value >= 1)
_POSITIVE = ("> 0", lambda value: value > 0)
# Every INI key, once: section -> key -> (reader, bound).  A reader is a
# _SectionReader method, or the tuple of words the key allows; a bound pairs
# its message text with the test a value must pass.  Values are read in table
# order, which decides which of two bad values is reported first.  Defaults
# are the dataclass defaults; a field without one is a required key.
_KEYS = {
    "system": {
        "kind": (("fine", "hyperfine"), None),
        "j_b": (_R.halfint, None),
        "j_c": (_R.halfint, None),
        "j_d": (_R.halfint, None),
        "omega_bd": (_R.number, None),
        "omega_cd": (_R.number, None),
        "dipole_mode": (("alkali", "explicit"), None),
        "mu_bd": (_R.number, None),
        "mu_cd": (_R.number, None),
        "nuclear_spin": (_R.halfint, None),
        "restrict_excited": (("b", "c"), None),
    },
    "environment": {
        "kind": (tuple(_ENV_KINDS), None),
        "gapped_channels": (_R.channels, None),
        "k_diag": (_R.k_values, None),
        "n_mean": (_R.number, _NON_NEGATIVE),
        "distribution_csv": (_R.text, None),
        "reflectivity": (_R.number, None),
        "omega_edge": (_R.number, None),
        "curvature": (_R.number, None),
        "include_spontaneous": (_R.boolean, None),
    },
    "run": {
        "command": (COMMANDS, None),
        "quad_order": (_R.integer, _AT_LEAST_ONE),
        "sample_every": (_R.integer, _AT_LEAST_ONE),
        "dt": (_R.number, _POSITIVE),
        "t_final": (_R.number, _POSITIVE),
        "s_scale": (_R.number, _POSITIVE),
        "n_scale": (_R.number, _NON_NEGATIVE),
        "rho0": (_R.initial_state, None),
        "populations_only": (_R.boolean, None),
        "out": (_R.text, None),
    },
}


def _read(section: _SectionReader, keys) -> dict:
    """The values of ``keys``, in order, each within its bound; None if absent."""
    values = {}
    for key in keys:
        reader, bound = _KEYS[section.name][key]
        raw = section.get(key)
        if raw is None:
            values[key] = None
            continue
        if isinstance(reader, tuple):
            value = section.choice(key, raw, reader)
        else:
            value = reader(section, key, raw)
        if bound is not None and not bound[1](value):
            raise section.error(key, f"must be {bound[0]}")
        values[key] = value
    return values


def _open(section: _SectionReader, cls, extra_ok=None) -> Optional[str]:
    """The checks that come before any value is read: unknown keys, the
    kind's value, then the presence of every required key.  Returns the kind."""
    table = _KEYS[section.name]
    for key in section.raw:
        if key not in table and not (extra_ok is not None and extra_ok(key)):
            raise section.error(key, "unknown key")
    kind = _read(section, ("kind",))["kind"] if "kind" in table else None
    for f in fields(cls):
        if f.default is MISSING and section.get(f.name) is None:
            raise ConfigError(f"[{section.name}] is missing required key '{f.name}'")
    return kind


def _given(values: dict) -> dict:
    """The values that were set; the dataclass defaults stand for the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _parse_system(section: _SectionReader) -> SystemConfig:
    kind = _open(section, SystemConfig, extra_ok=_F_OFFSET_RE.match)
    keys = tuple(_KEYS["system"])
    split = keys.index("nuclear_spin")  # the dipole rule comes before the rest
    values = _read(section, keys[:split])
    mu_bd, mu_cd = values["mu_bd"], values["mu_cd"]
    dipole_mode = values["dipole_mode"] or SystemConfig.dipole_mode
    if dipole_mode == "explicit" and (mu_bd is None or mu_cd is None):
        raise section.error("dipole_mode", "explicit mode requires mu_bd and mu_cd")
    if dipole_mode == "alkali" and (mu_bd is not None or mu_cd is not None):
        key = "mu_bd" if mu_bd is not None else "mu_cd"
        raise section.error(key, "dipole moments require dipole_mode = explicit")
    values.update(_read(section, keys[split:]))
    offsets: list[tuple[str, HalfInt, float]] = []
    for key in section.raw:
        match = _F_OFFSET_RE.match(key)
        if not match:
            continue
        if kind != "hyperfine":
            raise section.error(key, "hyperfine offsets need kind = hyperfine")
        f_value = section.halfint(key, match.group(2))
        offsets.append((match.group(1), f_value, section.number(key, section.get(key))))
    if kind == "hyperfine" and values["nuclear_spin"] is None:
        raise ConfigError("[system] kind = hyperfine requires nuclear_spin")
    if kind == "fine" and values["nuclear_spin"] is not None:
        raise section.error("nuclear_spin", "only meaningful for kind = hyperfine")
    offsets.sort(key=lambda item: (LEVEL_ORDER.index(item[0]), item[1].twice))
    return SystemConfig(f_offsets=tuple(offsets), **_given(values))


def _parse_environment(section: _SectionReader) -> EnvironmentConfig:
    kind = _open(section, EnvironmentConfig)
    # ownership is checked in field order, after the kind and before any value
    for f in fields(EnvironmentConfig)[1:]:
        owners = [name for name, spec in _ENV_KINDS.items()
                  if f.name in spec.required + spec.optional]
        if f.name in section.raw and kind not in owners:
            raise section.error(
                f.name, f"only meaningful for kind {' or '.join(repr(o) for o in owners)}"
            )
    for key in _ENV_KINDS[kind].required:
        if key not in section.raw:
            raise ConfigError(f"[environment] kind = {kind} requires key '{key}'")
    return EnvironmentConfig(**_given(_read(section, _KEYS["environment"])))


def _parse_run(section: _SectionReader) -> RunConfig:
    _open(section, RunConfig)
    return RunConfig(**_given(_read(section, _KEYS["run"])))


def _cross_validate(cfg: ScenarioConfig) -> None:
    system, env = cfg.system, cfg.environment
    photons = _ENV_KINDS[env.kind].photons
    if system.kind == "hyperfine" and photons == "distribution":
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
    if system.restrict_excited is not None and photons != "none":
        spontaneous_only = [name for name, spec in _ENV_KINDS.items() if spec.photons == "none"]
        raise ConfigError(
            "restrict_excited implements the two-level reduction of the decay "
            "tables and is only meaningful for spontaneous-only environments "
            f"({', '.join(spontaneous_only)}), not {env.kind!r}"
        )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate an INI scenario; raises ConfigError on any defect."""
    # no header can name the default section, so [DEFAULT] is an ordinary
    # (and unknown) section instead of keys merged into every other one
    parser = configparser.ConfigParser(
        interpolation=None, strict=True, default_section="\n"
    )
    parser.optionxform = str  # keep key case as written
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"INI parse failure: {exc}") from None
    lines = _key_lines(text)
    for name in parser.sections():
        if name not in _KEYS:
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
    run = _parse_run(_SectionReader("run", parser["run"] if "run" in parser else {}, lines))
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


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_ini_value(item) for item in value)
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical INI form; parse(serialize(cfg)) == cfg.

    One section per ScenarioConfig field and one key per field of its
    object; unset (None) values are omitted and ``f_offsets`` becomes
    ``f_offset_<level>_<F>`` lines.
    """
    blocks = []
    for section in fields(cfg):
        obj = getattr(cfg, section.name)
        lines = [f"[{section.name}]"]
        for f in fields(obj):
            value = getattr(obj, f.name)
            if f.name == "f_offsets":
                lines += [f"f_offset_{lvl}_{f_value} = {off!r}" for lvl, f_value, off in value]
            elif value is not None:
                lines.append(f"{f.name} = {_ini_value(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


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


def _modifier(env: EnvironmentConfig) -> ModeDensityModifier:
    if env.kind == "cavity":
        return ModeDensityModifier.planar_cavity(env.reflectivity)
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
    photons = _ENV_KINDS[env.kind].photons
    if photons == "none":
        return env.kind != "none"
    if env.include_spontaneous is not None:
        return env.include_spontaneous
    return photons == "distribution"


def build_rate_sets(cfg: ScenarioConfig) -> list[tuple[str, RateSet]]:
    """All rate sets the scenario calls for, as (label, RateSet) pairs.

    Labels record provenance: "spontaneous" for decay through the (possibly
    modified) mode density, "stimulated" for distribution quadrature,
    "injected" for literal K values.  Order is fixed: spontaneous first.
    """
    return _rate_sets(cfg, build_scheme(cfg))


def _rate_sets(cfg: ScenarioConfig, scheme) -> list[tuple[str, RateSet]]:
    """``build_rate_sets`` over the scheme that ``build_scheme(cfg)`` built."""
    run, env = cfg.run, cfg.environment
    photons = _ENV_KINDS[env.kind].photons
    hyper = isinstance(scheme, HyperfineScheme)
    sets: list[tuple[str, RateSet]] = []
    if _spontaneous_included(env):
        mod = _modifier(env)
        if hyper:
            # flat modifiers only (validated), so one evaluation point serves
            k = k_spontaneous(mod, scheme.fine.omega_bd)
            sets.append(("spontaneous", rates_hyperfine(scheme, k)))
        else:
            k_b = k_spontaneous(mod, scheme.omega_bd)
            k_c = k_spontaneous(mod, scheme.omega_cd)
            sets.append(("spontaneous", rates_fine(scheme, k_b, k_c)))
    if photons == "distribution":
        dist = _distribution(env, run.n_scale)
        rates = rates_stimulated(
            scheme, dist, ModeDensityModifier.vacuum(), quad_order=run.quad_order
        )
        sets.append(("stimulated", rates))
    elif photons == "injected":
        k = KMatrix.from_diagonal([v * run.n_scale for v in env.k_diag])
        if hyper:
            sets.append(("injected", rates_hyperfine(scheme, k)))
        else:
            sets.append(("injected", rates_injected(scheme, k)))
    if cfg.system.restrict_excited is not None:
        sets = [(label, rs.restricted(cfg.system.restrict_excited)) for label, rs in sets]
    return sets


def build_kmatrix(cfg: ScenarioConfig) -> KMatrix:
    """The scenario's helicity matrix, evaluated at omega_bd where it matters."""
    env, run = cfg.environment, cfg.run
    photons = _ENV_KINDS[env.kind].photons
    if env.kind == "none":
        raise ConfigError("environment kind 'none' defines no K matrix")
    if photons == "none":
        return k_spontaneous(_modifier(env), cfg.system.omega_bd)
    if photons == "injected":
        return KMatrix.from_diagonal([v * run.n_scale for v in env.k_diag])
    return k_stimulated(
        _distribution(env, run.n_scale),
        ModeDensityModifier.vacuum(),
        cfg.system.omega_bd,
        quad_order=run.quad_order,
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
    quad_order: Optional[int] = None,
    out: Optional[str] = None,
    populations_only: Optional[bool] = None,
    reflectivity: Optional[float] = None,
) -> ScenarioConfig:
    """Config with CLI flag overrides applied (reflectivity requires cavity)."""
    run = cfg.run
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
