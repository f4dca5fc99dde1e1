"""INI scenario parsing, presets, and scenario-to-object builders."""

import hashlib
import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from vrelax.cli import main
from vrelax.config import (
    PRESETS,
    ConfigError,
    build_kmatrix,
    build_rate_sets,
    build_rho0,
    build_scheme,
    load_config,
    parse_config,
    preset_config,
    preset_names,
    serialize_config,
    with_overrides,
)
from vrelax.errors import VrelaxError
from vrelax.halfint import half
from vrelax.operators import Basis, HyperfineScheme, LevelScheme

DLINE = """\
[system]
kind = fine
j_b = 3/2
j_c = 1/2
j_d = 1/2
omega_bd = 1.3
omega_cd = 1.0
dipole_mode = alkali

[environment]
kind = vacuum

[run]
command = rates
"""


def dline(**swaps: str) -> str:
    text = DLINE
    for old, new in swaps.items():
        key = old.replace("_", " ", 0)
        assert key  # keep the helper honest if someone passes an empty swap
        text = text.replace(swaps_key(old), new)
    return text


def swaps_key(name: str) -> str:
    # Map a python identifier to the literal line it replaces.
    return {
        "env": "kind = vacuum",
        "run": "command = rates",
        "jb": "j_b = 3/2",
        "system": "kind = fine",
    }[name]


class TestParsing:
    def test_typed_fields(self):
        cfg = parse_config(DLINE)
        assert cfg.system.kind == "fine"
        assert cfg.system.j_b == half("3/2")
        assert cfg.system.j_c == half("1/2")
        assert cfg.system.j_d == half("1/2")
        assert cfg.system.omega_bd == 1.3
        assert cfg.system.dipole_mode == "alkali"
        assert cfg.environment.kind == "vacuum"
        assert cfg.run.command == "rates"
        assert cfg.run.workers == 1
        assert cfg.run.quad_order == 16

    def test_fractional_values_parse_exactly(self):
        text = dline(env="kind = injected\nk_diag = 4/75, 4/15, 4/75")
        cfg = parse_config(text)
        assert cfg.environment.k_diag == (
            float(Fraction(4, 75)),
            float(Fraction(4, 15)),
            float(Fraction(4, 75)),
        )

    def test_whole_line_comments_are_ignored(self):
        cfg = parse_config("# scenario file\n" + DLINE.replace(
            "[run]", "; run block\n[run]"))
        assert cfg.run.command == "rates"

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(DLINE, encoding="utf-8")
        assert load_config(str(path)) == parse_config(DLINE)


class TestStrictRejection:
    """Every unknown or ill-typed entry is an error with a line anchor."""

    def check(self, text, *needles):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        for needle in needles:
            assert needle in str(err.value), str(err.value)

    def test_unknown_section(self):
        self.check(DLINE + "\n[extra]\nx = 1\n", "line 16", "unknown section [extra]")

    def test_default_section_is_an_unknown_section(self, tmp_path):
        # configparser would merge [DEFAULT] into every section and report
        # its keys there ("[system] dt: unknown key"); it is a section like
        # any other, and an unknown one
        text = DLINE + "\n[DEFAULT]\ndt = 0.1\n"
        self.check(text, "line 16", "unknown section [DEFAULT]")
        path = tmp_path / "default.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["rates", "--config", str(path)]) == 2

    def test_unknown_key(self):
        self.check(dline(system="kind = fine\nbogus = 1"), "line 3", "bogus: unknown key")

    def test_env_key_under_wrong_kind(self):
        self.check(
            dline(env="kind = isotropic\nn_mean = 1.0\nreflectivity = 0.5"),
            "reflectivity: only meaningful for kind 'cavity'",
        )

    def test_k_diag_needs_three_entries(self):
        self.check(
            dline(env="kind = injected\nk_diag = 1, 2"),
            "needs exactly three values",
        )

    def test_missing_required_env_key(self):
        self.check(dline(env="kind = cavity"), "reflectivity")

    def test_bad_halfint(self):
        self.check(dline(jb="j_b = fish"), "line 3", "cannot parse quantum number 'fish'")

    def test_bad_integer(self):
        self.check(dline(run="command = rates\nworkers = maybe"), "'maybe' is not an integer")

    def test_bad_boolean(self):
        self.check(
            dline(run="command = rates\npopulations_only = perhaps"),
            "'perhaps' is not a boolean",
        )

    def test_empty_value(self):
        self.check(dline(jb="j_b ="), "line 3", "empty value")

    def test_nonfinite_number(self):
        self.check(dline(env="kind = isotropic\nn_mean = inf"), "'inf' is not finite")

    def test_gapped_channel_values(self):
        self.check(
            dline(
                env="kind = photonic\nomega_edge = 1.005\ncurvature = 1.0\n"
                "gapped_channels = 0, 7"
            ),
            "channels must come from -1, 0, +1",
        )

    def test_bad_rho0_shape(self):
        self.check(
            dline(run="command = rates\nrho0 = everything"),
            "'everything' is not single:",
        )

    def test_hyperfine_requires_nuclear_spin(self):
        self.check(dline(system="kind = hyperfine"), "requires nuclear_spin")

    def test_fine_forbids_nuclear_spin(self):
        self.check(
            dline(system="kind = fine\nnuclear_spin = 3/2"),
            "only meaningful for kind = hyperfine",
        )

    def test_fine_forbids_f_offsets(self):
        self.check(
            dline(system="kind = fine\nf_offset_b_2 = 0.1"),
            "hyperfine offsets need kind = hyperfine",
        )

    def test_bad_command(self):
        self.check(dline(run="command = simulate"), "command")

    def test_duplicate_key_rejected_by_parser(self):
        self.check(dline(jb="j_b = 3/2\nj_b = 5/2"), "j_b")


class TestCrossValidation:
    HF = """\
[system]
kind = hyperfine
j_b = 3/2
j_c = 1/2
j_d = 1/2
nuclear_spin = 3/2

[environment]
kind = {env}

[run]
command = rates
"""

    def test_hyperfine_rejects_distribution_kinds(self):
        text = self.HF.format(env="cos2\nn_mean = 1.0")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "not available for hyperfine schemes" in str(err.value)

    def test_hyperfine_rejects_photonic(self):
        text = self.HF.format(
            env="photonic\nomega_edge = 1.1\ncurvature = 1.0\ngapped_channels = 0"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "share a single helicity matrix" in str(err.value)

    def test_restrict_excited_needs_spontaneous_only_environment(self):
        text = dline(
            system="kind = fine\nrestrict_excited = b",
            env="kind = injected\nk_diag = 1, 1, 1",
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "spontaneous-only" in str(err.value)

    def test_restrict_excited_with_vacuum_is_fine(self):
        cfg = parse_config(dline(system="kind = fine\nrestrict_excited = b"))
        assert cfg.system.restrict_excited == "b"


class TestPresets:
    def test_known_names(self):
        names = preset_names()
        assert "dline-vacuum" in names
        assert "dline-paper-k" in names
        assert "sodium-hyperfine" in names
        assert len(names) == len(set(names))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("dline-typo")

    @pytest.mark.parametrize("name", preset_names())
    def test_serialize_round_trip_is_identity(self, name):
        cfg = preset_config(name)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_paper_k_preset_carries_the_injection_matrix(self):
        cfg = preset_config("dline-paper-k")
        assert cfg.environment.kind == "injected"
        assert cfg.environment.k_diag == pytest.approx((4 / 75, 4 / 15, 4 / 75), abs=0)

    def test_photonic_preset_gaps_only_the_pi_channel(self):
        cfg = preset_config("dline-photonic")
        assert cfg.environment.gapped_channels == (0,)
        assert cfg.system.omega_bd > cfg.environment.omega_edge > cfg.system.omega_cd

    def test_sodium_preset_structure(self):
        cfg = preset_config("sodium-hyperfine")
        assert cfg.system.kind == "hyperfine"
        assert cfg.system.nuclear_spin == half("3/2")
        levels = {(lvl, f) for lvl, f, _ in cfg.system.f_offsets}
        assert ("d", half(2)) in levels and ("b", half(3)) in levels


class TestBuilders:
    def test_build_scheme_fine(self):
        scheme = build_scheme(parse_config(DLINE))
        assert isinstance(scheme, LevelScheme)
        assert scheme.j_b == half("3/2")
        assert scheme.omega_bd == 1.3

    def test_build_scheme_hyperfine(self):
        scheme = build_scheme(preset_config("sodium-hyperfine"))
        assert isinstance(scheme, HyperfineScheme)
        assert scheme.nuclear_spin == half("3/2")

    def test_scheme_basis_orders_ground_first(self):
        cfg = parse_config(DLINE)
        basis = Basis.for_scheme(build_scheme(cfg))
        labels = [state.level for state in basis.states]
        assert labels == sorted(labels, key=("d", "c", "b").index)

    def test_injected_preset_yields_one_injected_set(self):
        cfg = preset_config("dline-paper-k")
        sets = build_rate_sets(cfg)
        assert [label for label, _ in sets] == ["injected"]

    def test_vacuum_preset_yields_spontaneous_only(self):
        cfg = preset_config("dline-vacuum")
        sets = build_rate_sets(cfg)
        assert [label for label, _ in sets] == ["spontaneous"]

    def test_isotropic_preset_includes_both_by_default(self):
        cfg = preset_config("dline-isotropic")
        sets = build_rate_sets(cfg)
        assert [label for label, _ in sets] == ["spontaneous", "stimulated"]

    def test_none_environment_has_no_rate_content(self):
        cfg = parse_config(dline(env="kind = none"))
        assert build_rate_sets(cfg) == []
        with pytest.raises(ConfigError):
            build_kmatrix(cfg)

    def test_injected_kmatrix_matches_the_diagonal(self):
        cfg = preset_config("dline-paper-k")
        k = build_kmatrix(cfg)
        diag = [k.entry(s, s).real for s in (-1, 0, 1)]
        assert diag == pytest.approx([4 / 75, 4 / 15, 4 / 75], abs=1e-15)

    def test_restricted_tables_keep_one_excited_level(self):
        cfg = parse_config(dline(system="kind = fine\nrestrict_excited = b"))
        (_, rates), = build_rate_sets(cfg)
        for key in rates.upper:
            assert key[0] == "b" and key[2] == "b"
        for key in rates.feeding:
            assert key[0] == "b" and key[3] == "b"


class TestRho0Builder:
    def fine_parts(self, rho0):
        cfg = parse_config(dline(run=f"command = evolve\ndt = 0.01\nt_final = 0.1\nrho0 = {rho0}"))
        scheme = build_scheme(cfg)
        basis = Basis.for_scheme(scheme)
        return cfg, scheme, basis

    def test_single_sublevel(self):
        cfg, scheme, basis = self.fine_parts("single:b:3/2")
        rho = build_rho0(cfg, scheme, basis)
        idx = [i for i, s in enumerate(basis.states) if s.level == "b" and s.m == half("3/2")]
        assert rho[idx[0], idx[0]] == 1.0
        assert np.trace(rho) == pytest.approx(1.0, abs=0)

    def test_level_uniform(self):
        cfg, scheme, basis = self.fine_parts("uniform:b")
        rho = build_rho0(cfg, scheme, basis)
        b_idx = [i for i, s in enumerate(basis.states) if s.level == "b"]
        for i in b_idx:
            assert rho[i, i] == pytest.approx(0.25, abs=0)
        assert np.count_nonzero(rho) == len(b_idx)

    def test_thermal_ground(self):
        cfg, scheme, basis = self.fine_parts("thermal-ground")
        rho = build_rho0(cfg, scheme, basis)
        d_idx = [i for i, s in enumerate(basis.states) if s.level == "d"]
        for i in d_idx:
            assert rho[i, i] == pytest.approx(1.0 / len(d_idx), abs=0)

    def test_hyperfine_single_needs_f_and_m(self):
        cfg = preset_config("sodium-hyperfine")
        scheme = build_scheme(cfg)
        basis = Basis.for_scheme(scheme)
        rho = build_rho0(cfg, scheme, basis)  # preset pins single:b:3:0
        assert np.trace(rho) == pytest.approx(1.0, abs=0)
        hot = int(np.argmax(np.diag(rho).real))
        state = basis.states[hot]
        assert (state.level, state.f, state.m) == ("b", half(3), half(0))

    def test_missing_rho0_is_an_error(self):
        cfg = parse_config(dline(run="command = evolve\ndt = 0.01\nt_final = 0.1"))
        scheme = build_scheme(cfg)
        with pytest.raises(ConfigError):
            build_rho0(cfg, scheme, Basis.for_scheme(scheme))

    def test_sublevel_outside_basis_is_an_error(self):
        cfg, scheme, basis = self.fine_parts("single:b:9/2")
        with pytest.raises(ConfigError):
            build_rho0(cfg, scheme, basis)


class TestOverrides:
    def test_worker_and_quad_overrides(self):
        cfg = preset_config("dline-cos2")
        out = with_overrides(cfg, workers=8, quad_order=24, out="x.csv")
        assert out.run.workers == 8
        assert out.run.quad_order == 24
        assert out.run.out == "x.csv"
        # the original is untouched
        assert cfg.run.workers == 1

    def test_reflectivity_override_requires_cavity(self):
        with pytest.raises(ConfigError):
            with_overrides(preset_config("dline-vacuum"), reflectivity=0.5)
        out = with_overrides(preset_config("dline-cavity"), reflectivity=0.99)
        assert out.environment.reflectivity == 0.99


# ---------------------------------------------------------------------------
# single-defect battery over the presets

_BATTERY_KEYS = {
    "system": (
        "kind", "j_b", "j_c", "j_d", "omega_bd", "omega_cd", "dipole_mode", "mu_bd",
        "mu_cd", "nuclear_spin", "restrict_excited", "f_offset_b_1", "colour",
    ),
    "environment": (
        "kind", "n_mean", "distribution_csv", "reflectivity", "omega_edge", "curvature",
        "gapped_channels", "k_diag", "include_spontaneous", "colour",
    ),
    "run": (
        "command", "quad_order", "dt", "t_final", "sample_every", "rho0", "workers",
        "populations_only", "out", "s_scale", "n_scale", "colour",
    ),
}
_BATTERY_VALUES = (
    "", "x", "-1", "0", "1/0", "inf", "nan", "-1, 0, 1", "hyperfine", "tabulated",
    "explicit",
)


def _battery_cases():
    """(label, INI lines): each preset with exactly one defect."""
    for name in preset_names():
        lines = textwrap.dedent(PRESETS[name]).strip().splitlines()
        if "[run]" not in lines:
            lines += ["", "[run]"]
        keyed = [i for i, line in enumerate(lines) if "=" in line]
        present = {lines[i].split("=")[0].strip() for i in keyed}
        for i in keyed:
            key = lines[i].split("=")[0].strip()
            yield f"{name} drop {key}", lines[:i] + lines[i + 1:]
            for value in _BATTERY_VALUES:
                yield f"{name} set {key}={value}", [
                    *lines[:i], f"{key} = {value}", *lines[i + 1:]]
        for section, keys in _BATTERY_KEYS.items():
            at = lines.index(f"[{section}]") + 1
            for key in [key for key in keys if key not in present]:
                for value in _BATTERY_VALUES:
                    yield f"{name} add [{section}] {key}={value}", [
                        *lines[:at], f"{key} = {value}", *lines[at:]]
        yield f"{name} extra section", lines + ["[extra]", "x = 1"]
        start, stop = lines.index("[environment]"), lines.index("[run]")
        yield f"{name} no environment", lines[:start] + lines[stop:]


def _battery_outcome(lines) -> str:
    try:
        return "ok " + serialize_config(parse_config("\n".join(lines) + "\n"))
    except VrelaxError as exc:
        return f"{type(exc).__name__} {exc}"


# sha256 of the outcome listing; a change here changes what some INI
# file means or which defect it reports first
BATTERY_SHA256 = "2e1a2782ed59f2288ca362e9d0343231a7b0d116fe6cb0d6de50ee900b98c43e"


def test_parse_battery_outcomes_are_pinned():
    listing = "".join(
        f"{label}: {_battery_outcome(lines)!r}\n" for label, lines in _battery_cases()
    )
    assert hashlib.sha256(listing.encode()).hexdigest() == BATTERY_SHA256
