"""Every input fails typed: a property over scenarios built from the config schema.

Each example starts from a preset's canonical INI (``serialize_config``) and
sets or deletes one to three of its keys, each drawn from ``config._KEYS`` (or
an ``f_offset_<level>_<F>`` key) with a value chosen by the key's reader: edge
numbers (0, -0, +-inf, nan, 5e-324, 1e-300, 1e300, 1.7e308), quantum numbers
off the ladder or above the factorial cap, every word a choice allows and one
it does not.  An environment kind drawn from ``_ENV_KINDS`` comes with its
required keys and loses the keys of the kind it replaces, so that most draws
reach the builders.  A new key is fuzzed without editing this file.  Each
example runs one of ``kmatrix``, ``rates``, ``superop``, ``steady`` and
``evolve`` in-process through ``cli.main``, with CLI overrides drawn too, and
with an earlier ``--out`` file in place.  It checks that:

* the exit code is 0, 1, 2 or 3;
* a nonzero exit writes one stderr line, starting ``vrelax: ``, and no
  traceback (an exception out of ``main`` fails the example), and no run
  warns but for the RK4 step-size warning of ``propagate``;
* an exit-0 CSV holds no ``nan`` or ``inf`` cell;
* a failed run leaves the earlier ``--out`` file as it was.

Draws stay small: quantum numbers up to 3/2, ``quad_order`` up to 64, at most
50 steps (``dt`` and ``t_final`` are drawn as one pair).
"""

import math
import pathlib
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vrelax import cli, config
from vrelax.config import _ENV_KINDS, _KEYS, preset_config, preset_names, serialize_config

_R = config._SectionReader
NUMBERS = ["0", "-0", "1", "0.5", "1.3", "1/3", "-1", "inf", "-inf", "nan",
           "5e-324", "1e-300", "1e300", "1.7e308", "x"]
HALFINTS = ["0", "1/2", "1", "3/2", "-1/2", "2/3", "27/2", "x"]
BY_READER = {
    _R.number: NUMBERS,
    _R.halfint: HALFINTS,
    _R.integer: ["0", "1", "3", "4", "16", "64", "-2", "1.5", "x"],
    _R.boolean: ["true", "false", "maybe"],
    _R.channels: ["0", "-1, 1", "-1, 0, 1", "2", "x"],
    _R.k_values: ["4/75, 4/15, 4/75", "0, 0, 0", "1, 2", "nan, 1, 1",
                  "1e308, 1e308, 1e308", "5e-324, 0, 1", "-1, 0, 1"],
    _R.initial_state: ["thermal-ground", "uniform:b", "uniform:d", "single:b:1/2",
                       "single:c:1:1", "single:d:7/2", "single:x", "bogus"],
}
# (dt, t_final): at most 50 steps when both are valid, and every way to be invalid
VALID_STEPS = [("0.1", "1"), ("0.5", "25"), ("1e-300", "5e-299"), ("4.25e307", "1.7e308")]
STEPS = VALID_STEPS * 3 + [("0.3", "1"), ("2", "1"), ("0", "1"), ("-0", "1"), ("nan", "1"),
                           ("1", "inf"), ("1e-300", "1"), ("5e-324", "1e-300"), ("x", "1")]
COMMANDS = ("kmatrix", "rates", "superop", "steady", "evolve")
EARLIER = "an earlier result\n"


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as name:
        root = pathlib.Path(name)
        rows = ["theta_rad,phi_rad,lambda,n_mean"]
        for theta in (0.0, math.pi / 2, math.pi):
            for phi in (0.0, math.pi):
                rows += [f"{theta!r},{phi!r},{lam},{1.0 + theta + lam / 2}" for lam in (-1, 1)]
        (root / "field.csv").write_text("\n".join(rows) + "\n")
        (root / "bad.csv").write_text("theta_rad,phi_rad,lambda,n_mean\n0,0,2,1\n")
        yield root


def values_of(section: str, key: str, root: pathlib.Path) -> list[str]:
    reader = _KEYS[section][key][0]
    if isinstance(reader, tuple):  # a choice: every word it allows, and one it does not
        return [*reader, "bogus"]
    if key == "distribution_csv":
        return [str(root / "field.csv"), str(root / "bad.csv"), str(root / "missing.csv")]
    return BY_READER.get(reader, NUMBERS + HALFINTS)


def owned_keys(sections: dict, every_key: list) -> list[tuple[str, str]]:
    """The keys the drawn kinds and dipole mode take, so that most draws parse."""
    system, environment = sections["system"], sections["environment"]
    kind = _ENV_KINDS.get(environment.get("kind"), _ENV_KINDS["none"])
    foreign = {("environment", key) for key in _KEYS["environment"]} - {
        ("environment", key) for key in ("kind", *kind.required, *kind.optional)}
    if system.get("kind") != "hyperfine":
        foreign.add(("system", "nuclear_spin"))
    if system.get("dipole_mode") != "explicit":
        foreign |= {("system", "mu_bd"), ("system", "mu_cd")}
    return [key for key in every_key if key not in foreign]


@st.composite
def scenarios(draw, root: pathlib.Path):
    """(INI text, command, extra CLI arguments)."""
    cfg = preset_config(draw(st.sampled_from(preset_names())))
    sections: dict[str, dict[str, str]] = {}
    for block in serialize_config(cfg).strip().split("\n\n"):
        head, *lines = block.splitlines()
        sections[head.strip("[]")] = dict(line.split(" = ", 1) for line in lines)
    run = sections["run"]
    every_key = [(section, key) for section in _KEYS for key in _KEYS[section]
                 if (section, key) not in (("run", "dt"), ("run", "t_final"))]
    command = draw(st.sampled_from(COMMANDS))
    if command == "evolve" or draw(st.booleans()):  # a preset's own span is 1500+ steps
        run["dt"], run["t_final"] = draw(st.sampled_from(STEPS))
    if command == "evolve":  # most presets name no initial state
        run.setdefault("rho0", draw(st.sampled_from(BY_READER[_R.initial_state])))
    for _ in range(draw(st.integers(0, 3))):
        wild = draw(st.integers(0, 4)) == 0
        if draw(st.integers(0, 9)) == 0 and (wild or sections["system"].get("kind") == "hyperfine"):
            level, f = draw(st.sampled_from("bcdx")), draw(st.sampled_from(HALFINTS))
            sections["system"][f"f_offset_{level}_{f}"] = draw(st.sampled_from(NUMBERS))
            continue
        section, key = draw(st.sampled_from(every_key if wild else owned_keys(sections, every_key)))
        values = sections[section]
        if draw(st.integers(0, 11)) == 0:
            values.pop(key, None)
            continue
        value = values[key] = draw(st.sampled_from(values_of(section, key, root)))
        if section == "environment" and key == "kind" and value in _ENV_KINDS:
            kind = _ENV_KINDS[value]
            for other in [k for k in values if k != "kind" and k not in kind.optional]:
                del values[other]
            for required in kind.required:
                values[required] = draw(st.sampled_from(values_of(section, required, root)))
        elif section == "system" and key == "kind" and value == "hyperfine":
            values.setdefault("nuclear_spin", draw(st.sampled_from(HALFINTS)))
        elif section == "system" and key == "dipole_mode" and value == "explicit":
            for mu in ("mu_bd", "mu_cd"):
                values.setdefault(mu, draw(st.sampled_from(NUMBERS)))
        elif section == "system" and key == "kind":
            for other in [k for k in values if k == "nuclear_spin" or k.startswith("f_offset_")]:
                del values[other]
    text = "\n".join(
        "\n".join([f"[{name}]", *(f"{k} = {v}" for k, v in values.items())]) + "\n"
        for name, values in sections.items()
    )
    args = []
    quad_order = draw(st.sampled_from([None] * 12 + [1, 3, 4, 64, 0, -1]))
    if quad_order is not None:
        args += ["--quad-order", str(quad_order)]
    reflectivity = draw(st.sampled_from([None] * 20 + ["0", "-0.5", "0.99", "1", "nan", "inf",
                                                      "1e-300"]))
    if reflectivity is not None:
        args += [f"--r={reflectivity}"]
    if command == "evolve" and draw(st.booleans()):
        args.append("--populations-only")
    return text, command, args


def nonfinite_cells(csv_text: str) -> list[str]:
    bad = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                bad.append(cell)
    return bad


@pytest.fixture(scope="module")
def draws(workdir):
    return scenarios(workdir)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_scenario_exits_typed_and_keeps_an_earlier_output(data, workdir, draws, capsys):
    text, command, args = data.draw(draws)
    ini, out = workdir / "scenario.ini", workdir / "out.csv"
    ini.write_text(text)
    out.write_text(EARLIER)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(ini), "--out", str(out), *args])
    err = capsys.readouterr().err
    # the one warning the program gives on purpose: a step too large for RK4
    assert [str(w.message) for w in caught if "RK4 accuracy degrades" not in str(w.message)] == []
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
        assert nonfinite_cells(out.read_text()) == []
    else:
        assert err.startswith("vrelax: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        assert out.read_text() == EARLIER
