"""End-to-end command-line tests.

Everything goes through ``vrelax.cli.main`` with an argv list, so these
cover argument handling, exit codes, and the CSV contracts exactly as a
shell user would see them, without spawning subprocesses.
"""

import csv
import math
import os
import stat
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vrelax.cli import main
from vrelax.config import preset_config, preset_names, serialize_config
from vrelax.environment import ModeDensityModifier, k_spontaneous
from vrelax.operators import Superoperator

DLINE_TEMPLATE = """\
[system]
kind = fine
j_b = 3/2
j_c = 1/2
j_d = 1/2
omega_bd = 1.3
omega_cd = 1.0
dipole_mode = alkali

[environment]
{environment}

[run]
{run}
"""


def write_cfg(tmp_path, environment, run, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(
        DLINE_TEMPLATE.format(environment=environment, run=run), encoding="utf-8"
    )
    return str(path)


def read_out(path):
    text = path.read_text(encoding="utf-8")
    comments = [l for l in text.splitlines() if l.startswith("#")]
    rows = list(csv.reader([l for l in text.splitlines() if not l.startswith("#")]))
    return text, comments, rows[0], rows[1:]


class TestArgumentHandling:
    def test_requires_config_or_preset(self, capsys):
        assert main(["rates"]) == 2
        assert "exactly one of --config or --preset" in capsys.readouterr().err

    def test_rejects_both_sources(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = vacuum", "command = rates")
        assert main(["rates", "--config", cfg, "--preset", "dline-vacuum"]) == 2

    def test_unknown_preset(self, capsys):
        assert main(["rates", "--preset", "dline-typo"]) == 2
        assert "vrelax: config error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["simulate", "--preset", "dline-vacuum"]) == 2

    def test_unreadable_config(self, capsys):
        assert main(["rates", "--config", "/nonexistent/path.ini"]) == 2

    def test_malformed_ini(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("not an ini file at all\n", encoding="utf-8")
        assert main(["rates", "--config", str(path)]) == 2
        assert "vrelax: config error:" in capsys.readouterr().err

    def test_missing_distribution_csv_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        cfg = write_cfg(
            tmp_path, f"kind = tabulated\ndistribution_csv = {missing}", "command = rates"
        )
        assert main(["rates", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vrelax: config error: cannot read distribution CSV")
        assert str(missing) in err

    def test_out_path_in_missing_directory_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "k.csv"
        assert main(["kmatrix", "--preset", "dline-vacuum", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vrelax: config error: cannot write output")
        assert str(out) in err

    def test_infinite_quantum_number_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text(
            DLINE_TEMPLATE.replace("j_b = 3/2", "j_b = inf").format(
                environment="kind = vacuum", run="command = rates"),
            encoding="utf-8",
        )
        assert main(["rates", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "vrelax: config error: line 3: [system] j_b: "
            "cannot parse quantum number 'inf'\n"
        )

    @pytest.mark.parametrize(
        "argv, run, code",
        [
            (["evolve"], "command = evolve\ndt = 0.003\nt_final = 1.0\nrho0 = uniform:b", 2),
            (["evolve"], "command = evolve\ndt = 4.0\nt_final = 80.0\nrho0 = uniform:b", 3),
            (["steady", "--preset", "dline-vacuum"], None, 1),
        ],
        ids=["fractional-steps", "unstable-step", "degenerate-steady"],
    )
    def test_failed_command_keeps_the_previous_output(self, tmp_path, argv, run, code):
        out = tmp_path / "result.csv"
        out.write_text("earlier result\n", encoding="utf-8")
        if run is not None:
            argv = argv + ["--config", write_cfg(tmp_path, "kind = vacuum", run)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv + ["--out", str(out)]) == code
        assert out.read_text(encoding="utf-8") == "earlier result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["result.csv"] + (["scenario.ini"] if run is not None else [])
        )

    def test_output_permission_bits_match_a_plain_open(self, tmp_path):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("earlier result\n", encoding="utf-8")
        os.chmod(kept, 0o640)
        for out in (fresh, kept):
            assert main(["kmatrix", "--preset", "dline-vacuum", "--out", str(out)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_bytes() == fresh.read_bytes()

    def test_output_to_a_fifo_is_written_in_place(self, tmp_path):
        # A FIFO, like a device or a /dev/fd pipe, cannot be replaced by a
        # finished file: the CSV goes through it and the FIFO stays.
        fifo, plain = tmp_path / "result.fifo", tmp_path / "result.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        assert main(["kmatrix", "--preset", "dline-vacuum", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert main(["kmatrix", "--preset", "dline-vacuum", "--out", str(plain)]) == 0
        assert received == [plain.read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.csv", "result.fifo"]

    def test_workers_flag_is_unknown(self, capsys):
        assert main(["rates", "--preset", "dline-cos2", "--workers", "8"]) == 2
        assert "unrecognized arguments: --workers 8" in capsys.readouterr().err

    def test_workers_key_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = vacuum", "command = rates\nworkers = 1")
        assert main(["rates", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "vrelax: config error: line 15: [run] workers: unknown key\n"
        )

    def test_command_mismatch_with_config_is_allowed(self, tmp_path):
        # argv names the command; the [run] command key is advisory metadata.
        cfg = write_cfg(tmp_path, "kind = vacuum", "command = rates")
        out = tmp_path / "k.csv"
        assert main(["kmatrix", "--config", cfg, "--out", str(out)]) == 0

    def test_successive_calls_share_one_parser_and_no_state(self, tmp_path, monkeypatch):
        import vrelax.cli as cli

        assert cli._build_parser() is cli._build_parser()  # built once per process
        out = tmp_path / "traj.csv"
        for flags, columns in (
            (["--populations-only"], 1 + 8),
            ([], 1 + 2 * 8 * 8),
            (["--populations-only"], 1 + 8),
        ):
            assert main(["evolve", "--preset", "dline-vacuum", "--out", str(out), *flags]) == 0
            assert len(read_out(out)[2]) == columns
        seen = []
        monkeypatch.setattr(cli, "_cmd_doctor", lambda args: seen.append(vars(args)) or 0)
        assert main(["doctor", "--jmax", "1/2", "--quad-order", "8"]) == 0
        assert main(["doctor", "--force-quad-order", "2"]) == 0
        assert main(["doctor"]) == 0
        assert [(a["jmax"], a["quad_order"], a["force_quad_order"]) for a in seen] == [
            ("1/2", 8, None),
            ("9/2", 16, 2),
            ("9/2", 16, None),
        ]


class TestKMatrixCommand:
    def test_vacuum_diagonal(self, tmp_path):
        out = tmp_path / "k.csv"
        cfg = write_cfg(tmp_path, "kind = vacuum", "command = kmatrix")
        assert main(["kmatrix", "--config", cfg, "--out", str(out)]) == 0
        _, comments, header, rows = read_out(out)
        assert header == ["sigma1", "sigma2", "re", "im"]
        assert len(rows) == 9
        entries = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in rows}
        for s in ("-1", "0", "1"):
            assert entries[(s, s)] == pytest.approx(2.0 / 3.0, abs=1e-15)
        off = [v for k, v in entries.items() if k[0] != k[1]]
        assert max(abs(v) for v in off) == 0.0

    def test_cavity_reweights_pi_and_sigma(self, tmp_path):
        vac = tmp_path / "vac.csv"
        cav = tmp_path / "cav.csv"
        cfg = write_cfg(tmp_path, "kind = vacuum", "command = kmatrix")
        assert main(["kmatrix", "--config", cfg, "--out", str(vac)]) == 0
        assert main(["kmatrix", "--preset", "dline-cavity", "--out", str(cav)]) == 0

        def diag(path):
            _, _, _, rows = read_out(path)
            return {r[0]: float(r[2]) for r in rows if r[0] == r[1]}

        v, c = diag(vac), diag(cav)
        # reflectivity 0.5: pi modes enhanced by (1+r)/(1-r) = 3,
        # sigma modes suppressed by (1-r)/(1+r) = 1/3
        assert c["0"] / v["0"] == pytest.approx(3.0, rel=1e-12)
        assert c["1"] / v["1"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert c["-1"] / v["-1"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_cos2_closed_form(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["kmatrix", "--preset", "dline-cos2", "--out", str(out)]) == 0
        _, _, _, rows = read_out(out)
        entries = {r[0]: float(r[2]) for r in rows if r[0] == r[1]}
        assert entries["0"] == pytest.approx(2.0 / 15.0, abs=1e-12)
        assert entries["1"] == pytest.approx(4.0 / 15.0, abs=1e-12)
        assert entries["-1"] == pytest.approx(4.0 / 15.0, abs=1e-12)

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["kmatrix", "--preset", "dline-vacuum"]) == 0
        captured = capsys.readouterr().out
        assert "sigma1,sigma2,re,im" in captured

    def test_tabulated_isotropic_table(self, tmp_path):
        table = tmp_path / "iso.csv"
        thetas = np.linspace(0.0, math.pi, 81)
        phis = np.linspace(0.0, 2.0 * math.pi, 80, endpoint=False)
        with open(table, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["theta_rad", "phi_rad", "lambda", "n_mean"])
            for lam in (-1, 1):
                for th in thetas:
                    for ph in phis:
                        w.writerow([repr(float(th)), repr(float(ph)), lam, "1.0"])
        cfg = write_cfg(
            tmp_path,
            f"kind = tabulated\ndistribution_csv = {table}\ninclude_spontaneous = false",
            "command = kmatrix",
        )
        out = tmp_path / "k.csv"
        assert main(["kmatrix", "--config", cfg, "--out", str(out)]) == 0
        _, _, _, rows = read_out(out)
        for r in rows:
            if r[0] == r[1]:
                assert float(r[2]) == pytest.approx(2.0 / 3.0, abs=1e-9)


class TestRatesCommand:
    def test_injected_preset_carries_interference_report(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--preset", "dline-paper-k", "--out", str(out)]) == 0
        text, comments, header, rows = read_out(out)
        assert header == [
            "kind", "j1", "F1", "M1", "j2", "F2", "M2", "Md1", "Md2", "re", "im",
        ]
        upper = {
            (r[1], r[3], r[4], r[6]): float(r[9])
            for r in rows
            if r[0] == "injected-upper"
        }
        assert upper[("b", "-1/2", "b", "-1/2")] == pytest.approx(44 / 225, abs=1e-15)
        assert upper[("c", "-1/2", "c", "-1/2")] == pytest.approx(28 / 225, abs=1e-15)
        assert abs(upper[("b", "-1/2", "c", "-1/2")]) == pytest.approx(
            16 * math.sqrt(2) / 225, abs=1e-15
        )
        degree = [c for c in comments if "p=" in c]
        assert any("0.6446583712203043" in c for c in degree)

    def test_isotropic_interference_vanishes(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--preset", "dline-isotropic", "--out", str(out)]) == 0
        _, comments, _, rows = read_out(out)
        stim = [c for c in comments if c.startswith("# interference stimulated") and "p=" in c]
        assert stim, "expected a stimulated interference report"
        for line in stim:
            assert abs(float(line.split("p=")[1])) < 1e-12
        labels = {r[0].split("-")[0] for r in rows}
        assert labels == {"spontaneous", "stimulated"}

    def test_hyperfine_feeding_packs_ground_as_f_colon_m(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--preset", "sodium-hyperfine", "--out", str(out)]) == 0
        text, comments, _, rows = read_out(out)
        assert any("F:M" in c for c in comments)
        feeding = [r for r in rows if r[0].endswith("-feeding")]
        assert feeding
        for r in feeding[:50]:
            for cell in (r[7], r[8]):
                f_part, m_part = cell.split(":")
                assert f_part and m_part

    def test_none_environment_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = none", "command = rates")
        assert main(["rates", "--config", cfg]) == 2
        assert "produces no rate tables" in capsys.readouterr().err

    def test_photonic_preset_breaks_cross_symmetry(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--preset", "dline-photonic", "--out", str(out)]) == 0
        _, _, _, rows = read_out(out)
        upper = {
            (r[1], r[3], r[4], r[6]): float(r[9])
            for r in rows
            if r[0] == "spontaneous-upper"
        }
        bc = upper[("b", "-1/2", "c", "-1/2")]
        cb = upper[("c", "-1/2", "b", "-1/2")]
        assert bc != 0.0 and cb != 0.0
        assert abs(bc - cb) > 1e-3


class TestDeterminism:
    def test_byte_identical_across_runs_and_config_sources(self, tmp_path):
        paths = [tmp_path / f"r{i}.csv" for i in range(3)]
        assert main(["rates", "--preset", "dline-paper-k", "--out", str(paths[0])]) == 0
        assert main(["rates", "--preset", "dline-paper-k", "--out", str(paths[1])]) == 0
        ini = tmp_path / "paper-k.ini"
        ini.write_text(serialize_config(preset_config("dline-paper-k")), encoding="utf-8")
        assert main(["rates", "--config", str(ini), "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


class TestSuperopCommand:
    def test_dense_csv_with_basis_legend(self, tmp_path):
        out = tmp_path / "so.csv"
        assert main(["superop", "--preset", "dline-vacuum", "--out", str(out)]) == 0
        _, comments, header, rows = read_out(out)
        assert header == ["row", "col", "re", "im"]
        assert any("vec convention: row-major" in c for c in comments)
        legend = [c for c in comments if c.startswith("# basis ")]
        assert len(legend) == 8
        assert len(rows) == 8 ** 4


class TestEvolveCommand:
    def test_two_level_reduction_decays_at_the_single_channel_rate(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main([
            "evolve", "--preset", "twolevel-decay",
            "--out", str(out), "--populations-only",
        ]) == 0
        _, comments, header, rows = read_out(out)
        assert header[0] == "t"
        assert all(col.startswith("pop_") for col in header[1:])
        t = np.array([float(r[0]) for r in rows])
        pops = np.array([[float(x) for x in r[1:]] for r in rows])
        traces = pops.sum(axis=1)
        assert np.max(np.abs(traces - 1.0)) < 1e-9
        legend = [c for c in comments if c.startswith("# basis ")]
        excited = [i for i, c in enumerate(legend) if " b " in c or "level=b" in c or "b," in c]
        # sum the excited-level populations and fit a decay rate
        upper = pops[:, [i for i in range(pops.shape[1]) if i in excited]] if excited else None
        if upper is None or upper.shape[1] == 0:
            # fall back on the first sample being entirely in the excited state
            start = np.argmax(pops[0])
            decay = pops[:, start]
        else:
            decay = upper.sum(axis=1)
        mask = decay > 1e-8
        rate = np.polyfit(t[mask], np.log(decay[mask]), 1)[0]
        assert abs(-rate - 4.0 / 3.0) < 1e-4 * (4.0 / 3.0)

    def test_full_mode_keeps_trace_and_writes_every_element(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--preset", "dline-vacuum", "--out", str(out)]) == 0
        _, _, header, rows = read_out(out)
        assert header[0] == "t"
        assert len(header) == 1 + 2 * 8 * 8
        diag = [1 + 2 * (i * 8 + i) for i in range(8)]
        traces = [sum(float(r[c]) for c in diag) for r in rows]
        assert max(abs(tr - 1.0) for tr in traces) < 1e-9

    def test_free_evolution_freezes_populations(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "kind = none",
            "command = evolve\ndt = 0.001\nt_final = 1.0\nsample_every = 100\nrho0 = uniform:b",
        )
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        _, _, header, rows = read_out(out)
        diag = [1 + 2 * (i * 8 + i) for i in range(8)]
        first = [float(rows[0][c]) for c in diag]
        last = [float(rows[-1][c]) for c in diag]
        assert first == last

    def test_unstable_step_aborts_with_exit_three(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "kind = vacuum",
            "command = evolve\ndt = 4.0\nt_final = 80.0\nrho0 = uniform:b",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        assert "vrelax: numerical abort:" in capsys.readouterr().err

    def test_overflowing_step_aborts_with_exit_three(self, tmp_path, capsys):
        # one step of dt = 1e80 overflows the state: a typed abort, not a
        # traceback, and no floating-point warning besides the stiffness one
        cfg = preset_config("twolevel-decay")
        ini = tmp_path / "overflow.ini"
        ini.write_text(
            serialize_config(replace(cfg, run=replace(cfg.run, dt=1e80, t_final=1e80))),
            encoding="utf-8",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evolve", "--config", str(ini), "--out", str(tmp_path / "x.csv")]) == 3
        assert [(w.category, "exceeds 0.1" in str(w.message)) for w in caught] == [
            (RuntimeWarning, True)
        ]
        assert capsys.readouterr().err == (
            "vrelax: numerical abort: trace drifted by nan (tolerance 1.0e-06) at t=1e+80\n"
        )

    def test_missing_dt_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = vacuum", "command = evolve\nrho0 = uniform:b")
        assert main(["evolve", "--config", cfg]) == 2

    def test_fractional_step_count_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "kind = vacuum",
            "command = evolve\ndt = 0.003\nt_final = 1.0\nrho0 = uniform:b",
        )
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vrelax: config error:")
        assert "t_final=1.0 is not a whole number of dt=0.003 steps" in err

    def test_trajectory_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys):
        # 1e15 steps of a 4 x 4 state: more memory than any address space
        cfg = preset_config("twolevel-decay")
        ini = tmp_path / "huge.ini"
        ini.write_text(
            serialize_config(replace(cfg, run=replace(cfg.run, t_final=2e12))), encoding="utf-8"
        )
        assert main(["evolve", "--config", str(ini), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("vrelax: config error: Unable to allocate")
        assert os.listdir(tmp_path) == ["huge.ini"]

    @pytest.mark.parametrize(
        "dt, reason",
        [(1e-300, "Maximum allowed dimension exceeded"), (1e-18, "array is too big")],
    )
    def test_step_count_past_numpy_index_range_is_a_config_error(
        self, tmp_path, capsys, dt, reason
    ):
        # numpy refuses these trajectory shapes with ValueError, not MemoryError
        run = f"command = evolve\ndt = {dt!r}\nt_final = 1.0\nrho0 = uniform:b"
        cfg = write_cfg(tmp_path, "kind = vacuum", run)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vrelax: config error: Unable to allocate a trajectory")
        assert reason in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["scenario.ini"]


# the feeding entries stay finite; the ground sums of the isotropic field
# and the superoperator's diagonal (-2 Re Gamma) in vacuum overflow
OVERFLOW_ISOTROPIC = ("kind = isotropic\nn_mean = 1.0", "s_scale = 1e308")
OVERFLOW_VACUUM = ("kind = vacuum", "s_scale = 1.7e308")


class TestOverflow:
    @pytest.mark.parametrize(
        "command, scenario, message",
        [
            *[(c, OVERFLOW_ISOTROPIC, "rate coefficients overflow")
              for c in ("rates", "superop", "steady", "evolve")],
            *[(c, OVERFLOW_VACUUM, "matrix entries overflow")
              for c in ("superop", "steady", "evolve")],
        ],
    )
    def test_overflowing_sums_are_a_config_error(
        self, tmp_path, capsys, command, scenario, message
    ):
        environment, scale = scenario
        run = f"{scale}\ndt = 0.002\nt_final = 0.01\nrho0 = thermal-ground"
        cfg = write_cfg(tmp_path, environment, run)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"vrelax: config error: {message}")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["scenario.ini"]

    def test_vacuum_rates_below_the_overflow_stay_finite(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = write_cfg(tmp_path, *OVERFLOW_VACUUM)
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        cells = [cell for row in read_out(out)[3] for cell in row[-2:]]
        assert cells and all(math.isfinite(float(cell)) for cell in cells)


class TestSteadyCommand:
    def test_isotropic_detailed_balance(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert main(["steady", "--preset", "dline-isotropic", "--out", str(out)]) == 0
        _, comments, header, rows = read_out(out)
        assert header == ["i", "j", "re", "im"]
        rho = np.zeros((8, 8), dtype=complex)
        for r in rows:
            rho[int(r[0]), int(r[1])] = complex(float(r[2]), float(r[3]))
        pops = np.diag(rho).real
        legend = {int(c.split()[2].rstrip(":")): c for c in comments if c.startswith("# basis ")}
        ground = [i for i, c in legend.items() if "d" in c.split(":", 1)[1]]
        excited = [i for i in range(8) if i not in ground]
        # photon number 1: every excited population sits at N/(N+1) = 1/2
        # of every ground population, uniformly within each level
        for i in excited:
            assert pops[i] == pytest.approx(0.1, abs=1e-12)
        for i in ground:
            assert pops[i] == pytest.approx(0.2, abs=1e-12)
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) < 1e-12

    def test_pure_decay_is_degenerate(self, capsys):
        assert main(["steady", "--preset", "dline-vacuum"]) == 1
        err = capsys.readouterr().err
        assert "not unique" in err
        assert "propagate instead" in err

    def test_traceless_null_vector_exits_three(self, capsys, monkeypatch):
        # every vec entry decays except the d(-1/2)-d(+1/2) coherence (vec
        # index 1, zero energy difference): the only null vector is traceless
        import vrelax.cli as cli

        def coherence_only(_cfg, scheme):
            basis = scheme.basis
            diag = -np.ones(len(basis) ** 2)
            diag[1] = 0.0
            return [("coherence-only", Superoperator(np.diag(diag), basis, "coherence-only"))]

        monkeypatch.setattr(cli, "_superoperators", coherence_only)
        assert main(["steady", "--preset", "dline-vacuum"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("vrelax: numerical abort:")
        assert "null vector is traceless" in err


class TestDoctorCommand:
    def test_fresh_run_passes(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "doctor: ok" in out
        assert "FAIL" not in out
        for name in (
            "quadrature-isotropic-closed-form",
            "cg-orthogonality",
            "free-space-diagonality",
        ):
            assert name in out

    def test_forced_low_quadrature_fails_and_names_the_check(self, capsys):
        assert main(["doctor", "--force-quad-order", "2"]) == 1
        out = capsys.readouterr().out
        assert "doctor: FAIL" in out
        assert "quadrature" in out.split("doctor: FAIL", 1)[1]

    def test_diagonality_check_fails_on_cross_terms(self, capsys, monkeypatch):
        # a cavity in place of free space gives b-c cross terms the check must see
        import vrelax.cli as cli

        cavity = ModeDensityModifier.planar_cavity(0.9)
        monkeypatch.setattr(cli, "k_spontaneous", lambda _mod, omega: k_spontaneous(cavity, omega))
        assert main(["doctor"]) == 1
        out = capsys.readouterr().out
        assert "FAIL free-space-diagonality" in out
        assert "doctor: FAIL (free-space-diagonality)" in out

    def test_jmax_above_the_factorial_cap_is_a_config_error(self, capsys):
        assert main(["doctor", "--jmax", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any check runs
        assert captured.err == (
            "vrelax: config error: --jmax 13 exceeds the factorial-table cap 25/2\n"
        )

    def test_infinite_jmax_is_a_config_error(self, capsys):
        assert main(["doctor", "--jmax", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "vrelax: config error: --jmax: cannot parse quantum number 'inf'\n"
        )

    @pytest.mark.parametrize(
        "argv, jmax",
        [(["--jmax", "-1"], "-1"), (["--jmax=-1/2"], "-1/2"), (["--jmax", "-1/2"], "-1/2")],
    )
    def test_negative_jmax_is_a_config_error(self, argv, jmax, capsys):
        # a negative cap would skip every identity check and still report ok;
        # argparse reads a bare "-1/2" as an option unless it is attached
        assert main(["doctor", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"vrelax: config error: --jmax must be >= 0, got {jmax}\n"

    def test_lowered_grid_reports_skip_not_pass(self, capsys):
        assert main(["doctor", "--jmax", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "SKIP" in out
        skipped = [l for l in out.splitlines() if "SKIP" in l]
        for line in skipped:
            assert "PASS" not in line
        assert "doctor: ok" in out


class TestPresetCatalog:
    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_produces_rate_tables(self, name, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["rates", "--preset", name, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("#")
        assert "-upper" in text
