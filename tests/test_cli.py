"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import argparse
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import memscat
from memscat import (Cylinder, NonConvergenceError, PlaneWave, Scene,
                     dumps_scene, loads_scene)
from instruments import unconverged_dense
from memscat.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                         build_parser, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def overlap_file(tmp_path):
    sc = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((1.5, 0.0), 1.0)),
               0.6, PlaneWave(0.0))
    path = tmp_path / "overlap.yaml"
    path.write_text(dumps_scene(sc))
    return str(path)


class TestValidate:
    def test_preset_is_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "far")
        assert code == EXIT_OK
        assert "scene ok" in out

    def test_echo_round_trips(self, capsys, tmp_path):
        sc = Scene((Cylinder((1.0, -2.0), 0.75),), 1.1, PlaneWave(0.4))
        path = tmp_path / "one.yaml"
        path.write_text(dumps_scene(sc))
        code, out, _ = run(capsys, "validate", str(path), "--echo")
        assert code == EXIT_OK
        yaml_text = out[out.index("cylinders"):]
        assert loads_scene(yaml_text) == sc

    def test_overlap_fails(self, capsys, overlap_file):
        code, out, _ = run(capsys, "validate", overlap_file)
        assert code == EXIT_VALIDATION
        assert "violation" in out

    def test_wavenumber_override(self, capsys):
        code, out, _ = run(capsys, "validate", "far", "-k", "3.0")
        assert code == EXIT_OK
        assert "k = 3" in out

    def test_missing_file(self, capsys):
        code = main(["validate", "no_such_scene.yaml"])
        capsys.readouterr()
        assert code in (EXIT_VALIDATION, EXIT_IO)

    @pytest.mark.parametrize("command", [["validate"], ["solve", "-N", "4"]])
    @pytest.mark.parametrize("text", [
        "cylinders: [\n",
        "cylinders:\n- center: [0, 0]\n  radius: abc\nwavenumber: 1.0\n"
        "incident: {type: plane, angle: 0.0}\n"], ids=["yaml", "radius"])
    def test_malformed_file_is_rejected(self, capsys, tmp_path, command,
                                        text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        outdir = ["-o", str(tmp_path)] if command[0] == "solve" else []
        code, _, err = run(capsys, command[0], str(path), *command[1:],
                           *outdir)
        assert code == EXIT_VALIDATION
        assert err.startswith(f"scene rejected: {path}: ")
        assert "Traceback" not in err

    def test_non_utf8_file_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "bin.yaml"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_VALIDATION
        assert err.startswith(f"scene rejected: {path}: not UTF-8 text: ")
        assert "Traceback" not in err

    def test_unknown_subcommand_is_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify", "far"])
        capsys.readouterr()
        assert exc.value.code == EXIT_VALIDATION


class TestSolve:
    def test_writes_solution_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", "far", "-N", "6",
                           "-o", str(tmp_path))
        assert code == EXIT_OK
        assert "backend=dense" in out
        csv = tmp_path / "far_solution.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "p,m,re,im"
        assert len(lines) == 1 + 3 * 13
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "-6"

    def test_backend_choice_is_recorded(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", "far", "-N", "5",
                           "--backend", "gmres", "-o", str(tmp_path))
        assert code == EXIT_OK
        assert "backend=gmres" in out

    def test_dump_matrix(self, capsys, tmp_path):
        dump = tmp_path / "system.dump"
        code, _, _ = run(capsys, "solve", "far", "-N", "4",
                         "--dump-matrix", str(dump), "-o", str(tmp_path))
        assert code == EXIT_OK
        from instruments import load_system_dump
        mat, M, N, k = load_system_dump(dump)
        assert (M, N, k) == (3, 4, 0.6)
        assert mat.shape == (27, 27)

    def test_divergent_reflections_exit_numerical(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "touching", "-N", "12",
                           "--backend", "reflections", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "diverged" in err
        assert not (tmp_path / "touching_solution.csv").exists()

    @pytest.mark.parametrize("command, written", [
        (["solve", "--backend", "gmres"], ["far_solution.csv"]),
        (["field", "--xlim", "-4", "4", "--ylim", "-4", "4", "--nx", "3",
          "--ny", "3"], []),
    ])
    def test_non_converged_gmres_outcomes(self, capsys, tmp_path,
                                          monkeypatch, command, written):
        # solve writes what GMRES returned and exits 2; field, which solves
        # densely, writes nothing when that solve does not converge
        gmres = memscat.solver.solve_gmres
        monkeypatch.setitem(memscat.solver.BACKENDS, "gmres",
                            lambda op, rhs: gmres(op, rhs, max_iterations=2))
        monkeypatch.setitem(memscat.solver.BACKENDS, "dense",
                            unconverged_dense)
        code, _, _ = run(capsys, command[0], "far", "-N", "6", *command[1:],
                         "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert sorted(p.name for p in tmp_path.iterdir()) == written

    def test_invalid_scene_exits_validation(self, capsys, overlap_file,
                                            tmp_path):
        code, _, err = run(capsys, "solve", overlap_file, "-N", "4",
                           "-o", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert "rejected" in err

    def test_truncation_beyond_order_cap_fails(self, capsys, tmp_path):
        # couplings need H_{2N}, and orders are capped at 200
        code, _, err = run(capsys, "solve", "far", "-N", "101",
                           "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "N = 101" in err and "N <= 100" in err and "H_{2N}" in err
        assert not (tmp_path / "far_solution.csv").exists()
        code, _, _ = run(capsys, "solve", "far", "-N", "100",
                         "-o", str(tmp_path))
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", [
        ["solve", "far", "-N", "-1"],
        ["field", "far", "-N", "-1", "--xlim", "-4", "4", "--ylim", "-4", "4"],
    ])
    def test_negative_truncation_is_named(self, capsys, tmp_path, command):
        code, _, err = run(capsys, *command, "-o", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert "truncation N must be >= 0, got N = -1" in err
        assert not list(tmp_path.iterdir())

    def test_argument_cap_is_named(self, capsys, tmp_path):
        # k d_23 = 90 * |(12, 0) - (0, 14)| = 1659.5 > ARG_CAP
        code, _, err = run(capsys, "solve", "far", "-k", "90", "-N", "5",
                           "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert ("cylinders 2 and 3: k d_pq = 1659.52 exceeds the argument "
                "cap 1000.0") in err
        assert not (tmp_path / "far_solution.csv").exists()

    def test_dimension_cap_is_checked_before_allocating(self, capsys,
                                                        tmp_path):
        # 101 cylinders at N = 99: dim 101 * 199 = 20099 > DENSE_DIM_CAP
        sc = Scene(tuple(Cylinder((3.0 * i, 0.0), 1.0) for i in range(101)),
                   0.6, PlaneWave(0.0))
        path = tmp_path / "row.yaml"
        path.write_text(dumps_scene(sc))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "solve", str(path), "-N", "99",
                               "-o", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NUMERICAL
        assert "dimension 20099 exceeds cap 20000" in err
        assert peak < 2 ** 20
        assert not (tmp_path / "row_solution.csv").exists()

    @pytest.mark.parametrize("command", [["solve"], ["field", "--xlim", "-1",
                                                    "1", "--ylim", "-1", "1"]])
    def test_out_of_memory_exits_numerical(self, capsys, tmp_path,
                                           monkeypatch, command):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(memscat.cli, "assemble_system", exhausted)
        code, _, err = run(capsys, command[0], "far", "-N", "4",
                           *command[1:], "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "out of memory" in err
        assert not list(tmp_path.iterdir())

    def test_unwritable_outdir_exits_io(self, capsys, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file, not directory")
        code, _, err = run(capsys, "solve", "far", "-N", "4",
                           "-o", str(blocker))
        assert code == EXIT_IO
        assert "i/o failure" in err


class TestSweep:
    def test_report_artifacts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "far", "--n-min", "1",
                           "--n-max", "12", "-o", str(tmp_path))
        assert code == EXIT_OK
        assert "rate[E]: slope" in out
        csv = tmp_path / "far_sweep_k0.6.csv"
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert data.shape == (12, 4)
        assert np.all(data[:, 1] > 0.0)
        assert (tmp_path / "far_sweep_k0.6.gp").exists()

    @pytest.mark.parametrize("first_order", [False, True])
    def test_plot_script_and_csv_text_are_pinned(self, capsys, tmp_path,
                                                 first_order):
        extra = ["--first-order"] if first_order else []
        code, _, _ = run(capsys, "sweep", "far", "--n-max", "6", *extra,
                         "-o", str(tmp_path))
        assert code == EXIT_OK
        csv = "far_sweep_k0.6.csv"
        curves = [
            f"'{csv}' every ::1 using 1:2 with linespoints title 'E(N)'",
            f"'{csv}' every ::1 using 1:3 with lines title 'gamma1'",
            f"'{csv}' every ::1 using 1:4 with lines title 'gamma2'",
            f"'{csv}' every ::1 using 1:5 with points "
            "title 'first-order surrogate'"][:4 if first_order else 3]
        assert (tmp_path / "far_sweep_k0.6.gp").read_bytes() == (
            "set datafile separator ','\n"
            "set logscale y\n"
            "set xlabel 'N'\n"
            "set ylabel 'error / envelope'\n"
            "set format y '10^{%T}'\n"
            "plot " + ", \\\n     ".join(curves) + "\n").encode()
        rows = (tmp_path / csv).read_bytes().decode().split("\n")
        assert rows[0] == "N,E,gamma1,gamma2" + (",E1_surrogate"
                                                 if first_order else "")
        assert len(rows) == 8 and rows[-1] == ""
        # N and the envelopes are pinned byte for byte; E and the surrogate
        # come from LAPACK and BLAS, whose last bits may differ between
        # builds, so they are pinned as '.16e' text of the expected value
        expected = [
            ("1", "7.2171378111997656e-02", "1.8181818181818182e-01",
             "1.6700939446218016e-01", "9.1789932304736574e-02"),
            ("2", "2.1547176165464425e-02", "3.3057851239669422e-02",
             "2.7892137838624095e-02", "2.7160234100282482e-02"),
            ("3", "4.3734202740053768e-03", "6.0105184072126224e-03",
             "4.6582490506842725e-03", "5.0839190736565463e-03")]
        for row, (n, e, g1, g2, s) in zip(rows[1:4], expected):
            cells = row.split(",")
            measured = [e, s] if first_order else [e]
            assert len(cells) == 3 + len(measured)
            assert [cells[0], *cells[2:4]] == [n, g1, g2]
            for cell, value in zip(cells[1:2] + cells[4:], measured):
                assert re.fullmatch(r"\d\.\d{16}e[+-]\d\d", cell)
                assert float(cell) == pytest.approx(float(value), rel=1e-12)

    def test_short_k_is_the_long_k(self, capsys, tmp_path):
        for flag, name in (("-k", "short"), ("--k", "long")):
            code, _, _ = run(capsys, "sweep", "far", flag, "3", "--n-max",
                             "6", "-o", str(tmp_path / name))
            assert code == EXIT_OK
        for suffix in ("csv", "gp"):
            f = f"far_sweep_k3.{suffix}"
            assert (tmp_path / "short" / f).read_bytes() == \
                (tmp_path / "long" / f).read_bytes()

    def test_short_and_long_k_add_up(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "far", "-k", "3", "--k", "0.6",
                           "--n-max", "6", "-o", str(tmp_path))
        assert code == EXIT_OK
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "far_sweep_k0.6.csv", "far_sweep_k3.csv"]
        assert out.index("far_sweep_k3.csv") < out.index("far_sweep_k0.6.csv")

    @pytest.mark.parametrize("flag", ["-k", "--k"])
    def test_file_wavenumber_does_not_block_other_values(self, capsys,
                                                         tmp_path, flag):
        sc = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((5.0, 0.0), 0.5)),
                   0.0, PlaneWave(0.3))
        path = tmp_path / "still.yaml"
        path.write_text(dumps_scene(sc))
        out = tmp_path / "out"
        code, _, _ = run(capsys, "sweep", str(path), flag, "0.6",
                         "--n-max", "6", "-o", str(out))
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "still_sweep_k0.6.csv", "still_sweep_k0.6.gp"]
        # swept at its own wavenumber, the file is rejected up front
        code, _, err = run(capsys, "sweep", str(path), "--n-max", "6",
                           "-o", str(tmp_path / "own"))
        assert code == EXIT_VALIDATION
        assert "wavenumber must be > 0" in err
        assert not (tmp_path / "own").exists()

    def test_invalid_geometry_writes_nothing(self, capsys, overlap_file,
                                             tmp_path):
        code, out, err = run(capsys, "sweep", overlap_file, "--k", "0.6",
                             "--k", "3", "--k", "5", "--n-max", "6",
                             "-o", str(tmp_path / "out"))
        assert code == EXIT_VALIDATION
        assert out == ""
        # reported once, not once per wavenumber
        assert err.count("cylinders 1 and 2 overlap or touch") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ks", [[], ["--k", "0.6", "--k", "3"]])
    def test_geometry_is_checked_once_per_sweep(self, capsys, monkeypatch,
                                                tmp_path, ks):
        # the scene module's own calls are those of the geometry check
        from memscat import scene as scene_mod
        calls = []
        geometry = scene_mod.pairwise_geometry
        monkeypatch.setattr(scene_mod, "pairwise_geometry",
                            lambda sc: calls.append(sc) or geometry(sc))
        code, _, _ = run(capsys, "sweep", "far", *ks, "--n-max", "4",
                         "-o", str(tmp_path))
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_multiple_wavenumbers(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "moderate", "--n-min", "1",
                         "--n-max", "8", "--k", "0.6", "--k", "3",
                         "-o", str(tmp_path))
        assert code == EXIT_OK
        assert (tmp_path / "moderate_sweep_k0.6.csv").exists()
        assert (tmp_path / "moderate_sweep_k3.csv").exists()

    def test_first_order_column_and_breakdown_note(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "close", "--n-min", "1",
                           "--n-max", "10", "--first-order",
                           "-o", str(tmp_path))
        assert code == EXIT_OK
        assert "first-order" in out and "suspect" in out
        header = (tmp_path / "close_sweep_k0.6.csv").read_text().splitlines()[0]
        assert header == "N,E,gamma1,gamma2,E1_surrogate"

    def test_breakdown_note_needs_first_order(self, capsys, tmp_path):
        # without the surrogate column the note has no curve to speak of
        code, out, _ = run(capsys, "sweep", "close", "--n-max", "10",
                           "-o", str(tmp_path))
        assert code == EXIT_OK
        assert "close_sweep_k0.6.csv" in out
        assert "note:" not in out

    def test_thread_count_is_byte_identical(self, capsys, tmp_path):
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / name
            code, _, _ = run(capsys, "sweep", "moderate", "--n-min", "1",
                             "--n-max", "10", "--threads", str(threads),
                             "-o", str(out))
            assert code == EXIT_OK
        a = (tmp_path / "a" / "moderate_sweep_k0.6.csv").read_bytes()
        b = (tmp_path / "b" / "moderate_sweep_k0.6.csv").read_bytes()
        assert a == b

    def test_high_wavenumber_is_not_gated(self, capsys, tmp_path):
        # a k >= 15 is written like any other valid k, with nothing on stderr
        code, _, err = run(capsys, "sweep", "far", "--n-min", "1",
                           "--n-max", "6", "--k", "15", "-o", str(tmp_path))
        assert code == EXIT_OK
        assert err == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "far_sweep_k15.csv", "far_sweep_k15.gp"]

    def test_high_wavenumber_sweeps_like_any_other(self, capsys, tmp_path):
        # E decays once N passes k a_max = 30 and stays far above round-off
        # through the fit window
        code, out, err = run(capsys, "sweep", "far", "--k", "15",
                             "--n-max", "60", "-o", str(tmp_path))
        assert code == EXIT_OK
        assert err == ""
        assert (tmp_path / "far_sweep_k15.csv").exists()
        assert "rate[E]: slope -1.1796 (R^2 0.9990, N 47..59)" in out

    def test_unreadable_rate_says_no_fit(self, capsys, tmp_path):
        # at k = 10, E(25) is still 4.6e-3: too few values in the window
        code, out, _ = run(capsys, "sweep", "far", "--k", "10",
                           "-o", str(tmp_path))
        assert code == EXIT_OK
        assert "  rate[E]: no fit (too few values between 1e-13 and 0.01)" \
            in out
        assert "rate[E]: slope" not in out

    def test_invalid_wavenumbers_are_refused_one_by_one(self, capsys,
                                                        tmp_path):
        code, _, err = run(capsys, "sweep", "far", "--n-max", "6",
                           "--k", "-1", "--k", "nan", "--k", "0.6",
                           "-o", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert "error: k = -1: wavenumber must be > 0" in err
        assert "error: k = nan: wavenumber must be > 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "far_sweep_k0.6.csv", "far_sweep_k0.6.gp"]

    @pytest.mark.parametrize("second", ["0.6000001", "0.6"])
    def test_wavenumbers_sharing_a_file_name_are_refused(self, capsys,
                                                         tmp_path, second):
        # {k:g} keeps 6 significant digits, so both would write k0.6
        code, out, err = run(capsys, "sweep", "far", "--n-max", "6",
                             "--k", "0.6", "--k", second,
                             "-o", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert f"--k 0.6 and --k {second} would both write " \
               "far_sweep_k0.6.csv" in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_reference_beyond_order_cap_fails(self, capsys, tmp_path):
        # the reference solve takes N = n_max + 5 = 101 > 100
        code, _, err = run(capsys, "sweep", "far", "--n-min", "94",
                           "--n-max", "96", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "N = 101" in err and "N <= 100" in err
        assert not (tmp_path / "far_sweep_k0.6.csv").exists()

    def test_n_max_limit_is_named(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "far", "--n-max", "96",
                           "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "--n-max 96" in err and "--n-max <= 95" in err
        assert not (tmp_path / "far_sweep_k0.6.csv").exists()

    def test_bad_range_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "far", "--n-min", "9",
                           "--n-max", "3", "-o", str(tmp_path))
        assert code == EXIT_VALIDATION

    def test_numerical_failure_at_one_k_exits_numerical(self, capsys,
                                                          tmp_path):
        # at k = 100 a pair's k d_pq passes the argument cap, so that k
        # writes nothing; the next k is still swept
        code, out, err = run(capsys, "sweep", "far", "--n-max", "6",
                             "--k", "100", "--k", "0.6",
                             "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert ("numerical failure at k = 100: cylinders 2 and 3: "
                "k d_pq = 1843.91 exceeds the argument cap 1000.0") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "far_sweep_k0.6.csv", "far_sweep_k0.6.gp"]
        assert "far_sweep_k0.6.csv" in out

    def test_failed_wavenumber_does_not_stop_the_rest(self, capsys, tmp_path,
                                                      monkeypatch):
        sweep = memscat.analysis.convergence_sweep

        def fail_at_low_k(scene, *args, **kwargs):
            if scene.wavenumber == 0.6:
                raise NonConvergenceError("no reference at this k")
            return sweep(scene, *args, **kwargs)
        monkeypatch.setattr(memscat.analysis, "convergence_sweep",
                            fail_at_low_k)
        # the numerical failure sets the exit code over the refused k = -1
        code, out, err = run(capsys, "sweep", "far", "--n-max", "6",
                             "--k", "0.6", "--k", "-1", "--k", "3",
                             "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "numerical failure at k = 0.6: no reference at this k" in err
        assert "error: k = -1: wavenumber must be > 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "far_sweep_k3.csv", "far_sweep_k3.gp"]
        assert "far_sweep_k3.csv" in out


class TestBounds:
    def test_table_without_solving(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bounds", "far", "--n-min", "0",
                         "--n-max", "15", "-o", str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "far_bounds.csv").read_text().splitlines()
        assert lines[0] == "N,gamma1,gamma2"
        assert len(lines) == 17
        n0 = lines[1].split(",")
        assert float(n0[1]) == 1.0 and float(n0[2]) == 1.0

    def test_csv_text_is_pinned(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bounds", "far", "--n-max", "3",
                         "-o", str(tmp_path))
        assert code == EXIT_OK
        assert (tmp_path / "far_bounds.csv").read_bytes() == (
            b"N,gamma1,gamma2\n"
            b"0,1.0000000000000000e+00,1.0000000000000000e+00\n"
            b"1,1.8181818181818182e-01,1.6700939446218016e-01\n"
            b"2,3.3057851239669422e-02,2.7892137838624095e-02\n"
            b"3,6.0105184072126224e-03,4.6582490506842725e-03\n")

    @pytest.mark.parametrize("command", ["sweep", "bounds"])
    @pytest.mark.parametrize("n_min, n_max, named", [
        ("9", "3", "--n-max must be >= --n-min"),
        ("-3", "5", "--n-min must be >= 0, got -3"),
    ])
    def test_range_is_checked_like_sweep(self, capsys, tmp_path, command,
                                         n_min, n_max, named):
        code, _, err = run(capsys, command, "far", "--n-min", n_min,
                           "--n-max", n_max, "-o", str(tmp_path / "out"))
        assert code == EXIT_VALIDATION
        assert named in err
        assert not (tmp_path / "out").exists()


class TestField:
    def test_grid_artifacts(self, capsys, tmp_path):
        code, _, _ = run(capsys, "field", "far", "-N", "8",
                         "--xlim", "-4", "4", "--ylim", "-4", "4",
                         "--nx", "9", "--ny", "9", "-o", str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "far_field.csv").read_text().splitlines()
        assert lines[0] == "x,y,re_total,im_total,abs_total,inside"
        assert len(lines) == 1 + 81
        flags = {row.split(",")[5] for row in lines[1:]}
        assert flags == {"0", "1"}
        assert "far_field.csv" in (tmp_path / "far_field.gp").read_text()

    def test_grid_beyond_argument_cap_fails(self, capsys, tmp_path):
        # k r_p reaches 0.6 * 2000 = 1200 > ARG_CAP
        code, _, err = run(capsys, "field", "far", "-N", "4",
                           "--xlim", "2000", "2001", "--ylim", "0", "1",
                           "--nx", "2", "--ny", "2", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "cap" in err
        assert not (tmp_path / "far_field.csv").exists()

    def test_argument_cap_is_checked_before_any_block(self, capsys,
                                                      tmp_path):
        # (2000, 0) lies k r_3 = 0.6 * 2000.05 from the third cylinder
        code, _, err = run(capsys, "field", "far", "-N", "5",
                           "--xlim", "0", "2000", "--ylim", "0", "10",
                           "--nx", "50", "--ny", "5", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert ("grid point at k r_p = 1200.03 from cylinder 3 exceeds the "
                "argument cap 1000.0") in err
        assert list(tmp_path.glob("*_field.csv")) == []

    def test_truncation_beyond_order_cap_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "field", "far", "-N", "101",
                           "--xlim", "-4", "4", "--ylim", "-4", "4",
                           "--nx", "3", "--ny", "3", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "N <= 100" in err
        assert not (tmp_path / "far_field.csv").exists()

    @pytest.mark.parametrize("counts", [("0", "5"), ("5", "0"), ("-2", "5")])
    def test_grid_counts_below_one_are_rejected(self, capsys, tmp_path,
                                                counts):
        with pytest.raises(SystemExit) as exc:
            main(["field", "far", "-N", "4", "--xlim", "-4", "4",
                  "--ylim", "-4", "4", "--nx", counts[0], "--ny", counts[1],
                  "-o", str(tmp_path)])
        assert exc.value.code == EXIT_VALIDATION
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "far_field.csv").exists()

    def test_divergent_backend_writes_nothing(self, capsys, tmp_path,
                                              monkeypatch):
        # field always solves densely; here its solve is the reflections
        # iteration, which diverges on touching, and it leaves no field
        monkeypatch.setitem(memscat.solver.BACKENDS, "dense",
                            memscat.solver.solve_reflections)
        code, _, err = run(capsys, "field", "touching", "-N", "10",
                           "--xlim", "-3", "3", "--ylim", "-3", "3",
                           "--nx", "4", "--ny", "4", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "no field written" in err
        assert not list(tmp_path.iterdir())


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert "all selftest checks passed" in out
        assert "FAIL" not in out


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["validate", "far", "-o", "d"],
        ["selftest", "-o", "d"],
        ["bounds", "far", "-k", "3"],
        ["sweep", "far", "--wavenumber", "3"],
        ["sweep", "far", "--backend", "dense"],
        ["field", "far", "-N", "4", "--xlim", "-4", "4", "--ylim", "-4", "4",
         "--backend", "dense"],
        ["sweep", "far", "--allow-high-k"],
    ])
    def test_removed_options_are_usage_errors(self, capsys, tmp_path,
                                              monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage: memscat")
        assert "error: unrecognized arguments" in err
        assert not list(tmp_path.iterdir())

    def test_removed_backend_is_a_usage_error(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "far", "-N", "4", "--backend", "first-order"])
        assert exc.value.code == EXIT_VALIDATION
        assert ("error: argument --backend: invalid choice: 'first-order'"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_readme_flag_table_matches_the_parser(self):
        # README's "| `command` | `flag`, ... |" rows name each command's
        # option strings: `-N/--truncation N` is -N and --truncation
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        table = text[text.index("| command    | flags |"):]
        table = table[:table.index("\n\n")]
        documented = {}
        for row in table.splitlines()[2:]:
            command, flags = (cell.strip() for cell in row.split("|")[1:3])
            documented[command.strip("`")] = {
                opt for flag in re.findall(r"`([^`]*)`", flags)
                for opt in flag.split()[0].split("/")}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        parsed = {name: {opt for action in sub._actions
                         for opt in action.option_strings} - {"-h", "--help"}
                  for name, sub in subparsers.choices.items()}
        assert documented == parsed

    def test_readme_quick_start_runs(self, capsys, tmp_path, monkeypatch):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = re.search(r"## Quick start\n\n```sh\n(.*?)```", text,
                          re.S).group(1)
        commands = [shlex.split(line, comments=True)[1:]
                    for line in block.splitlines()
                    if line.startswith("memscat ")]
        assert commands
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            if argv[0] == "selftest":      # TestSelftest runs it
                continue
            if "-o" in argv:
                argv[argv.index("-o") + 1] = str(tmp_path / "out")
            code, _, err = run(capsys, *argv)
            assert code == EXIT_OK, (argv, err)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # the package's src first, so an uninstalled checkout runs too
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "memscat.cli", "validate", "far"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == EXIT_OK
        assert "scene ok" in proc.stdout


class TestVersion:
    def test_package_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        path = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(path, "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert memscat.__version__ == declared
