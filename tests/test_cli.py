"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import memscat
from memscat import (Cylinder, NonConvergenceError, PlaneWave, Scene,
                     dumps_scene, loads_scene)
from memscat.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main


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
        code, _, err = run(capsys, command[0], str(path), *command[1:],
                           "-o", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert err.startswith("scene rejected:")
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
        from memscat.assembly import load_system_dump
        mat, M, N, k = load_system_dump(dump)
        assert (M, N, k) == (3, 4, 0.6)
        assert mat.shape == (27, 27)

    def test_divergent_reflections_exit_numerical(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "touching", "-N", "12",
                           "--backend", "reflections", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "diverged" in err
        assert not (tmp_path / "touching_solution.csv").exists()

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
        assert "rate[E]" in out
        csv = tmp_path / "far_sweep_k0.6.csv"
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert data.shape == (12, 4)
        assert np.all(data[:, 1] > 0.0)
        assert (tmp_path / "far_sweep_k0.6.gp").exists()

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

    def test_high_wavenumber_is_gated(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "far", "--n-min", "1",
                           "--n-max", "6", "--k", "15", "-o", str(tmp_path))
        assert code == EXIT_VALIDATION
        assert "--allow-high-k" in err
        assert not (tmp_path / "far_sweep_k15.csv").exists()

    def test_high_wavenumber_flag_warns_but_runs(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "far", "--n-min", "1",
                           "--n-max", "6", "--k", "15", "--allow-high-k",
                           "-o", str(tmp_path))
        assert code == EXIT_OK
        assert "warning" in err
        assert (tmp_path / "far_sweep_k15.csv").exists()

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

    def test_non_converging_backend_exits_numerical(self, capsys, tmp_path):
        # the reflections iteration diverges on the near-touching preset,
        # so there is no reference to measure E against
        code, _, err = run(capsys, "sweep", "touching", "--backend",
                           "reflections", "--n-max", "10",
                           "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "reflections solve at N = 15 did not converge" in err
        assert not list(tmp_path.iterdir())

    def test_failed_wavenumber_does_not_stop_the_rest(self, capsys, tmp_path,
                                                      monkeypatch):
        sweep = memscat.analysis.convergence_sweep

        def fail_at_low_k(scene, *args, **kwargs):
            if scene.wavenumber == 0.6:
                raise NonConvergenceError("no reference at this k")
            return sweep(scene, *args, **kwargs)
        monkeypatch.setattr(memscat.analysis, "convergence_sweep",
                            fail_at_low_k)
        # the numerical failure sets the exit code over the refused k = 15
        code, out, err = run(capsys, "sweep", "far", "--n-max", "6",
                             "--k", "0.6", "--k", "15", "--k", "3",
                             "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "numerical failure at k = 0.6: no reference at this k" in err
        assert "--allow-high-k" in err
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

    def test_divergent_backend_writes_nothing(self, capsys, tmp_path):
        code, _, err = run(capsys, "field", "touching", "-N", "10",
                           "--backend", "reflections",
                           "--xlim", "-3", "3", "--ylim", "-3", "3",
                           "--nx", "4", "--ny", "4", "-o", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert not (tmp_path / "touching_field.csv").exists()


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert "all selftest checks passed" in out
        assert "FAIL" not in out


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
