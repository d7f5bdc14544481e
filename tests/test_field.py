"""Field evaluation: multipole sums, quadrature cross-check, far field."""

import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from instruments import far_field_amplitude, total_field
from memscat import (
    CapabilityError,
    Cylinder,
    InteriorPointError,
    PlaneWave,
    PointSource,
    Scene,
    assemble_system,
    boundary_residual,
    scattered_field,
    solve,
)
from memscat import field as field_module
from memscat import specfun
from memscat.assembly import CoefficientVector
from memscat.field import (
    _BLOCK_POINTS,
    _TABLE_ROWS,
    _format_column,
    _pow10,
    _scattered_unchecked,
    incident_field,
    interior_mask,
    single_layer_field_quadrature,
    total_field_grid,
    write_field_csv,
    write_plot_script,
)


@pytest.fixture(scope="module")
def single_solution():
    sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6, PointSource((-20.0, -25.0)))
    op, rhs = assemble_system(sc, 12)
    return sc, solve(op, rhs).solution


@pytest.fixture(scope="module")
def far_phi(far_scene):
    op, rhs = assemble_system(far_scene, 13)
    return solve(op, rhs).solution


def exterior_cloud(scene, n, seed=7, box=30.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(4 * n, 2))
    pts = pts[~interior_mask(scene, pts)]
    return pts[:n]


class TestIncidentField:
    def test_plane_wave_values(self):
        sc = Scene((Cylinder((5.0, 5.0), 1.0),), 2.0, PlaneWave(0.0))
        pts = np.array([[0.0, 0.0], [1.0, 3.0], [-0.25, 0.5]])
        u = incident_field(sc, pts)
        assert np.allclose(u, np.exp(2.0j * pts[:, 0]), rtol=1e-14)

    def test_point_source_is_radially_symmetric(self):
        sc = Scene((Cylinder((40.0, 0.0), 1.0),), 0.9, PointSource((1.0, 2.0)))
        a = incident_field(sc, np.array([[4.0, 6.0]]))[0]
        b = incident_field(sc, np.array([[-2.0, -2.0]]))[0]
        assert a == pytest.approx(b, rel=1e-13)

    # largest |H_0 - AMOS| / |AMOS| at k r in each range, about twice the
    # maximum over 8e5 arguments per range (9.9e-16, 4.2e-15, 3.2e-15 and
    # 3.2e-14): cephes reduces the phase in double, so its error grows
    # with the argument
    @pytest.mark.parametrize("lo, hi, bound", [
        (1e-3, 1.0, 2e-15),
        (1.0, 50.0, 8e-15),
        (50.0, 200.0, 8e-15),
        (200.0, specfun.ARG_CAP, 6e-14),
    ])
    def test_point_source_matches_amos(self, lo, hi, bound):
        k = 1.7
        sc = Scene((Cylinder((-40.0, 0.0), 1.0),), k, PointSource((0.5, -2.0)))
        kr = np.geomspace(lo, hi, 20001)
        t = np.linspace(0.0, 2.0 * np.pi, kr.size)
        pts = np.stack([0.5 + kr / k * np.cos(t), -2.0 + kr / k * np.sin(t)],
                       axis=1)
        want = 0.25j * scipy.special.hankel1(
            0, k * np.hypot(pts[:, 0] - 0.5, pts[:, 1] + 2.0))
        rel = np.abs(incident_field(sc, pts) - want) / np.abs(want)
        assert np.max(rel) <= bound

    def test_point_source_at_the_source(self):
        # the limit of (i/4) H_0(k r) as r -> 0: Y_0 -> -inf, J_0 -> 1
        sc = Scene((Cylinder((40.0, 0.0), 1.0),), 0.9, PointSource((1.0, 2.0)))
        u = incident_field(sc, np.array([[1.0, 2.0]]))[0]
        assert (u.real, u.imag) == (np.inf, 0.25)

    def test_total_is_incident_plus_scattered(self, far_scene, far_phi):
        pts = exterior_cloud(far_scene, 10)
        direct = total_field(far_scene, far_phi, pts)
        split = (incident_field(far_scene, pts)
                 + scattered_field(far_scene, far_phi, pts))
        assert np.allclose(direct, split, rtol=0, atol=1e-15)


class TestScatteredField:
    def test_zero_coefficients_give_zero_field(self, far_scene):
        phi = CoefficientVector(np.zeros((3, 11)))
        pts = exterior_cloud(far_scene, 8)
        assert np.all(scattered_field(far_scene, phi, pts) == 0.0)

    def test_matches_quadrature_route(self, far_scene, far_phi):
        pts = exterior_cloud(far_scene, 20)
        u_multipole = scattered_field(far_scene, far_phi, pts)
        u_quadrature = single_layer_field_quadrature(far_scene, far_phi, pts,
                                                     n_quad=512)
        assert np.max(np.abs(u_multipole - u_quadrature)) < 1e-8

    def test_quadrature_resolution_stability(self, far_scene, far_phi):
        pts = exterior_cloud(far_scene, 6)
        u1 = single_layer_field_quadrature(far_scene, far_phi, pts, n_quad=256)
        u2 = single_layer_field_quadrature(far_scene, far_phi, pts, n_quad=512)
        assert np.max(np.abs(u1 - u2)) < 1e-10

    def test_linearity_in_the_coefficients(self, far_scene, far_phi):
        pts = exterior_cloud(far_scene, 8)
        c = 1.3 - 0.4j
        scaled = CoefficientVector(c * far_phi.data)
        assert np.allclose(scattered_field(far_scene, scaled, pts),
                           c * scattered_field(far_scene, far_phi, pts),
                           rtol=1e-13)

    def test_interior_points_are_rejected(self, far_scene, far_phi):
        with pytest.raises(InteriorPointError):
            scattered_field(far_scene, far_phi, np.array([[0.0, 0.0]]))

    def test_mirror_symmetric_scene(self):
        # Axis-aligned pair hit along the axis: the field must be symmetric
        # under y -> -y.
        sc = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((4.0, 0.0), 1.0)),
                   0.6, PlaneWave(0.0))
        op, rhs = assemble_system(sc, 10)
        phi = solve(op, rhs).solution
        upper = np.array([[1.0, 2.5], [3.3, 1.7], [-2.0, 0.4]])
        lower = upper * np.array([1.0, -1.0])
        assert np.max(np.abs(scattered_field(sc, phi, upper)
                             - scattered_field(sc, phi, lower))) < 1e-9

    def test_values_do_not_depend_on_the_batch(self, far_scene, far_phi):
        # The far points set the largest k r_p of the big batch; each point's
        # value is computed from its own coordinates alone.
        pts = np.concatenate([exterior_cloud(far_scene, 300),
                              [[1500.0, 0.0], [-900.0, 700.0]]])
        full = scattered_field(far_scene, far_phi, pts)
        for sub in (np.arange(5), np.arange(7, 300, 13), [301, 2, 300]):
            part = scattered_field(far_scene, far_phi, pts[sub])
            assert np.array_equal(part.view(np.int64), full[sub].view(np.int64))

    def test_deep_orders_on_small_cylinders(self):
        # k a = 5e-5 at N = 60: H_60(k r_p) near the rims is ~1e356, out of
        # double range, while each term of the radiation sum is bounded.
        a = 1e-3
        sc = Scene((Cylinder((0.0, 0.0), a), Cylinder((4e-3, 0.0), a)),
                   0.05, PointSource((-0.01, 0.003)))
        op, rhs = assemble_system(sc, 60)
        phi = solve(op, rhs).solution
        t = 2.0 * np.pi * np.arange(8) / 8
        pts = np.concatenate([
            np.stack([cx + rr * np.cos(t), rr * np.sin(t)], axis=1)
            for cx in (0.0, 4e-3) for rr in (1.2 * a, 1.5 * a)])
        u = scattered_field(sc, phi, pts)
        assert np.all(np.isfinite(u))
        u_quadrature = single_layer_field_quadrature(sc, phi, pts, n_quad=512)
        assert np.max(np.abs(u - u_quadrature)) < 1e-8

    def test_argument_cap_is_enforced(self, single_solution):
        sc, phi = single_solution
        # k r_p = 0.6 * 2000 = 1200 > ARG_CAP
        with pytest.raises(CapabilityError):
            scattered_field(sc, phi, np.array([[2000.0, 0.0]]))


class TestBoundaryResidual:
    def test_residual_drops_fast_with_truncation(self, far_scene):
        values = {}
        for n in (3, 13):
            op, rhs = assemble_system(far_scene, n)
            phi = solve(op, rhs).solution
            values[n] = boundary_residual(far_scene, phi)
        assert values[3] / values[13] >= 100.0

    def test_single_cylinder_residual_is_tiny(self, single_solution):
        # Evaluated on the boundary itself the Dirichlet defect sits at
        # machine level; the default standoff adds an O(offset) floor, so
        # this check pins both readings.
        sc, phi = single_solution
        assert boundary_residual(sc, phi, offset=0.0) < 1e-8
        assert boundary_residual(sc, phi) < 5e-7

    def test_residual_decreases_monotonically(self, far_scene):
        values = []
        for n in (4, 6, 8, 10, 12):
            op, rhs = assemble_system(far_scene, n)
            phi = solve(op, rhs).solution
            values.append(boundary_residual(far_scene, phi, offset=0.0))
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi * 1.05

    @pytest.mark.parametrize("incident", [PlaneWave(0.4),
                                          PointSource((-3.0, -2.0))])
    def test_one_evaluation_for_all_cylinders(self, monkeypatch, incident):
        sc = Scene(tuple(Cylinder((2.5 * i, 2.5 * j), 0.5)
                         for i in range(4) for j in range(4)),
                   1.1, incident)
        op, rhs = assemble_system(sc, 6)
        phi = solve(op, rhs).solution

        def per_cylinder_loop(offset):
            # evaluates each cylinder's samples in a call of its own
            t = 2.0 * np.pi * np.arange(360) / 360
            worst = 0.0
            for cyl in sc.cylinders:
                rr = cyl.radius * (1.0 + offset)
                pts = np.stack([cyl.center[0] + rr * np.cos(t),
                                cyl.center[1] + rr * np.sin(t)], axis=1)
                vals = (incident_field(sc, pts)
                        + _scattered_unchecked(sc, phi, pts))
                worst = max(worst, float(np.max(np.abs(vals))))
            return worst

        # one J and one Y table over all radii
        calls = {"bessel_j_grid_scaled": 0, "bessel_y_grid_scaled": 0}
        for name in calls:
            def counted(*args, _inner=getattr(specfun, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(specfun, name, counted)
        for offset in (0.0, 1e-6):
            calls.update(dict.fromkeys(calls, 0))
            batched = boundary_residual(sc, phi, offset=offset)
            assert calls == {"bessel_j_grid_scaled": 1,
                             "bessel_y_grid_scaled": 1}
            assert batched == per_cylinder_loop(offset)


class TestFarField:
    def test_sqrt_r_scaling_matches_the_amplitude(self, single_solution):
        sc, phi = single_solution
        angles = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
        F = np.abs(far_field_amplitude(sc, phi, angles))
        for r in (100.0, 400.0):
            pts = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
            u = np.abs(scattered_field(sc, phi, pts)) * np.sqrt(r)
            assert np.max(np.abs(u / F - 1.0)) < 0.01

    def test_ray_constancy(self, single_solution):
        sc, phi = single_solution
        theta = 0.7
        readings = []
        for r in (100.0, 200.0, 400.0):
            x = np.array([[r * np.cos(theta), r * np.sin(theta)]])
            readings.append(abs(scattered_field(sc, phi, x)[0]) * np.sqrt(r))
        assert max(readings) / min(readings) < 1.01

    def test_linearity(self, single_solution):
        sc, phi = single_solution
        angles = np.array([0.3, 2.0])
        c = 2.0j
        scaled = CoefficientVector(c * phi.data)
        assert np.allclose(far_field_amplitude(sc, scaled, angles),
                           c * far_field_amplitude(sc, phi, angles),
                           rtol=1e-13)

    def test_mirror_symmetry_of_the_pattern(self):
        sc = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((4.0, 0.0), 1.0)),
                   0.6, PlaneWave(0.0))
        op, rhs = assemble_system(sc, 10)
        phi = solve(op, rhs).solution
        up = far_field_amplitude(sc, phi, np.array([0.9, 2.2]))
        down = far_field_amplitude(sc, phi, np.array([-0.9, -2.2]))
        assert np.allclose(up, down, rtol=1e-10)


class TestGrid:
    def test_interior_samples_are_masked(self, far_scene, far_phi):
        xs, ys, U, inside = total_field_grid(far_scene, far_phi,
                                             (-3.0, 3.0), (-3.0, 3.0), 5, 5)
        assert inside[2, 2]
        assert np.isnan(U[2, 2].real)
        assert not inside[0, 0]
        assert np.isfinite(U[0, 0])

    def test_single_point_grid_matches_direct_evaluation(self, far_scene,
                                                         far_phi):
        xs, ys, U, inside = total_field_grid(far_scene, far_phi,
                                             (7.0, 7.0), (-3.0, -3.0), 1, 1)
        direct = total_field(far_scene, far_phi, np.array([[7.0, -3.0]]))[0]
        assert not inside[0, 0]
        assert U[0, 0] == pytest.approx(direct, rel=1e-14)

    def test_grid_axes_orientation(self, far_scene, far_phi):
        xs, ys, U, inside = total_field_grid(far_scene, far_phi,
                                             (-2.0, 2.0), (5.0, 6.0), 3, 2)
        assert xs.tolist() == [-2.0, 0.0, 2.0]
        assert ys.tolist() == [5.0, 6.0]
        assert U.shape == inside.shape == (2, 3)
        # row i, column j of U is the point (xs[j], ys[i])
        alone = total_field(far_scene, far_phi, np.array([[2.0, 5.0]]))
        assert U[0, 2] == alone[0]

    def test_csv_schema(self, tmp_path, far_scene, far_phi):
        xs, ys, U, inside = total_field_grid(far_scene, far_phi,
                                             (-3.0, 3.0), (-3.0, 3.0), 3, 3)
        path = tmp_path / "field.csv"
        write_field_csv(path, xs, ys, U, inside)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,re_total,im_total,abs_total,inside"
        assert len(lines) == 10
        center = lines[5].split(",")
        assert center[2] == "nan" and center[5] == "1"
        corner = lines[1].split(",")
        assert corner[5] == "0" and np.isfinite(float(corner[2]))

    def test_csv_matches_row_by_row_writer(self, tmp_path, far_scene, far_phi):
        def row_writer(path, xs, ys, U, inside):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("x,y,re_total,im_total,abs_total,inside\n")
                for i, y in enumerate(ys):
                    for j, x in enumerate(xs):
                        u = U[i, j]
                        if int(inside[i, j]):
                            fh.write(f"{x:.16e},{y:.16e},nan,nan,nan,1\n")
                        else:
                            fh.write(f"{x:.16e},{y:.16e},"
                                     f"{u.real:.16e},{u.imag:.16e},"
                                     f"{abs(u):.16e},0\n")

        grid = total_field_grid(far_scene, far_phi, (-3.0, 14.0), (-5.0, 3.0),
                                18, 9)
        assert grid[3].any() and not grid[3].all()
        # one full block of _BLOCK_POINTS rows and a partial one
        side = int(np.sqrt(1.5 * _BLOCK_POINTS))
        blocks = total_field_grid(far_scene, far_phi, (-3.0, 14.0),
                                  (-5.0, 16.0), side, side)
        assert blocks[3].any() and not blocks[3].all()
        assert _BLOCK_POINTS < blocks[3].size < 2 * _BLOCK_POINTS
        # a partial table of _TABLE_ROWS rows, and interior rows on both
        # sides of the first table's end
        tables = total_field_grid(far_scene, far_phi, (-3.0, 3.0),
                                  (-3.0, 3.0), 33, 31)
        assert tables[3].size % _TABLE_ROWS
        assert tables[3].ravel()[_TABLE_ROWS - 1:_TABLE_ROWS + 1].all()
        # axes with repeats, both signed zeros, a tiny and negative values
        xs = np.array([-7.25, -0.0, 0.0, 3.5, 1e-300, 19.0, -7.25])
        ys = np.random.default_rng(11).uniform(-20.0, 20.0, size=6)
        ys[[2, 4]] = [ys[0], -0.0]
        X, Y = np.meshgrid(xs, ys)
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        inside = interior_mask(far_scene, pts)
        U = np.full(pts.shape[0], np.nan + 0j)
        U[~inside] = total_field(far_scene, far_phi, pts[~inside])
        axes = (xs, ys, U.reshape(X.shape), inside.reshape(X.shape))
        for case in (grid, blocks, tables, axes):
            write_field_csv(tmp_path / "new.csv", *case)
            row_writer(tmp_path / "old.csv", *case)
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "old.csv").read_bytes())

    def test_values_do_not_depend_on_the_grid(self, far_scene, far_phi):
        # more than 16384 exterior points: numpy would elide temporaries in
        # one call over all of them, and round differently; the plane wave
        # at an oblique angle checks the incident phase as well
        plane = Scene(far_scene.cylinders, far_scene.wavenumber,
                      PlaneWave(0.7))
        plane_phi = solve(*assemble_system(plane, 13)).solution
        for sc, phi in ((far_scene, far_phi), (plane, plane_phi)):
            xs, ys, U, inside = total_field_grid(sc, phi, (-6.0, 18.0),
                                                 (-8.0, 20.0), 150, 150)
            X, Y = np.meshgrid(xs, ys)
            exterior = np.flatnonzero(~inside.ravel())
            assert exterior.size > 2 * _BLOCK_POINTS
            sample = np.random.default_rng(3).choice(exterior, 150,
                                                     replace=False)
            for i in np.sort(sample):
                point = [[X.ravel()[i], Y.ravel()[i]]]
                alone = total_field(sc, phi, point)
                assert alone.view(np.int64).tolist() == \
                    U.ravel()[i:i + 1].view(np.int64).tolist(), \
                    (sc.incident, point)

    @staticmethod
    def traced(f, *args):
        """f(*args) and the tracemalloc peak of the call."""
        tracemalloc.start()
        try:
            return f(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @classmethod
    def grid_peak(cls, scene, phi, n):
        """tracemalloc peak of evaluating and writing an n x n far grid."""
        def evaluate_and_write():
            grid = total_field_grid(scene, phi, (-6.0, 18.0), (-8.0, 20.0),
                                    n, n)
            write_field_csv(os.devnull, *grid)
        return cls.traced(evaluate_and_write)[1]

    def test_memory_peak_of_a_large_grid(self, far_scene):
        # U and the mask take 17 bytes a point (1.5 MiB here); the blocks
        # add a fixed cost
        phi = solve(*assemble_system(far_scene, 10)).solution
        assert self.grid_peak(far_scene, phi, 300) < 10 * 2 ** 20

    def test_memory_per_grid_point(self, far_scene):
        # only the values and the mask grow with the grid: 17 bytes a point,
        # where the X and Y meshgrids would add 16 more
        phi = solve(*assemble_system(far_scene, 10)).solution
        small = self.grid_peak(far_scene, phi, 300)
        large = self.grid_peak(far_scene, phi, 600)
        assert (large - small) / (600 ** 2 - 300 ** 2) < 20.0

    def test_evaluation_working_set(self, far_scene, far_solution):
        # beyond the values and mask it returns, evaluating the 200x200 far
        # grid at N = 12 holds one block's arrays, and no cylinder's outlive
        # its turn: 0.76 MiB measured
        grid, peak = self.traced(total_field_grid, far_scene,
                                 far_solution.solution, (-6.0, 18.0),
                                 (-8.0, 20.0), 200, 200)
        assert peak - sum(a.nbytes for a in grid) < 0.83 * 2 ** 20

    def test_writer_working_set(self, far_scene, far_solution):
        # beyond the arrays it is given, writing the 200x200 far grid holds
        # one block's value text and one table of _TABLE_ROWS rows: 0.71 MiB
        # measured
        grid = total_field_grid(far_scene, far_solution.solution,
                                (-6.0, 18.0), (-8.0, 20.0), 200, 200)
        _, peak = self.traced(write_field_csv, os.devnull, *grid)
        assert peak < 0.9 * 2 ** 20

    def test_argument_cap_is_checked_before_any_block(self, far_scene,
                                                      far_phi, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block was evaluated")
        monkeypatch.setattr(field_module, "_scattered_block", refuse)
        # (2000, 0) lies k r_3 = 0.6 * 2000.05 from the third cylinder
        with pytest.raises(CapabilityError, match="k r_p = 1200.03 from "
                           "cylinder 3 exceeds the argument cap 1000.0"):
            total_field_grid(far_scene, far_phi, (0.0, 2000.0), (0.0, 10.0),
                             50, 5)

    def test_argument_cap_counts_exterior_points_only(self):
        # every point beyond k r_1 = 1000 lies inside the second cylinder
        sc = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((1500.0, 0.0), 400.0)),
                   0.6, PlaneWave(0.3))
        phi = CoefficientVector(np.zeros((2, 9)))
        xs, ys, U, inside = total_field_grid(sc, phi, (1000.0, 1800.0),
                                             (-10.0, 10.0), 81, 3)
        X, Y = np.meshgrid(xs, ys)
        assert 0.6 * np.max(np.hypot(X[inside], Y[inside])) > 1000.0
        assert 0.6 * np.max(np.hypot(X[~inside], Y[~inside])) < 1000.0
        assert np.all(np.isfinite(U[~inside])) and np.all(np.isnan(U[inside]))

    def test_empty_grid_writes_the_header_only(self, tmp_path, far_scene,
                                               far_phi):
        xs, empty = np.linspace(-3.0, 3.0, 4), np.zeros((0, 4))
        grid = total_field_grid(far_scene, far_phi, (-3.0, 3.0), (-3.0, 3.0),
                                4, 0)
        assert [a.shape for a in grid] == [(4,), (0,), (0, 4), (0, 4)]
        for case in ((xs, np.zeros(0), empty.astype(np.complex128),
                      empty.astype(bool)), grid):
            write_field_csv(tmp_path / "empty.csv", *case)
            assert ((tmp_path / "empty.csv").read_bytes()
                    == b"x,y,re_total,im_total,abs_total,inside\n")

    def test_writer_rejects_values_off_the_axes(self, tmp_path, far_scene,
                                                far_phi):
        xs, ys, U, inside = total_field_grid(far_scene, far_phi, (-3.0, 3.0),
                                             (-3.0, 3.0), 4, 3)
        X, Y = np.meshgrid(xs, ys)
        path = tmp_path / "field.csv"
        for case in ((ys, xs, U, inside), (xs, ys, U.T, inside),
                     (xs, ys, U, inside.T), (xs, ys, U.ravel(), inside),
                     (xs[:3], ys, U[:, :3], inside), (X, Y, U, inside)):
            with pytest.raises(ValueError):
                write_field_csv(path, *case)
        assert not path.exists()

    def test_plot_script_references_the_csv(self, tmp_path):
        path = tmp_path / "field.gp"
        write_plot_script(path, "field.csv")
        text = path.read_text()
        assert "field.csv" in text
        assert "splot" in text


class TestInteriorMask:
    def test_margin_is_tight(self, far_scene):
        # Points just outside the disk count as exterior; just inside, not.
        assert not interior_mask(far_scene, np.array([[2.1, 0.0]]))[0]
        assert interior_mask(far_scene, np.array([[1.9, 0.0]]))[0]

    def test_accepts_single_point(self, far_scene):
        assert interior_mask(far_scene, [0.0, 0.0])[0]


def _python_text(values) -> bytes:
    return "".join(map("{:.16e}\n".format, values.tolist())).encode()


def _column_text(values) -> bytes:
    table = _format_column(values)
    newline = np.full((table.shape[0], 1), ord("\n"), dtype=np.uint8)
    lines = np.concatenate([table, newline], axis=1)
    return lines[lines != 0].tobytes()


def _assert_formats_like_python(values):
    values = np.asarray(values, dtype=np.float64)
    if _column_text(values) != _python_text(values):
        table = _format_column(values)
        bad = [(v, "{:.16e}".format(v), bytes(row[row != 0]).decode())
               for v, row in zip(values.tolist(), table)
               if "{:.16e}".format(v) != bytes(row[row != 0]).decode()]
        pytest.fail(f"{len(bad)} values differ from '{{:.16e}}': {bad[:5]}")


class TestFormatColumn:
    """`_format_column` against its oracle, Python's '{:.16e}'.format."""

    @given(st.lists(st.one_of(
        st.floats(),
        st.integers(0, 2 ** 64 - 1).map(
            lambda bits: float(np.uint64(bits).view(np.float64)))),
        max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_doubles(self, values):
        _assert_formats_like_python(values)

    def test_bit_patterns_and_hard_families(self):
        rng = np.random.default_rng(5)
        # the oracle takes up to 3 us per value at large exponents, which
        # sets the size that keeps this test near a second
        random_bits = rng.integers(0, 2 ** 64, size=300_000,
                                   dtype=np.uint64).view(np.float64)
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        odd = 2.0 * np.arange(1, 20001) + 1.0
        j = np.arange(1, 20001, dtype=np.float64)
        odd_18_digits = 2.0 * rng.integers(2 ** 30, 2 ** 31, 20000) + 1.0
        families = [
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            odd * 5.0 * 2.0 ** 10,
            # 18 significant digits ending in 5: exact decimal ties
            odd_18_digits * 5.0 * 2.0 ** -10,
            j * 2.0 ** 40,
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, 1e-280, 1e280],
        ]
        _assert_formats_like_python(random_bits)
        for values in families:
            _assert_formats_like_python(values)
            _assert_formats_like_python(-np.asarray(values))

    def test_empty_column(self):
        assert _format_column(np.zeros(0)).shape == (0, 24)

    def test_powers_of_ten_are_the_rounded_rationals(self):
        # every exponent 16 - E that a value in [1e-280, 1e280] can ask for
        k = np.arange(-264, 297)
        hi, lo = _pow10(k[::-1])
        for e, h, l in zip(k[::-1].tolist(), hi.tolist(), lo.tolist()):
            exact = Fraction(10) ** e
            assert (h, l) == (float(exact), float(exact - Fraction(h))), e
