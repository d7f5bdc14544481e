"""Tests for system assembly: coupling blocks, incident traces, operators.

The closed-form route (Graf/addition-theorem products of Bessel factors) is
certified against the boundary-integral quadrature route, which shares no
code with it beyond the special-function stack.  Frozen complex literals come
from 40-digit arithmetic applied to the same closed forms.
"""

import math
import tracemalloc

import numpy as np
import pytest

from instruments import (bessel_j, hankel1, incident_trace_quadrature,
                         load_system_dump)
from memscat import (
    CapabilityError,
    CoefficientVector,
    Cylinder,
    PlaneWave,
    PointSource,
    Scene,
    assemble_system,
    solve,
)
from memscat.assembly import (
    _kress_log_weights,
    assemble_raw,
    dump_system,
    mode_range,
    mode_weights,
    pairing_block_quadrature,
)
from memscat.scene import pairwise_geometry
from memscat import specfun

V00_UNIT = -0.10608219815307811 + 0.91974444547346407j
B00_UNIT = -0.12375672847029726 - 1.0729845872563194j
F0_PLANE_UNIT = -1.9180661568084288


@pytest.fixture(scope="module")
def unit_scene():
    return Scene((Cylinder((0.0, 0.0), 1.0),), 1.0, PlaneWave(0.0))


@pytest.fixture(scope="module")
def moderate_geom(moderate_scene):
    return pairwise_geometry(moderate_scene)


def pair_block(op, p, q):
    """The (p, q) block of the assembled matrix."""
    b = op.block_size
    return op.matrix[p * b:(p + 1) * b, q * b:(q + 1) * b]


def raw_block(scene, p, q, N):
    """The (p, q) block of V from assemble_raw."""
    return pair_block(assemble_raw(scene, N)[0], p, q)


def precond(scene, p, N):
    """B^pp = 1 / diag(V^pp), the diagonal preconditioner."""
    return 1.0 / np.diag(raw_block(scene, p, p, N))


def incident(scene, p, N):
    """f^p from assemble_raw."""
    return assemble_raw(scene, N)[1].data[p]


class TestCouplingBlocks:
    def test_self_block_diagonal_value(self, unit_scene):
        V = raw_block(unit_scene, 0, 0, 2)
        assert V[2, 2] == pytest.approx(V00_UNIT, rel=1e-13)

    def test_self_block_is_diagonal(self, unit_scene):
        V = raw_block(unit_scene, 0, 0, 3)
        off = V - np.diag(np.diag(V))
        assert np.max(np.abs(off)) == 0.0

    def test_against_quadrature_entrywise(self, close_scene):
        # Independent route: Kress-quadrature pairings of the single-layer
        # kernel against the Fourier basis.
        V = raw_block(close_scene, 0, 1, 6)
        Q = pairing_block_quadrature(close_scene, 0, 1, 6, n_quad=384)
        assert np.max(np.abs(V - Q)) < 1e-8

    def test_diagonal_against_kress_quadrature(self, unit_scene):
        V = raw_block(unit_scene, 0, 0, 4)
        Q = pairing_block_quadrature(unit_scene, 0, 0, 4, n_quad=256)
        for m in (-3, 0, 2):
            assert abs(V[m + 4, m + 4] - Q[m + 4, m + 4]) < 1e-6

    def test_quadrature_resolution_stability(self, close_scene):
        Q1 = pairing_block_quadrature(close_scene, 1, 0, 5, n_quad=192)
        Q2 = pairing_block_quadrature(close_scene, 1, 0, 5, n_quad=384)
        assert np.max(np.abs(Q1 - Q2)) < 1e-10

    def test_block_nesting_across_truncation(self, moderate_scene):
        V8 = raw_block(moderate_scene, 0, 1, 8)
        V13 = raw_block(moderate_scene, 0, 1, 13)
        dev = np.max(np.abs(V8 - V13[5:-5, 5:-5]))
        assert dev < 1e-13 * np.max(np.abs(V8))


def kress_weights_by_loop(n_half):
    """The Kress weights summed over the full (2n, 2n) matrix of
    differences, one cosine pass per term: the direct form of the rule."""
    n2 = 2 * n_half
    t = 2.0 * np.pi * np.arange(n2) / n2
    diff = t[:, None] - t[None, :]
    r = np.zeros((n2, n2))
    for ell in range(1, n_half):
        r -= (2.0 * np.pi / n_half) / ell * np.cos(ell * diff)
    r -= (np.pi / n_half ** 2) * np.cos(n_half * diff)
    return r


class TestKressWeights:
    def test_integrates_log_kernel_modes(self):
        # int_0^{2 pi} e^{i m t} log(4 sin^2((s - t)/2)) dt
        #   = -(2 pi / |m|) e^{i m s}  (0 for m = 0),
        # and the rule is exact for |m| < n_half
        n_half = 32
        R = _kress_log_weights(n_half)
        s = 2.0 * np.pi * np.arange(2 * n_half) / (2 * n_half)
        worst = 0.0
        for m in range(1 - n_half, n_half):
            mode = np.exp(1j * m * s)
            exact = 0.0 if m == 0 else -(2.0 * np.pi / abs(m)) * mode
            worst = max(worst, np.max(np.abs(R @ mode - exact)))
        assert worst < 1e-13

    @pytest.mark.parametrize("n_half", [2, 5, 16, 32])
    def test_matches_direct_sum(self, n_half):
        R = _kress_log_weights(n_half)
        ref = kress_weights_by_loop(n_half)
        assert np.max(np.abs(R - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestPreconditioner:
    def test_corner_value(self, unit_scene):
        B = precond(unit_scene, 0, 2)
        assert B[2] == pytest.approx(B00_UNIT, rel=1e-13)

    def test_large_order_magnitude(self, unit_scene):
        # (i pi a/2) J_m H_m ~ a/(2m), so |B_mm| a/(2m) -> 1.
        B = precond(unit_scene, 0, 60)
        assert abs(B[-1]) / (2 * 60) == pytest.approx(1.0, abs=0.05)


class TestIncidentCoefficients:
    def test_plane_wave_value_at_origin(self, unit_scene):
        f = incident(unit_scene, 0, 3)
        assert f[3] == pytest.approx(F0_PLANE_UNIT, rel=1e-13)
        assert abs(f[3].imag) < 1e-16

    def test_point_source_mirror_symmetry(self):
        # Source on the axis through the center: |f_{-m}| = |f_m|.
        sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.9, PointSource((5.0, 0.0)))
        f = incident(sc, 0, 6)
        for m in range(1, 7):
            assert abs(f[6 + m]) == pytest.approx(abs(f[6 - m]), rel=1e-12)

    def test_against_trace_quadrature(self, moderate_scene):
        f = incident(moderate_scene, 1, 5)
        for m in (-5, -1, 0, 2, 4):
            q = incident_trace_quadrature(moderate_scene, 1, m, n_quad=512)
            assert abs(f[5 + m] - q) < 1e-8

    def test_plane_wave_against_trace_quadrature(self, moderate_scene):
        sc = Scene(moderate_scene.cylinders, 0.6, PlaneWave(0.7))
        f = incident(sc, 2, 4)
        for m in (-3, 0, 3):
            q = incident_trace_quadrature(sc, 2, m, n_quad=512)
            assert abs(f[4 + m] - q) < 1e-8


class TestCompositions:
    def test_a_equals_preconditioned_v(self, moderate_scene):
        op, _ = assemble_system(moderate_scene, 8)
        opV, _ = assemble_raw(moderate_scene, 8)
        for p, q in ((0, 1), (1, 2), (2, 0)):
            V = pair_block(opV, p, q)
            B = 1.0 / np.diag(pair_block(opV, p, p))
            A = pair_block(op, p, q)
            dev = np.max(np.abs(B[:, None] * V - A)) / np.max(np.abs(A))
            assert dev < 1e-12

    def test_g_equals_preconditioned_f(self, moderate_scene):
        _, rhs = assemble_system(moderate_scene, 8)
        opV, f_all = assemble_raw(moderate_scene, 8)
        for p in range(3):
            f = f_all.data[p]
            B = 1.0 / np.diag(pair_block(opV, p, p))
            g = rhs.data[p]
            assert np.max(np.abs(B * f - g)) / np.max(np.abs(g)) < 1e-12

    def test_self_blocks_are_off(self, moderate_scene):
        op, _ = assemble_system(moderate_scene, 4)
        A = pair_block(op, 1, 1) - np.eye(9)
        assert np.max(np.abs(A)) == 0.0

    def test_zero_truncation_off_diagonal(self):
        # At N = 0 the lone entry collapses to
        # sqrt(a_q/a_p) H_0(k d) J_0(k a_q) / H_0(k a_p).
        sc = Scene((Cylinder((0.0, 0.0), 2.0), Cylinder((6.0, 0.0), 1.0)),
                   0.6, PlaneWave(0.0))
        A = pair_block(assemble_system(sc, 0)[0], 0, 1)
        pred = (math.sqrt(1.0 / 2.0) * hankel1(0, 3.6)
                * bessel_j(0, 0.6) / hankel1(0, 1.2))
        assert A[0, 0] == pytest.approx(pred, rel=1e-13)


class TestDecayRates:
    def test_coupling_column_root_limit(self, moderate_scene):
        # |A^{pq}_{m,0}|^{1/m} -> a_p/d_pq as m grows.
        A = pair_block(assemble_system(moderate_scene, 40)[0], 0, 1)
        root = abs(A[40 + 40, 40]) ** (1.0 / 40)
        assert root == pytest.approx(2.0 / 6.0, rel=0.05)

    def test_point_source_rhs_root_limit(self, moderate_scene, moderate_geom):
        g = assemble_system(moderate_scene, 40)[1].data[0]
        d = moderate_geom.source_distances[0]
        root = abs(g[40 + 40]) ** (1.0 / 40)
        assert root == pytest.approx(2.0 / d, rel=0.05)

    def test_plane_wave_rhs_super_exponential(self, moderate_scene):
        sc = Scene(moderate_scene.cylinders, 0.6, PlaneWave(0.3))
        g = assemble_system(sc, 40)[1].data[0]
        ms = np.arange(1, 41, dtype=float)
        envelope = (np.e * 0.6 * 2.0 / (2.0 * ms)) ** ms
        assert np.max(np.abs(g[41:]) / envelope) < 20.0


class TestSystemAssembly:
    def test_single_cylinder_identity(self, unit_scene):
        op, rhs = assemble_system(unit_scene, 6)
        assert np.allclose(op.matrix, np.eye(13))
        assert np.array_equal(solve(op, rhs).solution.data, rhs.data)

    def test_rhs_nesting_across_truncation(self, moderate_scene):
        op8, rhs8 = assemble_system(moderate_scene, 8)
        op13, rhs13 = assemble_system(moderate_scene, 13)
        g8 = rhs8.data[0]
        g13 = rhs13.data[0]
        assert np.max(np.abs(g8 - g13[5:-5])) < 1e-13 * np.max(np.abs(g8))
        # the whole system at N = 8 is the central slice of the one at 13
        sliced = op13.restrict(8)
        assert (sliced.n_cylinders, sliced.truncation) == (3, 8)
        scale = np.max(np.abs(op8.matrix))
        assert np.max(np.abs(sliced.matrix - op8.matrix)) <= 1e-15 * scale
        assert np.max(np.abs(rhs13.restrict(8).data - rhs8.data)) \
            <= 1e-15 * np.max(np.abs(rhs8.data))

    def test_dimension_cap_is_checked_before_allocating(self):
        # 100 cylinders at N = 100: dim 20100 > DENSE_DIM_CAP = 20000, a
        # 6.5 GB matrix that must be refused before anything is built
        sc = Scene(tuple(Cylinder((3.0 * i, 0.0), 1.0) for i in range(100)),
                   0.6, PlaneWave(0.0))
        tracemalloc.start()
        try:
            with pytest.raises(CapabilityError, match="20100"):
                assemble_system(sc, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_truncation_cap_is_checked_before_any_table(self, far_scene,
                                                        monkeypatch):
        # couplings need H_{2N}, so N = 101 needs order 202 > ORDER_CAP
        from memscat import specfun

        def refuse(*args):
            raise AssertionError("a table was built")
        for name in ("bessel_j_grid_scaled", "bessel_y_grid_scaled"):
            monkeypatch.setattr(specfun, name, refuse)
        with pytest.raises(CapabilityError, match=r"N = 101 .*N <= 100"):
            assemble_system(far_scene, 101)

    @pytest.mark.parametrize("scene, named", [
        (Scene((Cylinder((0.0, 0.0), 1.0),), 1500.0, PlaneWave(0.0)),
         "cylinder 1: k a_p = 1500"),
        # k |O_3 - O_2| = 20 * 78.1 is the largest pair argument
        (Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((50.0, 0.0), 1.0),
                Cylinder((0.0, 60.0), 1.0)), 20.0, PlaneWave(0.0)),
         "cylinders 2 and 3: k d_pq = 1562.05"),
        (Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((4.0, 0.0), 1.0)), 20.0,
               PointSource((-60.0, 0.0))),
         "point source and cylinder 2: k d_p,x0 = 1280"),
    ])
    def test_argument_cap_is_checked_before_any_table(self, scene, named,
                                                      monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")
        for name in ("bessel_j_grid_scaled", "bessel_y_grid_scaled"):
            monkeypatch.setattr(specfun, name, refuse)
        for assemble in (assemble_system, assemble_raw):
            with pytest.raises(CapabilityError) as exc:
                assemble(scene, 4)
            assert str(exc.value) == f"{named} exceeds the argument cap 1000.0"

    @pytest.mark.parametrize("assemble", [assemble_system, assemble_raw])
    @pytest.mark.parametrize("incident", [PlaneWave(0.4),
                                          PointSource((-3.0, -2.0))])
    @pytest.mark.parametrize("n_cylinders", [1, 3])
    def test_one_j_and_one_y_recurrence(self, monkeypatch, assemble, incident,
                                        n_cylinders):
        # the radii, pair distances and source distances share one J and
        # one Y call
        sc = Scene(tuple(Cylinder((2.5 * i, 0.3 * i), 0.5)
                         for i in range(n_cylinders)), 1.1, incident)
        calls = {"bessel_j_grid_scaled": 0, "bessel_y_grid_scaled": 0}
        for name in calls:
            def counted(*args, _inner=getattr(specfun, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(specfun, name, counted)
        assemble(sc, 6)
        assert calls == {"bessel_j_grid_scaled": 1, "bessel_y_grid_scaled": 1}

    def test_raw_single_cylinder_needs_no_coupling_orders(self, unit_scene):
        # one cylinder has no H_{2N} coupling, so the raw system goes on
        # to N = ORDER_CAP
        opV, f = assemble_raw(unit_scene, 150)
        assert opV.matrix.shape == (301, 301)
        assert np.all(np.isfinite(f.flat()))

    def test_raw_and_preconditioned_agree(self, close_scene):
        # Solving V Phi = f and (I + A) Phi = g must give the same physics.
        opV, f = assemble_raw(close_scene, 8)
        opA, g = assemble_system(close_scene, 8)
        phiV = np.linalg.solve(opV.matrix, f.flat())
        phiA = np.linalg.solve(opA.matrix, g.flat())
        assert np.linalg.norm(phiV - phiA) < 1e-10 * np.linalg.norm(phiA)

    def test_matvec_matches_dense(self, close_scene, rng):
        op, _ = assemble_system(close_scene, 5)
        vec = CoefficientVector(
            (rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))))
        lhs = op.matvec(vec).flat()
        rhs = op.matrix @ vec.flat()
        assert np.linalg.norm(lhs - rhs) < 1e-13 * np.linalg.norm(rhs)

    def test_translation_covariance_plane_wave(self, moderate_scene):
        beta = 0.7
        k = 0.6
        t = np.array([2.5, -4.0])
        base = Scene(moderate_scene.cylinders, k, PlaneWave(beta))
        moved = Scene(
            tuple(Cylinder((c.center[0] + t[0], c.center[1] + t[1]), c.radius)
                  for c in base.cylinders), k, PlaneWave(beta))
        op0, rhs0 = assemble_system(base, 6)
        op1, rhs1 = assemble_system(moved, 6)
        assert np.max(np.abs(op1.matrix - op0.matrix)) < 1e-12
        phase = np.exp(1j * k * (math.cos(beta) * t[0] + math.sin(beta) * t[1]))
        assert np.max(np.abs(rhs1.flat() - phase * rhs0.flat())) < 1e-12
        phi0 = solve(op0, rhs0).solution.flat()
        phi1 = solve(op1, rhs1).solution.flat()
        assert np.max(np.abs(phi1 - phase * phi0)) < 1e-12

    def test_rotation_preserves_magnitudes(self, moderate_scene):
        alpha = 1.1
        rot = np.array([[math.cos(alpha), -math.sin(alpha)],
                        [math.sin(alpha), math.cos(alpha)]])
        x0 = rot @ np.asarray(moderate_scene.incident.location)
        turned = Scene(
            tuple(Cylinder(tuple(rot @ np.asarray(c.center)), c.radius)
                  for c in moderate_scene.cylinders),
            moderate_scene.wavenumber, PointSource(tuple(x0)))
        op0, rhs0 = assemble_system(moderate_scene, 6)
        op1, rhs1 = assemble_system(turned, 6)
        m0 = np.abs(solve(op0, rhs0).solution.data)
        m1 = np.abs(solve(op1, rhs1).solution.data)
        assert np.max(np.abs(m1 - m0)) < 1e-12


class TestCoefficientVector:
    def test_flat_round_trip(self, rng):
        data = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
        vec = CoefficientVector(data)
        again = CoefficientVector.from_flat(vec.flat(), 2, 4)
        assert np.array_equal(again.data, vec.data)

    def test_get_uses_signed_mode_index(self):
        data = np.arange(7, dtype=np.complex128)[None, :]
        vec = CoefficientVector(data)
        assert vec.get(0, -3) == 0.0
        assert vec.get(0, 0) == 3.0
        assert vec.get(0, 3) == 6.0

    def test_zero_pad_and_restrict(self):
        vec = CoefficientVector(np.ones((2, 5), dtype=np.complex128))
        padded = vec.zero_pad(5)
        assert padded.truncation == 5
        assert padded.get(1, -5) == 0.0
        assert padded.get(1, 2) == 1.0
        assert np.array_equal(padded.restrict(2).data, vec.data)

    def test_mode_weights(self):
        w0 = mode_weights(3, "l0")
        assert np.array_equal(w0, np.ones(7))
        wh = mode_weights(3, "lhalf")
        assert wh[3] == 1.0
        assert wh[0] == pytest.approx(1.0 / math.sqrt(1.0 + 9.0))
        assert np.array_equal(wh, wh[::-1])

    def test_norm_ordering(self, rng):
        data = rng.normal(size=(2, 11)) + 1j * rng.normal(size=(2, 11))
        vec = CoefficientVector(data)
        assert vec.norm("lhalf") <= vec.norm("l0") + 1e-15

    def test_mode_range(self):
        assert np.array_equal(mode_range(3), [-3, -2, -1, 0, 1, 2, 3])


class TestDump:
    def test_round_trip_is_exact(self, tmp_path, close_scene):
        op, _ = assemble_system(close_scene, 4)
        path = tmp_path / "system.dump"
        dump_system(op, close_scene, path)
        mat, M, N, k = load_system_dump(path)
        assert (M, N) == (3, 4)
        assert k == close_scene.wavenumber
        assert np.array_equal(mat, op.matrix)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.dump"
        path.write_text("not a dump\n1 2 3\n")
        with pytest.raises(ValueError):
            load_system_dump(path)
