"""Solver backends: dense reference, GMRES, reflections."""

import math
import tracemalloc

import numpy as np
import pytest

from memscat import (
    Cylinder,
    PlaneWave,
    Scene,
    SingularSystemError,
    assemble_system,
    preset_scene,
    solve,
)
from memscat.assembly import BlockOperator, CoefficientVector
from memscat.solver import (
    BACKENDS,
    GMRES_DEFAULT_RESTART,
    solve_dense,
    solve_gmres,
    solve_reflections,
)

ALL_BACKENDS = sorted(BACKENDS)


@pytest.fixture(scope="module")
def single_system():
    sc = Scene((Cylinder((0.0, 0.0), 1.0),), 1.0, PlaneWave(0.0))
    return assemble_system(sc, 8)


@pytest.fixture(scope="module")
def moderate_system(moderate_scene):
    return assemble_system(moderate_scene, 10)


@pytest.fixture(scope="module")
def lattice_system():
    """A 4x4 lattice (spacing 2.5, radius 1, k = 2) with centres jittered by
    at most 0.1 and a plane wave at a random angle, at N = 6 (dim 208):
    GMRES needs 87 iterations, so it restarts once."""
    rng = np.random.default_rng(7)
    cylinders = []
    for i in range(4):
        for j in range(4):
            r, t = 0.1 * rng.uniform(), 2.0 * math.pi * rng.uniform()
            cylinders.append(Cylinder((2.5 * i + r * math.cos(t),
                                       2.5 * j + r * math.sin(t)), 1.0))
    sc = Scene(tuple(cylinders), 2.0, PlaneWave(2.0 * math.pi * rng.uniform()))
    return assemble_system(sc, 6)


def count_matvecs(monkeypatch) -> list:
    """Record every BlockOperator.matvec call in the returned list."""
    calls = []
    matvec = BlockOperator.matvec

    def counted(self, vec):
        calls.append(vec)
        return matvec(self, vec)
    monkeypatch.setattr(BlockOperator, "matvec", counted)
    return calls


class TestSingleCylinder:
    def test_dense_returns_rhs_exactly(self, single_system):
        op, rhs = single_system
        result = solve_dense(op, rhs)
        assert np.array_equal(result.solution.data, rhs.data)
        assert result.converged

    def test_gmres_stops_after_one_iteration(self, single_system):
        op, rhs = single_system
        result = solve_gmres(op, rhs)
        assert result.iterations == 1
        assert result.converged
        assert np.allclose(result.solution.data, rhs.data, atol=1e-14)

    def test_reflections_stop_immediately(self, single_system):
        op, rhs = single_system
        result = solve_reflections(op, rhs)
        assert result.iterations == 0
        assert result.converged
        assert result.residual == 0.0

    def test_first_order_is_exact(self, single_system):
        # the zeroth iterate phi = g is exact for one cylinder
        op, rhs = single_system
        result = solve_reflections(op, rhs, max_iterations=0)
        assert np.array_equal(result.solution.data, rhs.data)
        assert result.residual == 0.0
        assert result.converged


class TestDense:
    def test_small_relative_residual(self, moderate_system):
        op, rhs = moderate_system
        result = solve_dense(op, rhs)
        assert result.residual < 1e-12 * np.linalg.norm(rhs.flat())

    def test_solves_the_assembled_equations_entrywise(self, moderate_system):
        op, rhs = moderate_system
        result = solve_dense(op, rhs)
        defect = op.matrix @ result.solution.flat() - rhs.flat()
        assert np.max(np.abs(defect)) < 1e-11

    def test_singular_system_raises(self):
        op = BlockOperator(2, 0, np.array([[1.0, -1.0], [-1.0, 1.0]],
                                          dtype=np.complex128))
        rhs = CoefficientVector(np.ones((2, 1), dtype=np.complex128))
        with pytest.raises(SingularSystemError):
            solve_dense(op, rhs)


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("preset", ["far", "moderate", "close"])
    def test_iterative_backends_match_dense(self, preset):
        op, rhs = assemble_system(preset_scene(preset), 8)
        ref = solve_dense(op, rhs).solution.flat()
        scale = np.linalg.norm(ref)
        for backend in ("gmres", "reflections"):
            sol = solve(op, rhs, backend=backend)
            assert sol.converged
            assert np.linalg.norm(sol.solution.flat() - ref) < 1e-9 * scale

    def test_reflections_tolerance_is_honored(self, far_scene):
        op, rhs = assemble_system(far_scene, 8)
        ref = solve_dense(op, rhs).solution.flat()
        tol = 1e-12
        sol = solve_reflections(op, rhs, tol=tol)
        gap = np.linalg.norm(sol.solution.flat() - ref)
        assert gap <= 10 * tol * np.linalg.norm(ref)

    def test_linearity_in_the_incident_data(self, moderate_system):
        op, rhs = moderate_system
        c = 0.3 - 1.7j
        scaled = CoefficientVector(c * rhs.data)
        for backend in ALL_BACKENDS:
            base = solve(op, rhs, backend=backend).solution.flat()
            boosted = solve(op, scaled, backend=backend).solution.flat()
            assert np.linalg.norm(boosted - c * base) < 1e-9 * np.linalg.norm(
                boosted)


class TestGmres:
    def test_iteration_count_tracks_coupling_strength(self):
        counts = {}
        for preset in ("far", "close"):
            op, rhs = assemble_system(preset_scene(preset), 8)
            counts[preset] = solve_gmres(op, rhs).iterations
        assert counts["close"] >= counts["far"]

    def test_zero_rhs(self, moderate_system, monkeypatch):
        op, rhs = moderate_system
        zero = CoefficientVector(np.zeros_like(rhs.data))
        calls = count_matvecs(monkeypatch)
        result = solve_gmres(op, zero)
        assert result.converged
        assert result.iterations == 0
        assert np.all(result.solution.data == 0.0)
        # the first cycle starts from r = b without a matvec; the one call
        # is the final residual
        assert len(calls) == 1

    def test_singular_system_raises(self):
        # I + A = 0: the first Arnoldi step breaks down and the 1x1
        # Hessenberg system is singular
        op = BlockOperator(2, 1, np.zeros((6, 6), dtype=np.complex128))
        rhs = CoefficientVector(np.ones((2, 3), dtype=np.complex128))
        with pytest.raises(SingularSystemError) as exc:
            solve(op, rhs, backend="gmres")
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_converges_across_a_restart(self, lattice_system):
        op, rhs = lattice_system
        result = solve_gmres(op, rhs)
        assert result.converged
        assert result.iterations > GMRES_DEFAULT_RESTART
        ref = solve_dense(op, rhs).solution.flat()
        assert np.linalg.norm(result.solution.flat() - ref) \
            < 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("budget", [20, 60])
    def test_iteration_budget_is_respected(self, lattice_system, budget,
                                           monkeypatch):
        # 60 stops in the second cycle, 20 inside the first
        op, rhs = lattice_system
        calls = count_matvecs(monkeypatch)
        result = solve_gmres(op, rhs, max_iterations=budget)
        assert result.iterations == budget
        assert not result.converged
        # one per Arnoldi step, one residual per restart, one final residual
        restarts = (budget - 1) // GMRES_DEFAULT_RESTART
        assert len(calls) == budget + restarts + 1

    def test_one_krylov_basis_per_solve(self, lattice_system):
        # the restart reuses the first cycle's workspace: the peak above the
        # inputs is one basis of (restart + 1) x dim complex values plus the
        # Hessenberg matrix and a few vectors (1.42 bases here), where a
        # fresh workspace per cycle holds two bases at the restart (2.35)
        op, rhs = lattice_system
        basis = (GMRES_DEFAULT_RESTART + 1) * op.matrix.shape[0] * 16
        tracemalloc.start()
        try:
            result = solve_gmres(op, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations > GMRES_DEFAULT_RESTART
        assert peak / basis < 1.75

    def test_loose_tolerance_converges_fast(self, moderate_system):
        op, rhs = moderate_system
        loose = solve_gmres(op, rhs, tol=1e-4)
        tight = solve_gmres(op, rhs, tol=1e-12)
        assert loose.iterations <= tight.iterations
        assert loose.converged


class TestReflections:
    def test_first_iterate_is_first_order(self, moderate_system):
        # with no iterations the result is the zeroth iterate phi = g, whose
        # residual is its defect ||A g||, and it claims no convergence
        op, rhs = moderate_system
        fo = solve_reflections(op, rhs, max_iterations=0)
        assert not fo.converged
        assert np.array_equal(fo.solution.data, rhs.data)
        coupling = op.matrix - np.eye(op.matrix.shape[0])
        manual = np.linalg.norm(coupling @ rhs.flat())
        assert fo.residual == pytest.approx(manual, rel=1e-12)

    def test_divergence_is_flagged_not_raised(self, touching_scene):
        op, rhs = assemble_system(touching_scene, 12)
        result = solve_reflections(op, rhs)
        assert result.diverged
        assert not result.converged
        assert np.all(np.isfinite(result.solution.data))

    def test_direct_backends_still_handle_the_flagged_scene(
            self, touching_scene):
        op, rhs = assemble_system(touching_scene, 12)
        ref = solve_dense(op, rhs).solution.flat()
        alt = solve_gmres(op, rhs).solution.flat()
        assert np.linalg.norm(alt - ref) < 1e-9 * np.linalg.norm(ref)

    def test_zero_rhs(self, moderate_system):
        op, rhs = moderate_system
        zero = CoefficientVector(np.zeros_like(rhs.data))
        result = solve_reflections(op, zero)
        assert result.converged and not result.diverged
        assert result.iterations == 0
        assert result.residual == 0.0
        assert np.all(result.solution.data == 0.0)

    def test_iteration_budget_is_respected(self, close_scene):
        op, rhs = assemble_system(close_scene, 8)
        result = solve_reflections(op, rhs, max_iterations=3)
        assert result.iterations <= 3
        assert not result.converged


class TestDispatch:
    def test_unknown_backend(self, single_system):
        op, rhs = single_system
        with pytest.raises(ValueError):
            solve(op, rhs, backend="cholesky")

    def test_backend_names(self):
        assert ALL_BACKENDS == ["dense", "gmres", "reflections"]

    def test_result_records_backend_name(self, single_system):
        op, rhs = single_system
        for backend in ALL_BACKENDS:
            assert solve(op, rhs, backend=backend).backend == backend
