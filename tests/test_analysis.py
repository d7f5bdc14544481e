"""Convergence measurement, decay envelopes, rate fits, bound-side series."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instruments import (hyp2f1_peaked, onset_truncation, sigma_series_raw,
                         theorem_slack, unconverged_dense)
from memscat import (
    NORM_L0,
    BlockOperator,
    Cylinder,
    InsufficientPointsError,
    NonConvergenceError,
    PlaneWave,
    PointSource,
    Scene,
    assemble_system,
    convergence_sweep,
    fit_rate,
    gamma1,
    gamma2,
    preset_scene,
    approximation_error,
    solve,
    validate_scene,
)
from memscat import analysis
from memscat.analysis import (
    REFERENCE_MARGIN,
    breakdown_check,
    write_bounds_csv,
    write_report_csv,
)
from memscat.assembly import CoefficientVector, mode_range
from memscat.scene import pairwise_geometry


def plane_pair(d, r1=1.0, r2=1.0, k=0.6):
    return Scene((Cylinder((0.0, 0.0), r1), Cylinder((d, 0.0), r2)),
                 k, PlaneWave(0.0))


class TestEnvelopes:
    def test_plane_pair_gamma1(self):
        sc = plane_pair(4.0)
        assert gamma1(sc, 2) == pytest.approx((1.0 / 3.0) ** 2, rel=1e-14)
        assert gamma1(sc, 0) == 1.0

    def test_plane_pair_gamma2(self):
        sc = plane_pair(4.0)
        assert gamma2(sc, 1) == pytest.approx(0.25, rel=1e-14)

    def test_point_source_gamma2_pair_term(self):
        # a_p d_qx0 / (d d_qx0 - a_q^2) with a=1, d=4, d_qx0=10 gives 10/39.
        sc = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((4.0, 0.0), 1.0)),
                   0.6, PointSource((4.0, 10.0)))
        assert gamma2(sc, 1) == pytest.approx(10.0 / 39.0, rel=1e-14)

    def test_point_source_term_dominates_when_close(self):
        sc = Scene((Cylinder((0.0, 0.0), 0.9),), 0.6, PointSource((1.0, 0.0)))
        assert gamma1(sc, 1) == pytest.approx(0.9, rel=1e-14)
        assert gamma2(sc, 3) == pytest.approx(0.9 ** 3, rel=1e-14)

    def test_distant_source_approaches_plane_envelope(self):
        near = Scene((Cylinder((0.0, 0.0), 1.0), Cylinder((4.0, 0.0), 1.0)),
                     0.6, PointSource((4.0, 1e8)))
        plane = plane_pair(4.0)
        target = gamma2(plane, 1)
        assert gamma2(near, 1) == pytest.approx(target, rel=1e-6)

    def test_single_cylinder_plane_wave_is_vacuous(self):
        sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6, PlaneWave(0.0))
        assert gamma1(sc, 5) == 0.0
        assert gamma1(sc, 0) == 1.0

    def test_array_evaluation_is_elementwise(self):
        sc = plane_pair(4.0)
        vals = gamma1(sc, [0, 1, 2, 3])
        assert np.allclose(vals, (1.0 / 3.0) ** np.arange(4), rtol=1e-14)

    @given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=3.0),
                              st.floats(min_value=1e-9, max_value=5.0),
                              st.floats(min_value=0.0, max_value=2 * math.pi)),
                    min_size=2, max_size=4),
           st.one_of(st.builds(PlaneWave, st.floats(min_value=0.0,
                                                    max_value=2 * math.pi)),
                     st.builds(PointSource,
                               st.tuples(st.floats(-30.0, 30.0),
                                         st.floats(-30.0, 30.0)))))
    @settings(max_examples=150, deadline=None)
    def test_validated_scenes_have_contractive_envelopes(self, chain,
                                                         incident):
        # Each cylinder sits at the given surface gap from the previous one,
        # in the given direction; validation screens the other pairs and
        # the source.
        cyls, prev = [], None
        for radius, gap, angle in chain:
            center = (0.0, 0.0)
            if prev is not None:
                step = prev.radius + radius + gap
                center = (prev.center[0] + step * math.cos(angle),
                          prev.center[1] + step * math.sin(angle))
            prev = Cylinder(center, radius)
            cyls.append(prev)
        sc = Scene(tuple(cyls), 0.6, incident)
        assume(validate_scene(sc) == [])
        assert gamma2(sc, 1) <= gamma1(sc, 1) < 1.0

    @given(st.floats(min_value=2.3, max_value=40.0),
           st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=2.0, max_value=60.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma2_never_exceeds_gamma1(self, d, r1, r2, src_y):
        sc = Scene((Cylinder((0.0, 0.0), r1), Cylinder((d, 0.0), r2)),
                   0.6, PointSource((d, src_y)))
        for n in (1, 3, 7):
            assert gamma2(sc, n) <= gamma1(sc, n) * (1 + 1e-12)


class TestRateFit:
    def test_exact_geometric_decay(self):
        n = np.arange(0, 13)
        fit = fit_rate(n, 2.0 * 0.3 ** n)
        assert fit.slope == pytest.approx(math.log(0.3), abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_curve_has_zero_slope(self):
        fit = fit_rate(np.arange(10), np.full(10, 0.5))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_tail_fraction_controls_the_window(self):
        n = np.arange(0, 20)
        fit = fit_rate(n, 0.5 ** n, tail_fraction=0.5)
        assert fit.n_points == 10
        assert (fit.n_lo, fit.n_hi) == (10, 19)

    def test_floor_drops_the_round_off_plateau(self):
        n = np.arange(0, 30)
        vals = np.maximum(0.3 ** n, 1e-14)
        fit = fit_rate(n, vals, floor=1e-12)
        assert fit.n_hi <= 22
        assert fit.slope == pytest.approx(math.log(0.3), rel=1e-6)

    def test_ceiling_drops_the_shoulder(self):
        n = np.arange(0, 20)
        vals = np.minimum(5.0 * 0.5 ** n, 2.0)
        fit = fit_rate(n, vals, ceiling=1.0)
        assert fit.n_lo >= 3
        assert fit.slope == pytest.approx(math.log(0.5), rel=1e-6)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_rate(np.arange(3), 0.5 ** np.arange(3))
        with pytest.raises(InsufficientPointsError):
            fit_rate(np.arange(20), np.full(20, 1e-20))


class TestReferenceAndError:
    def test_reference_adds_margin(self, far_scene):
        report = convergence_sweep(far_scene, range(1, 8))
        assert report.n_ref == 7 + REFERENCE_MARGIN

    def test_single_cylinder_reference_is_rhs(self):
        sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6, PointSource((-5.0, 2.0)))
        op, rhs = assemble_system(sc, 6 + REFERENCE_MARGIN)
        ref = solve(op, rhs)
        assert np.array_equal(ref.solution.data, rhs.data)

    def test_error_of_itself_is_zero(self, far_solution):
        sol = far_solution.solution
        assert approximation_error(sol, sol) == 0.0

    def test_error_requires_matching_scenes(self):
        a = CoefficientVector(np.ones((2, 5), dtype=np.complex128))
        b = CoefficientVector(np.ones((3, 5), dtype=np.complex128))
        with pytest.raises(ValueError):
            approximation_error(a, b)

    def test_error_requires_narrower_approximation(self):
        a = CoefficientVector(np.ones((2, 5), dtype=np.complex128))
        b = CoefficientVector(np.ones((2, 9), dtype=np.complex128))
        with pytest.raises(ValueError):
            approximation_error(a, b)

    def test_lhalf_norm_never_exceeds_l0(self, rng):
        ref = CoefficientVector(rng.normal(size=(2, 11))
                                + 1j * rng.normal(size=(2, 11)))
        approx = CoefficientVector(rng.normal(size=(2, 7))
                                   + 1j * rng.normal(size=(2, 7)))
        e0 = approximation_error(ref, approx, "l0")
        eh = approximation_error(ref, approx, "lhalf")
        assert eh <= e0 + 1e-15


class TestConvergenceSweep:
    def test_single_cylinder_error_is_the_exact_tail(self):
        sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6, PointSource((-5.0, 2.0)))
        report = convergence_sweep(sc, range(0, 11))
        _, rhs = assemble_system(sc, report.n_ref)
        g = rhs.data[0]
        n_ref = report.n_ref
        for i, n in enumerate(report.truncations):
            tail = g.copy()
            tail[n_ref - n:n_ref + n + 1] = 0.0
            assert abs(report.errors[i] - np.linalg.norm(tail)) < 1e-12

    def test_errors_decay_and_envelopes_bound_the_shape(self, far_scene):
        report = convergence_sweep(far_scene, range(1, 22))
        e = report.errors
        assert e[9] / e[19] > 10.0
        assert np.all(e > 0.0)
        assert theorem_slack(report, "gamma1") < np.inf
        assert theorem_slack(report, "gamma2") < np.inf

    def test_norm_choice_barely_moves_the_rate(self, far_scene):
        # The weighted norm differs from the flat one by an algebraic factor,
        # so the fitted slopes agree up to finite-window effects; at this
        # window the measured gap is ~0.04, far below the slope scale ~1.8.
        r0 = convergence_sweep(far_scene, range(1, 26), norm="l0")
        rh = convergence_sweep(far_scene, range(1, 26), norm="lhalf")
        assert abs(r0.rates["E"].slope - rh.rates["E"].slope) < 0.05

    def test_sliced_sweep_matches_fresh_assemblies(self, moderate_scene):
        # the sweep solves slices of one reference assembly; assembling
        # and solving each truncation from scratch gives the same E(N)
        report = convergence_sweep(moderate_scene, range(1, 14))
        ref = solve(*assemble_system(moderate_scene, report.n_ref)).solution
        fresh = np.array([
            approximation_error(
                ref, solve(*assemble_system(moderate_scene, n)).solution)
            for n in range(1, 14)])
        assert np.max(np.abs(report.errors - fresh) / fresh) < 1e-12

    def test_rejects_empty_and_negative_ladders(self, far_scene):
        with pytest.raises(ValueError):
            convergence_sweep(far_scene, [])
        with pytest.raises(ValueError):
            convergence_sweep(far_scene, [-2, 1])

    def test_non_converging_backend_raises(self, far_scene, monkeypatch):
        # the sweep raises at the first solve that reports no convergence,
        # the reference at 10 + REFERENCE_MARGIN
        monkeypatch.setattr(analysis, "solve_dense", unconverged_dense)
        with pytest.raises(NonConvergenceError,
                           match="dense solve at N = 15 did not converge"):
            convergence_sweep(far_scene, range(1, 11))

    def test_onset_moves_up_with_wavenumber(self):
        low = convergence_sweep(preset_scene("moderate", wavenumber=0.6),
                                range(0, 13))
        high = convergence_sweep(preset_scene("moderate", wavenumber=3.0),
                                 range(0, 13))
        n_low = onset_truncation(low)
        n_high = onset_truncation(high)
        assert n_low is not None and n_high is not None
        assert n_high > n_low


class TestFirstOrderSurrogate:
    def test_single_cylinder_surrogate_equals_the_error(self):
        # With one cylinder there is no coupling term, so the surrogate
        # degenerates to the rhs tail norm, which is exactly E(N).
        sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6, PointSource((-5.0, 2.0)))
        report = convergence_sweep(sc, range(0, 9), include_surrogate=True)
        assert report.e1_surrogate is not None
        assert np.max(np.abs(report.e1_surrogate - report.errors)) < 1e-14

    def test_one_reference_product_per_sweep(self, far_scene, monkeypatch):
        # the surrogate at each N takes one product of its own and shares
        # (I + A) G; its values are those of the formula taken per N
        calls = []
        matvec = BlockOperator.matvec
        monkeypatch.setattr(BlockOperator, "matvec",
                            lambda op, x: calls.append(op) or matvec(op, x))
        ladder = range(2, 9)
        without = convergence_sweep(far_scene, ladder)
        n_plain = len(calls)
        report = convergence_sweep(far_scene, ladder, include_surrogate=True)
        assert len(calls) - 2 * n_plain == len(ladder) + 1
        assert np.array_equal(report.errors, without.errors)
        op_ref, rhs_ref = assemble_system(far_scene, report.n_ref)
        g = rhs_ref.data
        per_n = []
        for n in ladder:
            outer = np.abs(mode_range(rhs_ref.truncation)) > n
            tail = CoefficientVector(np.where(outer, g, 0.0))
            out = matvec(op_ref, tail)
            out.data[:, outer] = (matvec(op_ref, rhs_ref).data[:, outer]
                                  - g[:, outer])
            per_n.append(tail.norm(NORM_L0) + out.norm(NORM_L0))
        assert np.array_equal(report.e1_surrogate, per_n)

    def test_surrogate_tracks_the_refined_envelope(self, far_scene):
        report = convergence_sweep(far_scene, range(1, 26),
                                   include_surrogate=True)
        s = report.rates["E1_surrogate"].slope
        g2 = report.rates["gamma2"].slope
        assert abs(s - g2) <= 0.10 * abs(g2)


class TestSigmaSeries:
    def test_matches_plain_float_summation(self):
        def brute(m, ap, aq, d):
            tot = 0.0
            for n in range(1, 400):
                tot += (((m + n) / m) ** (2 * m) * ((m + n) / n) ** (2 * n)
                        * (ap / d) ** (2 * m) * (aq / d) ** (2 * n))
            return tot
        for m in (1, 3, 6):
            s = sigma_series_raw(m, 1.0, 1.0, 4.0)
            assert s == pytest.approx(brute(m, 1.0, 1.0, 4.0), rel=1e-12)

    def test_leading_term_arithmetic(self):
        # n = 1 term at m = 1, unit radii, d = 4:
        # (2/1)^2 (2/1)^2 (1/4)^2 (1/4)^2 = 0.0625, and n = 2 adds ~0.0111.
        s = sigma_series_raw(1, 1.0, 1.0, 4.0)
        assert 0.0625 < s < 0.08

    def test_root_approaches_worst_case_base(self):
        # the first two cylinders of the moderate preset: radii 2 and 1,
        # centres 6 apart
        s = sigma_series_raw(40, 2.0, 1.0, 6.0)
        root = s ** (1.0 / 80.0)
        assert root == pytest.approx(2.0 / (6.0 - 1.0), rel=0.05)

    def test_bounded_by_peaked_2f1_up_to_algebraic_slack(self):
        # Stirling bounds give sigma <= C m (a_p/d)^{2m} 2F1(m+1,m+1;1;z)
        # at z = (a_q/d)^2; the measured constant hovers near 1.
        for m in (5, 10, 20, 40):
            s = sigma_series_raw(m, 2.0, 1.0, 6.0)
            f = hyp2f1_peaked(m, (1.0 / 6.0) ** 2)
            assert s <= 2.0 * m * (2.0 / 6.0) ** (2 * m) * f

    def test_incident_kinds_only_add_decay(self, moderate_scene):
        d_qx0 = float(pairwise_geometry(moderate_scene).source_distances[1])
        std = sigma_series_raw(12, 2.0, 1.0, 6.0)
        pt = sigma_series_raw(12, 2.0, 1.0, 6.0, kind="point_source",
                              d_qx0=d_qx0)
        pl = sigma_series_raw(12, 2.0, 1.0, 6.0, kind="plane_wave",
                              wavenumber=0.6)
        assert pt < std
        assert pl < std

    def test_diverges_loudly_outside_the_contractive_region(self):
        with pytest.raises(NonConvergenceError):
            sigma_series_raw(3, 1.0, 1.2, 1.0)

    def test_term_budget_is_enforced(self):
        with pytest.raises(NonConvergenceError):
            sigma_series_raw(1, 1.0, 1.0, 4.0, n_max=1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma_series_raw(0, 1.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            sigma_series_raw(2, 1.0, 1.0, 4.0, kind="point_source")
        with pytest.raises(ValueError):
            sigma_series_raw(2, 1.0, 1.0, 4.0, kind="spherical")


class TestBreakdownCheck:
    def test_wide_gap_is_valid(self):
        report = breakdown_check(plane_pair(4.5, r1=2.0, r2=1.0))
        assert report.first_order_valid
        assert report.gap == pytest.approx(1.5)
        assert report.threshold == pytest.approx(1.25)

    def test_narrow_gap_is_flagged(self):
        report = breakdown_check(plane_pair(4.0, r1=2.0, r2=1.0))
        assert not report.first_order_valid
        assert report.gap == pytest.approx(1.0)

    def test_presets(self, far_scene, moderate_scene, close_scene):
        assert breakdown_check(far_scene).first_order_valid
        assert breakdown_check(moderate_scene).first_order_valid
        assert not breakdown_check(close_scene).first_order_valid

    def test_pair_picks_the_two_largest(self, close_scene):
        report = breakdown_check(close_scene)
        assert report.pair == (0, 1)

    def test_single_cylinder_is_always_valid(self):
        sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6, PlaneWave(0.0))
        report = breakdown_check(sc)
        assert report.first_order_valid
        assert report.gap == float("inf")


class TestReportOutput:
    def test_report_csv_schema(self, tmp_path, far_scene):
        report = convergence_sweep(far_scene, range(1, 8))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,E,gamma1,gamma2"
        assert len(lines) == 8
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], report.truncations)
        assert np.allclose(data[:, 1], report.errors, rtol=1e-15)

    def test_report_csv_includes_surrogate_column(self, tmp_path, far_scene):
        report = convergence_sweep(far_scene, range(1, 8),
                                   include_surrogate=True)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,E,gamma1,gamma2,E1_surrogate"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 4], report.e1_surrogate, rtol=1e-15)

    def test_bounds_csv_starts_at_one(self, tmp_path, far_scene):
        path = tmp_path / "bounds.csv"
        write_bounds_csv(far_scene, range(0, 5), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,gamma1,gamma2"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0
        assert float(first[2]) == 1.0
