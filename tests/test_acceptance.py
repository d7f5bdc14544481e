"""Acceptance gate: the contracted end-to-end checks, one line per criterion.

Each test prints a PASS/FAIL line with the measured numbers (visible with
pytest -rA or -s) and then asserts.  Tolerances here are the contracted ones,
not the looser unit-test bounds.
"""

import math
import time

import numpy as np
import pytest

import test_specfun as specfun_checks
from instruments import (far_field_amplitude, hyp2f1_peaked, onset_truncation,
                         sigma_series_raw, theorem_slack)
from memscat import (
    Cylinder,
    PointSource,
    Scene,
    assemble_system,
    boundary_residual,
    convergence_sweep,
    gamma1,
    preset_scene,
    scattered_field,
    solve,
)
from memscat.analysis import THEOREM_SLACK_PER_N
from memscat.assembly import assemble_raw, pairing_block_quadrature
from memscat.field import interior_mask, single_layer_field_quadrature

TRUNCATIONS = range(1, 26)
N_REF = 30

_sweeps: dict = {}


def sweep(preset: str, k: float = 0.6):
    if (preset, k) not in _sweeps:
        _sweeps[preset, k] = convergence_sweep(
            preset_scene(preset, wavenumber=k), TRUNCATIONS, n_ref=N_REF)
    return _sweeps[preset, k]


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_far_rate_matches_worst_case_envelope():
    start = time.perf_counter()
    rep = convergence_sweep(preset_scene("far"), TRUNCATIONS, n_ref=N_REF)
    elapsed = time.perf_counter() - start
    _sweeps["far", 0.6] = rep
    s_e = rep.rates["E"].slope
    s_g1 = rep.rates["gamma1"].slope
    gap = abs(s_e - s_g1)
    ok = gap <= 0.10 * abs(s_g1) and elapsed < 10.0
    report(1, ok, f"far preset rate fit: |slope(E) - slope(gamma1)| = "
                  f"{gap:.4f} <= {0.10 * abs(s_g1):.4f}, "
                  f"runtime {elapsed:.2f} s < 10 s")


def test_criterion_02_close_rate_prefers_refined_envelope():
    start = time.perf_counter()
    rep = convergence_sweep(preset_scene("close"), TRUNCATIONS, n_ref=N_REF)
    elapsed = time.perf_counter() - start
    _sweeps["close", 0.6] = rep
    s_e = rep.rates["E"].slope
    d1 = abs(s_e - rep.rates["gamma1"].slope)
    d2 = abs(s_e - rep.rates["gamma2"].slope)
    ok = d2 < d1 and elapsed < 10.0
    report(2, ok, f"close preset rate sits nearer gamma2: "
                  f"|dE-dg2| = {d2:.4f} < |dE-dg1| = {d1:.4f}, "
                  f"runtime {elapsed:.2f} s < 10 s")


def test_criterion_03_envelope_bound_holds_with_slack():
    worst = -math.inf
    details = []
    for preset in ("far", "moderate", "close"):
        c = theorem_slack(sweep(preset), envelope="gamma1", slack_per_n=0.05)
        details.append(f"{preset} C = {c:.2f}")
        worst = max(worst, c)
    ok = math.isfinite(worst)
    report(3, ok, "log E - log gamma1 <= 0.05 N + C with finite C: "
                  + ", ".join(details))


def test_fitted_rate_respects_the_worst_case_envelope():
    # The bound check that can fail: the fitted decay rate of E(N) is no
    # slower than gamma1's, up to the per-N slack theorem_slack allows.
    details, ok = [], True
    for k in (0.6, 3.0):
        for preset in ("far", "moderate", "close", "touching"):
            sc = preset_scene(preset, wavenumber=k)
            allowed = math.log(gamma1(sc, 1)) + THEOREM_SLACK_PER_N
            slope = sweep(preset, k).rates["E"].slope
            ok &= slope <= allowed
            details.append(f"{preset} k={k:g}: {slope:+.3f} <= "
                           f"{allowed:+.3f}")
    print("slope(E) <= log(base1) + slack: " + ", ".join(details))
    assert ok, ", ".join(details)


def test_criterion_04_single_cylinder_truncation_is_exact():
    sc = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6, PointSource((-20.0, -25.0)))
    _, rhs_ref = assemble_system(sc, N_REF)
    g = rhs_ref.data[0]
    worst_sol = 0.0
    for n in (4, 8, 12):
        op, rhs = assemble_system(sc, n)
        phi = solve(op, rhs).solution
        window = g[N_REF - n:N_REF + n + 1]
        worst_sol = max(worst_sol,
                        float(np.max(np.abs(phi.data[0] - window))))
    rep = convergence_sweep(sc, range(0, 16), n_ref=N_REF)
    worst_err = 0.0
    for i, n in enumerate(rep.truncations):
        tail = g.copy()
        tail[N_REF - n:N_REF + n + 1] = 0.0
        worst_err = max(worst_err,
                        abs(rep.errors[i] - np.linalg.norm(tail)))
    ok = worst_sol < 1e-12 and worst_err < 1e-12
    report(4, ok, f"M=1 solves reproduce the rhs band (dev {worst_sol:.1e}) "
                  f"and E(N) equals the analytic tail norm "
                  f"(dev {worst_err:.1e}), both < 1e-12")


def test_criterion_05_closed_form_assembly_is_certified():
    worst_off = 0.0
    worst_diag = 0.0
    for k in (0.6, 3.0):
        sc = preset_scene("close", wavenumber=k)
        blocks = assemble_raw(sc, 10)[0].matrix.reshape(3, 21, 3, 21)
        for p in range(3):
            for q in range(3):
                V = blocks[p, :, q, :]
                Q = pairing_block_quadrature(sc, p, q, 10, n_quad=512)
                if p == q:
                    diag = np.array([-10, -4, 0, 3, 10]) + 10
                    worst_diag = max(worst_diag, float(np.max(np.abs(
                        V[diag, diag] - Q[diag, diag]))))
                else:
                    worst_off = max(worst_off, float(np.max(np.abs(V - Q))))
    ok = worst_off < 1e-8 and worst_diag < 1e-6
    report(5, ok, f"coupling blocks vs quadrature over |m|,|n| <= 10, "
                  f"k in {{0.6, 3}}: off-diagonal dev {worst_off:.1e} < 1e-8, "
                  f"diagonal dev {worst_diag:.1e} < 1e-6")


def test_criterion_06_backends_agree_and_divergence_is_flagged():
    worst = 0.0
    for preset in ("far", "moderate", "close"):
        op, rhs = assemble_system(preset_scene(preset), 10)
        ref = solve(op, rhs, backend="dense").solution.flat()
        scale = np.linalg.norm(ref)
        for backend in ("gmres", "reflections"):
            res = solve(op, rhs, backend=backend, tol=1e-12)
            assert res.converged
            worst = max(worst, float(
                np.linalg.norm(res.solution.flat() - ref) / scale))
    op, rhs = assemble_system(preset_scene("touching"), 12)
    div = solve(op, rhs, backend="reflections")
    ok = worst < 1e-9 and div.diverged and not div.converged
    report(6, ok, f"dense/gmres/reflections agree to {worst:.1e} < 1e-9 on "
                  f"all presets; reflections on the almost-touching pair is "
                  f"flagged divergent ({div.diverged})")


def test_criterion_07_bound_side_series_behave():
    s = sigma_series_raw(40, 2.0, 1.0, 6.0)
    root = s ** (1.0 / 80.0)
    target = 2.0 / (6.0 - 1.0)
    dev = abs(root - target) / target
    z = 0.25
    val = hyp2f1_peaked(60, z)
    per_order = (1.0 - math.sqrt(z)) ** -2
    ratio = math.exp(math.log(val) / 60.0) / per_order
    ok = dev < 0.05 and ratio <= 1.01
    report(7, ok, f"sigma(40)^(1/80) = {root:.4f} within "
                  f"{100 * dev:.1f}% of a_p/(d - a_q) = {target:.4f}; "
                  f"2F1 per-order root ratio {ratio:.3f} <= 1.01")


def test_criterion_08_special_function_suites():
    w = specfun_checks.check_wronskian()
    r = specfun_checks.check_recurrence()
    specfun_checks.check_negative_order()
    band = specfun_checks.check_envelope()
    specfun_checks.check_hankel_monotonicity()
    p = specfun_checks.check_point_oracles(1e-10)
    ok = w < 1e-10 and r < 1e-10 and band < 100.0 and p < 1e-10
    report(8, ok, f"wronskian dev {w:.1e}, recurrence dev {r:.1e}, "
                  f"envelope band {band:.1f} < 100, parity exact, "
                  f"J_0(1)/Y_0(1) vs series oracles {p:.1e} < 1e-10")


def test_criterion_09_fields_check_out():
    sc = preset_scene("far")
    resid = {}
    for n in (3, 13):
        op, rhs = assemble_system(sc, n)
        resid[n] = boundary_residual(sc, solve(op, rhs).solution)
    drop = resid[3] / resid[13]

    single = Scene((Cylinder((0.0, 0.0), 1.0),), 0.6,
                   PointSource((-20.0, -25.0)))
    op, rhs = assemble_system(single, 12)
    phi = solve(op, rhs).solution
    angles = np.linspace(0.0, 2.0 * math.pi, 13)[:-1]
    F = np.abs(far_field_amplitude(single, phi, angles))
    far_dev = 0.0
    for r in (100.0, 400.0):
        pts = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
        u = np.abs(scattered_field(single, phi, pts)) * math.sqrt(r)
        far_dev = max(far_dev, float(np.max(np.abs(u / F - 1.0))))

    op, rhs = assemble_system(sc, 13)
    phi3 = solve(op, rhs).solution
    rng = np.random.default_rng(11)
    pts = rng.uniform(-30.0, 30.0, size=(80, 2))
    pts = pts[~interior_mask(sc, pts)][:20]
    u_m = scattered_field(sc, phi3, pts)
    u_q = single_layer_field_quadrature(sc, phi3, pts, n_quad=512)
    oracle_dev = float(np.max(np.abs(u_m - u_q)))

    ok = drop >= 100.0 and far_dev < 0.01 and oracle_dev < 1e-8
    report(9, ok, f"boundary residual drops {drop:.0f}x >= 100x over +10 N; "
                  f"|u| sqrt(r) tracks |F| to {100 * far_dev:.2f}% < 1%; "
                  f"field oracle dev {oracle_dev:.1e} < 1e-8")


def test_criterion_10_onset_truncation_grows_with_wavenumber():
    onsets = {}
    for k in (0.6, 3.0):
        rep = convergence_sweep(preset_scene("moderate", wavenumber=k),
                                range(0, 26))
        onsets[k] = onset_truncation(rep, factor=10.0)
    ok = (onsets[0.6] is not None and onsets[3.0] is not None
          and onsets[3.0] > onsets[0.6])
    report(10, ok, f"onset N with E < E(0)/10: k=3 needs N = {onsets[3.0]}, "
                   f"k=0.6 needs N = {onsets[0.6]}; strictly larger at "
                   f"higher k")
