"""Tests for the scaled Bessel/Hankel stack and the hypergeometric helper
of tests/instruments.py.

Reference values were computed with 40-digit arbitrary-precision arithmetic
and frozen here as literals; the module under test never sees them until the
assert.  The check_* helpers are plain functions so the acceptance suite can
re-run the same invariant sweeps.
"""

import math

import numpy as np
import pytest

from instruments import bessel_j, bessel_y, hankel1, hyp2f1_peaked
from memscat import specfun
from memscat.errors import CapabilityError

# (order, argument, J_m(x), Y_m(x)) at 17 significant digits.
JY_REFERENCE = [
    (0, 0.5, 0.9384698072408129, -0.44451873350670656),
    (0, 13.7, 0.20322083263300717, 0.0716883040156793),
    (1, 1.0, 0.44005058574493352, -0.78121282130028872),
    (2, 0.3, 0.011165861949063963, -14.480094011452342),
    (3, 0.01, 2.0833203125325522e-08, -5093021.8417137367),
    (5, 2.0, 0.0070396297558716855, -9.935989128481975),
    (7, 30.0, 0.14518518957232827, 0.027202118395205592),
    (10, 1.0, 2.6306151236874532e-10, -121618014.27868919),
    (17, 17.0, 0.17390791065677533, -0.30139818079398423),
    (25, 60.0, 0.10752452824703348, 0.010441723319644391),
    (40, 11.0, 2.396387301997115e-19, -3.4539996437342788e+16),
    (60, 95.0, 0.06585334765492558, 0.065614210909781745),
    (100, 3.0, 4.2603601811326252e-141, -7.4747961023557131e+137),
    (100, 100.0, 0.09636667329586156, -0.16692141141757651),
    (150, 40.0, 1.725412569599122e-69, -1.2761005571867759e+66),
    (200, 250.0, -0.0059021679152339693, 0.064874115156168023),
]

# (order, argument, Y_m(x)) at 17 significant digits: the order-0/1 anchors
# and the upward recurrence built on them, at moderate arguments (where
# neither the ascending series nor Hankel's expansion is accurate in double
# precision) and up to the argument cap.
Y_ANCHOR_REFERENCE = [
    (0, 1.0, 0.088256964215676958),
    (0, 3.3, 0.26909199505453384),
    (0, 5.6, -0.33544418124531584),
    (0, 8.1, 0.23809132870223481),
    (0, 10.9, -0.15158319322304511),
    (0, 13.4, 0.0084802072312510159),
    (0, 16.9, -0.075431547555802847),
    (0, 17.1, -0.10881904730042999),
    (0, 123.4, -0.0065611390519846386),
    (0, 377.7, -0.0031518738440060195),
    (0, 641.3, -0.011408000304312441),
    (0, 999.5, -0.0077467013969594464),
    (1, 1.0, -0.78121282130028872),
    (1, 3.3, 0.38785293102370989),
    (1, 5.6, -0.056805614399479848),
    (1, 8.1, -0.13314879595249593),
    (1, 10.9, 0.18131850967416425),
    (1, 13.4, -0.21755947283702858),
    (1, 16.9, 0.17663144309012718),
    (1, 17.1, 0.15617391314836486),
    (1, 123.4, 0.071499539392064844),
    (1, 377.7, -0.040938072271307013),
    (1, 641.3, -0.029378261464392125),
    (1, 999.5, -0.024023178433668915),
    (5, 1.0, -260.40586662581222),
    (5, 3.3, -1.3797570564478091),
    (5, 5.6, -0.3006347068028849),
    (5, 8.1, 0.26780007398223686),
    (5, 10.9, -0.068036716257207256),
    (5, 13.4, -0.125996052630352),
    (5, 16.9, 0.082375189413375224),
    (5, 17.1, 0.046234885989870223),
    (5, 123.4, 0.070524222930987602),
    (5, 377.7, -0.041017539081445758),
    (5, 641.3, -0.029586576396485215),
    (5, 999.5, -0.024114452473721774),
    (30, 1.0, -3.0481287832256432e+39),
    (30, 3.3, -9.2408209655544244e+23),
    (30, 5.6, -1.4211234130390047e+17),
    (30, 8.1, -2.9780358490042947e+12),
    (30, 10.9, -6.4697724684254932e+8),
    (30, 13.4, -2.2886977439692033e+6),
    (30, 16.9, -5848.1685684198128),
    (30, 17.1, -4385.4967658801279),
    (30, 123.4, -0.042059021473780061),
    (30, 377.7, -0.03692569510235536),
    (30, 641.3, -0.010254998707054354),
    (30, 999.5, -0.0034793230105447417),
]

EULER_GAMMA = 0.5772156649015328606


def j0_series(x: float) -> float:
    """Ascending series for J_0, summed term-by-term in plain floats."""
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for n in range(1, 40):
        term *= -q / (n * n)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def y0_series(x: float) -> float:
    """Ascending series for Y_0 (log term plus harmonic-weighted tail)."""
    q = 0.25 * x * x
    term = 1.0
    harmonic = 0.0
    tail = 0.0
    for n in range(1, 40):
        term *= -q / (n * n)
        harmonic += 1.0 / n
        tail -= term * harmonic
        if abs(term) < 1e-18:
            break
    return (2.0 / math.pi) * ((math.log(0.5 * x) + EULER_GAMMA) * j0_series(x) + tail)


def hankel_grid(m_max: int, x):
    """Scaled H_m^(1) = J_m + i Y_m, combined from the J and Y tables as the
    assemblies and the field code combine them."""
    return specfun._hankel_from(*specfun.bessel_j_grid_scaled(m_max, x),
                                *specfun.bessel_y_grid_scaled(m_max, x))


def check_point_oracles(tol: float = 1e-10) -> float:
    """Max relative deviation of J_0(1), Y_0(1) from in-test series oracles."""
    dev_j = abs(bessel_j(0, 1.0) - j0_series(1.0)) / abs(j0_series(1.0))
    dev_y = abs(bessel_y(0, 1.0) - y0_series(1.0)) / abs(y0_series(1.0))
    worst = max(dev_j, dev_y)
    assert worst < tol
    return worst


def check_wronskian(orders=range(50), args=(0.5, 1.0, 2.0, 10.0, 50.0),
                    tol: float = 1e-10) -> float:
    """J_m Y_{m+1} - J_{m+1} Y_m = -2/(pi x), relative deviation."""
    worst = 0.0
    for x in args:
        m_max = max(orders) + 1
        j = specfun.scaled_to_float(
            *specfun.bessel_j_grid_scaled(m_max, x))[:, 0]
        y = specfun.scaled_to_float(
            *specfun.bessel_y_grid_scaled(m_max, x))[:, 0]
        target = -2.0 / (math.pi * x)
        for m in orders:
            w = j[m] * y[m + 1] - j[m + 1] * y[m]
            worst = max(worst, abs(w - target) / abs(target))
    assert worst < tol
    return worst


def check_recurrence(args=(0.7, 3.0, 25.0, 90.0), m_max: int = 60,
                     tol: float = 1e-10) -> float:
    """C_{m+1} = (2m/x) C_m - C_{m-1} for J, Y and H, scaled to the row size."""
    worst = 0.0
    for x in args:
        seqs = [specfun.scaled_to_float(*grid(m_max, x))[:, 0]
                for grid in (specfun.bessel_j_grid_scaled,
                             specfun.bessel_y_grid_scaled,
                             hankel_grid)]
        for c in seqs:
            for m in range(1, m_max):
                res = c[m + 1] - (2.0 * m / x) * c[m] + c[m - 1]
                scale = max(abs(c[m - 1]), abs(c[m]), abs(c[m + 1]))
                worst = max(worst, abs(res) / scale)
    assert worst < tol
    return worst


def check_negative_order() -> None:
    """Parity rule C_{-m} = (-1)^m C_m must hold bit-for-bit."""
    for m in range(1, 12):
        for x in (0.4, 2.0, 19.5):
            sign = -1.0 if m % 2 else 1.0
            assert bessel_j(-m, x) == sign * bessel_j(m, x)
            assert bessel_y(-m, x) == sign * bessel_y(m, x)
            assert hankel1(-m, x) == sign * hankel1(m, x)


def check_envelope(args=(1.0, 5.0, 20.0), band: float = 100.0) -> float:
    """Large-order growth envelopes.

    |J_m(x)| sqrt(m) (2m/(e x))^m and |H_m(x)| sqrt(m) (e x/(2m))^m stay in a
    band [c, C] with C/c < 100 for m from ceil(x)+5 up to the order cap slice.
    Everything runs in log space; returns the widest band ratio seen.
    """
    worst = 1.0
    for x in args:
        m_lo = math.ceil(x) + 5
        m_hi = 100
        jm, je = specfun.bessel_j_grid_scaled(m_hi, x)
        hm, he = hankel_grid(m_hi, x)
        log_j = np.log(np.abs(jm[:, 0])) + je[:, 0] * math.log(2.0)
        log_h = np.log(np.abs(hm[:, 0])) + he[:, 0] * math.log(2.0)
        ms = np.arange(m_lo, m_hi + 1, dtype=float)
        growth = ms * (np.log(2.0 * ms) - 1.0 - math.log(x))
        for log_c, sgn in ((log_j[m_lo:], 1.0), (log_h[m_lo:], -1.0)):
            banded = log_c + 0.5 * np.log(ms) + sgn * growth
            ratio = math.exp(banded.max() - banded.min())
            worst = max(worst, ratio)
    assert worst < band
    return worst


def check_hankel_monotonicity(order_max: int = 30,
                              args=(0.5, 2.0, 10.0)) -> None:
    """|H_{|m-n|}(x)| <= |H_{m+n}(x)| for fixed x: |H_m| grows with order."""
    for x in args:
        hm, he = hankel_grid(2 * order_max, x)
        log_h = np.log(np.abs(hm[:, 0])) + he[:, 0] * math.log(2.0)
        for m in range(order_max + 1):
            for n in range(order_max + 1):
                assert log_h[abs(m - n)] <= log_h[m + n] + 1e-12


class TestReferenceGrid:
    @pytest.mark.parametrize("m,x,j_ref,y_ref", JY_REFERENCE)
    def test_j_matches_reference(self, m, x, j_ref, y_ref):
        assert bessel_j(m, x) == pytest.approx(j_ref, rel=1e-12)

    @pytest.mark.parametrize("m,x,j_ref,y_ref", JY_REFERENCE)
    def test_y_matches_reference(self, m, x, j_ref, y_ref):
        assert bessel_y(m, x) == pytest.approx(y_ref, rel=1e-12)

    @pytest.mark.parametrize("m,x,j_ref,y_ref", JY_REFERENCE)
    def test_hankel_combines_j_and_y(self, m, x, j_ref, y_ref):
        h = hankel1(m, x)
        assert h.real == bessel_j(m, x)
        assert h.imag == bessel_y(m, x)

    @pytest.mark.parametrize("m,x,y_ref", Y_ANCHOR_REFERENCE)
    def test_y_anchors_match_reference(self, m, x, y_ref):
        # Y oscillates through zeros, so the error is measured against the
        # larger of |Y| and the oscillation envelope sqrt(2 / (pi x)).
        scale = max(abs(y_ref), math.sqrt(2.0 / (math.pi * x)))
        assert abs(bessel_y(m, x) - y_ref) <= 1e-13 * scale

    def test_series_point_oracles(self):
        worst = check_point_oracles()
        assert worst < 1e-10

    def test_small_argument_magnitude(self):
        # Y_0 blows up only logarithmically; at 1e-3 it is about -4.47.
        assert bessel_y(0, 1e-3) == pytest.approx(-4.4714166113759233,
                                                          rel=1e-12)


class TestIdentities:
    def test_wronskian_grid(self):
        assert check_wronskian() < 1e-10

    def test_wronskian_example(self):
        # J_3(2) Y_4(2) - J_4(2) Y_3(2) = -2/(pi*2) = -1/pi.
        w = (bessel_j(3, 2.0) * bessel_y(4, 2.0)
             - bessel_j(4, 2.0) * bessel_y(3, 2.0))
        assert w == pytest.approx(-1.0 / math.pi, rel=1e-12)

    def test_three_term_recurrence(self):
        assert check_recurrence() < 1e-10

    def test_negative_orders(self):
        check_negative_order()

    def test_hankel_parity_example(self):
        assert hankel1(-1, 2.0) == -hankel1(1, 2.0)

    def test_growth_envelope(self):
        assert check_envelope() < 100.0

    def test_hankel_order_monotonicity(self):
        check_hankel_monotonicity()


class TestScaledSequences:
    def test_seq_matches_point_evaluations(self):
        xs = (0.8, 12.0, 77.0)
        h = specfun.scaled_to_float(*hankel_grid(40, xs))
        for i, x in enumerate(xs):
            for m in (0, 7, 25, 40):
                assert h[m, i] == pytest.approx(hankel1(m, x),
                                                rel=1e-12)

    @pytest.mark.parametrize("order", [0, 5, 26, 100, 200])
    def test_columns_do_not_depend_on_the_batch(self, order):
        # each argument starts its own Miller recurrence, so a column of a
        # batched table is bitwise the one-argument table
        xs = [1e-8, 0.05, 0.7, 3.0, 40.0, 120.0, 999.0]
        for grid in (specfun.bessel_j_grid_scaled, specfun.bessel_y_grid_scaled,
                     hankel_grid):
            mant, exp2 = grid(order, xs)
            for i, x in enumerate(xs):
                one_m, one_e = grid(order, x)
                assert np.array_equal(mant[:, i], one_m[:, 0])
                assert np.array_equal(exp2[:, i], one_e[:, 0])

    def test_scaled_to_float_round_trip(self):
        vals = np.array([1.5e-200, -2.75, 3.25e180])
        mant, exp2 = np.frexp(vals)
        back = specfun.scaled_to_float(mant, exp2)
        assert np.array_equal(back, vals)

    def test_scaled_log_abs(self):
        mant, exp2 = specfun.bessel_j_grid_scaled(100, 3.0)
        log_j100 = math.log(abs(mant[100, 0])) + exp2[100, 0] * math.log(2.0)
        assert log_j100 == pytest.approx(math.log(4.2603601811326252e-141),
                                         rel=1e-12)

    def test_plain_seq_overflows_loudly(self):
        # H_200(0.5) is far beyond the double range.
        mant, exp2 = hankel_grid(200, 0.5)
        with pytest.raises(OverflowError):
            specfun.scaled_to_float(mant, exp2)
        # The scaled form represents the same row without complaint.
        assert np.all(np.isfinite(mant))

    def test_grid_shape(self):
        mant, exp2 = specfun.bessel_j_grid_scaled(10, [1.0, 2.0, 3.0])
        assert mant.shape == (11, 3)
        assert exp2.shape == (11, 3)


class TestDomainAndCaps:
    def test_j_at_zero(self):
        # every table takes 0 < x <= ARG_CAP, J included
        with pytest.raises(ValueError, match="> 0"):
            bessel_j(0, 0.0)
        with pytest.raises(ValueError, match="> 0"):
            specfun.bessel_j_grid_scaled(3, [0.0, 1.0])

    def test_y_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel_y(0, 0.0)
        with pytest.raises(ValueError):
            hankel1(2, -1.0)

    def test_j_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_j(0, -0.5)

    def test_order_cap(self):
        with pytest.raises(CapabilityError):
            bessel_j(201, 1.0)
        with pytest.raises(CapabilityError):
            specfun.bessel_y_grid_scaled(201, 1.0)

    def test_argument_cap(self):
        with pytest.raises(CapabilityError):
            bessel_j(0, 1000.5)


class TestHyp2F1Peaked:
    def test_degenerate_cases(self):
        assert hyp2f1_peaked(5, 0.0) == 1.0
        assert hyp2f1_peaked(0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_reference_value(self):
        # 2F1(2, 2; 1; 1/4) = 80/27.
        assert hyp2f1_peaked(1, 0.25) == pytest.approx(
            2.962962962962963, rel=1e-13)

    def test_against_direct_series(self):
        for m in (2, 5, 9, 15):
            for z in (0.1, 0.3, 0.5):
                term = 1.0
                total = 1.0
                n = 0
                while True:
                    n += 1
                    term *= ((m + n) / n) ** 2 * z
                    total += term
                    if term < 1e-16 * total or n > 5000:
                        break
                assert hyp2f1_peaked(m, z) == pytest.approx(total,
                                                            rel=1e-8)

    def test_root_growth_bound(self):
        # (1-sqrt(z))^{-2} is the per-order growth base (saddle point of the
        # squared-binomial series); the m-th root of the value over that
        # power tends to 1 from below.
        z = 0.25
        m = 60
        val = hyp2f1_peaked(m, z)
        per_order = (1.0 - math.sqrt(z)) ** -2
        ratio = math.exp(math.log(val) / m) / per_order
        assert 0.9 <= ratio <= 1.01

    def test_per_order_growth_converges_to_the_base(self):
        z = 0.25
        r = hyp2f1_peaked(60, z) / hyp2f1_peaked(59, z)
        assert r == pytest.approx((1.0 - math.sqrt(z)) ** -2, rel=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            hyp2f1_peaked(-1, 0.5)
        with pytest.raises(ValueError):
            hyp2f1_peaked(3, 1.0)

    def test_overflow_is_loud(self):
        with pytest.raises(OverflowError):
            hyp2f1_peaked(150, 0.9)

