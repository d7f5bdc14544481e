"""Instruments that only the tests use: bound-side series, single Bessel
values, the far-field limit, the incident-trace quadrature, the pointwise
total field, the reader of system dumps and a dense solve that fails.

No production path (the CLI, `memscat selftest`, the benchmark) calls
these; the acceptance criteria and unit tests measure the package against
them.  They are built on the package's public layers:

* hyp2f1_peaked and sigma_series_raw: the bound-side series whose growth
  criterion 7 checks against the envelope bases;
* theorem_slack (criterion 3) and onset_truncation (criterion 10): readings
  of a ConvergenceReport;
* bessel_j, bessel_y and hankel1: plain-float values of specfun's scaled
  tables at one order and argument;
* far_field_amplitude: the large-r limit of the radiation sum that
  criterion 9 compares scattered_field with;
* total_field: incident plus scattered field at arbitrary points, the
  reference for total_field_grid;
* incident_trace_quadrature: the trapezoid reference for the rhs f of
  assemble_raw;
* load_system_dump: reads back the file `solve --dump-matrix` writes;
* unconverged_dense: a dense solve that reports no convergence, for the
  paths of `sweep` and `field` that no preset reaches.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.special

from memscat import specfun
from memscat.analysis import THEOREM_SLACK_PER_N, ConvergenceReport
from memscat.assembly import CoefficientVector
from memscat.errors import InsufficientPointsError, NonConvergenceError
from memscat.field import incident_field, scattered_field
from memscat.scene import PlaneWave, Scene
from memscat.solver import SolveResult, solve_dense
from memscat.specfun import (bessel_j_grid_scaled, bessel_y_grid_scaled,
                             scaled_to_float)

# sigma_series_raw stops once a term falls below this fraction of the sum
_SIGMA_RTOL = 1e-18


# ---------------------------------------------------------------------------
# bound-side series
# ---------------------------------------------------------------------------

def hyp2f1_peaked(m: int, z: float) -> float:
    """2F1(m+1, m+1; 1; z) for integer m >= 0 and 0 <= z < 1.

    Uses the Pfaff transform to a terminating sum,

        (1-z)^{-(m+1)} 2F1(m+1, -m; 1; z/(z-1)),

    whose m+1 terms are all positive, so there is no cancellation; errors stay
    at a few ulp.  The direct series would need ~m/(1-z) terms near z = 1.
    Grows like (1-sqrt(z))^{-2m}; raises OverflowError when that leaves the
    double range (around m = 60 at z = 0.9 the value is ~1e155, still fine;
    m = 200 there is not).
    """
    m = int(m)
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    if not (0.0 <= z < 1.0):
        raise ValueError("z must lie in [0, 1)")
    w = z / (z - 1.0)
    s = 1.0
    t = 1.0
    for j in range(m):
        t *= (m + 1.0 + j) * (j - m) / ((j + 1.0) ** 2) * w
        s += t
    with np.errstate(over="ignore"):
        out = s * (1.0 - z) ** (-(m + 1.0))
    if not np.isfinite(out):
        raise OverflowError("2F1 value exceeds double-precision range")
    return float(out)


def sigma_series_raw(m: int, a_p: float, a_q: float, d: float,
                     kind: str = "standard", d_qx0: float | None = None,
                     wavenumber: float | None = None,
                     n_max: int = 100000) -> float:
    """Sum over n >= 1 of the coupling-tail envelope terms

      standard:      ((m+n)/m)^2m ((m+n)/n)^2n (a_p/d)^2m (a_q/d)^2n
      point_source:  same with the last factor (a_q^2/(d d_qx0))^2n
      plane_wave:    same with the last factor (e k a_q^2/(2 d n))^2n

    evaluated in log space (the binomial-like factors overflow long before
    the products do).  The 2m-th root of the standard sum converges to
    a_p/(d - a_q) as m grows, which is the base the worst-case envelope
    uses; the variants encode the extra per-mode decay of the incident
    coefficients and yield the refined envelope bases.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if kind == "point_source":
        if d_qx0 is None:
            raise ValueError("point_source kind needs d_qx0")
        log_last = 2.0 * (np.log(a_q * a_q) - np.log(d * d_qx0))
    elif kind == "plane_wave":
        if wavenumber is None:
            raise ValueError("plane_wave kind needs wavenumber")
        log_last = 2.0 * np.log(np.e * wavenumber * a_q * a_q / (2.0 * d))
    elif kind == "standard":
        log_last = 2.0 * np.log(a_q / d)
    else:
        raise ValueError(f"unknown sigma kind {kind!r}")
    log_ap = 2.0 * m * np.log(a_p / d)
    total = 0.0
    prev_term = None
    growth_run = 0
    for n in range(1, n_max + 1):
        log_t = (2.0 * m * np.log((m + n) / m) + 2.0 * n * np.log((m + n) / n)
                 + log_ap + n * log_last)
        if kind == "plane_wave":
            log_t -= 2.0 * n * np.log(n)
        term = np.exp(log_t)
        total += term
        if prev_term is not None and term >= prev_term:
            growth_run += 1
            if growth_run >= 50 and term > total * 1e-6:
                raise NonConvergenceError(
                    f"sigma series not contracting (term ratio >= 1 for "
                    f"{growth_run} consecutive n at n={n}); geometry too tight")
        else:
            growth_run = 0
        prev_term = term
        if term < _SIGMA_RTOL * total:
            return float(total)
    raise NonConvergenceError(f"sigma series needed more than {n_max} terms")


# ---------------------------------------------------------------------------
# readings of a convergence report
# ---------------------------------------------------------------------------

def theorem_slack(report: ConvergenceReport, envelope: str = "gamma1",
                  slack_per_n: float = THEOREM_SLACK_PER_N) -> float:
    """The smallest C with log E(N) <= log gamma(N) + slack*N + C over the
    N window of the E rate fit, or inf when E or gamma is not positive
    there.  C is finite for any positive errors, so it measures where E
    sits against the envelope; it does not by itself test the bound."""
    fit = report.rates.get("E")
    if fit is None:
        raise InsufficientPointsError("no E rate fit available")
    g = report.gamma1 if envelope == "gamma1" else report.gamma2
    mask = (report.truncations >= fit.n_lo) & (report.truncations <= fit.n_hi)
    e = report.errors[mask]
    gv = g[mask]
    nv = report.truncations[mask]
    if np.any(e <= 0) or np.any(gv <= 0):
        return float("inf")
    return float(np.max(np.log(e) - np.log(gv) - slack_per_n * nv))


def onset_truncation(report: ConvergenceReport, factor: float = 10.0):
    """First N with E(N) < E(N_first)/factor; None if never reached."""
    e0 = report.errors[0]
    below = np.nonzero(report.errors < e0 / factor)[0]
    return int(report.truncations[below[0]]) if below.size else None


# ---------------------------------------------------------------------------
# special functions: single values
# ---------------------------------------------------------------------------

def _single(grid, m: int, x: float) -> float:
    """C_m(x) from one grid call; negative orders by C_{-m} = (-1)^m C_m."""
    am = abs(int(m))
    mant, exp2 = grid(am, float(x))
    v = scaled_to_float(mant[am, 0], exp2[am, 0])
    return -v if m < 0 and am % 2 else v


def bessel_j(m: int, x: float) -> float:
    """J_m(x) as a plain float; negative orders via J_{-m} = (-1)^m J_m."""
    return float(_single(bessel_j_grid_scaled, m, x))


def bessel_y(m: int, x: float) -> float:
    """Y_m(x) as a plain float; raises OverflowError out of double range."""
    return float(_single(bessel_y_grid_scaled, m, x))


def hankel1(m: int, x: float) -> complex:
    """H_m^(1)(x) = complex(J_m(x), Y_m(x)); parity rule for negative orders."""
    return complex(bessel_j(m, x), bessel_y(m, x))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def total_field(scene: Scene, phi: CoefficientVector, points) -> np.ndarray:
    return incident_field(scene, points) + scattered_field(scene, phi, points)


def far_field_amplitude(scene: Scene, phi: CoefficientVector, angles) -> np.ndarray:
    """Limit amplitude F with u_s(r, theta) ~ e^{ikr} F(theta) / sqrt(r).

    Substitutes the large-argument Hankel form and the r_p ~ r - x_hat.O_p
    phase reduction into the radiation sum.
    """
    th = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    k = scene.wavenumber
    N = phi.truncation
    xhat = np.stack([np.cos(th), np.sin(th)], axis=1)
    out = np.zeros(th.size, dtype=np.complex128)
    root = np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    jall = specfun.scaled_to_float(
        *specfun.bessel_j_grid_scaled(N, k * scene.radii()))
    for p, cyl in enumerate(scene.cylinders):
        j = jall[:, p]
        carrier = np.exp(-1j * k * (xhat @ np.asarray(cyl.center)))
        pref = 0.25j * np.sqrt(2.0 * np.pi * cyl.radius) * root
        acc = phi.get(p, 0) * j[0] * np.ones_like(th, dtype=np.complex128)
        for m in range(1, N + 1):
            phase = np.exp(1j * m * th)
            acc = acc + ((-1j) ** m) * j[m] * (phi.get(p, m) * phase
                                               + phi.get(p, -m) / phase)
        out += pref * carrier * acc
    return out


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def incident_trace_quadrature(scene: Scene, p: int, m: int,
                              n_quad: int = 512) -> complex:
    """Reference for f of assemble_raw: -int u_inc conj(b_m^p), trapezoid."""
    k = scene.wavenumber
    a_p = scene.cylinders[p].radius
    c = np.asarray(scene.cylinders[p].center)
    s = 2.0 * np.pi * np.arange(n_quad) / n_quad
    x = c[None, :] + a_p * np.stack([np.cos(s), np.sin(s)], axis=1)
    if isinstance(scene.incident, PlaneWave):
        beta_hat = scene.incident.angle
        u = np.exp(1j * k * (x[:, 0] * np.cos(beta_hat) + x[:, 1] * np.sin(beta_hat)))
    else:
        x0 = np.asarray(scene.incident.location)
        r = np.hypot(x[:, 0] - x0[0], x[:, 1] - x0[1])
        u = 0.25j * scipy.special.hankel1(0, k * r)
    w = a_p * (2.0 * np.pi / n_quad) / np.sqrt(2.0 * np.pi * a_p)
    return complex(-w * np.sum(u * np.exp(-1j * m * s)))


# ---------------------------------------------------------------------------
# system dumps
# ---------------------------------------------------------------------------

def load_system_dump(path):
    """Read a dump back; returns (matrix, n_cylinders, truncation, wavenumber)."""
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().strip()
        if magic != "memscat-system 1":
            raise ValueError(f"not a memscat system dump: {magic!r}")
        M = int(fh.readline().split()[1])
        N = int(fh.readline().split()[1])
        k = float(fh.readline().split()[1])
        dim = M * (2 * N + 1)
        entries = np.loadtxt(fh, dtype=np.float64).reshape(dim * dim, 2)
    mat = (entries[:, 0] + 1j * entries[:, 1]).reshape(dim, dim)
    return mat, M, N, k


# ---------------------------------------------------------------------------
# solver failures
# ---------------------------------------------------------------------------

def unconverged_dense(op, rhs) -> SolveResult:
    """solve_dense's result with a non-finite residual, so converged=False:
    what dense reports when LAPACK returns a non-finite solution."""
    return dataclasses.replace(solve_dense(op, rhs), residual=math.nan,
                               converged=False)
