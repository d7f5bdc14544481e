"""Convergence experiments: truncation-error sweeps, decay envelopes, rate
fits, and the bound-side series they are compared against.

The experiment protocol: solve the preconditioned system at a reference
truncation N_ref = max(N) + 5, then for each N measure

    E(N) = || Phi(N_ref) - pad(Phi(N)) ||

in the chosen coefficient norm ("l0" plain l2, or "lhalf" with per-mode
weights (1+m^2)^{-1/2} on the squared moduli).  Two closed-form envelopes
accompany every sweep:

    gamma1(N): worst-case geometry factors  a_p/(d_pq - a_q)  (and, for a
               point source, a_p/d_p,x0);
    gamma2(N): the first-order-scattering refinement with  a_p/d_pq  (plane
               wave) or  a_p d_q,x0 / (d_pq d_q,x0 - a_q^2)  (point source).

Rates are least-squares slopes of log E against N over the tail of the
window (floor, ceiling); the harness uses floor 1e-13 (round-off plateau)
and ceiling 1e-2 (pre-asymptotic shoulder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (NORM_L0, BlockOperator, CoefficientVector,
                       assemble_system, mode_range)
from .errors import InsufficientPointsError, NonConvergenceError
from .scene import PointSource, Scene, pairwise_geometry
from .solver import solve

REFERENCE_MARGIN = 5
FIT_FLOOR = 1e-13
FIT_CEILING = 1e-2
FIT_TAIL_FRACTION = 0.5
THEOREM_SLACK_PER_N = 0.05
# first-order validity heuristic: surface gap between the two largest
# cylinders must exceed this multiple of the second radius
BREAKDOWN_GAP_FACTOR = 1.25
# sigma_series_raw stops once a term falls below this fraction of the sum
_SIGMA_RTOL = 1e-18


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    n_lo: int
    n_hi: int


@dataclass
class ConvergenceReport:
    truncations: np.ndarray
    errors: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    e1_surrogate: np.ndarray | None
    n_ref: int
    rates: dict


@dataclass
class BreakdownReport:
    first_order_valid: bool
    gap: float
    threshold: float
    pair: tuple[int, int]


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def _envelope_base(scene: Scene, which: int) -> float:
    """Largest per-N base of gamma1 (which=1) or gamma2 (which=2).

    Below 1 for every scene `validate_scene` accepts: disjoint circles give
    a_p < d_pq - a_q, and a source outside every cylinder gives a_p < d_p,x0.
    """
    radii = scene.radii()
    point = isinstance(scene.incident, PointSource)
    if scene.n_cylinders == 1 and not point:
        # no pair terms and no source terms: the bound is vacuous
        return 0.0
    geom = pairwise_geometry(scene)
    off = ~np.eye(scene.n_cylinders, dtype=bool)
    p, q = np.nonzero(off)
    a_p, a_q, d = radii[p], radii[q], geom.distances[off]
    if which == 1:
        bases = a_p / (d - a_q)
    elif point:
        dq = geom.source_distances[q]
        bases = a_p * dq / (d * dq - a_q ** 2)
    else:
        bases = a_p / d
    if point:
        bases = np.concatenate([radii / geom.source_distances, bases])
    return float(np.max(bases))


def gamma1(scene: Scene, truncations):
    """Worst-case decay envelope; scalar in, scalar out (arrays likewise)."""
    base = _envelope_base(scene, 1)
    return base ** np.asarray(truncations, dtype=np.float64)


def gamma2(scene: Scene, truncations):
    """First-order-scattering decay envelope."""
    base = _envelope_base(scene, 2)
    return base ** np.asarray(truncations, dtype=np.float64)


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------

def approximation_error(reference: CoefficientVector, approx: CoefficientVector,
                        norm: str = NORM_L0) -> float:
    """|| reference - pad(approx) || in the chosen coefficient norm."""
    if approx.n_cylinders != reference.n_cylinders:
        raise ValueError("cylinder counts differ between reference and "
                         "approximation")
    if approx.truncation > reference.truncation:
        raise ValueError("approximation band exceeds the reference band")
    return CoefficientVector(
        reference.data - approx.zero_pad(reference.truncation).data).norm(norm)


def _first_order_surrogate(op_ref: BlockOperator, rhs_ref: CoefficientVector,
                           N: int, norm: str) -> float:
    """|| G - G(N) || + || (A(N_ref) - A(N)) G || without extra solves.

    Both truncations act on the reference assembly: G(N) zeroes modes beyond
    N, and A(N) zeroes coupling entries with a row or column mode beyond N.
    So (A(N_ref) - A(N)) G is A G on the rows beyond N, and A (G - G(N)) on
    the rows within N, where the identity in I + A meets only zeros.
    """
    g = rhs_ref.data
    outer = np.abs(mode_range(rhs_ref.truncation)) > N
    tail = CoefficientVector(np.where(outer, g, 0.0))
    out = op_ref.matvec(tail)
    out.data[:, outer] = op_ref.matvec(rhs_ref).data[:, outer] - g[:, outer]
    return tail.norm(norm) + out.norm(norm)


def convergence_sweep(scene: Scene, truncations, norm: str = NORM_L0,
                      backend: str = "dense", include_surrogate: bool = False,
                      n_ref: int | None = None) -> ConvergenceReport:
    """Measure E(N) over a truncation ladder against a reference solve.

    The system is assembled once, at n_ref; the system at each N is its
    central |m|, |n| <= N slice, since the entries do not depend on the
    truncation.  Raises NonConvergenceError when any solve, the reference
    or one at some N, reports that it did not converge.
    """
    truncations = np.asarray(sorted(int(n) for n in truncations), dtype=np.int64)
    if truncations.size == 0:
        raise ValueError("empty truncation list")
    if truncations[0] < 0:
        raise ValueError("truncations must be >= 0")
    if n_ref is None:
        n_ref = int(truncations[-1]) + REFERENCE_MARGIN
    op_ref, rhs_ref = assemble_system(scene, n_ref)
    ref = _converged_solution(op_ref, rhs_ref, backend)
    errors = np.array([
        approximation_error(
            ref,
            _converged_solution(op_ref.restrict(int(n)),
                                rhs_ref.restrict(int(n)), backend), norm)
        for n in truncations])
    g1 = gamma1(scene, truncations)
    g2 = gamma2(scene, truncations)
    surrogate = None
    if include_surrogate:
        surrogate = np.array([_first_order_surrogate(op_ref, rhs_ref, int(n), norm)
                              for n in truncations])
    rates = {}
    curves = {"E": errors, "gamma1": g1, "gamma2": g2}
    if surrogate is not None:
        curves["E1_surrogate"] = surrogate
    for name, vals in curves.items():
        try:
            rates[name] = fit_rate(truncations, vals,
                                   tail_fraction=FIT_TAIL_FRACTION,
                                   floor=FIT_FLOOR, ceiling=FIT_CEILING)
        except InsufficientPointsError:
            rates[name] = None
    return ConvergenceReport(truncations, errors, g1, g2, surrogate, n_ref,
                             rates)


def _converged_solution(op: BlockOperator, rhs: CoefficientVector,
                        backend: str) -> CoefficientVector:
    res = solve(op, rhs, backend=backend)
    if not res.converged:
        raise NonConvergenceError(
            f"{backend} solve at N = {op.truncation} did not converge "
            f"(residual {res.residual:.3e})")
    return res.solution


# ---------------------------------------------------------------------------
# rate fitting and bound checks
# ---------------------------------------------------------------------------

def fit_rate(truncations, values, tail_fraction: float = FIT_TAIL_FRACTION,
             floor: float = FIT_FLOOR, ceiling: float | None = None) -> RateFit:
    """Least-squares slope of log(values) against N over a window tail.

    Points outside (floor, ceiling) are dropped (round-off plateau below,
    pre-asymptotic shoulder above); the fit then uses the last
    `tail_fraction` of what survives and insists on >= 4 points.
    """
    n = np.asarray(truncations, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    keep = np.isfinite(v) & (v > floor)
    if ceiling is not None:
        keep &= v < ceiling
    n, v = n[keep], v[keep]
    count = int(np.ceil(tail_fraction * n.size))
    n, v = n[n.size - count:], v[v.size - count:]
    if n.size < 4:
        raise InsufficientPointsError(
            f"rate fit needs >= 4 tail points, found {n.size}")
    logv = np.log(v)
    slope, intercept = np.polyfit(n, logv, 1)
    pred = slope * n + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-24 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return RateFit(float(slope), float(intercept), float(r2), int(n.size),
                   int(n[0]), int(n[-1]))


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
# bound-side series
# ---------------------------------------------------------------------------

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


def breakdown_check(scene: Scene) -> BreakdownReport:
    """Heuristic validity of the first-order (single-scattering) answer.

    The surface gap between the two largest cylinders must exceed
    BREAKDOWN_GAP_FACTOR times the second-largest radius; otherwise repeated
    reflections carry O(1) energy and the zeroth iterate cannot be trusted.
    """
    radii = scene.radii()
    if scene.n_cylinders < 2:
        return BreakdownReport(True, float("inf"), 0.0, (0, 0))
    order = np.argsort(-radii, kind="stable")
    p, q = int(order[0]), int(order[1])
    gap = float(pairwise_geometry(scene).distances[p, q] - radii[p] - radii[q])
    threshold = BREAKDOWN_GAP_FACTOR * float(radii[q])
    return BreakdownReport(gap > threshold, gap, threshold, (p, q))


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def write_report_csv(report: ConvergenceReport, path) -> None:
    """CSV with header N,E,gamma1,gamma2[,E1_surrogate]; 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = "N,E,gamma1,gamma2"
        if report.e1_surrogate is not None:
            cols += ",E1_surrogate"
        fh.write(cols + "\n")
        for i, n in enumerate(report.truncations):
            row = (f"{int(n)},{report.errors[i]:.16e},"
                   f"{report.gamma1[i]:.16e},{report.gamma2[i]:.16e}")
            if report.e1_surrogate is not None:
                row += f",{report.e1_surrogate[i]:.16e}"
            fh.write(row + "\n")


def write_bounds_csv(scene: Scene, truncations, path) -> None:
    """Envelope tables without any solving: header N,gamma1,gamma2."""
    truncations = np.asarray(sorted(int(n) for n in truncations))
    g1 = gamma1(scene, truncations)
    g2 = gamma2(scene, truncations)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("N,gamma1,gamma2\n")
        for i, n in enumerate(truncations):
            fh.write(f"{int(n)},{g1[i]:.16e},{g2[i]:.16e}\n")
