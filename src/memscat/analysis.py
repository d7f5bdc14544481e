"""Convergence experiments: truncation-error sweeps, decay envelopes and rate
fits.

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
from .solver import solve_dense

REFERENCE_MARGIN = 5
FIT_FLOOR = 1e-13
FIT_CEILING = 1e-2
FIT_TAIL_FRACTION = 0.5
THEOREM_SLACK_PER_N = 0.05
# first-order validity heuristic: surface gap between the two largest
# cylinders must exceed this multiple of the second radius
BREAKDOWN_GAP_FACTOR = 1.25


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

    def columns(self) -> dict[str, np.ndarray]:
        """Curves by name in CSV order: E, gamma1, gamma2[, E1_surrogate]."""
        cols = {"E": self.errors, "gamma1": self.gamma1, "gamma2": self.gamma2}
        if self.e1_surrogate is not None:
            cols["E1_surrogate"] = self.e1_surrogate
        return cols


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
                           applied: np.ndarray, N: int, norm: str) -> float:
    """|| G - G(N) || + || (A(N_ref) - A(N)) G || without extra solves;
    `applied` is (I + A) G at the reference truncation, which every N shares.

    Both truncations act on the reference assembly: G(N) zeroes modes beyond
    N, and A(N) zeroes coupling entries with a row or column mode beyond N.
    So (A(N_ref) - A(N)) G is A G on the rows beyond N, and A (G - G(N)) on
    the rows within N, where the identity in I + A meets only zeros.
    """
    g = rhs_ref.data
    outer = np.abs(mode_range(rhs_ref.truncation)) > N
    tail = CoefficientVector(np.where(outer, g, 0.0))
    out = op_ref.matvec(tail)
    out.data[:, outer] = applied[:, outer] - g[:, outer]
    return tail.norm(norm) + out.norm(norm)


def convergence_sweep(scene: Scene, truncations, norm: str = NORM_L0,
                      include_surrogate: bool = False,
                      n_ref: int | None = None) -> ConvergenceReport:
    """Measure E(N) over a truncation ladder against a reference solve.

    The system is assembled once, at n_ref; the system at each N is its
    central |m|, |n| <= N slice, since the entries do not depend on the
    truncation.  Every solve is dense, so E(N) is the truncation error of
    the exact solutions and carries no iteration error.  Raises
    NonConvergenceError when any solve, the reference or one at some N,
    reports that it did not converge.
    """
    truncations = np.asarray(sorted(int(n) for n in truncations), dtype=np.int64)
    if truncations.size == 0:
        raise ValueError("empty truncation list")
    if truncations[0] < 0:
        raise ValueError("truncations must be >= 0")
    if n_ref is None:
        n_ref = int(truncations[-1]) + REFERENCE_MARGIN
    op_ref, rhs_ref = assemble_system(scene, n_ref)
    ref = _converged_solution(op_ref, rhs_ref)
    errors = np.array([
        approximation_error(
            ref,
            _converged_solution(op_ref.restrict(int(n)),
                                rhs_ref.restrict(int(n))), norm)
        for n in truncations])
    surrogate = None
    if include_surrogate:
        applied = op_ref.matvec(rhs_ref).data
        surrogate = np.array([
            _first_order_surrogate(op_ref, rhs_ref, applied, int(n), norm)
            for n in truncations])
    report = ConvergenceReport(
        truncations, errors, gamma1(scene, truncations),
        gamma2(scene, truncations), surrogate, n_ref, {})
    for name, vals in report.columns().items():
        try:
            report.rates[name] = fit_rate(truncations, vals,
                                          tail_fraction=FIT_TAIL_FRACTION,
                                          floor=FIT_FLOOR, ceiling=FIT_CEILING)
        except InsufficientPointsError:
            report.rates[name] = None
    return report


def _converged_solution(op: BlockOperator,
                        rhs: CoefficientVector) -> CoefficientVector:
    """The dense solution; a non-finite residual raises."""
    res = solve_dense(op, rhs)
    if not res.converged:
        raise NonConvergenceError(
            f"dense solve at N = {op.truncation} did not converge "
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
    _write_table(path, report.truncations, report.columns())


def write_bounds_csv(scene: Scene, truncations, path) -> None:
    """Envelope tables without any solving: header N,gamma1,gamma2."""
    truncations = np.asarray(sorted(int(n) for n in truncations))
    _write_table(path, truncations, {"gamma1": gamma1(scene, truncations),
                                     "gamma2": gamma2(scene, truncations)})


def _write_table(path, truncations, columns: dict) -> None:
    """The N column, then each named column as '.16e' text, one row per N."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["N", *columns]) + "\n")
        for n, *values in zip(truncations, *columns.values()):
            fh.write(",".join([str(int(n)), *(f"{v:.16e}" for v in values)])
                     + "\n")
