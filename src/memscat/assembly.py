"""Assembly of the truncated multipole system for the single-layer ansatz.

Each boundary density is expanded in the orthonormal Fourier basis
b_m^p(x) = e^{i m theta_p(x)} / sqrt(2 pi a_p) on circle Gamma_p with modes
|m| <= N.  Pairing the single-layer operator with this basis gives closed
forms (Graf's addition theorem does the off-diagonal work):

  self block      V^pp_mm = (i pi a_p / 2) J_m(k a_p) H_m(k a_p)
  coupling block  V^pq_mn = (i pi sqrt(a_p a_q) / 2)
                            J_m(k a_p) H_{m-n}(k d_pq) e^{i (n-m) th_pq} J_n(k a_q)

with d_pq = |O_q - O_p| and th_pq the polar angle of O_q - O_p.  (The phase
direction is the one the quadrature reference certifies; equivalently it is
the classic Graf translation H_{n-m}(k d) e^{i (n-m) th_qp}.)  The system
solved downstream is the diagonally preconditioned one,

  (I + A) phi = g,   A^pq = B^pp V^pq (p != q),   g^p = B^pp f^p,

where B^pp = (V^pp)^{-1} is diagonal.  `assemble_raw` builds (V, f) and
`assemble_system` builds (I + A, g) from one J and one Y recurrence over all
the arguments k a_p, k d_pq, k d_p,x0 (`_mode_tables`) and one coupling-block
loop (`_fill_pair_blocks`); they differ only in the products they form.  All
special-function products are combined in scaled (mantissa, exponent-of-2)
arithmetic before conversion, so high modes neither overflow nor underflow.

The entries of `assemble_raw` are certified against a quadrature route
(`pairing_block_quadrature`) that knows nothing about Graf's theorem: plain
tensor trapezoid between distinct circles and Kress' log-singularity rule
(Linear Integral Equations, ch. 12) on a single circle, with the kernel
evaluated by scipy.special.  Its rhs f is certified by a trapezoid rule
that lives in the tests (`incident_trace_quadrature` in
tests/instruments.py).  Since both assemblies read the same tables, the
certification covers the tables that production solves use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special

from . import specfun
from .errors import CapabilityError
from .scene import PairGeometry, PlaneWave, PointSource, Scene, pairwise_geometry

# assembly refuses systems with more unknowns than this; every backend
# works on the stored (dim, dim) matrix
DENSE_DIM_CAP = 20000
# assemble_system refuses larger truncations: the couplings need H_{2N}
TRUNCATION_CAP = specfun.ORDER_CAP // 2

NORM_L0 = "l0"
NORM_LHALF = "lhalf"

_EULER_GAMMA = 0.5772156649015328606065120900824024


def mode_range(truncation: int) -> np.ndarray:
    """Signed mode indices [-N, ..., N] in storage order."""
    return np.arange(-truncation, truncation + 1)


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------

@dataclass
class CoefficientVector:
    """Mode coefficients, one row per cylinder, columns m = -N .. N."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2 or self.data.shape[1] % 2 != 1:
            raise ValueError("data must be (n_cylinders, 2N+1)")

    @property
    def n_cylinders(self) -> int:
        return self.data.shape[0]

    @property
    def truncation(self) -> int:
        return (self.data.shape[1] - 1) // 2

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_cylinders: int,
                  truncation: int) -> "CoefficientVector":
        return cls(np.asarray(flat, dtype=np.complex128).reshape(
            n_cylinders, 2 * truncation + 1))

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)

    def get(self, p: int, m: int) -> complex:
        return self.data[p, m + self.truncation]

    def zero_pad(self, truncation: int) -> "CoefficientVector":
        """Embed into a wider mode band; existing entries are preserved exactly."""
        if truncation < self.truncation:
            raise ValueError("zero_pad cannot shrink the band; use restrict")
        out = np.zeros((self.n_cylinders, 2 * truncation + 1), dtype=np.complex128)
        lo = truncation - self.truncation
        out[:, lo:lo + self.data.shape[1]] = self.data
        return CoefficientVector(out)

    def restrict(self, truncation: int) -> "CoefficientVector":
        if truncation > self.truncation:
            raise ValueError("restrict cannot widen the band; use zero_pad")
        lo = self.truncation - truncation
        return CoefficientVector(self.data[:, lo:lo + 2 * truncation + 1].copy())

    def norm(self, kind: str = NORM_L0) -> float:
        w = mode_weights(self.truncation, kind)
        return float(np.sqrt(np.sum(w[None, :] * np.abs(self.data) ** 2)))


def mode_weights(truncation: int, kind: str) -> np.ndarray:
    """Per-mode weights applied to |coefficient|^2 inside the squared norm."""
    m = mode_range(truncation)
    if kind == NORM_L0:
        return np.ones(m.size)
    if kind == NORM_LHALF:
        return 1.0 / np.sqrt(1.0 + m.astype(np.float64) ** 2)
    raise ValueError(f"unknown norm kind {kind!r}; expected 'l0' or 'lhalf'")


# ---------------------------------------------------------------------------
# block operator
# ---------------------------------------------------------------------------

@dataclass
class BlockOperator:
    """System matrix over (cylinder, mode) indices.

    Row and column p (2N+1) + (m + N) belong to mode m on cylinder p, the
    storage order of CoefficientVector.flat().  `assemble_system` stores
    I + A here, `assemble_raw` stores V.
    """

    n_cylinders: int
    truncation: int
    matrix: np.ndarray

    @property
    def block_size(self) -> int:
        return 2 * self.truncation + 1

    def matvec(self, vec: CoefficientVector) -> CoefficientVector:
        if vec.truncation != self.truncation or vec.n_cylinders != self.n_cylinders:
            raise ValueError("operator/vector shape mismatch")
        return CoefficientVector.from_flat(self.matrix @ vec.flat(),
                                           self.n_cylinders, self.truncation)

    def restrict(self, truncation: int) -> "BlockOperator":
        """The central |m|, |n| <= truncation slice of every block.

        The entries do not depend on the truncation, so this is the operator
        a fresh assembly at that truncation builds.
        """
        if truncation > self.truncation:
            raise ValueError("restrict cannot widen the band")
        M, b = self.n_cylinders, self.block_size
        lo, hi = self.truncation - truncation, self.truncation + truncation + 1
        sub = self.matrix.reshape(M, b, M, b)[:, lo:hi, :, lo:hi]
        dim = M * (hi - lo)
        return BlockOperator(M, truncation, sub.reshape(dim, dim))


# ---------------------------------------------------------------------------
# closed-form assembly
# ---------------------------------------------------------------------------

class _ModeTables(NamedTuple):
    """Scaled (mant, exp2) Bessel tables over signed orders, one column per
    argument; slices of one J and one Y recurrence, shared by both assemblies."""

    pairs: list            # ordered pairs (p, q), p != q: the h_pair columns
    j: tuple               # J_m(k a_p), m = -N..N
    h: tuple               # H_m(k a_p), m = -N..N
    h_pair: tuple | None   # H_mu(k d_pq), mu = -2N..2N; None without pairs
    h_src: tuple | None    # H_m(k d_p,x0), m = -N..N; point source only


def _signed_orders(mant: np.ndarray, exp2: np.ndarray, orders: np.ndarray):
    """Rows of a scaled (order, argument) table for signed orders, by
    J_{-n} = (-1)^n J_n and H_{-n} = (-1)^n H_n."""
    sign = np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0)
    absolute = np.abs(orders)
    return mant[absolute] * sign[:, None], exp2[absolute]


def _check_argument_cap(scene: Scene, geom: PairGeometry) -> None:
    """Refuse, naming the largest, arguments k a_p, k d_pq and k d_p,x0 of
    the tables above specfun.ARG_CAP."""
    k = scene.wavenumber
    limit = specfun.ARG_CAP
    ka = k * scene.radii()
    p = int(np.argmax(ka))
    if ka[p] > limit:
        raise CapabilityError(f"cylinder {p + 1}: k a_p = {ka[p]:.6g} "
                              f"exceeds the argument cap {limit}")
    kd = k * geom.distances
    p, q = np.unravel_index(np.argmax(kd), kd.shape)
    if kd[p, q] > limit:
        raise CapabilityError(f"cylinders {p + 1} and {q + 1}: k d_pq = "
                              f"{kd[p, q]:.6g} exceeds the argument cap {limit}")
    if geom.source_distances is not None:
        ks = k * geom.source_distances
        p = int(np.argmax(ks))
        if ks[p] > limit:
            raise CapabilityError(f"point source and cylinder {p + 1}: k d_p,x0"
                                  f" = {ks[p]:.6g} exceeds the argument cap "
                                  f"{limit}")


def _mode_tables(scene: Scene, N: int, geom: PairGeometry) -> _ModeTables:
    """The tables both assemblies need at truncation N, after the argument
    cap is checked: one J and one Y recurrence over every argument."""
    _check_argument_cap(scene, geom)
    M = scene.n_cylinders
    k = scene.wavenumber
    m = mode_range(N)
    pairs = [(p, q) for p in range(M) for q in range(M) if p != q]
    # the radii, the off-diagonal distances in row-major order (the order
    # of pairs), then the source distances
    args = [k * scene.radii(), k * geom.distances[~np.eye(M, dtype=bool)]]
    if isinstance(scene.incident, PointSource):
        args.append(k * geom.source_distances)
    x = np.concatenate(args)
    top = 2 * N if pairs else N
    jm, je = specfun.bessel_j_grid_scaled(top, x)
    hm, he = specfun._hankel_from(jm, je, *specfun.bessel_y_grid_scaled(top, x))
    rest = M + len(pairs)
    h_pair = _signed_orders(hm[:, M:rest], he[:, M:rest], mode_range(2 * N)) \
        if pairs else None
    h_src = _signed_orders(hm[:, rest:], he[:, rest:], m) \
        if isinstance(scene.incident, PointSource) else None
    return _ModeTables(pairs, _signed_orders(jm[:, :M], je[:, :M], m),
                       _signed_orders(hm[:, :M], he[:, :M], m), h_pair, h_src)


def _fill_pair_blocks(matrix: np.ndarray, t: _ModeTables, geom: PairGeometry,
                      N: int, row: tuple, divide: bool,
                      weight: np.ndarray) -> None:
    """Write every coupling block (p != q) of `matrix`:

      weight[p, q] R_m^p H_{m-n}(k d_pq) J_n(k a_q) e^{i (n-m) th_pq},

    with R = row, or 1/row if `divide`, combined in scaled space so that only
    the finished entry is converted to a double.
    """
    if not t.pairs:
        return
    b = 2 * N + 1
    m = mode_range(N)
    hd_m, hd_e = t.h_pair
    jq_m, jq_e = t.j
    row_m, row_e = row
    mant_op, exp_op = (np.divide, np.subtract) if divide \
        else (np.multiply, np.add)
    index = m[:, None] - m[None, :] + 2 * N     # row of H_{m-n} in h_pair
    phase_arg = 1j * (m[None, :] - m[:, None])   # i (n - m)
    # each block is built in these contiguous buffers and copied in; a ufunc
    # on a strided view of the matrix, a buffered np.take (hence 'clip': the
    # rows are in range) or a block-sized temporary would each allocate a
    # block again while the matrix is alive, raising the memory peak
    blk = np.empty((b, b), dtype=np.complex128)
    phase = np.empty((b, b), dtype=np.complex128)
    exp2 = np.empty((b, b), dtype=np.int64)
    with np.errstate(over="raise"):
        for i, (p, q) in enumerate(t.pairs):
            np.take(hd_m[:, i], index, out=blk, mode="clip")
            blk *= jq_m[:, q]
            mant_op(blk, row_m[:, p][:, None], out=blk)
            np.take(hd_e[:, i], index, out=exp2, mode="clip")
            exp2 += jq_e[:, q]
            exp_op(exp2, row_e[:, p][:, None], out=exp2)
            np.ldexp(blk.real, exp2, out=blk.real)
            np.ldexp(blk.imag, exp2, out=blk.imag)
            blk *= weight[p, q]
            np.multiply(phase_arg, geom.angles[p, q], out=phase)
            blk *= np.exp(phase, out=phase)
            matrix[p * b:(p + 1) * b, q * b:(q + 1) * b] = blk


def _check_dense_dim(M: int, N: int) -> int:
    if N < 0:
        raise ValueError(f"truncation N must be >= 0, got N = {N}")
    dim = M * (2 * N + 1)
    if dim > DENSE_DIM_CAP:
        raise CapabilityError(
            f"dense system of dimension {dim} exceeds cap {DENSE_DIM_CAP}")
    return dim


def _plane_wave_phase(scene: Scene, N: int) -> tuple:
    """Rows e^{i m (pi/2 - beta_hat)}, columns e^{i k beta.O_p}: the phases
    shared by both plane-wave right-hand sides."""
    beta_hat = scene.incident.angle
    beta = np.array([np.cos(beta_hat), np.sin(beta_hat)])
    return (np.exp(1j * scene.wavenumber * (scene.centers() @ beta)),
            np.exp(1j * mode_range(N) * (0.5 * np.pi - beta_hat))[:, None])


def assemble_system(scene: Scene, N: int):
    """Preconditioned truncated system (I + A, g) at truncation N.

    Closed forms, for p != q (A^pp = 0):

      A^pq_mn = sqrt(a_q/a_p) H_{m-n}(k d_pq) e^{i(n-m) th_pq} J_n(k a_q)
                / H_m(k a_p)
      g^p_m   = -(2 sqrt(2) / (i sqrt(pi a_p))) e^{i k beta.O_p}
                e^{i m (pi/2 - beta_hat)} / H_m(k a_p)            (plane wave)
      g^p_m   = -(H_m(k d_p) / H_m(k a_p)) e^{-i m th_p(x0)}
                / sqrt(2 pi a_p)                                  (point source)

    These are B^pp V^pq and B^pp f^p of `assemble_raw` with the J_m(k a_p)
    factors cancelled, taken from the same tables.  The J/H ratios are
    combined in scaled space, so entries come out O(1) even when both factors
    are far outside the double range.  Returns (BlockOperator,
    CoefficientVector); with a single cylinder the operator is exactly the
    identity and g is the whole solution.
    """
    M = scene.n_cylinders
    if N > TRUNCATION_CAP:
        raise CapabilityError(
            f"truncation N = {N} exceeds the limit N <= {TRUNCATION_CAP}: "
            f"the couplings need H_{{2N}}, and orders are capped at "
            f"{specfun.ORDER_CAP}")
    dim = _check_dense_dim(M, N)
    geom = pairwise_geometry(scene)
    radii = scene.radii()
    m = mode_range(N)
    t = _mode_tables(scene, N, geom)
    hp_m, hp_e = t.h

    if isinstance(scene.incident, PlaneWave):
        sites, modes = _plane_wave_phase(scene, N)
        inv_h = specfun.scaled_to_float(1.0 / hp_m, -hp_e)
        rhs = (-(2.0 * np.sqrt(2.0)) / (1j * np.sqrt(np.pi * radii))
               * sites * modes * inv_h).T
    else:
        hs_m, hs_e = t.h_src
        ratio = specfun.scaled_to_float(hs_m / hp_m, hs_e - hp_e)
        rhs = (-ratio * np.exp(-1j * m[:, None] * geom.source_angles)
               / np.sqrt(2.0 * np.pi * radii)).T

    matrix = np.eye(dim, dtype=np.complex128)
    _fill_pair_blocks(matrix, t, geom, N, t.h, divide=True,
                      weight=np.sqrt(radii[None, :] / radii[:, None]))
    return BlockOperator(M, N, matrix), CoefficientVector(rhs)


def assemble_raw(scene: Scene, N: int):
    """Unpreconditioned system (V, f) at truncation N; the quadrature
    references certify these entries.

      V^pp_mm = (i pi a_p / 2) J_m(k a_p) H_m(k a_p)
      V^pq_mn = (i pi sqrt(a_p a_q) / 2)
                J_m(k a_p) H_{m-n}(k d_pq) e^{i (n-m) th_pq} J_n(k a_q)
      f^p_m   = -sqrt(2 pi a_p) e^{i k beta.O_p}
                e^{i m (pi/2 - beta_hat)} J_m(k a_p)              (plane wave)
      f^p_m   = -(i pi a_p / 2) J_m(k a_p) H_m(k d_p) e^{-i m th_p(x0)}
                / sqrt(2 pi a_p)                                  (point source)

    Both follow from Graf / Jacobi-Anger expansions.  V^pp vanishes where
    J_m(k a_p) = 0 (an interior Dirichlet eigenvalue); `assemble_system`
    never divides by it.  Only the couplings need H_{2N}, so a single
    cylinder assembles up to N = specfun.ORDER_CAP.
    """
    M = scene.n_cylinders
    dim = _check_dense_dim(M, N)
    geom = pairwise_geometry(scene)
    radii = scene.radii()
    m = mode_range(N)
    t = _mode_tables(scene, N, geom)
    j_m, j_e = t.j
    h_m, h_e = t.h

    if isinstance(scene.incident, PlaneWave):
        sites, modes = _plane_wave_phase(scene, N)
        rhs = (-np.sqrt(2.0 * np.pi * radii) * sites * modes
               * specfun.scaled_to_float(j_m, j_e)).T
    else:
        hs_m, hs_e = t.h_src
        prod = specfun.scaled_to_float(j_m * hs_m, j_e + hs_e)
        rhs = (-(0.5j * np.pi * radii) / np.sqrt(2.0 * np.pi * radii)
               * prod * np.exp(-1j * m[:, None] * geom.source_angles)).T

    matrix = np.zeros((dim, dim), dtype=np.complex128)
    self_vals = specfun.scaled_to_float(j_m * h_m, j_e + h_e)
    np.fill_diagonal(matrix, ((0.5j * np.pi * radii) * self_vals).T.reshape(-1))
    _fill_pair_blocks(matrix, t, geom, N, t.j, divide=False,
                      weight=0.5j * np.pi * np.sqrt(np.outer(radii, radii)))
    return BlockOperator(M, N, matrix), CoefficientVector(rhs)


# ---------------------------------------------------------------------------
# quadrature reference route (independent of the closed forms above)
# ---------------------------------------------------------------------------

def _kress_log_weights(n_half: int) -> np.ndarray:
    """Kress quadrature weights R_j(s_i) for the log(4 sin^2((s-t)/2)) factor.

    2*n_half equispaced points; returns the (2n, 2n) matrix R[i, j] such that
    int f(t) log(4 sin^2((s_i - t)/2)) dt ~ sum_j R[i, j] f(t_j), exact for
    trigonometric polynomials f of degree < n_half.
    """
    n2 = 2 * n_half
    ell = np.arange(1, n_half)
    lag = np.arange(n2)
    # R[i, j] depends only on the lag (i - j) mod 2n: sum the series once
    # per lag, at cosine arguments that are exact multiples of 2 pi / 2n
    cosines = np.cos((2.0 * np.pi / n2) * (np.outer(ell, lag) % n2))
    row = (-(2.0 * np.pi / n_half) / ell) @ cosines \
        - (np.pi / n_half ** 2) * np.where(lag % 2, -1.0, 1.0)
    return row[(lag[:, None] - lag[None, :]) % n2]


def pairing_block_quadrature(scene: Scene, p: int, q: int, N: int,
                             n_quad: int = 256) -> np.ndarray:
    """The pairings <V b_n^q, b_m^p> for |m|, |n| <= N by direct quadrature,
    as a (2N+1, 2N+1) array with entry (m + N, n + N); the reference for the
    closed forms.

    Distinct circles: tensor trapezoid (spectrally accurate for the analytic
    kernel).  Same circle: Kress' rule for the logarithmic singularity.  The
    kernel is evaluated with scipy.special's hankel1 (AMOS) and j0 (cephes).
    The scaled Bessel machinery it certifies takes from scipy only the cephes
    y0/y1 anchors of its Y recurrence (cephes y0 calls j0 below x = 5); every
    other value, and every order above 1, comes from specfun's recurrences.
    """
    if n_quad % 2:
        raise ValueError("n_quad must be even")
    k = scene.wavenumber
    a_p = scene.cylinders[p].radius
    a_q = scene.cylinders[q].radius
    s = 2.0 * np.pi * np.arange(n_quad) / n_quad
    m = mode_range(N)
    # e^{-i m s_i} row transform and e^{i n t_j} column transform
    row = np.exp(-1j * np.outer(m, s))
    col = np.exp(1j * np.outer(s, m))
    if p != q:
        cp = np.asarray(scene.cylinders[p].center)
        cq = np.asarray(scene.cylinders[q].center)
        xp = cp[None, :] + a_p * np.stack([np.cos(s), np.sin(s)], axis=1)
        xq = cq[None, :] + a_q * np.stack([np.cos(s), np.sin(s)], axis=1)
        r = np.hypot(xp[:, None, 0] - xq[None, :, 0], xp[:, None, 1] - xq[None, :, 1])
        kern = 0.25j * scipy.special.hankel1(0, k * r)
        h = 2.0 * np.pi / n_quad
        pref = a_p * a_q * h * h / (2.0 * np.pi * np.sqrt(a_p * a_q))
        return pref * (row @ kern @ col)
    # p == q: split G = A log(4 sin^2((s-t)/2)) + B, quadrature per Kress
    half = (s[:, None] - s[None, :]) / 2.0
    r = 2.0 * a_p * np.abs(np.sin(half))
    log_term = np.log(4.0 * np.sin(half) ** 2,
                      out=np.zeros_like(half), where=~np.eye(n_quad, dtype=bool))
    amat = -0.25 / np.pi * scipy.special.j0(k * r)
    with np.errstate(invalid="ignore", divide="ignore"):
        bmat = 0.25j * scipy.special.hankel1(0, k * r) - amat * log_term
    diag_b = 0.25j - (_EULER_GAMMA + np.log(0.5 * k * a_p)) / (2.0 * np.pi)
    np.fill_diagonal(bmat, diag_b)
    rw = _kress_log_weights(n_quad // 2)
    h = 2.0 * np.pi / n_quad
    inner = rw * amat + h * bmat            # quadrature in t for each s_i
    pref = a_p * a_p * h / (2.0 * np.pi * a_p)
    return pref * (row @ inner @ col)


# ---------------------------------------------------------------------------
# system dump (cross-language validation surface)
# ---------------------------------------------------------------------------

def dump_system(op: BlockOperator, scene: Scene, path) -> None:
    """Write the dense preconditioned operator to a textual dump.

    Format: a magic line, then `M <int>`, `N <int>`, `k <float>`, then the
    dim x dim entries row-major, one `re im` pair per line, 17 significant
    digits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("memscat-system 1\n")
        fh.write(f"M {op.n_cylinders}\n")
        fh.write(f"N {op.truncation}\n")
        fh.write(f"k {scene.wavenumber:.16e}\n")
        for v in op.matrix.reshape(-1):
            fh.write(f"{v.real:.16e} {v.imag:.16e}\n")
