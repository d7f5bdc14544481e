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

where B^pp = (V^pp)^{-1} is diagonal.  All special-function products are
combined in scaled (mantissa, exponent-of-2) arithmetic before conversion, so
high modes neither overflow nor underflow on the way to O(1) entries.

Every closed form here is certified against a quadrature route
(`single_layer_pairing_quadrature`, `incident_trace_quadrature`) that knows
nothing about Graf's theorem: plain tensor trapezoid between distinct circles
and Kress' log-singularity rule (Linear Integral Equations, ch. 12) on a
single circle, with the kernel evaluated by scipy.special.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from . import specfun
from .errors import CapabilityError
from .scene import PairGeometry, PlaneWave, PointSource, Scene, pairwise_geometry

# assembly refuses systems with more unknowns than this; every backend
# works on the stored (dim, dim) matrix
DENSE_DIM_CAP = 20000

NORM_L0 = "l0"
NORM_LHALF = "lhalf"

_EULER_GAMMA = 0.5772156649015328606065120900824024


def mode_range(truncation: int) -> np.ndarray:
    """Signed mode indices [-N, ..., N] in storage order."""
    return np.arange(-truncation, truncation + 1)


def _parity(orders: np.ndarray) -> np.ndarray:
    """(-1)^m as float, for applying J_{-m} = (-1)^m J_m and likewise for H."""
    return np.where(orders % 2 == 0, 1.0, -1.0)


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
    def zeros(cls, n_cylinders: int, truncation: int) -> "CoefficientVector":
        return cls(np.zeros((n_cylinders, 2 * truncation + 1), dtype=np.complex128))

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_cylinders: int,
                  truncation: int) -> "CoefficientVector":
        return cls(np.asarray(flat, dtype=np.complex128).reshape(
            n_cylinders, 2 * truncation + 1))

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)

    def copy(self) -> "CoefficientVector":
        return CoefficientVector(self.data.copy())

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

    @property
    def dim(self) -> int:
        return self.n_cylinders * self.block_size

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
# closed-form blocks
# ---------------------------------------------------------------------------

def v_block(scene: Scene, geom: PairGeometry, p: int, q: int, N: int) -> np.ndarray:
    """Single-layer pairing block <V b_n^q, b_m^p> for modes |m|, |n| <= N."""
    k = scene.wavenumber
    a_p = scene.cylinders[p].radius
    m = mode_range(N)
    am = np.abs(m)
    if p == q:
        jm, je = specfun.bessel_j_seq_scaled(N, k * a_p)
        hm, he = specfun.hankel1_seq_scaled(N, k * a_p)
        prod = specfun.scaled_to_float(jm[am] * hm[am], je[am] + he[am])
        return np.diag((0.5j * np.pi * a_p) * prod)
    a_q = scene.cylinders[q].radius
    d = geom.distances[p, q]
    th = geom.angles[p, q]
    jp_m, jp_e = specfun.bessel_j_seq_scaled(N, k * a_p)
    jq_m, jq_e = specfun.bessel_j_seq_scaled(N, k * a_q)
    hd_m, hd_e = specfun.hankel1_seq_scaled(2 * N, k * d)
    diff = m[:, None] - m[None, :]
    ad = np.abs(diff)
    # parity signs: J_{-|m|} = (-1)^m J_{|m|}, H_{-|mu|} = (-1)^mu H_{|mu|}
    srow = np.where(m < 0, _parity(m), 1.0)
    scol = np.where(m < 0, _parity(m), 1.0)
    sdiff = np.where(diff < 0, _parity(diff), 1.0)
    mant = (srow[:, None] * scol[None, :] * sdiff) \
        * jp_m[am][:, None] * jq_m[am][None, :] * hd_m[ad]
    exp2 = jp_e[am][:, None] + jq_e[am][None, :] + hd_e[ad]
    vals = specfun.scaled_to_float(mant, exp2)
    phase = np.exp(1j * (-diff) * th)
    return (0.5j * np.pi * np.sqrt(a_p * a_q)) * vals * phase


def incident_coeffs(scene: Scene, geom: PairGeometry, p: int, N: int) -> np.ndarray:
    """Fourier coefficients of -u_inc restricted to Gamma_p, modes -N..N.

    Plane wave exp(i k beta.x):   -sqrt(2 pi a_p) e^{i k beta.O_p}
                                   e^{i m (pi/2 - beta_hat)} J_m(k a_p)
    Point source (i/4) H_0(k|x-x0|):  -(i pi a_p / 2) J_m(k a_p) H_m(k d_p)
                                       e^{-i m th_p(x0)} / sqrt(2 pi a_p)

    Both follow from Jacobi-Anger / Graf expansions of the incident trace and
    are certified against `incident_trace_quadrature`.
    """
    k = scene.wavenumber
    a_p = scene.cylinders[p].radius
    m = mode_range(N)
    am = np.abs(m)
    jm, je = specfun.bessel_j_seq_scaled(N, k * a_p)
    if isinstance(scene.incident, PlaneWave):
        beta_hat = scene.incident.angle
        beta = np.array([np.cos(beta_hat), np.sin(beta_hat)])
        center = np.asarray(scene.cylinders[p].center)
        jvals = specfun.scaled_to_float(jm[am], je[am]) * np.where(m < 0, _parity(m), 1.0)
        return (-np.sqrt(2.0 * np.pi * a_p)
                * np.exp(1j * k * float(beta @ center))
                * np.exp(1j * m * (0.5 * np.pi - beta_hat)) * jvals)
    d = geom.source_distances[p]
    th = geom.source_angles[p]
    hm, he = specfun.hankel1_seq_scaled(N, k * d)
    prod = specfun.scaled_to_float(jm[am] * hm[am], je[am] + he[am])
    return (-(0.5j * np.pi * a_p) / np.sqrt(2.0 * np.pi * a_p)
            * prod * np.exp(-1j * m * th))


def precond_diag(scene: Scene, p: int, N: int) -> np.ndarray:
    """Inverse of the self block: B^pp_mm = 1 / V^pp_mm, modes -N..N.

    Unbounded where J_m(k a_p) = 0 (an interior Dirichlet eigenvalue); the
    assembled system never forms it, since J_m cancels against the J_m
    factor of every coupling block and incident coefficient.
    """
    k = scene.wavenumber
    a_p = scene.cylinders[p].radius
    ka = k * a_p
    m = mode_range(N)
    am = np.abs(m)
    jm, je = specfun.bessel_j_seq_scaled(N, ka)
    hm, he = specfun.hankel1_seq_scaled(N, ka)
    inv = specfun.scaled_to_float(1.0 / (jm[am] * hm[am]), -(je[am] + he[am]))
    return inv / (0.5j * np.pi * a_p)


def _signed_orders(mant: np.ndarray, exp2: np.ndarray, orders: np.ndarray):
    """Rows of a scaled (order, argument) table for signed orders, by
    J_{-n} = (-1)^n J_n and H_{-n} = (-1)^n H_n."""
    sign = np.where(orders < 0, _parity(orders), 1.0)
    absolute = np.abs(orders)
    return mant[absolute] * sign[:, None], exp2[absolute]


def _check_dense_dim(M: int, N: int) -> int:
    dim = M * (2 * N + 1)
    if dim > DENSE_DIM_CAP:
        raise CapabilityError(
            f"dense system of dimension {dim} exceeds cap {DENSE_DIM_CAP}")
    return dim


def assemble_system(scene: Scene, N: int, geom: PairGeometry | None = None):
    """Preconditioned truncated system (I + A, g) at truncation N.

    Closed forms, for p != q (A^pp = 0):

      A^pq_mn = sqrt(a_q/a_p) H_{m-n}(k d_pq) e^{i(n-m) th_pq} J_n(k a_q)
                / H_m(k a_p)
      g^p_m   = -(2 sqrt(2) / (i sqrt(pi a_p))) e^{i k beta.O_p}
                e^{i m (pi/2 - beta_hat)} / H_m(k a_p)            (plane wave)
      g^p_m   = -(H_m(k d_p) / H_m(k a_p)) e^{-i m th_p(x0)}
                / sqrt(2 pi a_p)                                  (point source)

    These are B^pp V^pq and B^pp f^p with the factors of `v_block`,
    `incident_coeffs` and `precond_diag` cancelled.  Every Bessel factor
    comes from one batched table per argument set (radii, pair distances,
    source distances), and the J/H ratios are combined in scaled space, so
    entries come out O(1) even when both factors are far outside the double
    range.  Returns (BlockOperator, CoefficientVector); with a single
    cylinder the operator is exactly the identity and g is the whole
    solution.
    """
    M = scene.n_cylinders
    limit = specfun.ORDER_CAP // 2
    if N > limit:
        raise CapabilityError(
            f"truncation N = {N} exceeds the limit N <= {limit}: the "
            f"couplings need H_{{2N}}, and orders are capped at "
            f"{specfun.ORDER_CAP}")
    dim = _check_dense_dim(M, N)
    if geom is None:
        geom = pairwise_geometry(scene)
    k = scene.wavenumber
    radii = scene.radii()
    b = 2 * N + 1
    m = mode_range(N)
    pairs = [(p, q) for p in range(M) for q in range(M) if p != q]
    mu = mode_range(2 * N)
    hp_m, hp_e = _signed_orders(*specfun.hankel1_grid_scaled(N, k * radii), m)
    jq_m, jq_e = _signed_orders(*specfun.bessel_j_grid_scaled(N, k * radii), m)
    hd_m, hd_e = _signed_orders(*specfun.hankel1_grid_scaled(
        2 * N, k * np.array([geom.distances[p, q] for p, q in pairs])), mu)

    if isinstance(scene.incident, PlaneWave):
        beta_hat = scene.incident.angle
        beta = np.array([np.cos(beta_hat), np.sin(beta_hat)])
        inv_h = specfun.scaled_to_float(1.0 / hp_m, -hp_e)
        rhs = (-(2.0 * np.sqrt(2.0)) / (1j * np.sqrt(np.pi * radii))
               * np.exp(1j * k * (scene.centers() @ beta))
               * np.exp(1j * m * (0.5 * np.pi - beta_hat))[:, None] * inv_h).T
    else:
        hs_m, hs_e = _signed_orders(*specfun.hankel1_grid_scaled(
            N, k * geom.source_distances), m)
        ratio = specfun.scaled_to_float(hs_m / hp_m, hs_e - hp_e)
        rhs = (-ratio * np.exp(-1j * m[:, None] * geom.source_angles)
               / np.sqrt(2.0 * np.pi * radii)).T

    row = m[:, None] - m[None, :] + 2 * N         # row of H_{m-n} in hd_m
    phase_arg = 1j * (m[None, :] - m[:, None])     # i (n - m)
    # each block is built in these contiguous buffers and copied in; a ufunc
    # on a strided view of the matrix, a buffered np.take (hence 'clip': the
    # rows are in range) or a block-sized temporary would each allocate a
    # block again while the matrix is alive, raising the memory peak
    blk = np.empty((b, b), dtype=np.complex128)
    phase = np.empty((b, b), dtype=np.complex128)
    exp2 = np.empty((b, b), dtype=np.int64)
    matrix = np.eye(dim, dtype=np.complex128)
    with np.errstate(over="raise"):
        for i, (p, q) in enumerate(pairs):
            np.take(hd_m[:, i], row, out=blk, mode="clip")
            blk *= jq_m[:, q]
            blk /= hp_m[:, p][:, None]
            np.take(hd_e[:, i], row, out=exp2, mode="clip")
            exp2 += jq_e[:, q]
            exp2 -= hp_e[:, p][:, None]
            np.ldexp(blk.real, exp2, out=blk.real)
            np.ldexp(blk.imag, exp2, out=blk.imag)
            blk *= np.sqrt(radii[q] / radii[p])
            np.multiply(phase_arg, geom.angles[p, q], out=phase)
            blk *= np.exp(phase, out=phase)
            matrix[p * b:(p + 1) * b, q * b:(q + 1) * b] = blk
    return BlockOperator(M, N, matrix), CoefficientVector(rhs)


def assemble_raw(scene: Scene, N: int, geom: PairGeometry | None = None):
    """Unpreconditioned system (V, f); mainly for certification and tests."""
    M = scene.n_cylinders
    _check_dense_dim(M, N)
    if geom is None:
        geom = pairwise_geometry(scene)
    V = np.block([[v_block(scene, geom, p, q, N) for q in range(M)]
                  for p in range(M)])
    rhs = np.stack([incident_coeffs(scene, geom, p, N) for p in range(M)])
    return BlockOperator(M, N, V), CoefficientVector(rhs)


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
    t = 2.0 * np.pi * np.arange(n2) / n2
    diff = t[:, None] - t[None, :]
    r = np.zeros((n2, n2))
    for ell in range(1, n_half):
        r -= (2.0 * np.pi / n_half) / ell * np.cos(ell * diff)
    r -= (np.pi / n_half ** 2) * np.cos(n_half * diff)
    return r


def single_layer_pairing_quadrature(scene: Scene, p: int, q: int, m: int, n: int,
                                    n_quad: int = 256) -> complex:
    """<V b_n^q, b_m^p> by direct quadrature; reference for the closed forms.

    Distinct circles: tensor trapezoid (spectrally accurate for the analytic
    kernel).  Same circle: Kress' rule for the logarithmic singularity.  The
    kernel is evaluated with scipy.special's hankel1 (AMOS) and j0 (cephes).
    The scaled Bessel machinery it certifies takes from scipy only the cephes
    y0/y1 anchors of its Y recurrence (cephes y0 calls j0 below x = 5); every
    other value, and every order above 1, comes from specfun's recurrences.
    """
    block = pairing_block_quadrature(scene, p, q, max(abs(m), abs(n)), n_quad)
    N = (block.shape[0] - 1) // 2
    return complex(block[m + N, n + N])


def pairing_block_quadrature(scene: Scene, p: int, q: int, N: int,
                             n_quad: int = 256) -> np.ndarray:
    """All pairings <V b_n^q, b_m^p> for |m|, |n| <= N at once."""
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


def incident_trace_quadrature(scene: Scene, p: int, m: int,
                              n_quad: int = 512) -> complex:
    """Reference for incident_coeffs: -int u_inc conj(b_m^p) via trapezoid."""
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
