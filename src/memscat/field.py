"""Field evaluation away from the obstacles.

The solved density on circle p with coefficients phi_m^p radiates

    u_s(x) = sum_p sum_m phi_m^p (i/4) sqrt(2 pi a_p) J_m(k a_p)
             H_m^(1)(k r_p) e^{i m theta_p(x)},

the closed form of the single-layer potential of the Fourier basis for
r_p > a_p (interior points are rejected).  A direct trapezoid quadrature of
the layer potential is kept alongside as an independent oracle; the two
must agree to quadrature accuracy wherever both are defined.

The sum is taken in plain doubles.  Per cylinder, the radial factor is
written c_m P_m with c_m = J_m(k a_p) H_m(k a_p) and
P_m = H_m(k r_p) / H_m(k a_p).  |H_m| decreases in its argument, so
|P_m| <= 1 for r_p >= a_p, and |c_m| is O(1/m): no term leaves the double
range, even where H_m(k r_p) itself does.  P_0 and P_1 come from cephes
j0/j1/y0/y1 at k r_p, and higher orders from the Hankel recurrence divided
by H_{m+1}(k a_p).  specfun's scaled tables are used only at the radii, for
c_m and the ratios s_m = H_m(k a_p) / H_{m+1}(k a_p), once per evaluation,
so the cost is O(points x N) complex arithmetic.  Points with
k r_p > ARG_CAP raise CapabilityError.

Points are evaluated, and field CSVs written, in blocks of 8192
(_BLOCK_POINTS).  8192 complex values are 128 KiB, under numpy's 256 KiB
threshold for eliding temporaries, so every value takes the same
out-of-place loops however many points share a call.  Incident values are
elementwise too, so each total-field value depends on its own point alone,
bitwise.  A grid costs 33 bytes per point (X, Y, the complex values and the
interior mask) plus one block's working set, about 2 MiB while evaluating
and 3 MiB while writing.
total_field_grid checks the argument cap over all its exterior points
before it evaluates any block.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from . import specfun
from .assembly import CoefficientVector
from .errors import CapabilityError, InteriorPointError
from .scene import PlaneWave, Scene

# points with r_p < a_p (1 + this) count as interior for evaluation purposes
INTERIOR_MARGIN = 1e-9
BOUNDARY_OFFSET = 1e-6
# boundary_residual samples each circle at this many equispaced angles
_BOUNDARY_SAMPLES = 360
# points per block of evaluation and CSV output; 8192 complex values stay
# under numpy's threshold for eliding temporaries (see the module docstring)
_BLOCK_POINTS = 8192


def _as_points(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    return pts


def interior_mask(scene: Scene, points) -> np.ndarray:
    """True where a point lies inside (or on the fattened rim of) a cylinder."""
    pts = _as_points(points)
    mask = np.zeros(pts.shape[0], dtype=bool)
    for cyl in scene.cylinders:
        r = np.hypot(pts[:, 0] - cyl.center[0], pts[:, 1] - cyl.center[1])
        mask |= r < cyl.radius * (1.0 + INTERIOR_MARGIN)
    return mask


def incident_field(scene: Scene, points) -> np.ndarray:
    pts = _as_points(points)
    k = scene.wavenumber
    if isinstance(scene.incident, PlaneWave):
        # elementwise, so that each value depends on its own point alone
        angle = scene.incident.angle
        return np.exp(1j * k * (pts[:, 0] * np.cos(angle)
                                + pts[:, 1] * np.sin(angle)))
    x0 = np.asarray(scene.incident.location, dtype=np.float64)
    r = np.hypot(pts[:, 0] - x0[0], pts[:, 1] - x0[1])
    return 0.25j * scipy.special.hankel1(0, k * r)


def scattered_field(scene: Scene, phi: CoefficientVector, points) -> np.ndarray:
    """Evaluate the radiated field at exterior points; raises
    InteriorPointError if any point sits inside an obstacle."""
    pts = _as_points(points)
    inside = np.flatnonzero(interior_mask(scene, pts))
    if inside.size:
        bad = int(inside[0])
        raise InteriorPointError(
            f"point {tuple(pts[bad])} lies inside a cylinder")
    return _scattered_unchecked(scene, phi, pts)


def _blocks(n: int):
    """Slices of at most _BLOCK_POINTS consecutive points covering range(n)."""
    return [slice(i, i + _BLOCK_POINTS) for i in range(0, n, _BLOCK_POINTS)]


def _radius_tables(scene: Scene, N: int):
    """c_m = J_m(k a_p) H_m(k a_p), s_m = H_m(k a_p) / H_{m+1}(k a_p) and
    H_0, H_1 at k a_p, one column per cylinder: the only values taken from
    the scaled tables, once per evaluation."""
    ka = scene.wavenumber * scene.radii()
    jm, je = specfun.bessel_j_grid_scaled(N + 1, ka)
    hm, he = specfun._hankel_from(jm, je,
                                  *specfun.bessel_y_grid_scaled(N + 1, ka))
    return (specfun.scaled_to_float(jm * hm, je + he),
            specfun.scaled_to_float(hm[:-1] / hm[1:], he[:-1] - he[1:]),
            specfun.scaled_to_float(hm[:2], he[:2]))


def _scattered_block(scene: Scene, phi: CoefficientVector, tables,
                     pts: np.ndarray) -> np.ndarray:
    # P_m = H_m(k r_p) / H_m(k a_p), |P_m| <= 1, by the recurrence
    #     P_{m+1} = (2m / x) s_m P_m - s_{m-1} s_m P_{m-1},  x = k r_p,
    # over at most _BLOCK_POINTS points
    k = scene.wavenumber
    N = phi.truncation
    weight, step, h01 = tables
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    for p, cyl in enumerate(scene.cylinders):
        dx = pts[:, 0] - cyl.center[0]
        dy = pts[:, 1] - cyl.center[1]
        r = np.hypot(dx, dy)
        x = k * r
        # the anchors take any argument, so the envelope is checked here
        specfun._check_arg(x)
        z = (dx + 1j * dy) / r                      # e^{i theta_p}
        p_prev = (scipy.special.j0(x) + 1j * scipy.special.y0(x)) / h01[0, p]
        p_cur = (scipy.special.j1(x) + 1j * scipy.special.y1(x)) / h01[1, p]
        pref = 0.25j * np.sqrt(2.0 * np.pi * cyl.radius)
        c = pref * weight[:, p]
        acc = (c[0] * phi.get(p, 0)) * p_prev
        inv_x = 1.0 / x
        zm = z
        for m in range(1, N + 1):
            acc += p_cur * ((c[m] * phi.get(p, m)) * zm
                            + (c[m] * phi.get(p, -m)) * zm.conj())
            p_prev, p_cur = p_cur, ((2.0 * m * step[m, p]) * inv_x * p_cur
                                    - (step[m - 1, p] * step[m, p]) * p_prev)
            zm = zm * z
        out += acc
    return out


def _scattered_unchecked(scene: Scene, phi: CoefficientVector,
                         pts: np.ndarray) -> np.ndarray:
    tables = _radius_tables(scene, phi.truncation)
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for s in _blocks(pts.shape[0]):
        out[s] = _scattered_block(scene, phi, tables, pts[s])
    return out


def total_field(scene: Scene, phi: CoefficientVector, points) -> np.ndarray:
    return incident_field(scene, points) + scattered_field(scene, phi, points)


def single_layer_field_quadrature(scene: Scene, phi: CoefficientVector,
                                  points, n_quad: int = 512) -> np.ndarray:
    """Trapezoid quadrature of the layer potential; independent oracle for
    scattered_field (spectrally accurate for points off the boundaries)."""
    pts = _as_points(points)
    k = scene.wavenumber
    N = phi.truncation
    modes = np.arange(-N, N + 1)
    t = 2.0 * np.pi * np.arange(n_quad) / n_quad
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    for p, cyl in enumerate(scene.cylinders):
        density = (np.exp(1j * t[:, None] * modes[None, :]) @ phi.data[p]
                   ) / np.sqrt(2.0 * np.pi * cyl.radius)
        ys = np.stack([cyl.center[0] + cyl.radius * np.cos(t),
                       cyl.center[1] + cyl.radius * np.sin(t)], axis=1)
        dist = np.hypot(pts[:, None, 0] - ys[None, :, 0],
                        pts[:, None, 1] - ys[None, :, 1])
        kernel = 0.25j * scipy.special.hankel1(0, k * dist)
        out += (2.0 * np.pi * cyl.radius / n_quad) * (kernel @ density)
    return out


def boundary_residual(scene: Scene, phi: CoefficientVector,
                      offset: float = BOUNDARY_OFFSET) -> float:
    """Max |total field| sampled just outside the boundaries; zero for the
    exact solution.

    The default offset keeps samples in the exterior trace region; it also
    floors the measurable residual at offset * a_p * |normal derivative|.
    Pass offset=0 to sample the truncated radiation sum directly on the
    circles (a finite expression, continuous up to r = a_p), which measures
    pure truncation-plus-solve error.
    """
    t = 2.0 * np.pi * np.arange(_BOUNDARY_SAMPLES) / _BOUNDARY_SAMPLES
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    # all samples in one evaluation: each value depends on its own point alone
    pts = np.concatenate([np.asarray(cyl.center)
                          + cyl.radius * (1.0 + offset) * circle
                          for cyl in scene.cylinders])
    vals = incident_field(scene, pts) + _scattered_unchecked(scene, phi, pts)
    return float(np.max(np.abs(vals)))


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


def total_field_grid(scene: Scene, phi: CoefficientVector, xlim, ylim,
                     nx: int, ny: int):
    """Total field on a regular grid; interior samples become nan and are
    reported through the boolean mask.

    The grid is evaluated in blocks of _BLOCK_POINTS points, after a first
    pass that masks the interior and refuses, before any block is evaluated,
    exterior points with k r_p > ARG_CAP.
    """
    xs = np.linspace(xlim[0], xlim[1], nx)
    ys = np.linspace(ylim[0], ylim[1], ny)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    x, y = X.ravel(), Y.ravel()
    inside = np.empty(x.size, dtype=bool)
    for s in _blocks(x.size):
        inside[s] = interior_mask(scene, np.stack([x[s], y[s]], axis=1))
    reach = np.zeros(scene.n_cylinders)     # largest r_p at an exterior point
    for p, cyl in enumerate(scene.cylinders):
        # the grid's corners bound r_p, so the points are visited only for a
        # cylinder that a corner lies beyond the cap from
        corner = np.hypot(np.max(np.abs(xs - cyl.center[0]), initial=0.0),
                          np.max(np.abs(ys - cyl.center[1]), initial=0.0))
        if scene.wavenumber * corner <= specfun.ARG_CAP:
            continue
        for s in _blocks(x.size):
            r = np.hypot(x[s] - cyl.center[0], y[s] - cyl.center[1])
            reach[p] = max(reach[p], np.max(r, where=~inside[s], initial=0.0))
    kr = scene.wavenumber * reach
    p = int(np.argmax(kr))
    # a non-finite coordinate fails in the blocks, as a non-finite argument
    if specfun.ARG_CAP < kr[p] < np.inf:
        raise CapabilityError(
            f"grid point at k r_p = {kr[p]:.6g} from cylinder {p + 1} exceeds "
            f"the argument cap {specfun.ARG_CAP}")
    tables = _radius_tables(scene, phi.truncation)
    vals = np.full(x.size, np.nan + 0j, dtype=np.complex128)
    for s in _blocks(x.size):
        ext = s.start + np.flatnonzero(~inside[s])
        pts = np.stack([x[ext], y[ext]], axis=1)
        vals[ext] = (incident_field(scene, pts)
                     + _scattered_block(scene, phi, tables, pts))
    return X, Y, vals.reshape(ny, nx), inside.reshape(ny, nx)


# '{:.16e}' text is at most 24 bytes: '-d.dddddddddddddddde-ddd'
_TEXT_WIDTH = 24
_SPLITTER = 134217729.0                 # 2^27 + 1, Dekker's split
# |x| in this range keeps every split and product a normal double
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_WINDOW = 2.0 ** -30
_DIGITS_LO, _DIGITS_HI = 10 ** 16, 10 ** 17


def _split(a: np.ndarray):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(k: np.ndarray):
    """10^k as unevaluated double-double pairs (hi, lo), each half the
    correctly rounded value of an exact rational (Python's int / int is
    correctly rounded); computed only for the exponents present in k."""
    k0 = int(k.min())
    hi = np.zeros(int(k.max()) - k0 + 1)
    lo = np.zeros_like(hi)
    for i in np.flatnonzero(np.bincount(k - k0)).tolist():
        e = k0 + i
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        head = num / den
        a, b = head.as_integer_ratio()
        # 10^e - head = (num b - a den) / (den b), rounded once
        hi[i], lo[i] = head, (num * b - a * den) / (den * b)
    return hi[k - k0], lo[k - k0]


def _round_digits(a: np.ndarray, E: np.ndarray):
    """d = round_half_even(a 10^(16-E)) as int64, a flag where a 10^(16-E)
    itself lies below 10^16, and a flag where its fraction is too close to
    1/2 to round here."""
    hi, lo = _pow10(16 - E)
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    # p + err == a * hi exactly (Dekker's product; numpy has no FMA)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    # a 10^(16-E) == p + t up to a |10^k - hi - lo| and the roundings of
    # a * lo and of the sum: below 2^-46 in absolute terms while
    # a 10^(16-E) < 2^57.  From 2^53 on the double p is an integer, so the
    # digits are p + floor(t) plus the rounding of the fraction of t.
    t = err + a * lo
    whole = np.floor(t)
    frac = t - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    return (floor + (frac > 0.5), floor < _DIGITS_LO,
            np.abs(frac - 0.5) < _TIE_WINDOW)


def _format_column(values) -> np.ndarray:
    """'{:.16e}'.format of every value of a float64 column, as an (n, 24)
    uint8 table of the text padded with zero bytes.

    The 17 digits d = round_half_even(|x| 10^(16-E)) come from double-double
    arithmetic, with E = floor(log10 |x|).  Values that are not finite, lie
    outside [1e-280, 1e280] in magnitude, whose scaled fraction lies within
    2^-30 of 1/2 (the arithmetic above is exact to about 2^-46), or whose
    |x| 10^(16-E) lies below 10^16 or rounds to 10^17 (E off by one, next
    to a power of ten) are formatted by '{:.16e}'.format itself, once per
    distinct bit pattern.
    """
    x = np.ravel(np.asarray(values, dtype=np.float64))
    planes = np.zeros((_TEXT_WIDTH, x.size), dtype=np.uint8)
    if x.size == 0:
        return planes.T
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    d, low, near_tie = _round_digits(a, E)
    slow = ~fast | low | near_tie | (d >= _DIGITS_HI)

    # rows: sign, d0, '.', d1..d16, 'e', exponent sign, 2 or 3 digits
    planes[0] = np.where(np.signbit(x), ord("-"), 0)
    for row in (*range(18, 2, -1), 1):
        quotient = d // 10
        planes[row] = d - quotient * 10
        d = quotient
    planes[1:19] += ord("0")
    planes[2] = ord(".")
    planes[19] = ord("e")
    e0 = int(E.min())
    exponents = b"".join(f"{e:+03d}".encode().ljust(4, b"\0")
                         for e in range(e0, int(E.max()) + 1))
    planes[20:] = np.frombuffer(exponents, np.uint8).reshape(-1, 4)[E - e0].T

    if slow.any():
        index = np.flatnonzero(slow)
        keys, inverse = np.unique(x[index].view(np.int64),
                                  return_inverse=True)
        text = b"".join("{:.16e}".format(v).encode().ljust(_TEXT_WIDTH, b"\0")
                        for v in keys.view(np.float64).tolist())
        table = np.frombuffer(text, np.uint8).reshape(-1, _TEXT_WIDTH)
        planes[:, index] = table[inverse].T
    return planes.T


def write_field_csv(path, X, Y, U, inside) -> None:
    """CSV rows x,y,re_total,im_total,abs_total,inside (nan inside obstacles).

    Every number is exactly Python's '{:.16e}' text.  It is produced a whole
    column of a block of _BLOCK_POINTS rows at a time by `_format_column`,
    which falls back to '{:.16e}'.format itself wherever its own arithmetic
    cannot decide a digit, and each block of rows is written in one call.
    """
    x, y, u, flags = np.ravel(X), np.ravel(Y), np.ravel(U), np.ravel(inside)
    with open(path, "wb") as fh:
        fh.write(b"x,y,re_total,im_total,abs_total,inside\n")
        for s in _blocks(flags.size):
            fh.write(_csv_rows(x[s], y[s], u[s], flags[s].astype(bool)))


def _csv_rows(x, y, u, flag) -> np.ndarray:
    """The CSV text of one block of rows, as a uint8 array."""
    re = np.where(flag, np.nan, u.real)
    im = np.where(flag, np.nan, u.imag)
    # np.hypot is what abs() of a complex128 scalar computes
    columns = (x, y, re, im, np.hypot(re, im))
    cell = _TEXT_WIDTH + 1
    table = np.zeros((flag.size, cell * len(columns) + 2), dtype=np.uint8)
    for i, column in enumerate(columns):
        table[:, i * cell:(i + 1) * cell - 1] = _format_column(column)
        table[:, (i + 1) * cell - 1] = ord(",")
    table[:, -2] = flag + ord("0")
    table[:, -1] = ord("\n")
    return table[table != 0]


def write_plot_script(path, csv_name: str, title: str = "total field") -> None:
    """Emit a gnuplot script that renders the field CSV as a heat map."""
    lines = [
        "set datafile separator ','",
        "set view map",
        "set size ratio -1",
        f"set title '{title}'",
        "set xlabel 'x'",
        "set ylabel 'y'",
        "set palette rgbformulae 22,13,-31",
        f"splot '{csv_name}' every ::1 using 1:2:5 with points pt 5 ps 0.5 "
        "palette notitle",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
