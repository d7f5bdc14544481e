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
so the cost is O(points x N) complex arithmetic: per point and cylinder,
the four cephes anchors and about 11 array operations per mode.  Points
with k r_p > ARG_CAP raise CapabilityError.  A point source's incident
field (i/4) H_0(k |x - x0|) takes the same cephes j0 and y0, so it shares
their accuracy at large arguments: within 1e-15 of AMOS's H_0 relative for
k r <= 1, 4.2e-15 up to 200 and 3.2e-14 up to 1000, where cephes reduces
the phase in double precision.

Points are evaluated, and field CSVs written, in blocks of 4096
(_BLOCK_POINTS).  4096 complex values are 64 KiB, under numpy's 256 KiB
threshold for eliding temporaries, so every value takes the same
out-of-place loops however many points share a call.  Incident values are
elementwise too, so each total-field value depends on its own point alone,
bitwise.  A grid is carried as its two axes: each block takes its points
from them, and the CSV writer formats each coordinate once.  No cylinder's
arrays outlive its turn in a block, and the writer builds a block's text in
tables of _TABLE_ROWS = 512 rows, about 64 KiB each.  So a grid costs 17
bytes per point (the complex values and the interior mask) plus one block's
working set; on the far preset at N = 12 `memscat field` on a 200x200 grid
peaks at 1.5 MiB while evaluating and 1.4 MiB while writing (tracemalloc).
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
# points per block of evaluation and CSV output; 4096 complex values stay
# under numpy's threshold for eliding temporaries (see the module docstring)
_BLOCK_POINTS = 4096


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
    x = k * np.hypot(pts[:, 0] - x0[0], pts[:, 1] - x0[1])
    # (i/4) H_0 = -Y_0 / 4 + i J_0 / 4 from the cephes anchors that the
    # scattered field takes, part by part: the bits of the complex product
    # for finite Y_0, and +inf + i/4 at the source itself
    out = np.empty(x.shape, dtype=np.complex128)
    np.multiply(scipy.special.y0(x), -0.25, out=out.real)
    np.multiply(scipy.special.j0(x), 0.25, out=out.imag)
    return out


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
    return [slice(i, min(i + _BLOCK_POINTS, n))
            for i in range(0, n, _BLOCK_POINTS)]


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
        # e^{i theta_p}: the bits of (dx + i dy) / r, whose complex division
        # by a real r computes dx (1/r) and dy (1/r)
        inv_r = 1.0 / r
        z = np.empty(r.shape, dtype=np.complex128)
        np.multiply(dx, inv_r, out=z.real)
        np.multiply(dy, inv_r, out=z.imag)
        del dx, dy, inv_r
        x = k * r
        del r
        # the anchors take any argument, so the envelope is checked here
        specfun._check_arg(x)
        p_prev = _hankel(scipy.special.j0, scipy.special.y0, x)
        p_prev /= h01[0, p]
        p_cur = _hankel(scipy.special.j1, scipy.special.y1, x)
        p_cur /= h01[1, p]
        inv_x = 1.0 / x
        del x
        pref = 0.25j * np.sqrt(2.0 * np.pi * cyl.radius)
        c = pref * weight[:, p]
        acc = (c[0] * phi.get(p, 0)) * p_prev
        zm = z
        for m in range(1, N + 1):
            acc += p_cur * ((c[m] * phi.get(p, m)) * zm
                            + (c[m] * phi.get(p, -m)) * zm.conj())
            p_prev, p_cur = p_cur, ((2.0 * m * step[m, p]) * inv_x * p_cur
                                    - (step[m - 1, p] * step[m, p]) * p_prev)
            zm = zm * z
        out += acc
        # so that none of this cylinder's arrays outlives it
        del acc, p_prev, p_cur, zm, z, inv_x
    return out


def _hankel(j, y, x: np.ndarray) -> np.ndarray:
    """j(x) + i y(x), with j and y written straight into the result."""
    out = np.empty(x.shape, dtype=np.complex128)
    j(x, out=out.real)
    y(x, out=out.imag)
    return out


def _scattered_unchecked(scene: Scene, phi: CoefficientVector,
                         pts: np.ndarray) -> np.ndarray:
    tables = _radius_tables(scene, phi.truncation)
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for s in _blocks(pts.shape[0]):
        out[s] = _scattered_block(scene, phi, tables, pts[s])
    return out


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


def total_field_grid(scene: Scene, phi: CoefficientVector, xlim, ylim,
                     nx: int, ny: int):
    """Total field on a regular grid, as (xs, ys, U, inside): the axes, and
    the values and interior mask shaped (ny, nx), so that row r of the
    flattened grid is the point (xs[r % nx], ys[r // nx]).  Interior samples
    become nan and are reported through the mask.

    The grid is evaluated in blocks of _BLOCK_POINTS points, each taking its
    coordinates from the axes, after a first pass that masks the interior
    and refuses, before any block is evaluated, exterior points with
    k r_p > ARG_CAP.  The values and the mask are the only full-size arrays,
    17 bytes per point; the rest is one block's working set.  The far
    preset's 200x200 grid at N = 12 peaks at 1.4 MiB, its 0.65 MiB of
    values and mask included (tracemalloc).
    """
    xs = np.linspace(xlim[0], xlim[1], nx)
    ys = np.linspace(ylim[0], ylim[1], ny)
    n = nx * ny
    inside = np.empty(n, dtype=bool)
    for s in _blocks(n):
        inside[s] = interior_mask(scene, _grid_points(xs, ys, _rows(s)))
    reach = np.zeros(scene.n_cylinders)     # largest r_p at an exterior point
    for p, cyl in enumerate(scene.cylinders):
        # the grid's corners bound r_p, so the points are visited only for a
        # cylinder that a corner lies beyond the cap from
        corner = np.hypot(np.max(np.abs(xs - cyl.center[0]), initial=0.0),
                          np.max(np.abs(ys - cyl.center[1]), initial=0.0))
        if scene.wavenumber * corner <= specfun.ARG_CAP:
            continue
        for s in _blocks(n):
            pts = _grid_points(xs, ys, _rows(s))
            r = np.hypot(pts[:, 0] - cyl.center[0], pts[:, 1] - cyl.center[1])
            reach[p] = max(reach[p], np.max(r, where=~inside[s], initial=0.0))
    kr = scene.wavenumber * reach
    p = int(np.argmax(kr))
    # a non-finite coordinate fails in the blocks, as a non-finite argument
    if specfun.ARG_CAP < kr[p] < np.inf:
        raise CapabilityError(
            f"grid point at k r_p = {kr[p]:.6g} from cylinder {p + 1} exceeds "
            f"the argument cap {specfun.ARG_CAP}")
    tables = _radius_tables(scene, phi.truncation)
    vals = np.full(n, np.nan + 0j, dtype=np.complex128)
    for s in _blocks(n):
        ext = s.start + np.flatnonzero(~inside[s])
        pts = _grid_points(xs, ys, ext)
        block = _scattered_block(scene, phi, tables, pts)
        block += incident_field(scene, pts)
        vals[ext] = block
    return xs, ys, vals.reshape(ny, nx), inside.reshape(ny, nx)


def _rows(s: slice) -> np.ndarray:
    return np.arange(s.start, s.stop)


def _grid_points(xs: np.ndarray, ys: np.ndarray, rows: np.ndarray):
    """The (len(rows), 2) points of the given rows of the grid on xs x ys."""
    return np.stack([xs[rows % xs.size], ys[rows // xs.size]], axis=1)


# '{:.16e}' text is at most 24 bytes: '-d.dddddddddddddddde-ddd'
_TEXT_WIDTH = 24
_SPLITTER = 134217729.0                 # 2^27 + 1, Dekker's split
# |x| in this range keeps every split and product a normal double
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_WINDOW = 2.0 ** -30
_DIGITS_LO, _DIGITS_HI = 10 ** 16, 10 ** 17
# rows per table of CSV text: a row's table is 127 bytes, about as much as
# 8 complex values, so _BLOCK_POINTS // 8 rows (64 KiB) cost the writer
# about what one block's complex values cost the evaluation
_TABLE_ROWS = _BLOCK_POINTS // 8


def _split(a: np.ndarray):
    hi = _SPLITTER * a
    lo = hi - a
    hi -= lo                                # c - (c - a), c = _SPLITTER a
    np.subtract(a, hi, out=lo)
    return hi, lo


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
    del hi
    # p + err == a * hi exactly (Dekker's product; numpy has no FMA):
    # err = ((ah bh - p) + ah bl + al bh) + al bl, in that order
    err = ah * bh
    err -= p
    ah *= bl
    err += ah
    del ah
    bh *= al
    err += bh
    del bh
    al *= bl
    err += al
    del al, bl
    # a 10^(16-E) == p + t up to a |10^k - hi - lo| and the roundings of
    # a * lo and of the sum: below 2^-46 in absolute terms while
    # a 10^(16-E) < 2^57.  From 2^53 on the double p is an integer, so the
    # digits are p + floor(t) plus the rounding of the fraction of t.
    lo *= a
    t = err
    t += lo                                 # err + a lo
    del lo
    whole = np.floor(t)
    frac = t
    frac -= whole                           # t - whole
    digits = p.astype(np.int64)
    del p
    digits += whole.astype(np.int64)
    del whole
    low = digits < _DIGITS_LO
    digits += frac > 0.5
    frac -= 0.5
    np.abs(frac, out=frac)
    return digits, low, frac < _TIE_WINDOW


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
    slow = ~((a >= _FAST_MIN) & (a <= _FAST_MAX))
    a[slow] = 1.0
    E = np.log10(a)
    np.floor(E, out=E)
    E = E.astype(np.int64)
    d, low, near_tie = _round_digits(a, E)
    del a
    slow |= low | near_tie | (d >= _DIGITS_HI)

    # rows: sign, d0, '.', d1..d16, 'e', exponent sign, 2 or 3 digits
    planes[0] = np.where(np.signbit(x), ord("-"), 0)
    # d is at most about 10^17, so its last 9 digits and the rest each fit
    # an int32, whose divisions by 10 are cheaper than int64's
    high, low_digits = np.divmod(d, 10 ** 9)
    del d
    for part, rows in ((low_digits, range(18, 9, -1)),
                       (high, (*range(9, 2, -1), 1))):
        part = part.astype(np.int32)
        for row in rows:
            quotient = part // 10
            planes[row] = part - quotient * 10
            part = quotient
    planes[1:19] += ord("0")
    planes[2] = ord(".")
    planes[19] = ord("e")
    e0 = int(E.min())
    exponents = b"".join(f"{e:+03d}".encode().ljust(4, b"\0")
                         for e in range(e0, int(E.max()) + 1))
    # one row of exponent text per plane: gathering along the rows writes
    # each plane contiguously
    np.take(np.frombuffer(exponents, np.uint8).reshape(-1, 4).T, E - e0,
            axis=1, out=planes[20:])

    if slow.any():
        index = np.flatnonzero(slow)
        keys, inverse = np.unique(x[index].view(np.int64),
                                  return_inverse=True)
        text = b"".join("{:.16e}".format(v).encode().ljust(_TEXT_WIDTH, b"\0")
                        for v in keys.view(np.float64).tolist())
        table = np.frombuffer(text, np.uint8).reshape(-1, _TEXT_WIDTH)
        planes[:, index] = table[inverse].T
    return planes.T


def write_field_csv(path, xs, ys, U, inside) -> None:
    """CSV rows x,y,re_total,im_total,abs_total,inside (nan inside obstacles)
    of the grid that total_field_grid returns: row r is the point
    (xs[r % nx], ys[r // nx]), and U and inside are shaped (len(ys), len(xs)).

    Every number is exactly Python's '{:.16e}' text, produced by
    `_format_column`, which falls back to '{:.16e}'.format itself wherever
    its own arithmetic cannot decide a digit.  Each axis is formatted once,
    and each block of _BLOCK_POINTS rows formats its three value columns,
    then gathers its coordinate text by row index and is written in tables
    of _TABLE_ROWS rows.  So the writer adds one block's value text, one
    table and the axes' text to U and inside: the far preset's 200x200 grid
    at N = 12 peaks at 1.4 MiB while written, its 0.65 MiB of U and inside
    included (tracemalloc).
    """
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("xs and ys must be the grid's 1-D axes")
    shape = (ys.size, xs.size)
    if np.shape(U) != shape or np.shape(inside) != shape:
        raise ValueError("U and inside must have shape (len(ys), len(xs)) "
                         f"= {shape}, not {np.shape(U)} and "
                         f"{np.shape(inside)}")
    # every block gathers rows of the axis text, which is faster from
    # contiguous copies than from _format_column's transposed tables
    x_text, y_text = (np.ascontiguousarray(_format_column(v))
                      for v in (xs, ys))
    u, flags = np.ravel(U), np.ravel(inside)
    with open(path, "wb") as fh:
        fh.write(b"x,y,re_total,im_total,abs_total,inside\n")
        for s in _blocks(flags.size):
            fh.writelines(_csv_rows(x_text, y_text, _rows(s), u[s],
                                    flags[s].astype(bool)))


def _csv_rows(x_text, y_text, rows, u, flag):
    """The CSV text of one block of grid rows, as bytes of at most
    _TABLE_ROWS rows each; x_text and y_text are the formatted axes."""
    re = np.where(flag, np.nan, u.real)
    im = np.where(flag, np.nan, u.imag)
    # np.hypot is what abs() of a complex128 scalar computes
    values = (_format_column(re), _format_column(im),
              _format_column(np.hypot(re, im)))
    del re, im
    cell = _TEXT_WIDTH + 1
    for i in range(0, rows.size, _TABLE_ROWS):
        s = slice(i, i + _TABLE_ROWS)
        part = rows[s]
        table = np.zeros((part.size, 5 * cell + 2), dtype=np.uint8)
        table[:, :_TEXT_WIDTH] = x_text[part % len(x_text)]
        table[:, cell:cell + _TEXT_WIDTH] = y_text[part // len(x_text)]
        for j, text in enumerate(values, start=2):
            table[:, j * cell:(j + 1) * cell - 1] = text[s]
        table[:, cell - 1::cell] = ord(",")
        table[:, -2] = flag[s] + ord("0")
        table[:, -1] = ord("\n")
        yield table.tobytes().replace(b"\0", b"")


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
