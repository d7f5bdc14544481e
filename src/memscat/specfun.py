"""Cylinder Bessel functions with an extended exponent range.

Why not scipy.special alone: the multipole blocks need J_m and H_m^(1) up to
order 200 at arguments as small as k*a ~ 1e-3, where J underflows (J_200(0.3)
~ 1e-540) and Y overflows (~1e+537) in IEEE doubles long before the *ratios*
that actually enter the system matrices are formed.  Every sequence here is
therefore carried as a (mantissa, exponent-of-2) pair, value = mant * 2**exp,
and callers combine exponents before converting to plain floats.  scipy
supplies only the order-0 and order-1 anchors of the Y recurrence; every
higher order comes from the scaled recurrences below.

Method notes
------------
* J_m: Miller's downward recurrence normalized with the even-order sum rule
  J_0(x) + 2*sum_k J_2k(x) = 1 (A&S 9.1.46), started per argument well past
  its turning point: contamination by the dominant solution is below 1e-16
  relative, and a column of a batch is bitwise the one-argument table.
* Y_0, Y_1: scipy.special.y0 / y1 (cephes).  Against 40-digit references,
  relative to max(|Y|, sqrt(2/(pi x))), Y_0, Y_1, Y_5 and Y_30 are within
  4e-15 for 1 <= x <= 17, 7e-15 up to x = 100 and 3.1e-14 up to x = 1000,
  where cephes reduces the oscillatory phase in double precision.
* Y_m: upward recurrence from the anchors; stable, since Y is the dominant
  solution in the growing direction.
* H_m^(1) = J_m + i Y_m, combined in scaled space per order.

Supported envelope: 0 <= order <= 200, 0 < x <= 1000 for every table.
Orders or arguments above it raise CapabilityError; negative orders, and
arguments that are not finite or not positive, raise ValueError.  The
plain-float accessors bessel_j, bessel_y and hankel1, which only the tests
call, live in tests/instruments.py.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from .errors import CapabilityError

ORDER_CAP = 200
ARG_CAP = 1000.0

# Exponent housekeeping: mantissas are renormalized whenever they leave
# [2^-600, 2^600] during recurrences, and frexp'd to [0.5, 1) at the end.
_RESCALE_THRESHOLD = 2.0 ** 600
_RESCALE_SHIFT = 600


def _check_order(m_max: int) -> int:
    m_max = int(m_max)
    if m_max < 0:
        raise ValueError(f"order must be >= 0, got {m_max}")
    if m_max > ORDER_CAP:
        raise CapabilityError(f"order {m_max} exceeds cap {ORDER_CAP}")
    return m_max


def _check_arg(x: np.ndarray) -> None:
    if np.any(~np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(x <= 0.0):
        raise ValueError("argument must be > 0")
    if np.any(x > ARG_CAP):
        raise CapabilityError(f"argument exceeds cap {ARG_CAP}")


def _renormalize(mant: np.ndarray, exp2: np.ndarray):
    """Bring mantissas to frexp form (magnitude in [0.5,1)); zeros keep exp 0."""
    if np.iscomplexobj(mant):
        _, e = np.frexp(np.abs(mant))
        e = e.astype(np.int64)
        ne = (-e).astype(np.int32)
        frac = np.ldexp(mant.real, ne) + 1j * np.ldexp(mant.imag, ne)
        out_exp = np.asarray(exp2, dtype=np.int64) + e
        out_exp = np.where(frac == 0.0, 0, out_exp)
        return frac, out_exp
    frac, e = np.frexp(mant)
    out_exp = np.asarray(exp2, dtype=np.int64) + e.astype(np.int64)
    out_exp = np.where(frac == 0.0, 0, out_exp)
    return frac, out_exp


def scaled_to_float(mant, exp2):
    """Convert (mantissa, exponent-of-2) pairs to plain floats.

    Underflow flushes to zero; overflow raises OverflowError since a silent
    inf would poison every downstream product.
    """
    scalar = np.isscalar(mant) or np.ndim(mant) == 0
    m, e = _renormalize(np.atleast_1d(np.asarray(mant)),
                        np.atleast_1d(np.asarray(exp2, dtype=np.int64)))
    if np.any((e > 1024) & (m != 0.0)):
        raise OverflowError("scaled value exceeds double-precision range")
    safe = np.clip(e, -1500, 1024).astype(np.int32)
    if np.iscomplexobj(m):
        out = np.ldexp(m.real, safe) + 1j * np.ldexp(m.imag, safe)
    else:
        out = np.ldexp(m, safe)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# scaled sequences over a batch of arguments
# ---------------------------------------------------------------------------

def _miller_start(m_max: int, x: np.ndarray) -> np.ndarray:
    """Start order of each argument's downward recurrence."""
    base = np.maximum(m_max, np.ceil(x))
    width = np.ceil(np.sqrt(40.0 * np.maximum(np.maximum(m_max, x), 1.0)))
    return (base + 20 + width).astype(np.int64)


def bessel_j_grid_scaled(m_max: int, x):
    """J_m(x_i) for m = 0..m_max over a batch of points, in scaled form.

    Returns (mant, exp2) arrays of shape (m_max+1, len(x)).

    Each argument's recurrence starts at its own Miller order; one loop runs
    from the largest and takes a column up when it reaches that column's
    start, so every column is bitwise what a one-argument call returns.
    """
    m_max = _check_order(m_max)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_arg(x)
    n = x.size
    starts = _miller_start(m_max, x)
    # the columns whose recurrence starts at each order
    begin = {int(s): np.flatnonzero(starts == s) for s in np.unique(starts)}

    fp = np.zeros(n)                  # unnormalized f_{m+2}
    fc = np.zeros(n)                  # unnormalized f_{m+1}; 1 from the start
    shift = np.zeros(n, dtype=np.int64)
    store_m = np.zeros((m_max + 1, n))
    store_e = np.zeros((m_max + 1, n), dtype=np.int64)
    # even-order accumulator for the normalization sum, kept in scaled form
    acc = np.zeros(n)

    inv_x = 1.0 / x
    for m in range(int(starts.max()) - 1, -1, -1):
        cols = begin.get(m + 1)
        if cols is not None:
            fc[cols] = 1.0
            if (m + 1) % 2 == 0:
                acc[cols] = 2.0
        fn = (2.0 * (m + 1)) * inv_x * fc - fp
        big = np.abs(fn) > _RESCALE_THRESHOLD
        if big.any():
            fn[big] = np.ldexp(fn[big], -_RESCALE_SHIFT)
            fc[big] = np.ldexp(fc[big], -_RESCALE_SHIFT)
            acc[big] = np.ldexp(acc[big], -_RESCALE_SHIFT)
            shift[big] += _RESCALE_SHIFT
        if m == 0:
            acc += fn
        elif m % 2 == 0:
            acc += 2.0 * fn
        if m <= m_max:
            store_m[m] = fn
            store_e[m] = shift
        fp, fc = fc, fn

    # J_m = f_m / lambda with lambda = f_0 + 2 sum f_even.  acc holds lambda
    # under the final shift; each stored row remembers the shift it saw, so
    # the true exponent is the difference.  |store_m| <= 2^600 and |acc| >= O(1)
    # after any rescale, so the division itself cannot overflow.
    return _renormalize(store_m / acc, store_e - shift)


def bessel_y_grid_scaled(m_max: int, x):
    """Y_m(x_i) for m = 0..m_max over a batch of points, in scaled form."""
    m_max = _check_order(m_max)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_arg(x)
    n = x.size
    mant = np.zeros((m_max + 1, n))
    exp2 = np.zeros((m_max + 1, n), dtype=np.int64)
    mant[0] = scipy.special.y0(x)
    if m_max >= 1:
        mant[1] = scipy.special.y1(x)
    if m_max >= 2:
        ya = mant[0].copy()
        yb = mant[1].copy()
        shift = np.zeros(n, dtype=np.int64)
        inv_x = 1.0 / x
        for m in range(1, m_max):
            yn = (2.0 * m) * inv_x * yb - ya
            big = np.abs(yn) > _RESCALE_THRESHOLD
            if big.any():
                yn[big] = np.ldexp(yn[big], -_RESCALE_SHIFT)
                yb[big] = np.ldexp(yb[big], -_RESCALE_SHIFT)
                shift[big] += _RESCALE_SHIFT
            mant[m + 1] = yn
            exp2[m + 1] = shift
            ya, yb = yb, yn
    return _renormalize(mant, exp2)


def _hankel_from(jm, je, ym, ye):
    """Scaled J + i Y from scaled J and Y tables of the same shape."""
    e = np.maximum(je, ye)
    mant = np.ldexp(jm, np.clip(je - e, -1500, 0).astype(np.int32)) \
        + 1j * np.ldexp(ym, np.clip(ye - e, -1500, 0).astype(np.int32))
    return _renormalize(mant, e)
