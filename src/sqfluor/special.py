"""Error-function kernels on numpy alone: erfcx, erf and the Faddeeva function w.

All three rest on one rational series of Weideman (SIAM J. Numer. Anal.
31, 1497 (1994)) for w(z) = e^(-z^2) erfc(-iz) in the upper half-plane:

    w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),   Z = (L + iz) / (L - iz),

p a polynomial of degree N - 1 whose coefficients are a cosine transform
of e^(-t^2) (L^2 + t^2) at t = L tan(theta/2).  Here N = 48 and L = 4,
which puts the series within 8e-16 of 30-digit values on the real axis
and the upper half-plane (DECISIONS.md, "A numpy-only runtime").

- `erfcx(x)` = w(ix), the kernel the tables spend their time in.  On
  y = 1/(1 + x) in [0, 1], q(y) = (1 + x) erfcx(x) is smooth at both ends
  (q(0) = 1/sqrt(pi)).  It is tabulated once, at import, from the series
  as ERFCX_PIECES cubic pieces uniform in y (`_erfcx_pieces`); a call is
  one piece lookup, a cubic and a division by 1 + x, within 1e-15 of
  30-digit values and 0.9-1.4x the time of `scipy.special.erfcx` on the
  tables' arguments (`tests/tables/special_kernels.py`).  The kernel keeps
  its temporaries in one block, so that a call does not fault in fresh
  pages.  1 + x rather than 4 + x: its rounding moves erfcx by at most
  about an ulp near x = 0, where 4 + x moved it by up to 4.  Negative x
  take erfcx(x) = 2 e^(x^2) - erfcx(-x).
- `erf(x)` = 1 - e^(-x^2) erfcx(x) from x = 1 on, and its Maclaurin series
  below, where that difference cancels.
- `wofz(z)`: the series for |z| <= 1e3, Laplace's continued fraction past
  it (as Poppe & Wijers, ACM TOMS 16, 38 (1990), use it for large |z|),
  w(z) = 2 e^(-z^2) - w(-z) below the real axis, and `erfcx` on the
  imaginary axis, where every CW column of a sweep evaluates it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfcx", "erf", "wofz"]

SERIES_TERMS = 48  # N of Weideman's series
SERIES_SCALE = 4.0  # its L
ERFCX_PIECES = 4096  # cubic pieces of q(y) = (1 + x) erfcx(x) on y = 1/(1 + x) in [0, 1]
CONTINUED_FRACTION_FROM = 1e3  # |z| past which w is the continued fraction
SQRT_PI = math.sqrt(math.pi)


def _cosines(m: int) -> np.ndarray:
    """cos(pi r / m) for r = 0..2m-1, each from an argument of at most pi/4.

    The symmetries of the cosine fold r into [0, m/4], or into a sine of
    (m/2 - r) on the rest of [0, m/2].  A direct cos(pi r / m) carries an
    argument error that grows with r, and the same error in every term of
    a coefficient sum; folded, the sums below are good to 2e-16.
    """
    r = np.arange(2 * m)
    r = np.where(r > m, 2 * m - r, r)
    sign = np.where(2 * r > m, -1.0, 1.0)
    r = np.where(2 * r > m, m - r, r)
    return sign * np.where(4 * r > m, np.sin(np.pi * (0.5 * m - r) / m), np.cos(np.pi * r / m))


def _weideman_coefficients(n: int, scale: float) -> np.ndarray:
    """The coefficients of p, highest power first: a_k = (1/2m) sum_j f_j cos(pi k j / m), k = n..1.

    m = 2n and j runs over -m+1..m-1, with f_j = e^(-t^2) (L^2 + t^2) at
    t = L tan(pi j / 2m) (a discrete cosine transform of f).
    """
    m = 2 * n
    j = np.arange(1 - m, m)
    t = scale * np.tan(0.5 * np.pi * j / m)
    f = np.exp(-t * t) * (scale * scale + t * t)
    k = np.arange(n, 0, -1)
    return (_cosines(m)[np.multiply.outer(k, j) % (2 * m)] * f).sum(axis=1) / (2 * m)


_COEFFICIENTS = _weideman_coefficients(SERIES_TERMS, SERIES_SCALE)


def _series(z: np.ndarray) -> np.ndarray:
    """Weideman's w(z) for Im z >= 0, elementwise."""
    lz = SERIES_SCALE - 1j * z
    zz = (SERIES_SCALE + 1j * z) / lz
    p = np.full(z.shape, _COEFFICIENTS[0], dtype=complex)
    for a in _COEFFICIENTS[1:]:
        p = p * zz + a
    return (2.0 * p / lz + 1.0 / SQRT_PI) / lz


def _continued_fraction(z: np.ndarray) -> np.ndarray:
    """w(z) = (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ...)))) to six levels, for |z| > 1e3."""
    r = np.zeros(z.shape, dtype=complex)
    for k in range(6, 0, -1):
        r = 0.5 * k / (z - r)
    return (1j / SQRT_PI) / (z - r)


def _q(y: np.ndarray) -> np.ndarray:
    """q(y) = (1 + x) erfcx(x) at y = 1/(1 + x), from the series: (2 p(Z) r + 1/sqrt(pi)) / (3y + 1).

    With L = 4, Z = (5y - 1)/(3y + 1) and r = 1/(L + x) = y/(3y + 1), so no
    step divides by y and q(0) = 1/sqrt(pi).  A rational function of y,
    smooth on [0, 1] and a little past either end.
    """
    den = 3.0 * y + 1.0
    z = (5.0 * y - 1.0) / den
    p = np.full(y.shape, _COEFFICIENTS[0])
    for a in _COEFFICIENTS[1:]:
        p *= z
        p += a
    return (2.0 * p * (y / den) + 1.0 / SQRT_PI) / den


def _erfcx_pieces(pieces: int) -> tuple[np.ndarray, ...]:
    """Coefficients c_0..c_3 of piece j's cubic in t = P y - j, j = 0..P, each an array over j.

    Piece j spans t in [-1/2, 1/2] about y = j/P.  Its cubic takes q at t
    = 0 as c_0 itself, and q at t = -1/2, 1/4 and 1/2 (the half-integer
    points are shared with the neighbours): with d(t) = q(t) - c_0,

        c_2 = 2 (d(1/2) + d(-1/2)),  e = d(1/2) - d(-1/2) = c_1 + c_3/4,
        c_3 = (16/3) (e - 4 d(1/4) + c_2/4),  c_1 = e - c_3/4.

    c_0 is the centre value itself rather than a sum of node values, which
    rounds once more; the other terms move it by at most a few parts in P.
    """
    j = np.arange(pieces + 1.0)
    centre = _q(j / pieces)
    half = _q((np.arange(pieces + 2.0) - 0.5) / pieces)
    below, above = half[:-1] - centre, half[1:] - centre
    quarter = _q((j + 0.25) / pieces) - centre
    c2 = 2.0 * (above + below)
    e = above - below
    c3 = (16.0 / 3.0) * (e - 4.0 * quarter + 0.25 * c2)
    return centre, e - 0.25 * c3, c2, c3


_C0, _C1, _C2, _C3 = _erfcx_pieces(ERFCX_PIECES)


def _erfcx_nonnegative(x: np.ndarray) -> np.ndarray:
    """erfcx(x) for x >= 0 (or NaN) from the cubic pieces: q(y)/(1 + x)."""
    work = np.empty((4,) + x.shape)
    u, s, tmp = work[0], work[1], work[2]
    index = work[3].view(np.intp)
    np.add(x, 1.0, out=u)
    np.divide(float(ERFCX_PIECES), u, out=s)
    np.rint(s, out=tmp)
    s -= tmp
    with np.errstate(invalid="ignore"):  # a NaN x indexes a clipped piece and stays NaN
        np.copyto(index, tmp, casting="unsafe")
    out = _C3.take(index, mode="clip")
    for column in (_C2, _C1, _C0):
        out *= s
        column.take(index, out=tmp, mode="clip")
        out += tmp
    out /= u
    return out


def erfcx(x) -> np.ndarray:
    """The scaled complementary error function e^(x^2) erfc(x) of real x, elementwise."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    negative = x < 0.0
    if not negative.any():
        return _erfcx_nonnegative(x).reshape(shape)
    out = _erfcx_nonnegative(np.abs(x))
    out[negative] = 2.0 * np.exp(x[negative] ** 2) - out[negative]
    return out.reshape(shape)


# erf(x) = (2/sqrt(pi)) sum_k (-1)^k x^(2k+1) / (k! (2k+1)), to k = 18 (below
# 1e-17 at x = 1), highest power first.
_ERF_SERIES = np.array(
    [(-1.0) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(18, -1, -1)]
) * (2.0 / SQRT_PI)
ERF_SERIES_BELOW = 1.0


def erf(x) -> np.ndarray:
    """The error function of real x, elementwise; odd, so erf(x) = sign(x) erf(|x|)."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    a = np.abs(x)
    out = 1.0 - np.exp(-a * a) * erfcx(a)
    small = a < ERF_SERIES_BELOW
    if small.any():
        xs = a[small]
        u = xs * xs
        p = np.full(xs.shape, _ERF_SERIES[0])
        for c in _ERF_SERIES[1:]:
            p *= u
            p += c
        out[small] = xs * p
    return np.copysign(out, x).reshape(shape)


def wofz(z) -> np.ndarray:
    """The Faddeeva function w(z) = e^(-z^2) erfc(-iz) of complex z, elementwise."""
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.reshape(-1)
    lower = z.imag < 0.0
    upper = np.where(lower, -z, z)
    axis = upper.real == 0.0
    if axis.all():
        out = erfcx(upper.imag).astype(complex)
    else:
        out = np.empty(z.shape, dtype=complex)
        out[axis] = erfcx(upper.imag[axis])
        far = ~axis & (np.abs(upper) > CONTINUED_FRACTION_FROM)
        near = ~axis & ~far
        out[near] = _series(upper[near])
        out[far] = _continued_fraction(upper[far])
    if lower.any():
        zl = z[lower]
        out[lower] = 2.0 * np.exp(-zl * zl) - out[lower]
    return out.reshape(shape)
