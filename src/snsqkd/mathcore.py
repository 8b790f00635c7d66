"""Shared numeric primitives: entropy, Bessel I0, quadrature, bisection."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["binary_entropy", "bessel_i0", "find_root", "simpson"]

_I0_SERIES_CUTOFF = 15.0
_I0_OVERFLOW_LIMIT = 700.0


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits, extended by continuity to H(0)=H(1)=0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series below x=15 and asymptotic expansion above; both regimes
    stay within 1e-12 relative error.  Arguments above 700 would overflow
    a double and are rejected.
    """
    if not x >= 0.0:  # also refuses NaN, on which the asymptotic loop never ends
        raise ValueError(f"bessel_i0 requires x >= 0, got {x!r}")
    if x > _I0_OVERFLOW_LIMIT:
        raise OverflowError(f"bessel_i0 overflows for x > {_I0_OVERFLOW_LIMIT}, got {x!r}")
    if x < _I0_SERIES_CUTOFF:
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        k = 0
        while term > 1e-18 * total:
            k += 1
            term *= q / (k * k)
            total += term
        return total
    # Asymptotic expansion e^x/sqrt(2*pi*x) * sum a_k x^-k, truncated at the
    # smallest term (the series is divergent beyond it).
    coeff = 1.0
    term = 1.0
    total = 1.0
    k = 0
    while True:
        coeff *= (2 * k + 1) ** 2 / (8.0 * (k + 1))
        k += 1
        nxt = coeff / x**k
        if nxt >= term or nxt < 1e-18 * total:
            break
        term = nxt
        total += term
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * total


def find_root(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Bisection root of a sign-changing function on [lo, hi].

    Halves the bracket until its width is at most ``tol`` (or until the
    midpoint is no longer representable between the endpoints, whichever
    comes first) and returns the midpoint.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo!r}, {hi!r}]")
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"fn({lo!r}) and fn({hi!r}) have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simpson(
    fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 1024
) -> float | np.ndarray:
    """Composite Simpson quadrature over [a, b] with n uniform intervals.

    ``fn`` must accept a numpy array of nodes and may return stacked rows of
    integrands, one per leading index; each row is integrated along the last
    axis.  A scalar integrand gives a float.  n is rounded up to even.
    """
    if b <= a:
        raise ValueError("simpson requires b > a")
    if n % 2:
        n += 1
    nodes = np.linspace(a, b, n + 1)
    vals = np.asarray(fn(nodes), dtype=float)
    h = (b - a) / n
    total = h / 3.0 * (vals[..., 0] + vals[..., -1] + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                       + 2.0 * vals[..., 2:-1:2].sum(axis=-1))
    return float(total) if total.ndim == 0 else total
