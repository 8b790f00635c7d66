"""Shared numeric primitives: entropy, series Bessel I0, quadrature, bracketed root finding."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["binary_entropy", "bessel_i0", "find_root", "simpson"]

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

    The power series sum_k (x^2/4)^k / (k!)^2, summed until a term falls
    below 1e-18 of the total; it stays within 1e-13 relative error over the
    whole admitted range [0, 700].  Arguments above 700 would overflow a
    double and are rejected.
    """
    if not x >= 0.0:  # also refuses NaN
        raise ValueError(f"bessel_i0 requires x >= 0, got {x!r}")
    if x > _I0_OVERFLOW_LIMIT:
        raise OverflowError(f"bessel_i0 overflows for x > {_I0_OVERFLOW_LIMIT}, got {x!r}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= q / (k * k)
        total += term
    return total


def find_root(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of a sign-changing function on [lo, hi].

    Regula falsi with the Illinois modification: each step evaluates the
    secant point of the bracket ends and keeps the sub-bracket that still
    changes sign; when the same end is replaced twice in a row, the function
    value held at the other end is halved, so both ends converge.  A secant
    point that is not strictly inside the bracket is replaced by the
    midpoint.  Stops when the bracket is at most ``tol`` wide (or when no
    float lies strictly between its ends, whichever comes first) and returns
    its midpoint; an exact zero is returned at once.
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
    kept = 0  # +1: the last step kept lo, -1: it kept hi
    while hi - lo > tol:
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:  # also catches NaN from infinite values
            x = 0.5 * (lo + hi)
            if x <= lo or x >= hi:
                break
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
            if kept == -1:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, fx
            if kept == 1:
                flo *= 0.5
            kept = 1
    return 0.5 * (lo + hi)


@lru_cache(maxsize=8)
def _simpson_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-interval composite Simpson rule on [0, 1]."""
    import numpy as np

    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights /= 3.0 * n
    nodes = np.linspace(0.0, 1.0, n + 1)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def simpson(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int) -> float:
    """Composite Simpson quadrature over [a, b] with n uniform intervals.

    ``fn`` must accept a numpy array of nodes and return the integrand's
    value at each.  n is rounded up to even; the unit rule for each n is
    built once and reused.
    """
    # imported here: only the finite variant integrates, so the asymptotic
    # ones never load numpy
    import numpy as np

    if b <= a:
        raise ValueError("simpson requires b > a")
    if n % 2:
        n += 1
    nodes, weights = _simpson_rule(n)
    vals = np.asarray(fn(a + (b - a) * nodes), dtype=float)
    return float((b - a) * (vals * weights).sum())
