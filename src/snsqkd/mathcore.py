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


def find_root(
    fn: Callable[[float], tuple[float, float]], lo: float, hi: float, tol: float, start: float
) -> float:
    """Root of a sign-changing function on [lo, hi] by safeguarded Newton steps.

    ``fn`` returns the function's value and slope at a point.  The solve
    starts at ``start``, or at the bracket's midpoint when ``start`` is not
    strictly inside it, and moves a bracket end to every point it evaluates,
    so the bracket keeps the sign change.  A Newton step of at most ``tol``,
    or one too small to move the point, ends the solve at the point it
    reaches (held to the bracket).  A step that would not land strictly
    inside the bracket, or a zero slope, is replaced by bisection, which
    stops when no float lies strictly between the ends or once they are at
    most ``tol`` apart.  An exact zero is returned at once.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo!r}, {hi!r}]")
    flo = fn(lo)[0]
    fhi = fn(hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"fn({lo!r}) and fn({hi!r}) have the same sign")
    rising = fhi > 0.0
    x = start if lo < start < hi else 0.5 * (lo + hi)
    while lo < x < hi:
        fx, slope = fn(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == rising:
            hi = x
        else:
            lo = x
        if slope:
            step = fx / slope
            if abs(step) <= tol or x - step == x:
                return min(max(x - step, lo), hi)
            x -= step
        if not lo < x < hi:  # also catches NaN from infinite values
            x = 0.5 * (lo + hi)
            if hi - lo <= tol:
                break
    return x


@lru_cache(maxsize=64)
def _simpson_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-interval composite Simpson rule on [a, b]."""
    # imported here: only the finite variant integrates, so the asymptotic
    # ones never load numpy
    import numpy as np

    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= (b - a) / (3.0 * n)
    nodes = a + (b - a) * np.linspace(0.0, 1.0, n + 1)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def simpson(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int) -> float:
    """Composite Simpson quadrature over [a, b] with n uniform intervals.

    ``fn`` must accept a numpy array of nodes and return a float array of
    the integrand's value at each.  n is rounded up to even.  The rule's
    nodes and weights are built once per (a, b, n) and reused: the finite
    variant integrates over the same few slice widths on every call.
    """
    if b <= a:
        raise ValueError("simpson requires b > a")
    if n % 2:
        n += 1
    nodes, weights = _simpson_rule(a, b, n)
    # the array's own dot: np.dot's dispatch costs about as much as the sum
    return float(fn(nodes).dot(weights))
