"""Finite-size statistics: multiplicative concentration bounds and the
failure-probability budget of the composable security statement."""

from __future__ import annotations

import functools
import math
from typing import Callable
import warnings
from dataclasses import dataclass

from .mathcore import find_root

__all__ = [
    "EpsilonBudget",
    "ChernoffDelta",
    "solve_deltas",
    "chernoff_upper",
    "chernoff_lower",
    "post_rejection_bounds",
]

_DELTA2_HI = 1.0 - 1e-15
# The closed-form brackets of the deviation roots are widened by this
# relative margin, so that a bound that closes in on its root (the upper
# bound of delta1 lies within about c/18 of it, relative) still has the
# root strictly inside; the residual below is exact to a few ulp, far
# inside the margin.
_BRACKET_MARGIN = 1e-6
_WIDEN_LO, _WIDEN_HI = 1.0 - _BRACKET_MARGIN, 1.0 + _BRACKET_MARGIN
# A Newton step of at most this fraction of the root d ends a solve; the
# tolerance takes the bracket's lower end for d, and for the lower equation
# also 1 - hi for 1 - d.  Such a step leaves an error of about
# step^2 f''/(2f'), below step^2/(2d) for the upper root and
# step^2/(2d(1 - d)) for the lower, so the root returned is exact to the
# rounding of the residual (about 1e-16 relative), one step sooner than a
# tolerance at that floor would allow.
_ROOT_RTOL = 1e-8
# Below this deviation |x| the residual is summed as its power series,
# where the closed form would lose the leading x^2/2 to cancellation; the
# eleven terms kept reach the rounding floor (the next one is 6e-17 of the
# sum at |x| = 0.05).
_SERIES_BELOW = 0.05


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure probabilities entering the finite-size key length."""

    eps_cor: float
    eps_hat: float
    eps_pa: float
    eps_bar: float
    eps_n1: float
    xi: float

    @property
    def eps_sec(self) -> float:
        return math.fsum((2.0 * self.eps_hat, 4.0 * self.eps_bar, self.eps_pa, self.eps_n1))

    @property
    def eps_tot(self) -> float:
        return self.eps_cor + self.eps_sec

    @functools.cached_property
    def key_penalty(self) -> float:
        """The finite-size key length's failure-probability term,
        log2(eps_cor/2) + 2*log2(sqrt(2)*eps_pa*eps_hat), formed once per
        budget (``from_failure_prob`` shares one per ``xi``).  Summed as
        logarithms: the products underflow for a failure probability below
        about 1e-155."""
        return (math.log2(self.eps_cor) - 1.0) + 2.0 * (
            0.5 + math.log2(self.eps_pa) + math.log2(self.eps_hat)
        )

    @classmethod
    @functools.lru_cache(maxsize=32)
    def from_failure_prob(cls, xi: float) -> "EpsilonBudget":
        """Standard assignment: eps_bar=3*xi, eps_n1=6*xi, the rest equal xi,
        which composes to eps_tot = 22*xi.  Equal ``xi`` share one (frozen)
        instance, so a finite evaluation neither validates nor builds it anew."""
        # the Chernoff tails take log(xi/2), so xi/2 must not underflow to zero
        if not (0.0 < xi / 2.0 and xi < 1.0):
            raise ValueError(f"failure_prob must be in (0, 1) and at least 1e-323, got {xi!r}")
        return cls(eps_cor=xi, eps_hat=xi, eps_pa=xi, eps_bar=3.0 * xi, eps_n1=6.0 * xi, xi=xi)


@dataclass(frozen=True)
class ChernoffDelta:
    """Deviation roots for one expected value and failure probability."""

    delta1: float
    delta2: float
    expected: float
    xi: float
    lower_vacuous: bool = False


def _deviation_equation(c: float) -> Callable[[float], tuple[float, float]]:
    """x -> x + (1 - x) ln(1 - x) - c and its slope -ln(1 - x).

    Both deviation equations are this one: the lower root is x = delta2, and
    the upper equation (1 + d) ln(1 + d) - d = c is this one at x = -d.
    """
    def residual(x: float) -> tuple[float, float]:
        log = math.log1p(-x)
        if -_SERIES_BELOW < x < _SERIES_BELOW:  # sum_{n>=2} x^n / (n(n-1))
            return x * x * (1/2 + x * (1/6 + x * (1/12 + x * (1/20 + x * (1/30 + x * (
                1/42 + x * (1/56 + x * (1/72 + x * (1/90 + x * (1/110 + x / 132)))))))))) - c, -log
        return x + (1.0 - x) * log - c, -log
    return residual


# the residual at the cap of delta2: above it no root lies below the cap
_RESIDUAL_AT_CAP = _deviation_equation(0.0)(_DELTA2_HI)[0]


def _validate(expected: float, xi: float) -> float:
    """c = ln(2/xi)/E, the right-hand side of both deviation equations."""
    if not 0.0 < expected < math.inf:
        raise ValueError(f"expected value must be positive and finite, got {expected!r}")
    if not (0.0 < xi / 2.0 and xi < 1.0):
        raise ValueError(f"xi must be in (0, 1) and at least 1e-323, got {xi!r}")
    return -math.log(xi / 2.0) / expected


def _solve(c: float, lo: float, hi: float, tol: float, t: float) -> float:
    """Root of x + (1 - x) ln(1 - x) = c on [lo, hi].  Newton starts from the
    series inverse t - t^2/6 - t^3/72 - t^4/270, at t = sqrt(2c) for the
    positive root and t = -sqrt(2c) for the negative one."""
    return find_root(_deviation_equation(c), lo, hi, tol, t - t * t * (1/6 + t * (1/72 + t / 270)))


def _solve_delta1(c: float) -> float:
    """Root of the upper equation (1 + d) ln(1 + d) - d = c, solved at x = -d.

    d^2/(2 + 2d/3) <= (1 + d) ln(1 + d) - d <= d^2/2 puts the root between
    s = sqrt(2c) and c/3 + sqrt(c^2/9 + 2c).  Negation is exact and the
    solve is symmetric under it, so the root has the bits of a solve in d.
    """
    if math.isinf(c):
        raise ValueError("expected value is too small for a finite upper bound")
    s = math.sqrt(2.0 * c)
    lo, hi = s * _WIDEN_LO, (c / 3.0 + math.hypot(c / 3.0, s)) * _WIDEN_HI
    return -_solve(c, -hi, -lo, _ROOT_RTOL * lo, -s)


def _solve_delta2(c: float) -> float:
    """Root of the lower equation d + (1 - d) ln(1 - d) = c, or 1 (a vacuous
    bound) when no root lies below the cap.

    d^2/2 <= d + (1 - d) ln(1 - d) <= d^2/(2 - 2d) puts the root between
    sqrt(c^2 + 2c) - c and s = sqrt(2c).
    """
    if c > _RESIDUAL_AT_CAP:
        return 1.0
    s = math.sqrt(2.0 * c)
    lo, hi = (math.sqrt(c * c + 2.0 * c) - c) * _WIDEN_LO, min(s * _WIDEN_HI, _DELTA2_HI)
    return _solve(c, lo, hi, _ROOT_RTOL * lo * (1.0 - hi), s)


def solve_deltas(expected: float, xi: float) -> ChernoffDelta:
    """Solve the two deviation equations (tail probability xi/2 each).

    The lower equation has no root in (0, 1) when the expected count is below
    ln(2/xi); the lower bound is then vacuous and delta2 is pinned at 1.
    """
    c = _validate(expected, xi)
    delta1 = _solve_delta1(c)
    delta2 = _solve_delta2(c)
    return ChernoffDelta(delta1, delta2, expected, xi, lower_vacuous=delta2 == 1.0)


def chernoff_upper(expected: float, xi: float) -> float:
    """High-confidence upper bound (1 + delta1) * expected."""
    return (1.0 + _solve_delta1(_validate(expected, xi))) * expected


def chernoff_lower(expected: float, xi: float) -> float:
    """High-confidence lower bound (1 - delta2) * expected; 0 when vacuous."""
    delta2 = _solve_delta2(_validate(expected, xi))
    if delta2 == 1.0:
        # message kept static so repeated optimizer corner probes dedupe
        warnings.warn(
            "expected count too small for a non-trivial lower bound; clamping to zero",
            RuntimeWarning,
            stacklevel=2,
        )
    return (1.0 - delta2) * expected


def post_rejection_bounds(
    expected_n1_pairs: float, expected_e1ph: float, xi: float
) -> tuple[float, float]:
    """Bounds on the untagged survivors and their iterated phase-flip error.

    Lower-bounds the expected untagged survivor count and upper-bounds the
    survivor phase-error rate, whose expectation is the once-iterated
    2*e*(1-e) of the pre-rejection value.
    """
    if expected_n1_pairs <= 0.0:
        raise ValueError(f"expected untagged survivors must be positive, got {expected_n1_pairs!r}")
    if not 0.0 <= expected_e1ph <= 1.0:
        raise ValueError(f"expected phase error must be in [0, 1], got {expected_e1ph!r}")
    n1_lower = chernoff_lower(expected_n1_pairs, xi)
    expected_errors = expected_n1_pairs * 2.0 * expected_e1ph * (1.0 - expected_e1ph)
    if expected_errors == 0.0:
        return n1_lower, 0.0
    e1_upper = chernoff_upper(expected_errors, xi) / expected_n1_pairs
    return n1_lower, min(e1_upper, 1.0)
