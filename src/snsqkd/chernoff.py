"""Finite-size statistics: multiplicative concentration bounds and the
failure-probability budget of the composable security statement."""

from __future__ import annotations

import functools
import math
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
# relative margin: as c = ln(2/xi)/E falls, the upper bound of delta1 closes
# in on the root (a relative gap of about c/18, 1e-13 at E = 1e13) faster
# than the rounding of the equation shrinks (about 1e-10 of the root there).
_BRACKET_MARGIN = 1e-6
# Each root is solved to this tolerance relative to its bracket's upper end,
# well below the rounding of the equations (about 1e-10 relative at E = 1e13).
_ROOT_RTOL = 1e-13


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


def _upper_log_tail(delta: float) -> float:
    # log of (e^d / (1+d)^(1+d))
    return delta - (1.0 + delta) * math.log1p(delta)


def _lower_log_tail(delta: float) -> float:
    # log of (e^-d / (1-d)^(1-d))
    return -delta - (1.0 - delta) * math.log1p(-delta)


def _validate(expected: float, xi: float) -> float:
    if expected <= 0.0:
        raise ValueError(f"expected value must be positive, got {expected!r}")
    if not (0.0 < xi / 2.0 and xi < 1.0):
        raise ValueError(f"xi must be in (0, 1) and at least 1e-323, got {xi!r}")
    return math.log(xi / 2.0)


def _widen(lo: float, hi: float) -> tuple[float, float]:
    return lo * (1.0 - _BRACKET_MARGIN), hi * (1.0 + _BRACKET_MARGIN)


def _solve_delta1(expected: float, target: float) -> float:
    """Root of the upper equation (1 + d) ln(1 + d) - d = c, c = ln(2/xi)/E.

    d^2/(2 + 2d/3) <= (1 + d) ln(1 + d) - d <= d^2/2 puts the root between
    sqrt(2c) and c/3 + sqrt(c^2/9 + 2c).
    """
    c = -target / expected
    if math.isinf(c):
        raise ValueError(f"expected value {expected!r} is too small for a finite upper bound")

    def upper_eq(delta: float) -> float:
        return expected * _upper_log_tail(delta) - target

    root_2c = math.sqrt(2.0 * c)
    lo, hi = _widen(root_2c, c / 3.0 + math.hypot(c / 3.0, root_2c))
    return find_root(upper_eq, lo, hi, _ROOT_RTOL * hi)


def _solve_delta2(expected: float, target: float) -> float | None:
    """Root of the lower equation d + (1 - d) ln(1 - d) = c, or None when no
    root exists in (0, 1).

    d^2/2 <= d + (1 - d) ln(1 - d) <= d^2/(2 - 2d) puts the root between
    sqrt(c^2 + 2c) - c and sqrt(2c).
    """
    if expected * _lower_log_tail(_DELTA2_HI) > target:
        return None
    c = -target / expected

    def lower_eq(delta: float) -> float:
        return expected * _lower_log_tail(delta) - target

    lo, hi = _widen(math.sqrt(c * c + 2.0 * c) - c, math.sqrt(2.0 * c))
    hi = min(hi, _DELTA2_HI)
    return find_root(lower_eq, lo, hi, _ROOT_RTOL * hi)


def solve_deltas(expected: float, xi: float) -> ChernoffDelta:
    """Solve the two deviation equations (tail probability xi/2 each).

    The lower equation has no root in (0, 1) when the expected count is below
    ln(2/xi); the lower bound is then vacuous and delta2 is pinned at 1.
    """
    target = _validate(expected, xi)
    delta1 = _solve_delta1(expected, target)
    delta2 = _solve_delta2(expected, target)
    if delta2 is None:
        return ChernoffDelta(delta1, 1.0, expected, xi, lower_vacuous=True)
    return ChernoffDelta(delta1, delta2, expected, xi)


def chernoff_upper(expected: float, xi: float) -> float:
    """High-confidence upper bound (1 + delta1) * expected."""
    target = _validate(expected, xi)
    return (1.0 + _solve_delta1(expected, target)) * expected


def chernoff_lower(expected: float, xi: float) -> float:
    """High-confidence lower bound (1 - delta2) * expected; 0 when vacuous."""
    target = _validate(expected, xi)
    delta2 = _solve_delta2(expected, target)
    if delta2 is None:
        # message kept static so repeated optimizer corner probes dedupe
        warnings.warn(
            "expected count too small for a non-trivial lower bound; clamping to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
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
