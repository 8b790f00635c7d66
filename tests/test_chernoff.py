import hashlib
import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest

import snsqkd.chernoff
from snsqkd.chernoff import (
    EpsilonBudget,
    chernoff_lower,
    chernoff_upper,
    post_rejection_bounds,
    solve_deltas,
)
from snsqkd.mathcore import find_root


def upper_tail(delta, y):
    return math.exp(y * (delta - (1.0 + delta) * math.log1p(delta)))


def lower_tail(delta, y):
    return math.exp(y * (-delta - (1.0 - delta) * math.log1p(-delta)))


# expected counts and failure probabilities from a handful of events to the
# largest window counts, with xi from loose to the smallest the budget admits
SWEEP = [(float(y), xi) for y in np.geomspace(1e-2, 1e13, 61)
         for xi in (0.4, 1e-3, 1e-10, 1e-20, 1e-300)]
# far beyond any window count: the residuals fall to about 1e-300 there
HUGE = [(float(y), xi) for y in np.geomspace(1e22, 1e300, 21) for xi in (0.4, 1e-10, 1e-300)]
# a seeded log-uniform draw over SWEEP's ranges, vacuous lower bounds included
_draw = random.Random(2017)
RANDOM = [(10.0 ** _draw.uniform(-2.0, 13.0), 10.0 ** _draw.uniform(-300.0, -0.4))
          for _ in range(10_000)]
# SHA-256 of delta1, delta2, lower_vacuous, chernoff_lower and chernoff_upper
# over SWEEP, HUGE and RANDOM, in hex: it pins every bit of both roots
DEVIATION_BITS_SHA256 = "418e6f7319c7bbc60ad5ee422842e4a0ea2778126553a71a1a823468f8ddd238"


def deviation_oracle(y, xi):
    """(delta1, delta2) to 50 digits; delta2 is None where the lower equation
    has no root below the solver's cap 1 - 1e-15."""
    c = math.log(2.0 / xi) / y
    # the residuals cancel down to d^2/2 = c: carry the digits c lies below 1
    with mp.workdps(50 + max(0, -math.floor(math.log10(c)))):
        c = mp.log(2 / mp.mpf(xi)) / y
        upper = mp.findroot(lambda d: (1 + d) * mp.log1p(d) - d - c,
                            (mp.sqrt(2 * c) / 2, 2 * c + 2), solver="anderson")
        cap = 1 - mp.mpf(1e-15)
        if cap + (1 - cap) * mp.log1p(-cap) < c:
            return float(upper), None
        lower = mp.findroot(lambda d: d + (1 - d) * mp.log1p(-d) - c,
                            (mp.sqrt(c * c + 2 * c) - c, cap), solver="anderson")
        return float(upper), float(lower)


class TestDeltas:
    @pytest.mark.parametrize("xi", [1e-10, 1.71e-10])
    @pytest.mark.parametrize("y", [10.0**k for k in range(1, 13)])
    def test_residuals(self, y, xi):
        deltas = solve_deltas(y, xi)
        assert upper_tail(deltas.delta1, y) == pytest.approx(xi / 2.0, rel=1e-6)
        if not deltas.lower_vacuous:
            assert lower_tail(deltas.delta2, y) == pytest.approx(xi / 2.0, rel=1e-6)
        else:
            # no root exists below ln(2/xi); the bound is explicitly vacuous
            assert y < math.log(2.0 / xi)

    def test_strict_ordering(self):
        for y in np.geomspace(1e2, 1e12, 11):
            lo = chernoff_lower(float(y), 1e-10)
            hi = chernoff_upper(float(y), 1e-10)
            assert lo < y < hi

    def test_ratios_approach_one_monotonically(self):
        ys = np.geomspace(1e2, 1e12, 11)
        upper_ratios = [chernoff_upper(float(y), 1e-10) / y for y in ys]
        lower_ratios = [chernoff_lower(float(y), 1e-10) / y for y in ys]
        assert all(b < a for a, b in zip(upper_ratios, upper_ratios[1:]))
        assert all(b > a for a, b in zip(lower_ratios, lower_ratios[1:]))
        assert upper_ratios[-1] < 1.00002
        assert lower_ratios[-1] > 0.99998

    def test_vacuous_lower_warns_and_clamps(self):
        with pytest.warns(RuntimeWarning):
            assert chernoff_lower(10.0, 1e-10) == 0.0

    def test_tiny_expected_upper_still_bounded(self):
        # the closed-form bracket of the upper root covers very small expected counts
        bound = chernoff_upper(1e-3, 1e-10)
        assert 0.0 < bound < 100.0

    def test_upper_refused_when_its_equation_overflows(self):
        # ln(2/xi)/E is infinite: no finite deviation solves the upper equation
        with pytest.raises(ValueError, match="too small"):
            chernoff_upper(1e-320, 1e-10)

    @staticmethod
    def worst_relative_errors(cases):
        worst1 = worst2 = 0.0
        for y, xi in cases:
            deltas = solve_deltas(y, xi)
            delta1, delta2 = deviation_oracle(y, xi)
            worst1 = max(worst1, abs(deltas.delta1 / delta1 - 1.0))
            assert deltas.lower_vacuous == (delta2 is None)
            if delta2 is not None:
                worst2 = max(worst2, abs(deltas.delta2 / delta2 - 1.0))
        return worst1, worst2

    def test_against_arbitrary_precision_roots(self):
        # the residuals are exact to a few ulp, so the roots are too: the
        # worst case measured over SWEEP is 3.4e-15 (delta1), 3.1e-15 (delta2)
        worst1, worst2 = self.worst_relative_errors(SWEEP)
        assert worst1 <= 5e-15
        assert worst2 <= 5e-15

    def test_huge_expected_counts_against_arbitrary_precision_roots(self):
        # from 1e22 expected counts (1e23 at xi = 1e-300) the closed-form
        # residual (1 + d) ln(1 + d) - d lost more than the bracket's margin
        # to cancellation (further on it rounds to 0), both bracket ends had
        # the same sign, and the solve refused
        worst1, worst2 = self.worst_relative_errors(HUGE)
        assert worst1 <= 5e-15
        assert worst2 <= 5e-15
        for y, xi in HUGE:  # a deviation below 1e-16 of the count rounds away
            assert chernoff_lower(y, xi) <= y <= chernoff_upper(y, xi)

    def test_each_root_takes_few_evaluations(self, monkeypatch):
        # Newton steps after the two bracket ends: 1.67 per root on average
        # here and 7 at most, where bisecting [0, 1e6] (upper) or [0, 1)
        # (lower) down to the last float would take 73 on average, and up to 95
        steps = []

        def counting_find_root(fn, lo, hi, tol, start):
            calls = []
            root = find_root(lambda x: calls.append(x) or fn(x), lo, hi, tol, start)
            steps.append(len(calls) - 2)
            return root

        monkeypatch.setattr(snsqkd.chernoff, "find_root", counting_find_root)
        for y, xi in SWEEP:
            solve_deltas(y, xi)
        assert len(steps) > len(SWEEP)
        assert max(steps) <= 7
        assert sum(steps) / len(steps) <= 1.7

    def test_root_bits_are_pinned(self):
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for y, xi in SWEEP + HUGE + RANDOM:
                deltas = solve_deltas(y, xi)
                digest.update(f"{deltas.delta1.hex()} {deltas.delta2.hex()} "
                              f"{deltas.lower_vacuous:d} {chernoff_lower(y, xi).hex()} "
                              f"{chernoff_upper(y, xi).hex()}\n".encode())
        assert digest.hexdigest() == DEVIATION_BITS_SHA256

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solve", [solve_deltas, chernoff_upper, chernoff_lower])
    def test_non_finite_expected_count_is_refused_by_name(self, solve, y):
        # NaN gave "invalid bracket [nan, nan]" and infinity "tolerance must
        # be positive, got 0.0"
        with pytest.raises(ValueError, match="expected value must be positive and finite"):
            solve(y, 1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chernoff_upper(0.0, 1e-10)
        with pytest.raises(ValueError):
            chernoff_lower(-5.0, 1e-10)
        with pytest.raises(ValueError):
            solve_deltas(100.0, 1.5)
        # log(xi/2) would be log(0), a bare "math domain error"
        with pytest.raises(ValueError, match="at least 1e-323"):
            chernoff_upper(10.0, 5e-324)


class TestPostRejection:
    def test_zero_phase_error(self):
        n1_lower, e1_upper = post_rejection_bounds(1e6, 0.0, 1e-10)
        assert e1_upper == 0.0
        assert n1_lower < 1e6

    def test_iterated_error_bound(self):
        _, e1_upper = post_rejection_bounds(1e6, 0.05, 1e-10)
        assert e1_upper > 2.0 * 0.05 * 0.95
        _, tighter = post_rejection_bounds(1e9, 0.05, 1e-10)
        assert tighter > 2.0 * 0.05 * 0.95
        assert tighter - 0.095 < e1_upper - 0.095

    def test_concentration(self):
        n1_lower, _ = post_rejection_bounds(1e9, 0.05, 1e-10)
        assert n1_lower / 1e9 >= 0.999

    def test_validation(self):
        with pytest.raises(ValueError):
            post_rejection_bounds(0.0, 0.05, 1e-10)
        with pytest.raises(ValueError):
            post_rejection_bounds(1e6, 1.5, 1e-10)


class TestEpsilonBudget:
    @pytest.mark.parametrize("xi", [1e-10, 1.71e-10])
    def test_total_is_twenty_two_xi_exactly(self, xi):
        budget = EpsilonBudget.from_failure_prob(xi)
        assert budget.eps_tot == 22.0 * xi

    def test_standard_assignment(self):
        budget = EpsilonBudget.from_failure_prob(1e-10)
        assert budget.eps_bar == 3e-10
        assert budget.eps_n1 == 6e-10
        assert budget.eps_cor == budget.eps_hat == budget.eps_pa == 1e-10
        assert budget.eps_tot == pytest.approx(2.2e-9, rel=0.0)

    def test_composition(self):
        budget = EpsilonBudget(eps_cor=1e-9, eps_hat=2e-9, eps_pa=3e-9, eps_bar=4e-9,
                               eps_n1=5e-9, xi=1e-9)
        assert budget.eps_sec == pytest.approx(2 * 2e-9 + 4 * 4e-9 + 3e-9 + 5e-9, rel=1e-15)
        assert budget.eps_tot == pytest.approx(budget.eps_cor + budget.eps_sec, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonBudget.from_failure_prob(0.0)

    def test_equal_failure_probs_share_one_budget(self):
        budget = EpsilonBudget.from_failure_prob(1.7e-10)
        assert EpsilonBudget.from_failure_prob(float("1.7e-10")) is budget
        assert EpsilonBudget.from_failure_prob(1.8e-10) is not budget

    def test_refusal_is_not_cached(self):
        # the memo holds results only, so a refused value is refused every time
        for _ in range(3):
            with pytest.raises(ValueError, match="failure_prob"):
                EpsilonBudget.from_failure_prob(5e-324)
