import math

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
# largest window counts, with xi from loose to far below the paper's 1e-10
SWEEP = [(float(y), xi) for y in np.geomspace(1e-2, 1e13, 61) for xi in (0.4, 1e-3, 1e-10, 1e-20)]


def deviation_oracle(y, xi):
    """(delta1, delta2) to 50 digits; delta2 is None where the lower equation
    has no root below the solver's cap 1 - 1e-15."""
    with mp.workdps(50):
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

    def test_against_arbitrary_precision_roots(self):
        # the rounding of the equations sets the floor: about 1.1e-10 of the
        # root at the largest expected counts here
        worst1 = worst2 = 0.0
        for y, xi in SWEEP:
            deltas = solve_deltas(y, xi)
            delta1, delta2 = deviation_oracle(y, xi)
            worst1 = max(worst1, abs(deltas.delta1 / delta1 - 1.0))
            assert deltas.lower_vacuous == (delta2 is None)
            if delta2 is not None:
                worst2 = max(worst2, abs(deltas.delta2 / delta2 - 1.0))
        assert worst1 <= 1.2e-10
        assert worst2 <= 1.1e-10

    def test_each_root_takes_few_evaluations(self, monkeypatch):
        # halving [0, 1e6] (upper) or [0, 1) (lower) down to the last float
        # would take 73 evaluations per root on average here, and up to 95
        counts = []

        def counting_find_root(fn, lo, hi, tol):
            calls = []
            root = find_root(lambda x: calls.append(x) or fn(x), lo, hi, tol)
            counts.append(len(calls))
            return root

        monkeypatch.setattr(snsqkd.chernoff, "find_root", counting_find_root)
        for y, xi in SWEEP:
            solve_deltas(y, xi)
        assert len(counts) > len(SWEEP)
        assert max(counts) <= 25
        assert sum(counts) / len(counts) <= 12

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
