import math

import mpmath as mp
import numpy as np
import pytest

from snsqkd.mathcore import bessel_i0, binary_entropy, find_root, simpson

mp.mp.dps = 40


def i0_series_oracle(x: float) -> float:
    """Plain power series summed to convergence, independent of the module."""
    terms = [1.0]
    q = x * x / 4.0
    t = 1.0
    k = 0
    while t > 1e-20 * sum(terms[-3:]):
        k += 1
        t *= q / (k * k)
        terms.append(t)
    return math.fsum(terms)


class TestBinaryEntropy:
    def test_symmetry_maximum(self):
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_endpoints(self, x):
        assert binary_entropy(x) == 0.0

    def test_direct_value(self):
        # cross-checked against arbitrary-precision evaluation
        exact = float(-mp.mpf("0.11") * mp.log(mp.mpf("0.11"), 2)
                      - mp.mpf("0.89") * mp.log(mp.mpf("0.89"), 2))
        assert binary_entropy(0.11) == pytest.approx(exact, rel=1e-14)
        assert binary_entropy(0.11) == pytest.approx(0.4999159581650639, rel=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0, -1e-12])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    def test_symmetric(self):
        for x in np.linspace(0.0, 1.0, 101):
            a, b = binary_entropy(float(x)), binary_entropy(float(1.0 - x))
            assert a == pytest.approx(b, abs=5e-16)

    def test_concave(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = rng.random(2)
            mid = binary_entropy((a + b) / 2.0)
            assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2.0 - 1e-12


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_known_points(self):
        # frozen from the power-series oracle
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-13)
        assert bessel_i0(10.0) == pytest.approx(2815.716628466254, rel=1e-13)

    def test_against_series_oracle(self):
        for x in np.geomspace(1e-3, 700.0, 60):
            assert bessel_i0(float(x)) == pytest.approx(i0_series_oracle(float(x)), rel=1e-12)

    def test_against_arbitrary_precision(self):
        for x in (0.5, 7.5, 14.999, 15.0, 15.001, 42.0, 250.0, 699.9):
            assert bessel_i0(x) == pytest.approx(float(mp.besseli(0, x)), rel=1e-12)

    @pytest.mark.parametrize("x, expected", [(0.5, "0x1.104072392c800p+0"),
                                             (7.5, "0x1.0c294bb62234ep+8"),
                                             (14.999, "0x1.4b5e5a0fc1dafp+18")])
    def test_pinned_values(self, x, expected):
        # every model input evaluates below 15 (kappa <= mu_z <= 1.5), at these bits
        assert bessel_i0(x).hex() == expected

    def test_series_against_arbitrary_precision_up_to_the_overflow_limit(self):
        for x in np.geomspace(15.0, 700.0, 50):
            assert bessel_i0(float(x)) == pytest.approx(float(mp.besseli(0, float(x))), rel=1e-13)

    def test_monotone_increasing(self):
        xs = np.linspace(0.0, 700.0, 500)
        vals = [bessel_i0(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_errors(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)
        with pytest.raises(OverflowError):
            bessel_i0(700.5)

    @pytest.mark.parametrize("x", [math.nan, -math.inf])
    def test_refuses_nan_and_negative_infinity(self, x):
        with pytest.raises(ValueError):
            bessel_i0(x)

    def test_refuses_positive_infinity(self):
        with pytest.raises(OverflowError):
            bessel_i0(math.inf)


class TestFindRoot:
    # fn returns the value and the slope at a point

    def test_linear(self):
        root = find_root(lambda x: (x - 2.0, 1.0), 0.0, 5.0, 1e-12, 1.0)
        assert root == 2.0

    def test_surd(self):
        root = find_root(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, 1e-12, 1.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_concentration_equation_residual(self):
        # upper-tail deviation equation with expected count 1000
        y, xi = 1000.0, 1e-10
        target = math.log(xi / 2.0)

        def eq(d):
            log = math.log1p(d)
            return y * (d - (1.0 + d) * log) - target, -y * log

        delta = find_root(eq, 0.0, 10.0, 1e-14, 0.5)
        residual = math.exp(y * (delta - (1.0 + delta) * math.log1p(delta)))
        assert residual == pytest.approx(xi / 2.0, rel=1e-6)

    def test_bracket_error(self):
        with pytest.raises(ValueError, match="same sign"):
            find_root(lambda x: (x + 10.0, 1.0), 0.0, 1.0, 1e-6, 0.5)

    def test_tolerance_validation(self):
        for tol in (0.0, -1e-9, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                find_root(lambda x: (x, 1.0), -1.0, 1.0, tol, 0.5)

    def test_exact_zero_endpoint(self):
        assert find_root(lambda x: (x, 1.0), 0.0, 1.0, 1e-9, 0.5) == 0.0

    def test_steep_function_takes_few_steps(self):
        # Newton from the right of a convex rising function never overshoots;
        # bisection to the same width would take 50 evaluations
        calls = []

        def steep(x):
            calls.append(x)
            return x**12 - 0.5, 12.0 * x**11

        root = find_root(steep, 0.0, 1.5, 1e-15, 1.4)
        assert root == pytest.approx(0.5 ** (1.0 / 12.0), abs=1e-15)
        assert len(calls) <= 12

    def test_infinite_end_falls_back_to_the_midpoint(self):
        # a Newton step through an infinite value is NaN, never inside the bracket
        root = find_root(lambda x: (math.inf, math.inf) if x > 2.0 else (x - 1.0, 1.0),
                         0.0, 3.0, 1e-12, 2.5)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_step_leaving_the_bracket_bisects(self):
        # from 5 the Newton step of atan lands at -30.7, outside [-1, 5]; the
        # solve bisects to 2, whose step lands at -3.5, outside [-1, 2], and
        # bisects again to 0.5, from where Newton converges
        calls = []

        def atan(x):
            calls.append(x)
            return math.atan(x), 1.0 / (1.0 + x * x)

        root = find_root(atan, -1.0, 10.0, 1e-12, 5.0)
        assert abs(root) <= 1e-12
        assert calls[2:5] == [5.0, 2.0, 0.5]

    def test_start_outside_the_bracket_is_replaced_by_the_midpoint(self):
        calls = []

        def linear(x):
            calls.append(x)
            return x - 2.0, 1.0

        assert find_root(linear, 0.0, 5.0, 1e-12, 7.0) == 2.0
        assert calls[2] == 2.5

    def test_stops_at_adjacent_floats(self):
        lo = 1.0
        hi = math.nextafter(lo, 2.0)
        root = find_root(lambda x: (x - 1.0 - 2.0**-53, 1.0), lo, hi, 5e-324, lo)
        assert root in (lo, hi)


def test_simpson_sine():
    assert simpson(np.sin, 0.0, math.pi, 1024) == pytest.approx(2.0, abs=1e-10)


def test_simpson_requires_interval():
    with pytest.raises(ValueError):
        simpson(np.sin, 1.0, 1.0, 8)


def test_simpson_scalar_integrand_gives_float():
    assert type(simpson(np.sin, 0.0, 1.0, 16)) is float
