import itertools
import math

import numpy as np
import pytest

from snsqkd import qubitmodel
from snsqkd.qubitmodel import (
    even_parity_survivor,
    make_sigma,
    odd_parity_survivor,
    phase_error,
    pure_state_parity_errors,
    verify_iteration_inequality,
)


class TestMakeSigma:
    def test_trace_and_hermiticity(self):
        state = make_sigma(math.pi / 3.0, 0.2, 0.7)
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(state.rho, state.rho.conj().T)

    def test_positive_semidefinite(self):
        state = make_sigma(math.pi / 3.0, 0.2, 0.7)
        eigvals = np.linalg.eigvalsh(state.rho)
        assert eigvals.min() >= -1e-14

    def test_pure_state_is_rank_one(self):
        state = make_sigma(math.pi / 4.0, 0.5, 0.0)
        eigvals = np.sort(np.linalg.eigvalsh(state.rho))
        assert eigvals[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(eigvals[:-1]).max() < 1e-12

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            make_sigma(math.pi / 4.0, 0.6, 0.0)
        with pytest.raises(ValueError):
            make_sigma(math.pi / 8.0, 0.4, 0.0)  # limit is sin*cos ~ 0.354
        with pytest.raises(ValueError):
            make_sigma(math.pi / 4.0, -0.1, 0.0)

    @pytest.mark.parametrize("name, args", [
        ("theta", (math.nan, 0.1, 0.3)),
        ("theta", (math.inf, 0.1, 0.3)),
        ("alpha", (1.0, math.nan, 0.3)),
        ("alpha", (1.0, math.inf, 0.3)),
        ("beta", (1.0, 0.1, math.inf)),
        ("beta", (1.0, 0.1, math.nan)),
        ("beta", (1.0, 0.1, np.array([0.0, 1.0, math.nan]))),
    ])
    def test_non_finite_argument_is_refused(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_sigma(*args)

    def test_stack_shape(self):
        state = make_sigma(1.0, 0.2, np.linspace(0.0, 1.0, 7))
        assert state.rho.shape == (7, 4, 4)
        assert make_sigma(1.0, 0.2, 0.5).rho.shape == (4, 4)
        with pytest.raises(ValueError, match="1-D"):
            make_sigma(1.0, 0.2, np.zeros((2, 3)))


def test_nan_fails_the_cross_check():
    # `not err <= tol`: a NaN on either side counts as a mismatch
    with pytest.raises(ArithmeticError, match="nan"):
        qubitmodel._cross_check("phase error", np.array([0.25, math.nan]), 0.25)
    with pytest.raises(ArithmeticError, match="nan"):
        qubitmodel._cross_check("phase error", 0.25, math.nan)
    qubitmodel._cross_check("phase error", np.array([0.25, 0.25]), 0.25)


class TestPhaseError:
    def test_pure_bell(self):
        assert phase_error(make_sigma(math.pi / 4.0, 0.5, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_classical_mixture(self):
        assert phase_error(make_sigma(math.pi / 3.0, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_direct_value(self):
        value = phase_error(make_sigma(math.pi / 4.0, 0.3, math.pi / 3.0))
        assert value == pytest.approx(0.35, abs=1e-12)


class TestOddParitySurvivor:
    def test_pure_state_error_free_any_phase(self):
        for beta in (0.0, 0.4, 1.9, math.pi, 5.0):
            _, e_odd, _ = odd_parity_survivor(make_sigma(math.pi / 4.0, 0.5, beta))
            assert e_odd == pytest.approx(0.0, abs=1e-12)

    def test_classical_mixture(self):
        _, e_odd, _ = odd_parity_survivor(make_sigma(math.pi / 3.0, 0.0, 0.0))
        assert e_odd == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_value(self):
        _, e_odd, p_pass = odd_parity_survivor(make_sigma(math.pi / 4.0, 0.2, 1.1))
        assert e_odd == pytest.approx(0.5 * (1.0 - 0.04 / 0.25), abs=1e-12)
        assert p_pass == pytest.approx(0.5, abs=1e-12)  # 2*cos^2*sin^2 at pi/4

    def test_beta_independence(self):
        values = [
            odd_parity_survivor(make_sigma(1.1, 0.21, beta))[1]
            for beta in np.linspace(0.0, 2.0 * math.pi, 40)
        ]
        assert max(values) - min(values) <= 1e-12

    def test_interior_point_bound(self):
        _, e_odd, _ = odd_parity_survivor(make_sigma(math.pi / 6.0, 0.1, math.pi / 2.0))
        assert e_odd == pytest.approx(0.47333333333333333, abs=1e-12)
        e_bar = 0.5 * (1.0 - 2.0 * 0.1)
        assert e_odd <= 2.0 * e_bar * (1.0 - e_bar) + 1e-12  # 0.48

    def test_degenerate_theta(self):
        with pytest.raises(ValueError):
            odd_parity_survivor(make_sigma(0.0, 0.0, 0.0))


class TestEvenParitySurvivor:
    def test_closed_form(self):
        theta, alpha, beta = 1.0, 0.3, 0.8
        _, e_even, p_pass = even_parity_survivor(make_sigma(theta, alpha, beta))
        c4s4 = math.cos(theta) ** 4 + math.sin(theta) ** 4
        expected = (c4s4 - 2.0 * alpha**2 * math.cos(2.0 * beta)) / (2.0 * c4s4)
        assert e_even == pytest.approx(expected, abs=1e-12)
        assert p_pass == pytest.approx(c4s4, abs=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        state = make_sigma(0.9, 0.15, 0.3)
        _, _, p_odd = odd_parity_survivor(state)
        _, _, p_even = even_parity_survivor(state)
        assert p_odd + p_even == pytest.approx(1.0, abs=1e-12)


class TestPureFamilyCounterexample:
    def test_odd_error_free_even_not(self):
        for phi in np.linspace(0.05, math.pi / 2.0 - 0.05, 15):
            e_odd, e_even = pure_state_parity_errors(float(phi))
            assert e_odd == pytest.approx(0.0, abs=1e-12)
            assert e_even > 1e-4

    def test_even_branch_functional_form(self):
        # the even-parity survivor carries a doubled phase: error sin^2(phi)
        for phi in (0.1, 0.4, 1.0, 1.4):
            _, e_even = pure_state_parity_errors(phi)
            assert e_even == pytest.approx(math.sin(phi) ** 2, abs=1e-12)


def test_iteration_inequality_small_grid():
    report = verify_iteration_inequality(20)
    assert report.passed
    assert report.max_violation <= 1e-12
    assert report.max_matrix_mismatch <= 1e-12
    assert report.max_beta_spread <= 1e-12
    assert report.grid_points == 20**3
    # a grid of 20 has stride 2: one pass over the strided (theta, alpha)
    # grid and every beta; every second beta is also matrix-checked
    assert report.beta_sweeps == 10 * 10
    assert report.matrix_checks == 10 * 10 * 10


@pytest.mark.parametrize("grid_points", [0, -3])
def test_grid_below_one_point_is_refused(grid_points):
    with pytest.raises(ValueError, match="^grid_points must be at least 1"):
        verify_iteration_inequality(grid_points)


def test_one_survivor_call_per_beta_sweep(monkeypatch):
    calls = []
    survivor = qubitmodel.odd_parity_survivor

    def counting(state):
        calls.append(state.rho.shape)
        return survivor(state)

    monkeypatch.setattr(qubitmodel, "odd_parity_survivor", counting)
    report = verify_iteration_inequality(20)
    assert report.passed
    assert calls == [(20, 4, 4)] * 100


def _random_stacks(seed=11, pairs=12, size=9):
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        theta = float(rng.uniform(0.02, math.pi / 2.0 - 0.02))
        alpha = float(rng.uniform(0.0, 1.0)) * abs(math.cos(theta) * math.sin(theta))
        betas = np.concatenate([
            [0.0, 2.0 * math.pi - 1e-9, np.nextafter(2.0 * math.pi, 0.0)],
            rng.uniform(0.0, 2.0 * math.pi, size),
        ])
        yield theta, alpha, betas


@pytest.mark.parametrize("function", [odd_parity_survivor, even_parity_survivor],
                         ids=["odd", "even"])
def test_stacked_survivor_equals_single_calls(function):
    for theta, alpha, betas in _random_stacks():
        survivors, errors, probs = function(make_sigma(theta, alpha, betas))
        assert survivors.shape == betas.shape + (4, 4)
        assert errors.dtype == probs.dtype == np.float64
        for i, beta in enumerate(betas):
            survivor, error, prob = function(make_sigma(theta, alpha, float(beta)))
            assert type(error) is float and type(prob) is float
            assert errors[i] == error and probs[i] == prob
            assert np.array_equal(survivors[i], survivor)


def test_stacked_phase_error_equals_single_calls():
    for theta, alpha, betas in _random_stacks():
        values = phase_error(make_sigma(theta, alpha, betas))
        assert values.dtype == np.float64
        singles = [phase_error(make_sigma(theta, alpha, float(beta))) for beta in betas]
        assert all(type(value) is float for value in singles)
        assert np.array_equal(values, singles)


def test_two_copy_state_equals_kron():
    for theta, alpha, betas in _random_stacks():
        stack = make_sigma(theta, alpha, betas).rho
        expected = np.array([np.kron(rho, rho) for rho in stack])
        assert np.array_equal(qubitmodel._two_copies(stack), expected)
        assert np.array_equal(qubitmodel._two_copies(stack[0]), np.kron(stack[0], stack[0]))


@pytest.mark.parametrize("local", [qubitmodel._M_ODD, qubitmodel._M_EVEN], ids=["odd", "even"])
def test_parity_keep_operator_entries(local):
    # rows (a_out, b_out); columns (a1, b1, a2, b2); Alice's local map acts
    # on (a1, a2) and Bob's on (b1, b2)
    expected = np.zeros((4, 16), dtype=complex)
    for a_out, b_out, a1, b1, a2, b2 in itertools.product(range(2), repeat=6):
        expected[2 * a_out + b_out, 8 * a1 + 4 * b1 + 2 * a2 + b2] = (
            local[a_out, 2 * a1 + a2] * local[b_out, 2 * b1 + b2])
    assert np.array_equal(qubitmodel._parity_keep_operator(local), expected)


def test_equality_at_balanced_theta():
    # the bound is tight exactly where cos^2*sin^2 reaches 1/4
    for alpha in (0.1, 0.3, 0.45):
        _, e_odd, _ = odd_parity_survivor(make_sigma(math.pi / 4.0, alpha, 0.0))
        e_bar = 0.5 * (1.0 - 2.0 * alpha)
        assert e_odd == pytest.approx(2.0 * e_bar * (1.0 - e_bar), abs=1e-12)
