import itertools
import math

import numpy as np
import pytest

from snsqkd import qubitmodel
from snsqkd.postproc import iterate_phase_error
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
        # one element of a (theta, alpha, beta) stack refuses the whole stack
        ("theta", (np.array([[1.0], [math.nan]]), 0.1, np.array([0.3, 0.4]))),
        ("alpha", (1.0, np.array([[0.1], [math.inf]]), np.array([0.3, 0.4]))),
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

    def test_theta_alpha_beta_stack_equals_single_states(self):
        thetas, alphas, betas = _theta_alpha_beta_stack()
        state = make_sigma(thetas, alphas, betas)
        assert state.rho.shape == (4, 3, 5, 4, 4)
        for i, j, k in np.ndindex(state.rho.shape[:-2]):
            single = make_sigma(float(thetas[i, 0, 0]), float(alphas[i, j, 0]), float(betas[k]))
            assert np.array_equal(state.rho[i, j, k], single.rho)

    def test_one_alpha_out_of_range_refuses_the_stack(self):
        # each alpha is held to its own theta's limit: the last alpha of
        # theta[1] is set just past it, then the last of theta[3] below 0
        thetas, alphas, betas = _theta_alpha_beta_stack()
        past = alphas.copy()
        limit = abs(math.cos(thetas[1, 0, 0]) * math.sin(thetas[1, 0, 0]))
        past[1, -1, 0] = limit + 1e-9
        with pytest.raises(ValueError, match="violates positivity") as caught:
            make_sigma(thetas, past, betas)
        assert f"at theta={float(thetas[1, 0, 0])!r}" in str(caught.value)
        negative = alphas.copy()
        negative[3, -1, 0] = -1e-9
        with pytest.raises(ValueError, match="^alpha must be non-negative, got -1e-09"):
            make_sigma(thetas, negative, betas)


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
    # one call per strided theta, stacked over its 10 alpha fractions and
    # all 20 betas: 10 calls hold the 100 sweeps
    calls = []
    survivor = qubitmodel.odd_parity_survivor

    def counting(state):
        calls.append(state.rho.shape)
        return survivor(state)

    monkeypatch.setattr(qubitmodel, "odd_parity_survivor", counting)
    report = verify_iteration_inequality(20)
    assert report.passed
    assert report.beta_sweeps == 100
    assert calls == [(10, 20, 4, 4)] * 10


def _theta_alpha_beta_stack(seed=5):
    """A (4, 3, 5) stack: theta on the first axis, alpha fractions of each
    theta's limit on the second, beta on the last."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.02, math.pi / 2.0 - 0.02, 4)[:, None, None]
    alphas = rng.uniform(0.0, 1.0, (1, 3, 1)) * np.abs(np.cos(thetas) * np.sin(thetas))
    betas = rng.uniform(0.0, 2.0 * math.pi, 5)
    return thetas, alphas, betas


@pytest.mark.parametrize("function", [odd_parity_survivor, even_parity_survivor, phase_error],
                         ids=["odd", "even", "phase_error"])
def test_theta_alpha_beta_stack_equals_single_calls(function):
    thetas, alphas, betas = _theta_alpha_beta_stack()
    stacked = function(make_sigma(thetas, alphas, betas))
    for i, j, k in np.ndindex(4, 3, 5):
        single = function(make_sigma(float(thetas[i, 0, 0]), float(alphas[i, j, 0]),
                                     float(betas[k])))
        if function is phase_error:
            assert stacked[i, j, k] == single
        else:
            assert np.array_equal(stacked[0][i, j, k], single[0])
            assert stacked[1][i, j, k] == single[1] and stacked[2][i, j, k] == single[2]


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


# The reference the survivors are held to: the 16x16 two-copy state and
# the parity keep operators, in the qubit order (A1, B1, A2, B2).

def _two_copies(rho):
    """kron(rho, rho) over the last two axes; np.kron itself does not batch."""
    pairs = rho[..., :, None, :, None] * rho[..., None, :, None, :]
    return pairs.reshape(rho.shape[:-2] + (16, 16))


def _pair_projector(keep):
    """Local two-qubit-to-one-qubit map, e.g. |0><01| + |1><10| for odd parity."""
    m = np.zeros((2, 4), dtype=complex)
    for (x, y), out in keep.items():
        m[out, 2 * x + y] = 1.0
    return m


def _parity_keep_operator(local):
    """Joint map keeping one qubit per side: Alice's acts on (A1, A2), Bob's on
    (B1, B2).  Rows are (a_out, b_out), columns (a1, b1, a2, b2)."""
    # kron's columns run (a1, a2, b1, b2); swap a2 and b1
    return np.kron(local, local).reshape(4, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(4, 16)


LOCAL_MAPS = {"odd": _pair_projector({(0, 1): 0, (1, 0): 1}),
              "even": _pair_projector({(0, 0): 0, (1, 1): 1})}


def test_two_copy_state_equals_kron():
    for theta, alpha, betas in _random_stacks():
        stack = make_sigma(theta, alpha, betas).rho
        expected = np.array([np.kron(rho, rho) for rho in stack])
        assert np.array_equal(_two_copies(stack), expected)
        assert np.array_equal(_two_copies(stack[0]), np.kron(stack[0], stack[0]))


@pytest.mark.parametrize("local", LOCAL_MAPS.values(), ids=LOCAL_MAPS)
def test_parity_keep_operator_entries(local):
    # rows (a_out, b_out); columns (a1, b1, a2, b2); Alice's local map acts
    # on (a1, a2) and Bob's on (b1, b2)
    expected = np.zeros((4, 16), dtype=complex)
    for a_out, b_out, a1, b1, a2, b2 in itertools.product(range(2), repeat=6):
        expected[2 * a_out + b_out, 8 * a1 + 4 * b1 + 2 * a2 + b2] = (
            local[a_out, 2 * a1 + a2] * local[b_out, 2 * b1 + b2])
    assert np.array_equal(_parity_keep_operator(local), expected)


@pytest.mark.parametrize("parity", LOCAL_MAPS)
def test_selected_survivor_equals_keep_operator_product(parity):
    # the survivor is formed by selecting one entry of each pair's matrix;
    # it and its pass probability are bit for bit K @ kron(rho, rho) @ K^dagger
    keep = _parity_keep_operator(LOCAL_MAPS[parity])
    for theta, alpha, betas in _random_stacks(seed=3, pairs=60):
        state = make_sigma(theta, alpha, betas)
        unnormalized = keep @ _two_copies(state.rho) @ keep.conj().T
        pass_prob = np.trace(unnormalized, axis1=-2, axis2=-1).real
        survivor, _, prob = qubitmodel._survivor(state, parity)
        assert np.array_equal(prob, pass_prob)
        assert np.array_equal(survivor, unnormalized / pass_prob[..., None, None])


def test_phase_error_is_the_trace_against_both_error_projectors():
    plus = np.kron(qubitmodel._KET_PLUS, qubitmodel._KET_MINUS)
    minus = np.kron(qubitmodel._KET_MINUS, qubitmodel._KET_PLUS)
    projectors = [np.outer(ket, ket.conj()) for ket in (plus, minus)]
    for theta, alpha, betas in _random_stacks():
        state = make_sigma(theta, alpha, betas)
        survivors = [qubitmodel._survivor(state, parity)[0] for parity in LOCAL_MAPS]
        for matrix in (state.rho, *survivors):
            expected = sum(np.trace(m @ matrix @ m.conj().T, axis1=-2, axis2=-1).real
                           for m in projectors)
            assert np.abs(qubitmodel._phase_error_of_matrix(matrix) - expected).max() <= 1e-15


def test_iteration_gap_is_an_identity():
    # with alpha = f*|cos sin|, e_odd - 2e(1 - e) = -(f^2/2) cos^2(2 theta) <= 0
    # at e = (1 - 2 alpha)/2, the worst case over beta; the theta grid runs
    # to within 1e-6 of both ends, on a log scale near each
    ends = np.geomspace(1e-6, 0.05, 200)
    thetas = np.concatenate([ends, np.linspace(0.05, math.pi / 2.0 - 0.05, 401)[1:-1],
                             math.pi / 2.0 - ends[::-1]])
    fracs = np.linspace(0.0, 1.0, 201)[:, None]
    limits = qubitmodel._coherence_limit(thetas)
    alphas = fracs * limits
    gap = (qubitmodel._odd_survivor_error(alphas, limits)
           - iterate_phase_error(0.5 * (1.0 - 2.0 * alphas)))
    assert thetas.min() == 1e-6 and math.pi / 2.0 - thetas.max() <= 1e-6
    assert np.abs(gap + 0.5 * fracs**2 * np.cos(2.0 * thetas) ** 2).max() <= 1e-15


def test_equality_at_balanced_theta():
    # the bound is tight exactly where cos^2*sin^2 reaches 1/4
    for alpha in (0.1, 0.3, 0.45):
        _, e_odd, _ = odd_parity_survivor(make_sigma(math.pi / 4.0, alpha, 0.0))
        e_bar = 0.5 * (1.0 - 2.0 * alpha)
        assert e_odd == pytest.approx(2.0 * e_bar * (1.0 - e_bar), abs=1e-12)
