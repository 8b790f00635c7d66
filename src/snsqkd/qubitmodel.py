"""Numeric verifier for the two-qubit pair-state argument.

Builds the worst-case diagonal-plus-coherence pair state shared by the two
parties, applies the conjugate-basis error measurement and the parity-check
projections on two copies, and certifies that the surviving odd-parity
state's phase-flip error never exceeds the iterated bound 2e(1-e).

Everything is done twice: with dense complex matrices in the explicit basis
{|00>, |01>, |10>, |11>} (and its square for two pairs), and with the closed
forms, cross-checked against each other.  ``verify_iteration_inequality``
runs the closed forms on a full grid and the dense matrices in one pass over
a strided subgrid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .postproc import iterate_phase_error

__all__ = [
    "PairState",
    "IterationReport",
    "make_sigma",
    "phase_error",
    "odd_parity_survivor",
    "even_parity_survivor",
    "pure_state_parity_errors",
    "verify_iteration_inequality",
]

_CROSS_CHECK_TOL = 1e-12

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_KET_PLUS = (_KET0 + _KET1) / math.sqrt(2.0)
_KET_MINUS = (_KET0 - _KET1) / math.sqrt(2.0)

# Conjugate-basis error measurement: |+><+| (x) |-><-| and its mirror.
_M_PLUS = np.kron(np.outer(_KET_PLUS, _KET_PLUS.conj()), np.outer(_KET_MINUS, _KET_MINUS.conj()))
_M_MINUS = np.kron(np.outer(_KET_MINUS, _KET_MINUS.conj()), np.outer(_KET_PLUS, _KET_PLUS.conj()))


def _pair_projector(keep: dict[tuple[int, int], int]) -> np.ndarray:
    """Local two-qubit-to-one-qubit map, e.g. |0><01| + |1><10| for odd parity."""
    m = np.zeros((2, 4), dtype=complex)
    for (x, y), out in keep.items():
        m[out, 2 * x + y] = 1.0
    return m


_M_ODD = _pair_projector({(0, 1): 0, (1, 0): 1})
_M_EVEN = _pair_projector({(0, 0): 0, (1, 1): 1})


@dataclass(frozen=True)
class PairState:
    """Two-qubit state with diagonal weights cos^2/sin^2 and a coherence
    alpha*e^{+-i*beta} between |00> and |11>."""

    theta: float
    alpha: float
    beta: float
    rho: np.ndarray


def make_sigma(theta: float, alpha: float, beta: float) -> PairState:
    """Assemble the pair state; positivity requires alpha <= |cos(t)sin(t)|."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    limit = abs(math.cos(theta) * math.sin(theta))
    if alpha > limit + 1e-15:
        raise ValueError(
            f"alpha={alpha!r} violates positivity (limit {limit!r} at theta={theta!r})"
        )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = math.cos(theta) ** 2
    rho[3, 3] = math.sin(theta) ** 2
    rho[3, 0] = alpha * np.exp(-1j * beta)
    rho[0, 3] = alpha * np.exp(1j * beta)
    return PairState(theta=theta, alpha=alpha, beta=beta, rho=rho)


def _phase_error_of_matrix(rho: np.ndarray) -> float:
    plus = _M_PLUS @ rho @ _M_PLUS.conj().T
    minus = _M_MINUS @ rho @ _M_MINUS.conj().T
    return float(np.trace(plus + minus).real)


def phase_error(state: PairState) -> float:
    """Phase-flip error rate of one pair, matrix value cross-checked against
    the closed form (1 - 2*alpha*cos(beta))/2."""
    value = _phase_error_of_matrix(state.rho)
    closed = 0.5 * (1.0 - 2.0 * state.alpha * math.cos(state.beta))
    if abs(value - closed) > _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"phase error mismatch: matrix {value!r} vs closed form {closed!r}"
        )
    return value


def _parity_keep_operator(local: np.ndarray) -> np.ndarray:
    """Joint map keeping one qubit per side: Alice's acts on (A1, A2), Bob's on
    (B1, B2).  Rows are (a_out, b_out), columns (a1, b1, a2, b2)."""
    # kron's columns run (a1, a2, b1, b2); swap a2 and b1
    return np.kron(local, local).reshape(4, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(4, 16)


_K_ODD = _parity_keep_operator(_M_ODD)
_K_EVEN = _parity_keep_operator(_M_EVEN)


def _survivor(state: PairState, keep: np.ndarray) -> tuple[np.ndarray, float, float]:
    # two independent pairs, qubit order (A1, B1, A2, B2)
    unnormalized = keep @ np.kron(state.rho, state.rho) @ keep.conj().T
    pass_prob = float(np.trace(unnormalized).real)
    if pass_prob <= 0.0:
        raise ArithmeticError("parity projection annihilated the state")
    survivor = unnormalized / pass_prob
    return survivor, _phase_error_of_matrix(survivor), pass_prob


def odd_parity_survivor(state: PairState) -> tuple[np.ndarray, float, float]:
    """Survivor of one odd-parity rejection round on two pairs.

    Returns (normalized survivor matrix, its phase error, pass probability);
    the phase error is cross-checked against the closed form
    (1 - alpha^2/(cos^2 sin^2))/2, which is independent of beta.
    """
    cos2sin2 = (math.cos(state.theta) * math.sin(state.theta)) ** 2
    if cos2sin2 == 0.0:
        raise ValueError(f"degenerate theta={state.theta!r}: no odd-parity survivors")
    survivor, e_odd, pass_prob = _survivor(state, _K_ODD)
    closed = 0.5 * (1.0 - state.alpha**2 / cos2sin2)
    if abs(e_odd - closed) > _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"odd-parity error mismatch: matrix {e_odd!r} vs closed form {closed!r}"
        )
    return survivor, e_odd, pass_prob


def even_parity_survivor(state: PairState) -> tuple[np.ndarray, float, float]:
    """Survivor of the even-parity branch (kept for the counterexample check)."""
    return _survivor(state, _K_EVEN)


def pure_state_parity_errors(phi: float) -> tuple[float, float]:
    """Phase errors of both parity branches for the pure family
    (|00> + e^{i*phi}|11>)/sqrt(2): the odd branch is error-free while the
    even branch is not."""
    state = make_sigma(math.pi / 4.0, 0.5, -phi)
    _, e_odd, _ = odd_parity_survivor(state)
    _, e_even, _ = even_parity_survivor(state)
    return e_odd, e_even


@dataclass(frozen=True)
class IterationReport:
    """Grid certificate for e_odd <= 2*e*(1-e) and the matrix/closed-form match."""

    grid_points: int
    max_violation: float
    matrix_checks: int
    max_matrix_mismatch: float
    beta_sweeps: int
    max_beta_spread: float
    tolerance: float = _CROSS_CHECK_TOL

    @property
    def passed(self) -> bool:
        return (
            self.max_violation <= self.tolerance
            and self.max_matrix_mismatch <= self.tolerance
            and self.max_beta_spread <= self.tolerance
        )


def verify_iteration_inequality(
    n_theta: int = 100,
    n_alpha: int = 100,
    n_beta: int = 100,
    matrix_stride: int = 10,
) -> IterationReport:
    """Sweep a legal (theta, alpha, beta) grid and certify the iteration bound.

    alpha is parametrized as a fraction of its positivity limit.  The closed
    forms run on the full grid.  The dense-matrix pipeline runs once over a
    strided (theta, alpha) subgrid and every beta, which confirms that the
    survivor error does not depend on the coherence phase; every
    matrix_stride-th beta also checks the single-pair phase error and
    records the survivor's mismatch to its closed form.
    """
    thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, n_theta)
    fracs = np.linspace(0.0, 1.0, n_alpha)
    betas = np.linspace(0.0, 2.0 * math.pi, n_beta, endpoint=False)

    limits = np.abs(np.cos(thetas) * np.sin(thetas))
    alphas = np.outer(fracs, limits)  # shape (n_alpha, n_theta)
    cos2sin2 = limits**2
    e_odd = 0.5 * (1.0 - alphas**2 / cos2sin2)
    e_bar = 0.5 * (1.0 - 2.0 * alphas)  # worst case over beta (cos(beta) <= 1)
    bound = iterate_phase_error(e_bar)
    # beta does not enter either side; the grid over beta adds no violations.
    max_violation = float((e_odd - bound).max())

    matrix_checks = 0
    max_mismatch = 0.0
    beta_sweeps = 0
    max_spread = 0.0
    for theta in thetas[::matrix_stride]:
        for frac in fracs[::matrix_stride]:
            alpha = frac * abs(math.cos(theta) * math.sin(theta))
            closed = 0.5 * (1.0 - alpha**2 / (math.cos(theta) * math.sin(theta)) ** 2)
            values = []
            for index, beta in enumerate(betas):
                state = make_sigma(theta, alpha, beta)
                _, e_matrix, _ = odd_parity_survivor(state)
                values.append(e_matrix)
                if index % matrix_stride == 0:
                    phase_error(state)  # raises on matrix/closed-form mismatch
                    max_mismatch = max(max_mismatch, float(abs(e_matrix - closed)))
                    matrix_checks += 1
            max_spread = max(max_spread, float(max(values) - min(values)))
            beta_sweeps += 1

    return IterationReport(
        grid_points=n_theta * n_alpha * n_beta,
        max_violation=max_violation,
        matrix_checks=matrix_checks,
        max_matrix_mismatch=max_mismatch,
        beta_sweeps=beta_sweeps,
        max_beta_spread=max_spread,
    )
