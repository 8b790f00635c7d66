"""Numeric verifier for the two-qubit pair-state argument.

Builds the worst-case diagonal-plus-coherence pair state shared by the two
parties, applies the conjugate-basis error measurement and the parity-check
projections on two copies, and certifies that the surviving odd-parity
state's phase-flip error never exceeds the iterated bound 2e(1-e).

Everything is done twice: with dense complex matrices in the explicit basis
{|00>, |01>, |10>, |11>} (and its square for two pairs), and with the closed
forms, cross-checked against each other.  The dense matrices run stacked
over the coherence phase beta: ``make_sigma`` takes a float or a 1-D array
of beta, and every matrix function works on the last two axes, a single
state being the 0-d case of the same code.  ``verify_iteration_inequality``
runs the closed forms on a full grid and the dense matrices over a strided
(theta, alpha) subgrid, one stacked call per sweep over beta.
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


def _coherence_limit(theta: float | np.ndarray) -> float | np.ndarray:
    """The positivity limit |cos(theta) sin(theta)| of the coherence alpha."""
    return np.abs(np.cos(theta) * np.sin(theta))


def _odd_survivor_error(alpha: float | np.ndarray, limit: float | np.ndarray) -> float | np.ndarray:
    """Closed-form phase error (1 - alpha^2/(cos^2 sin^2))/2 of the odd-parity
    survivor, given the coherence limit |cos sin|; beta does not enter it."""
    return 0.5 * (1.0 - alpha**2 / limit**2)


@dataclass(frozen=True)
class PairState:
    """Two-qubit state with diagonal weights cos^2/sin^2 and a coherence
    alpha*e^{+-i*beta} between |00> and |11>.

    beta is a float or a 1-D array; rho has shape beta.shape + (4, 4), one
    density matrix per coherence phase."""

    theta: float
    alpha: float
    beta: float | np.ndarray
    rho: np.ndarray


def make_sigma(theta: float, alpha: float, beta: float | np.ndarray) -> PairState:
    """Assemble the pair state, or a stack of them over a 1-D array of beta;
    positivity requires alpha <= |cos(t)sin(t)|."""
    for name, value in (("theta", theta), ("alpha", alpha)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    betas = np.asarray(beta, dtype=float)
    if betas.ndim > 1:
        raise ValueError(f"beta must be a float or a 1-D array, got shape {betas.shape}")
    if not np.isfinite(betas).all():
        raise ValueError(f"beta must be finite, got {beta!r}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    limit = float(_coherence_limit(theta))
    if alpha > limit + 1e-15:
        raise ValueError(
            f"alpha={alpha!r} violates positivity (limit {limit!r} at theta={theta!r})"
        )
    rho = np.zeros(betas.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = math.cos(theta) ** 2
    rho[..., 3, 3] = math.sin(theta) ** 2
    rho[..., 3, 0] = alpha * np.exp(-1j * betas)
    rho[..., 0, 3] = alpha * np.exp(1j * betas)
    return PairState(theta=theta, alpha=alpha, beta=betas if betas.ndim else float(betas), rho=rho)


def _output(values: np.ndarray) -> float | np.ndarray:
    """A Python float for a single state, the float64 array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _cross_check(what: str, matrix: np.ndarray, closed: float | np.ndarray) -> None:
    """Raise unless every matrix value lies within tolerance of its closed
    form; written as `not err <= tol`, so that a NaN fails."""
    matrix, closed = np.broadcast_arrays(matrix, closed)
    bad = np.flatnonzero(~(np.abs(matrix - closed) <= _CROSS_CHECK_TOL))
    if bad.size:
        raise ArithmeticError(
            f"{what} mismatch: matrix {float(matrix.flat[bad[0]])!r} "
            f"vs closed form {float(closed.flat[bad[0]])!r}"
        )


def _phase_error_of_matrix(rho: np.ndarray) -> np.ndarray:
    plus = _M_PLUS @ rho @ _M_PLUS.conj().T
    minus = _M_MINUS @ rho @ _M_MINUS.conj().T
    return np.trace(plus + minus, axis1=-2, axis2=-1).real


def phase_error(state: PairState) -> float | np.ndarray:
    """Phase-flip error rate of one pair (or of each state of a stack), matrix
    value cross-checked against the closed form (1 - 2*alpha*cos(beta))/2."""
    value = _phase_error_of_matrix(state.rho)
    _cross_check("phase error", value, 0.5 * (1.0 - 2.0 * state.alpha * np.cos(state.beta)))
    return _output(value)


def _parity_keep_operator(local: np.ndarray) -> np.ndarray:
    """Joint map keeping one qubit per side: Alice's acts on (A1, A2), Bob's on
    (B1, B2).  Rows are (a_out, b_out), columns (a1, b1, a2, b2)."""
    # kron's columns run (a1, a2, b1, b2); swap a2 and b1
    return np.kron(local, local).reshape(4, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(4, 16)


_K_ODD = _parity_keep_operator(_M_ODD)
_K_EVEN = _parity_keep_operator(_M_EVEN)


def _two_copies(rho: np.ndarray) -> np.ndarray:
    """kron(rho, rho) over the last two axes; np.kron itself does not batch."""
    pairs = rho[..., :, None, :, None] * rho[..., None, :, None, :]
    return pairs.reshape(rho.shape[:-2] + (16, 16))


def _survivor(state: PairState, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # two independent pairs, qubit order (A1, B1, A2, B2)
    unnormalized = keep @ _two_copies(state.rho) @ keep.conj().T
    pass_prob = np.trace(unnormalized, axis1=-2, axis2=-1).real
    if not np.all(pass_prob > 0.0):
        raise ArithmeticError("parity projection annihilated the state")
    survivor = unnormalized / pass_prob[..., None, None]
    return survivor, _phase_error_of_matrix(survivor), pass_prob


def odd_parity_survivor(
    state: PairState,
) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Survivor of one odd-parity rejection round on two pairs.

    Returns (normalized survivor matrix, its phase error, pass probability),
    each stacked over beta for a stacked state; every phase error is
    cross-checked against its closed form (``_odd_survivor_error``).
    """
    limit = _coherence_limit(state.theta)
    if limit**2 == 0.0:
        raise ValueError(f"degenerate theta={state.theta!r}: no odd-parity survivors")
    survivor, e_odd, pass_prob = _survivor(state, _K_ODD)
    _cross_check("odd-parity error", e_odd, _odd_survivor_error(state.alpha, limit))
    return survivor, _output(e_odd), _output(pass_prob)


def even_parity_survivor(
    state: PairState,
) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Survivor of the even-parity branch (kept for the counterexample check)."""
    survivor, e_even, pass_prob = _survivor(state, _K_EVEN)
    return survivor, _output(e_even), _output(pass_prob)


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

    @property
    def passed(self) -> bool:
        return (
            self.max_violation <= _CROSS_CHECK_TOL
            and self.max_matrix_mismatch <= _CROSS_CHECK_TOL
            and self.max_beta_spread <= _CROSS_CHECK_TOL
        )


def verify_iteration_inequality(grid_points: int = 100) -> IterationReport:
    """Sweep a legal (theta, alpha, beta) grid of ``grid_points`` per axis and
    certify the iteration bound.

    alpha is parametrized as a fraction of its positivity limit.  The closed
    forms run on the full grid.  The dense-matrix pipeline runs over a
    strided (theta, alpha) subgrid: each point makes one odd-parity survivor
    call stacked over every beta, which confirms that the survivor error
    does not depend on the coherence phase, and one single-pair phase error
    call stacked over every stride-th beta, at which the survivor's mismatch
    to its closed form is also recorded; the stride is a tenth of the grid,
    at least 1.  Only one sweep's stack is held at a time.  The grid must
    have at least 1 point per axis.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points!r}")
    matrix_stride = max(1, grid_points // 10)
    thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, grid_points)
    fracs = np.linspace(0.0, 1.0, grid_points)
    betas = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)

    limits = _coherence_limit(thetas)
    alphas = np.outer(fracs, limits)  # a row per alpha fraction, a column per theta
    e_odd = _odd_survivor_error(alphas, limits)
    e_bar = 0.5 * (1.0 - 2.0 * alphas)  # worst case over beta (cos(beta) <= 1)
    bound = iterate_phase_error(e_bar)
    # beta does not enter either side; the grid over beta adds no violations.
    max_violation = float((e_odd - bound).max())

    matrix_checks = 0
    max_mismatch = 0.0
    beta_sweeps = 0
    max_spread = 0.0
    checked = betas[::matrix_stride]
    for theta, limit in zip(thetas[::matrix_stride], limits[::matrix_stride]):
        for frac in fracs[::matrix_stride]:
            alpha = frac * limit
            closed = _odd_survivor_error(alpha, limit)
            # one stacked call per sweep over beta; both raise on a
            # matrix/closed-form mismatch
            _, e_matrix, _ = odd_parity_survivor(make_sigma(theta, alpha, betas))
            phase_error(make_sigma(theta, alpha, checked))
            mismatch = np.abs(e_matrix[::matrix_stride] - closed).max()
            max_mismatch = max(max_mismatch, float(mismatch))
            matrix_checks += checked.size
            max_spread = max(max_spread, float(e_matrix.max() - e_matrix.min()))
            beta_sweeps += 1

    return IterationReport(
        grid_points=grid_points**3,
        max_violation=max_violation,
        matrix_checks=matrix_checks,
        max_matrix_mismatch=max_mismatch,
        beta_sweeps=beta_sweeps,
        max_beta_spread=max_spread,
    )
