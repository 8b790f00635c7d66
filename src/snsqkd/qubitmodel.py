"""Numeric verifier for the two-qubit pair-state argument.

Builds the worst-case diagonal-plus-coherence pair state shared by the two
parties, applies the conjugate-basis error measurement and the parity-check
projections on two copies, and certifies that the surviving odd-parity
state's phase-flip error never exceeds the iterated bound 2e(1-e).

Everything is done twice: with dense complex matrices in the explicit basis
{|00>, |01>, |10>, |11>}, and with the closed forms, cross-checked against
each other.  The dense matrices run stacked: ``make_sigma`` broadcasts
theta, alpha and beta (floats or arrays, beta along the last axis), and
every matrix function works on the last two axes, a single state being the
0-d case of the same code.  The two-copy state is never built: each kept
entry of a parity survivor is the product of one entry of each pair's
density matrix, and a phase error is the trace of the state against the
sum of two rank-one projectors.  ``verify_iteration_inequality`` runs the
closed forms on a full grid and the dense matrices over a strided
(theta, alpha) subgrid, one stacked call per theta over every alpha and
beta.
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

_KET0 = np.array([1.0, 0.0])
_KET1 = np.array([0.0, 1.0])
_KET_PLUS = (_KET0 + _KET1) / math.sqrt(2.0)
_KET_MINUS = (_KET0 - _KET1) / math.sqrt(2.0)

# Conjugate-basis error measurement: the rank-one projectors |+-><+-| and
# |-+><-+|.  A state's error is Tr(P rho) for their sum P, the sum over i, j
# of P[j, i] * rho[i, j].  The kets are real, so P is, and only rho's real
# parts enter: they are multiplied by P's flattened transpose and summed
# along the last axis, so that a stacked state's sum runs in the same order
# as a single state's (a matrix-vector product need not).
_ERROR_PROJECTOR = sum(np.outer(ket, ket) for ket in (
    np.kron(_KET_PLUS, _KET_MINUS), np.kron(_KET_MINUS, _KET_PLUS)))
_ERROR_WEIGHTS = _ERROR_PROJECTOR.T.ravel()


# The parity checks on two pairs, qubit order (A1, B1, A2, B2).  Each side
# keeps its first copy's qubit when the second copy's bit equals it (even
# parity: the local map |0><00| + |1><11|) or is its flip (odd parity:
# |0><01| + |1><10|).  So the survivor's basis state r = 2a + b is the first
# pair's state r with the second pair's state r (even) or r ^ 3 (odd), and
# its entry [r, s] is rho[r, s] * rho[r ^ 3, s ^ 3] for odd parity: flipping
# both bits of a two-bit index reverses 0..3, so the second copy's factor is
# rho with both axes reversed, a view.  This is K @ kron(rho, rho) @ K^dagger
# for the keep operator K of each local map, whose rows each hold one 1,
# without the 16x16 two-copy state.
_SECOND_COPY = {"even": (slice(None), slice(None)), "odd": (slice(None, None, -1),) * 2}


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

    theta, alpha and beta are floats or arrays that broadcast together; rho
    has their broadcast shape + (4, 4), one density matrix per element."""

    theta: float | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray
    rho: np.ndarray


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first element of ``values`` where ``bad`` holds, as a float."""
    values, bad = np.broadcast_arrays(values, bad)
    return float(values.flat[np.flatnonzero(bad)[0]])


def make_sigma(
    theta: float | np.ndarray, alpha: float | np.ndarray, beta: float | np.ndarray
) -> PairState:
    """Assemble the pair state, or a stack of them: theta and alpha are
    floats or arrays that broadcast against beta, a float or a 1-D array
    along the stack's last axis.  Every element is checked; positivity
    requires alpha <= |cos(t)sin(t)|."""
    thetas, alphas, betas = (np.asarray(value, dtype=float) for value in (theta, alpha, beta))
    if betas.ndim > 1:
        raise ValueError(f"beta must be a float or a 1-D array, got shape {betas.shape}")
    for name, values in (("theta", thetas), ("alpha", alphas), ("beta", betas)):
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {_first(values, ~finite)!r}")
    if (alphas < 0.0).any():
        raise ValueError(f"alpha must be non-negative, got {_first(alphas, alphas < 0.0)!r}")
    limits = _coherence_limit(thetas)
    over = alphas > limits + 1e-15
    if over.any():
        raise ValueError(
            f"alpha={_first(alphas, over)!r} violates positivity "
            f"(limit {_first(limits, over)!r} at theta={_first(thetas, over)!r})"
        )
    shape = np.broadcast_shapes(thetas.shape, alphas.shape, betas.shape)
    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = np.cos(thetas) ** 2
    rho[..., 3, 3] = np.sin(thetas) ** 2
    rho[..., 3, 0] = alphas * np.exp(-1j * betas)
    rho[..., 0, 3] = alphas * np.exp(1j * betas)
    return PairState(theta=_output(thetas), alpha=_output(alphas), beta=_output(betas), rho=rho)


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
    return (rho.real.reshape(rho.shape[:-2] + (16,)) * _ERROR_WEIGHTS).sum(axis=-1)


def phase_error(state: PairState) -> float | np.ndarray:
    """Phase-flip error rate of one pair (or of each state of a stack), matrix
    value cross-checked against the closed form (1 - 2*alpha*cos(beta))/2."""
    value = _phase_error_of_matrix(state.rho)
    _cross_check("phase error", value, 0.5 * (1.0 - 2.0 * state.alpha * np.cos(state.beta)))
    return _output(value)


def _survivor(state: PairState, parity: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    survivor = state.rho * state.rho[(..., *_SECOND_COPY[parity])]
    pass_prob = np.trace(survivor, axis1=-2, axis2=-1).real
    if not np.all(pass_prob > 0.0):
        raise ArithmeticError("parity projection annihilated the state")
    # normalized in place; numpy divides a complex by a real as this does,
    # scaling both parts by the reciprocal
    survivor *= (1.0 / pass_prob)[..., None, None]
    return survivor, _phase_error_of_matrix(survivor), pass_prob


def odd_parity_survivor(
    state: PairState,
) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Survivor of one odd-parity rejection round on two pairs.

    Returns (normalized survivor matrix, its phase error, pass probability),
    each stacked like the state; every phase error is cross-checked against
    its closed form (``_odd_survivor_error``).
    """
    limit = _coherence_limit(state.theta)
    degenerate = limit**2 == 0.0
    if np.any(degenerate):
        raise ValueError(
            f"degenerate theta={_first(state.theta, degenerate)!r}: no odd-parity survivors"
        )
    survivor, e_odd, pass_prob = _survivor(state, "odd")
    _cross_check("odd-parity error", e_odd, _odd_survivor_error(state.alpha, limit))
    return survivor, _output(e_odd), _output(pass_prob)


def even_parity_survivor(
    state: PairState,
) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Survivor of the even-parity branch (kept for the counterexample check)."""
    survivor, e_even, pass_prob = _survivor(state, "even")
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
    forms run on the full grid.  The dense matrices run over a strided
    (theta, alpha) subgrid, in one stacked state per strided theta that
    holds every strided alpha fraction: one odd-parity survivor call over
    every beta, which confirms for each (theta, alpha) that the survivor
    error does not depend on the coherence phase (one sweep each), and one
    single-pair phase error call over every stride-th beta, at which the
    survivor's mismatch to its closed form is also recorded.  The stride is
    a tenth of the grid, at least 1.  Only one theta's stack is held at a
    time.  The grid must have at least 1 point per axis.
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
    strided_fracs = fracs[::matrix_stride, None]  # a row per alpha fraction
    for theta, limit in zip(thetas[::matrix_stride], limits[::matrix_stride]):
        alpha = strided_fracs * limit
        closed = _odd_survivor_error(alpha, limit)
        # one stacked call each per theta; both raise on a matrix/closed-form
        # mismatch
        _, e_matrix, _ = odd_parity_survivor(make_sigma(theta, alpha, betas))
        phase_error(make_sigma(theta, alpha, checked))
        mismatch = np.abs(e_matrix[:, ::matrix_stride] - closed).max()
        max_mismatch = max(max_mismatch, float(mismatch))
        matrix_checks += alpha.size * checked.size
        spread = (e_matrix.max(axis=-1) - e_matrix.min(axis=-1)).max()
        max_spread = max(max_spread, float(spread))
        beta_sweeps += alpha.size

    return IterationReport(
        grid_points=grid_points**3,
        max_violation=max_violation,
        matrix_checks=matrix_checks,
        max_matrix_mismatch=max_mismatch,
        beta_sweeps=beta_sweeps,
        max_beta_spread=max_spread,
    )
