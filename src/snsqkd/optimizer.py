"""Key-rate maximization over protocol parameters.

Coarse grid over (mu_z, p) in log space crossed with a linear grid over p_z
when it is free, followed by Nelder-Mead refinement from the best grid
cells.  The phase-slice width is scanned over a discrete set of fractions of
the circle.  The objective is the unclamped key length, so the search keeps
a gradient direction even where the rate floors at zero.

The refinement, ``minimize``, reproduces scipy's bounded Nelder-Mead
(``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)``) bit for bit
on lists of Python floats, so the search needs neither ``scipy.optimize`` nor
numpy.  Tie rule: vertices with equal values keep their order (a stable
sort, NaN last), as ``np.argsort(kind="stable")`` orders them.  scipy sorts
with ``np.argsort``'s default kind, which gives the same order for up to
three vertices (every asymptotic search) but is not stable for four or more
on every platform; the stable sort makes each search take the same steps on
every CPU.
"""

from __future__ import annotations

import decimal
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

from .channel import CONVENTIONS, ExperimentParams, ProtocolParams
from .decoy import BoundViolationError
from .pipeline import VARIANTS, evaluate, mode_for_variant
from .postproc import KeyResult

__all__ = ["OptimizationSpec", "RestartRecord", "OptimizationResult", "optimize", "DELTA_CHOICES"]

DELTA_CHOICES = tuple(2.0 * math.pi / k for k in range(4, 33))

_INVALID = -1e30

# Nelder-Mead coefficients (reflection, expansion, contraction, shrink) and
# start-simplex steps, as scipy sets them
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

# free variables of each mode and their search bounds; the search runs in log
# space for every variable but p_z
_BOUNDS = {
    "finite": {
        "mu_z": (0.05, 1.2),
        "p_send": (0.005, 0.5),
        "p_z": (0.2, 0.99),
        "mu1": (0.005, 0.2),
        "mu2": (0.02, 0.45),
    },
    "asymptotic": {"mu_z": (0.05, 1.5), "p_send": (0.005, 0.6)},
}
# Nelder-Mead function-value tolerance of each mode; every refinement also
# needs its simplex within 1e-4 in the search space.  An absolute 1e-12 on key
# lengths of 1e5-1e9 (an ulp of 1e-11 to 1e-7) holds only when all vertices
# agree to the bit, so rounding noise can keep the simplex cycling to maxfev:
# asymptotic searches stop on the simplex alone.  The finite search stalls the
# same way (ROADMAP, Known defects) but keeps 1e-12 until the benchmark's
# evaluation reference is re-recorded.
_FATOL = {"finite": 1e-12, "asymptotic": math.inf}


@dataclass(frozen=True)
class OptimizationSpec:
    """What to optimize and how hard to try."""

    variant: str
    delta_values: tuple[float, ...] | None = None
    grid_mu: int = 12
    grid_p: int = 12
    grid_pz: int = 3
    restarts: int = 5
    budget: int = 20000
    seed: int = 0
    vacuum_credit: bool = False
    convention: str = "visibility"

    def __post_init__(self) -> None:
        # refused here: inside the search a ValueError only scores a point invalid
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}; choose from {CONVENTIONS}")
        if self.delta_values is not None and not (
            self.delta_values and all(0.0 < d <= 2.0 * math.pi for d in self.delta_values)
        ):
            raise ValueError(
                "delta_values must be a non-empty set of widths in (0, 2*pi], "
                f"got {self.delta_values!r}"
            )
        # an empty grid leaves no cell to start from; a negative restart count
        # would slice the scored cells from the end; a fractional size fails
        # deep in range() or a slice
        minima = {"grid_mu": 1, "grid_p": 1, "grid_pz": 1, "restarts": 0, "budget": 1}
        for name, least in minima.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")


@dataclass(frozen=True)
class RestartRecord:
    start: dict[str, float]
    start_value: float
    final: dict[str, float]
    final_value: float
    evaluations: int
    converged: bool  # False when the refinement ended at its evaluation cap


@dataclass(frozen=True)
class OptimizationResult:
    params: ProtocolParams
    key_length: float
    rate: float
    restarts: tuple[RestartRecord, ...]
    evaluations: int
    repeated: int  # evaluations answered from the memo, not by ``evaluate``

    @property
    def positive(self) -> bool:
        return self.key_length > 0.0


class _Spent(Exception):
    """The evaluation cap was reached before a call."""


def minimize(
    func: Callable[[list[float]], float],
    x0: list[float],
    bounds: list[tuple[float, float]],
    *,
    maxfev: int,
    xatol: float,
    fatol: float,
) -> tuple[list[float], float, int, bool]:
    """Bounded Nelder-Mead from ``x0``, on lists of floats.

    Reproduces ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    bounds=bounds, options={"maxfev": maxfev, "xatol": xatol, "fatol":
    fatol})`` step for step and bit for bit: the same start simplex (clipped
    after vertices above an upper bound are reflected inside), the same
    moves and coefficients, every trial point clipped to the box, the same
    stop test and the same vertex order.  Tied vertices keep their order
    (``np.argsort(kind="stable")``); scipy's default kind agrees for up to
    three vertices but not for four or more on every platform.  ``x0`` and
    the bounds must be finite.  Returns ``(x, fun, nfev, converged)``;
    ``converged`` is False when the search stopped at ``maxfev``.

    A module-level function: ``refine`` looks it up by name at each call.
    """
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    n = len(x0)
    calls = 0

    def clip(x: list[float]) -> list[float]:
        # np.clip against vector bounds: a coordinate equal to a bound becomes the bound
        out = []
        for v, low, high in zip(x, lo, hi):
            v = low if v <= low else v
            out.append(high if v >= high else v)
        return out

    def f(x: list[float]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _Spent
        calls += 1
        return func(x)

    x0 = clip(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    # a vertex past an upper bound is reflected inside, so clipping cannot
    # collapse the simplex onto the bound
    sim = [clip([2 * h - v if v > h else v for v, h in zip(x, hi)]) for x in sim]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Spent:
        pass
    # scipy sorts the start simplex twice; a stable sort gives the same order once
    sim, fsim = _by_value(sim, fsim)

    while calls < maxfev:
        try:
            best, f_best = sim[0], fsim[0]
            if all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)) and all(
                abs(f_best - fx) <= fatol for fx in fsim[1:]
            ):
                break
            # the centroid of all vertices but the worst, summed left to right
            # as np.add.reduce sums the rows of scipy's simplex array
            xbar = sim[0]
            for x in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            worst = sim[-1]
            xr = clip([(1 + _RHO) * c - _RHO * w for c, w in zip(xbar, worst)])
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = clip([(1 + _RHO * _CHI) * c - _RHO * _CHI * w for c, w in zip(xbar, worst)])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = clip([(1 + _PSI * _RHO) * c - _PSI * _RHO * w for c, w in zip(xbar, worst)])
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = clip([(1 - _PSI) * c + _PSI * w for c, w in zip(xbar, worst)])
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    # the vertex moves before it is scored, so a cap reached
                    # here leaves it paired with its old value
                    sim[j] = clip([b + _SIGMA * (v - b) for v, b in zip(sim[j], best)])
                    fsim[j] = f(sim[j])
        except _Spent:
            pass
        sim, fsim = _by_value(sim, fsim)

    # NaNs sort last, and np.min (scipy's fun) returns NaN if there is one
    fun = math.nan if any(fx != fx for fx in fsim) else fsim[0]
    return sim[0], fun, calls, calls < maxfev


def _by_value(sim: list[list[float]], fsim: list[float]) -> tuple[list[list[float]], list[float]]:
    """Vertices and values in ``np.argsort(fsim, kind="stable")`` order: by
    value, NaN last, ties (0.0 and -0.0 too) in their old order.  The order of
    ties decides which vertex the next move replaces."""
    # a NaN compares neither below nor above anything, so its key is (True, nan)
    order = sorted(range(len(fsim)), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
    return [sim[i] for i in order], [fsim[i] for i in order]


def _make_proto(values: dict[str, float], delta: float) -> ProtocolParams:
    mu1 = values.get("mu1", 0.02)
    mu2 = values.get("mu2", 0.06)
    return ProtocolParams(
        p_z=values.get("p_z", 1.0),
        p_send=values["p_send"],
        mu_z=values["mu_z"],
        decoy_intensities=(0.0, mu1, mu2),
        delta=delta,
    )


def optimize(spec: OptimizationSpec, exp: ExperimentParams,
             start: ProtocolParams | None = None) -> OptimizationResult:
    """Maximize the spec's variant over the free protocol parameters.

    Deterministic for a given spec: the search needs no randomness and
    ignores ``spec.seed``.  Returns a zero-length result, not an error, when
    no candidate produces a positive key.  A ``start``, such as the optimum at
    a neighbouring distance, replaces the grid, and its width the pivot's.
    """
    mode = mode_for_variant(spec.variant)
    bounds = _BOUNDS[mode]
    names = list(bounds)
    # asymptotic variants never touch the phase slice
    default_deltas = DELTA_CHOICES if mode == "finite" else (ProtocolParams.delta,)
    deltas = default_deltas if spec.delta_values is None else spec.delta_values
    evaluations = 0

    def key(proto: ProtocolParams) -> KeyResult:
        return evaluate(
            exp, proto, spec.variant, vacuum_credit=spec.vacuum_credit, convention=spec.convention
        ).key

    # a collapsed or bound-clipped simplex asks for the same floats again a few
    # calls later; each call still counts as an evaluation, so the search
    # makes the same decisions while each distinct point is scored once
    @functools.lru_cache(maxsize=16)
    def score(items: tuple[tuple[str, float], ...], delta: float) -> float:
        values = dict(items)
        if "mu1" in values:
            # graded penalty steers the simplex back into the valid ordering
            mu1, mu2 = values["mu1"], values["mu2"]
            violation = max(0.0, mu1 - mu2 + 1e-6) + max(0.0, mu1 + mu2 - 0.999 * values["mu_z"])
            if violation > 0.0:
                return _INVALID * (1.0 + violation)
        try:
            return key(_make_proto(values, delta)).key_length
        except (BoundViolationError, ValueError):
            return _INVALID

    def objective(values: dict[str, float], delta: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return score(tuple(values.items()), delta)

    def encode(values: dict[str, float]) -> list[float]:
        return [values[n] if n == "p_z" else math.log(values[n]) for n in names]

    def decode(vec: list[float]) -> dict[str, float]:
        return {n: x if n == "p_z" else math.exp(x) for n, x in zip(names, vec)}

    low, high = ({n: b[side] for n, b in bounds.items()} for side in (0, 1))
    nm_bounds = list(zip(encode(low), encode(high)))
    # pivot on the middle slice width, or the start's if it is one of them, then
    # rescan the discrete set from the incumbent optimum rather than re-gridding per slice
    cells = _grid_cells(spec, bounds) if start is None else [{n: getattr(start, n) for n in names}]
    pivot = start.delta if start is not None and start.delta in deltas else deltas[len(deltas) // 2]
    best_value, best_values, best_delta = -math.inf, None, pivot
    restarts: list[RestartRecord] = []

    def refine(start: dict[str, float], delta: float, start_value: float) -> None:
        nonlocal best_value, best_values, best_delta
        maxfev = max(100, (spec.budget - evaluations) // max(1, spec.restarts))
        x, fun, nfev, converged = minimize(
            lambda vec: -objective(decode(vec), delta),
            encode(start),
            nm_bounds,
            maxfev=maxfev,
            xatol=1e-4,
            fatol=_FATOL[mode],
        )
        final, final_value = decode(x), -fun
        if final_value < start_value:  # refinement never loses its starting cell
            final, final_value = dict(start), start_value
        record = RestartRecord(dict(start), start_value, final, final_value, nfev, converged)
        restarts.append(record)
        if final_value > best_value:
            best_value, best_values, best_delta = final_value, final, delta

    scored = [(objective(cell, pivot), cell) for cell in cells[: spec.budget]]
    scored.sort(key=lambda item: item[0], reverse=True)
    for cell_value, cell in scored[: spec.restarts]:
        if cell_value <= _INVALID or evaluations >= spec.budget:
            break
        refine(cell, pivot, cell_value)
    if best_values is None and scored[0][0] > _INVALID:
        # no restart ran (the grid spent the budget, or restarts=0): the best cell stands
        best_value, best_values = scored[0]
    for delta in deltas:
        if best_values is not None and delta != pivot and evaluations < spec.budget:
            refine(best_values, delta, objective(best_values, delta))

    proto = _make_proto(best_values or cells[0], best_delta)
    key_length, rate = min(max(best_value, _INVALID), 0.0), 0.0
    if best_value > 0.0:
        final_key = key(proto)
        key_length, rate = final_key.key_length, final_key.rate
    return OptimizationResult(
        proto, key_length, rate, tuple(restarts), evaluations, score.cache_info().hits
    )


def _grid_cells(
    spec: OptimizationSpec, bounds: dict[str, tuple[float, float]]
) -> list[dict[str, float]]:
    """Log-spaced (mu_z, p) grid crossed with a linear p_z grid; decoy
    intensities start from fixed heuristics and move only in refinement."""
    mus = _geomspace(*bounds["mu_z"], spec.grid_mu)
    ps = _geomspace(*bounds["p_send"], spec.grid_p)
    if "p_z" not in bounds:
        return [{"mu_z": mu, "p_send": p} for mu in mus for p in ps]
    pzs = _linspace(*bounds["p_z"], spec.grid_pz)
    (lo1, hi1), (lo2, hi2) = bounds["mu1"], bounds["mu2"]
    cells = []
    for mu in mus:
        mu1 = min(max(0.05 * mu, lo1), hi1)
        mu2 = min(max(0.2 * mu, lo2, 2.0 * mu1), hi2)
        cells += [
            {"mu_z": mu, "p_send": p, "p_z": pz, "mu1": mu1, "mu2": mu2}
            for p in ps
            for pz in pzs
        ]
    return cells


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``np.linspace(lo, hi, num)`` bit for bit, for lo < hi."""
    if num == 1:
        return [lo]
    step = (hi - lo) / (num - 1)
    return [i * step + lo for i in range(num - 1)] + [hi]


def _geomspace(lo: float, hi: float, num: int) -> list[float]:
    """``np.geomspace(lo, hi, num)`` for 0 < lo < hi: exact ends, and powers
    of ten in between, which may differ from numpy's in the last bit."""
    if num == 1:
        return [lo]
    inner = _linspace(_log10(lo), _log10(hi), num)[1:-1]
    return [lo] + [10.0 ** y for y in inner] + [hi]


@functools.lru_cache(maxsize=None)
def _log10(x: float) -> float:
    """log10(x) correctly rounded on every platform; libm's ``math.log10``
    can be an ulp off (at 0.6), which moves a grid axis by up to 16 ulp."""
    return float(decimal.Decimal(x).log10(decimal.Context(prec=40)))
