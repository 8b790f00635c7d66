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
from operator import add
from typing import Callable

from .channel import (
    CONVENTIONS,
    ExperimentParams,
    ProtocolParams,
    checked_float,
)
from .decoy import BoundViolationError
from .pipeline import VARIANTS, evaluate, mode_for_variant

__all__ = ["OptimizationSpec", "RestartRecord", "OptimizationResult", "optimize", "DELTA_CHOICES"]

DELTA_CHOICES = tuple(2.0 * math.pi / k for k in range(4, 33))

_INVALID = -1e30

# Nelder-Mead coefficients (reflection, expansion, contraction, shrink) and
# start-simplex steps, as scipy sets them; its 1 and 2 are floats here, which
# round every product as the ints do and save a conversion per product
_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# each move's trial point is a * centroid + b * worst vertex, b negated where
# scipy subtracts ((1 + rho) * xbar - rho * worst): x - y and x + (-y) round
# alike
_REFLECT = (1 + _RHO, -_RHO)
_EXPAND = (1 + _RHO * _CHI, -_RHO * _CHI)
_CONTRACT_OUT = (1 + _PSI * _RHO, -_PSI * _RHO)
_CONTRACT_IN = (1 - _PSI, _PSI)

# free variables of each mode and their search bounds; the search runs in log
# space for every variable but p_z, and a search point holds the values in
# this order (``_protocol`` reads them so)
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
# default search size of each mode: (mu_z, p) grid points per axis and the
# most Nelder-Mead restarts, from the best-scored cells in turn.  A default
# asymptotic search stops at its first restart that ends positive: the later
# ones end on the same optimum.  It needs more only near a cutoff, where every
# cell is negative and the grid ranks first the corner of lowest mu_z and p
# (the key length tends to zero from below there); clipping flattens that
# cell's start simplex onto the bounds, so its restart ends at zero.  A finite
# search splits its evaluation cap across its restarts, and its refinements
# still run to the cap (ROADMAP, Known defects), so it keeps all five.
_SEARCH_SIZE = {
    "finite": {"grid_mu": 12, "grid_p": 12, "restarts": 5},
    "asymptotic": {"grid_mu": 6, "grid_p": 6, "restarts": 5},
}


@dataclass(frozen=True)
class OptimizationSpec:
    """What to optimize and how hard to try.

    ``grid_mu``, ``grid_p`` and ``restarts`` left at None take the search
    size of the variant's mode.  An asymptotic variant scores a 6x6 grid and
    refines its best cells in turn until one ends with a positive key, at
    most five: one restart wherever the rate is positive.  The finite variant
    scores a 12x12 grid times ``grid_pz`` values of p_z and refines its five
    best cells.  A given size is kept in either mode, and ``restarts`` then
    refines exactly that many cells.  The sizes are resolved where the search
    runs, so ``dataclasses.replace(spec, variant=...)`` into the other mode
    takes that mode's sizes.

    ``budget`` is a soft cap on evaluations.  The grid scores at most
    ``budget`` cells, and no refinement starts once the budget is spent, but
    each refinement may take ``max(100, remaining // restarts)`` evaluations,
    so a search can pass it: the default finite search at table2/502 km
    spends 20,022 against 20,000, and an ``aopp`` search at rowF/240 km with
    two restarts and a budget of 100 spends 176 (36 cells, then refinements
    of 61 and 79).  ``test_budget_limits_evaluations`` holds a budget of
    500 only to 1,200.
    """

    variant: str
    delta_values: tuple[float, ...] | None = None
    grid_mu: int | None = None
    grid_p: int | None = None
    grid_pz: int = 3
    restarts: int | None = None
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
        if self.delta_values is not None:
            # each width is checked as the protocol's delta is, and stored as a float
            try:
                deltas = tuple(checked_float("delta", d) for d in self.delta_values)
            except (TypeError, ValueError):  # not iterable, or a width out of range
                deltas = ()
            if not deltas:
                raise ValueError(
                    "delta_values must be a non-empty set of widths in (0, 2*pi], "
                    f"got {self.delta_values!r}"
                )
            object.__setattr__(self, "delta_values", deltas)
        # an empty grid leaves no cell to start from; a negative restart count
        # would slice the scored cells from the end; a fractional size fails
        # deep in range() or a slice
        minima = {"grid_mu": 1, "grid_p": 1, "grid_pz": 1, "restarts": 0, "budget": 1}
        for name, least in minima.items():
            value = getattr(self, name)
            if value is None and name in _SEARCH_SIZE[mode_for_variant(self.variant)]:
                continue  # left to the mode's size
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
    (``np.argsort(kind="stable")``): the vertex a move replaces is inserted
    after every vertex whose value is not above its own, and only a shrink's
    vertices are sorted anew.  scipy's default kind agrees for up to three
    vertices but not for four or more on every platform.  ``x0`` and the
    bounds must be finite.  Returns ``(x, fun, nfev, converged)``;
    ``converged`` is False when the search stopped at ``maxfev``.

    A module-level function: ``refine`` looks it up by name at each call.
    """
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    n = len(x0)

    def clip(x: list[float]) -> list[float]:
        # np.clip against vector bounds: a coordinate equal to a bound becomes the bound
        out = []
        for v, low, high in zip(x, lo, hi):
            v = low if v <= low else v
            out.append(high if v >= high else v)
        return out

    def trial(move: tuple[float, float]) -> list[float]:
        # clip(a * xbar + b * worst) for the current centroid and worst
        # vertex, clipped in the same pass
        a, b = move
        out = []
        for c, w, low, high in zip(xbar, worst, lo, hi):
            v = a * c + b * w
            v = low if v <= low else v
            out.append(high if v >= high else v)
        return out

    x0 = clip(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    # a vertex past an upper bound is reflected inside, so clipping cannot
    # collapse the simplex onto the bound
    sim = [clip([2 * h - v if v > h else v for v, h in zip(x, hi)]) for x in sim]
    calls = min(n + 1, max(maxfev, 0))
    fsim = [func(x) for x in sim[:calls]] + [math.inf] * (n + 1 - calls)
    # scipy sorts the start simplex twice; a stable sort gives the same order once
    sim, fsim = _by_value(sim, fsim)

    # calls are counted as they are made; a move that would pass maxfev ends
    # the search before its call, with the simplex still in order
    while calls < maxfev:
        best, f_best = sim[0], fsim[0]
        # scipy's stop test, one vertex at a time: its value within fatol of
        # the best and each coordinate within xatol (NaN fails either); the
        # search ends when no vertex fails
        for k in range(1, n + 1):
            if not abs(f_best - fsim[k]) <= fatol:
                break
            for v, b in zip(sim[k], best):
                if not abs(v - b) <= xatol:
                    break
            else:
                continue
            break
        else:
            break
        # the centroid of all vertices but the worst, summed left to right
        # as np.add.reduce sums the rows of scipy's simplex array
        xbar = best
        for x in sim[1:-1]:
            xbar = map(add, xbar, x)
        xbar = [c / n for c in xbar]
        worst = sim[-1]
        x = trial(_REFLECT)
        fx = func(x)
        calls += 1
        if fx < f_best:
            if calls >= maxfev:
                break
            xe = trial(_EXPAND)
            fxe = func(xe)
            calls += 1
            if fxe < fx:
                x, fx = xe, fxe
        elif not fx < fsim[-2]:
            if calls >= maxfev:
                break
            if fx < fsim[-1]:  # outside contraction
                xc = trial(_CONTRACT_OUT)
                fxc = func(xc)
                calls += 1
                shrink = not fxc <= fx
            else:  # inside contraction
                xc = trial(_CONTRACT_IN)
                fxc = func(xc)
                calls += 1
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    # the vertex moves before it is scored, so a cap reached
                    # here leaves it paired with its old value
                    sim[j] = clip([b + _SIGMA * (v - b) for v, b in zip(sim[j], best)])
                    if calls >= maxfev:
                        break
                    fsim[j] = func(sim[j])
                    calls += 1
                sim, fsim = _by_value(sim, fsim)
                continue
            x, fx = xc, fxc
        # the new vertex replaces the worst where a stable sort puts it: after
        # every vertex whose value is not above its own.  It is never NaN: a
        # move keeps a value only once it has compared below another
        del sim[-1], fsim[-1]
        k = n
        while k and not fsim[k - 1] <= fx:
            k -= 1
        sim.insert(k, x)
        fsim.insert(k, fx)

    # NaNs sort last, and np.min (scipy's fun) returns NaN if there is one
    return sim[0], fsim[-1] if fsim[-1] != fsim[-1] else fsim[0], calls, calls < maxfev


def _by_value(sim: list[list[float]], fsim: list[float]) -> tuple[list[list[float]], list[float]]:
    """Vertices and values in ``np.argsort(fsim, kind="stable")`` order: by
    value, NaN last, ties (0.0 and -0.0 too) in their old order.  The order of
    ties decides which vertex the next move replaces."""
    # a NaN compares neither below nor above anything, so its key is (True, nan)
    order = sorted(range(len(fsim)), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
    return [sim[i] for i in order], [fsim[i] for i in order]


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
    n_restarts = _search_size(spec, "restarts")
    until_positive = mode == "asymptotic" and spec.restarts is None
    # asymptotic variants never touch the phase slice
    default_deltas = DELTA_CHOICES if mode == "finite" else (ProtocolParams.delta,)
    deltas = default_deltas if spec.delta_values is None else spec.delta_values
    variant, vacuum_credit, convention = spec.variant, spec.vacuum_credit, spec.convention
    evaluations = 0  # score calls: the grid's, each refinement's nfev, each rescan start

    # a collapsed or bound-clipped simplex asks for the same floats again a few
    # calls later; each call still counts as an evaluation, so the search
    # makes the same decisions while each distinct point is scored once.  A
    # point is the tuple of its values in ``names`` order.
    @functools.lru_cache(maxsize=16)
    def score(point: tuple[float, ...], delta: float) -> float:
        if mode == "finite":
            # graded penalty steers the simplex back into the valid ordering
            mu_z, _, _, mu1, mu2 = point
            violation = max(0.0, mu1 - mu2 + 1e-6) + max(0.0, mu1 + mu2 - 0.999 * mu_z)
            if violation > 0.0:
                return _INVALID * (1.0 + violation)
        try:
            proto = _protocol(point, delta)
            return evaluate(exp, proto, variant, vacuum_credit, convention).key.key_length
        except (BoundViolationError, ValueError):
            return _INVALID

    def as_point(values: dict[str, float]) -> tuple[float, ...]:
        return tuple([values[n] for n in names])

    # every variable but p_z is searched in log space
    logged = [n != "p_z" for n in names]
    linear = [i for i, log in enumerate(logged) if not log]

    def encode(values: dict[str, float]) -> list[float]:
        return [math.log(values[n]) if log else values[n] for n, log in zip(names, logged)]

    def unlog(vec: list[float]) -> tuple[float, ...]:
        # exp over the whole vector in one pass, then the linear ones put back
        point = list(map(math.exp, vec))
        for i in linear:
            point[i] = vec[i]
        return tuple(point)

    def decode(vec: list[float]) -> dict[str, float]:
        return dict(zip(names, unlog(vec)))

    low, high = ({n: b[side] for n, b in bounds.items()} for side in (0, 1))
    nm_bounds = list(zip(encode(low), encode(high)))
    # pivot on the middle slice width, or the start's if it is one of them, then
    # rescan the discrete set from the incumbent optimum rather than re-gridding per slice
    cells = _grid_cells(spec, bounds) if start is None else [{n: getattr(start, n) for n in names}]
    pivot = start.delta if start is not None and start.delta in deltas else deltas[len(deltas) // 2]
    best_value, best_values, best_delta = -math.inf, None, pivot
    restarts: list[RestartRecord] = []

    def refine(start: dict[str, float], delta: float, start_value: float) -> None:
        nonlocal best_value, best_values, best_delta, evaluations
        maxfev = max(100, (spec.budget - evaluations) // max(1, n_restarts))
        x, fun, nfev, converged = minimize(
            lambda vec: -score(unlog(vec), delta),
            encode(start),
            nm_bounds,
            maxfev=maxfev,
            xatol=1e-4,
            fatol=_FATOL[mode],
        )
        evaluations += nfev
        final, final_value = decode(x), -fun
        if final_value < start_value:  # refinement never loses its starting cell
            final, final_value = dict(start), start_value
        record = RestartRecord(dict(start), start_value, final, final_value, nfev, converged)
        restarts.append(record)
        if final_value > best_value:
            best_value, best_values, best_delta = final_value, final, delta

    scored = [(score(as_point(cell), pivot), cell) for cell in cells[: spec.budget]]
    evaluations = len(scored)
    scored.sort(key=lambda item: item[0], reverse=True)
    for cell_value, cell in scored[:n_restarts]:
        if cell_value <= _INVALID or evaluations >= spec.budget:
            break
        if until_positive and best_value > 0.0:
            break
        refine(cell, pivot, cell_value)
    if best_values is None and scored[0][0] > _INVALID:
        # no restart ran (the grid spent the budget, or restarts=0): the best cell stands
        best_value, best_values = scored[0]
    for delta in deltas:
        if best_values is not None and delta != pivot and evaluations < spec.budget:
            start_value = score(as_point(best_values), delta)
            evaluations += 1
            refine(best_values, delta, start_value)

    proto = _protocol(as_point(best_values or cells[0]), best_delta)
    key_length, rate = min(max(best_value, _INVALID), 0.0), 0.0
    if best_value > 0.0:
        final_key = evaluate(exp, proto, variant, vacuum_credit, convention).key
        key_length, rate = final_key.key_length, final_key.rate
    return OptimizationResult(
        proto, key_length, rate, tuple(restarts), evaluations, score.cache_info().hits
    )


def _protocol(point: tuple[float, ...], delta: float) -> ProtocolParams:
    """The protocol at a search point, its values in ``_BOUNDS`` order:
    (mu_z, p_send) with p_z 1 and the default decoys, or (mu_z, p_send, p_z,
    mu1, mu2)."""
    if len(point) == 2:
        mu_z, p_send = point
        return ProtocolParams(1.0, p_send, mu_z, ProtocolParams.decoy_intensities, delta)
    mu_z, p_send, p_z, mu1, mu2 = point
    return ProtocolParams(p_z, p_send, mu_z, (0.0, mu1, mu2), delta)


def _search_size(spec: OptimizationSpec, name: str) -> int:
    """The spec's ``grid_mu``, ``grid_p`` or ``restarts``, or its mode's size if unset."""
    value = getattr(spec, name)
    return _SEARCH_SIZE[mode_for_variant(spec.variant)][name] if value is None else value


def _grid_cells(
    spec: OptimizationSpec, bounds: dict[str, tuple[float, float]]
) -> list[dict[str, float]]:
    """Log-spaced (mu_z, p) grid crossed with a linear p_z grid; decoy
    intensities start from fixed heuristics and move only in refinement."""
    mus = _geomspace(*bounds["mu_z"], _search_size(spec, "grid_mu"))
    ps = _geomspace(*bounds["p_send"], _search_size(spec, "grid_p"))
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
