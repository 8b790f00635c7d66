"""Channel and detector model.

Maps hardware parameters to the expected probabilities of effective events
(exactly one of Charlie's detectors clicking) for every window category:
signal windows with zero, one or two senders, and phase-post-selected decoy
windows.  Double clicks are discarded, never reassigned.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, get_args

from .mathcore import bessel_i0, simpson

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CONVENTIONS",
    "ExperimentParams",
    "PROTOCOL_KEYS",
    "ProtocolParams",
    "WindowRates",
    "arm_transmittance",
    "checked_float",
    "effective_rate_phase_averaged",
    "protocol_from_keys",
    "x_window_rates",
    "single_photon_quantities",
    "window_rates",
]

# Misalignment conventions: "visibility" folds the misalignment into the
# interference visibility V = 1 - 2*e_mis; "mixing" keeps ideal interference
# and mixes right/wrong detector outcomes with weight e_mis.
Convention = Literal["visibility", "mixing"]
CONVENTIONS: tuple[str, ...] = get_args(Convention)

X_QUAD_INTERVALS = 64

# The interval each checked number must lie in, as its error message shows
# it: a bracket closes an end, a parenthesis opens it, and every bound but
# 2*pi is a float literal.
_INTERVALS = {
    # ExperimentParams; the finite Chernoff tails take log(failure_prob/2),
    # which must not underflow to log(0), so the least failure_prob is 1e-323
    "dark_count": "[0, 1]", "detector_eff": "[0, 1]", "error_correction_f": "[1, inf)",
    "misalignment": "[0, 1]", "fiber_loss_db_km": "(0, inf)", "total_pulses": "[1, inf)",
    "failure_prob": "[1e-323, 1)", "distance_km": "[0, inf)",
    # ProtocolParams
    "p_z": "(0, 1]", "p_send": "[0, 1]", "mu_z": "(0, inf)", "delta": "(0, 2*pi]",
    # the decoy intensities as flat keys, each on its own
    "mu1": "(0, inf)", "mu2": "(0, inf)",
    # rate-function arguments (an infinite intensity makes the integrand NaN)
    "mu_k": "[0, inf)", "eta_arm": "[0, 1]",
}


def _bounds(text: str) -> tuple[float, float]:
    """The least and the greatest float inside an interval: an open end moves
    one float inward, so one chained comparison checks either kind."""
    low, high = (2.0 * math.pi if b == "2*pi" else float(b) for b in text[1:-1].split(", "))
    return (low if text[0] == "[" else math.nextafter(low, math.inf),
            high if text[-1] == "]" else math.nextafter(high, -math.inf))


_RANGES = {name: _bounds(text) for name, text in _INTERVALS.items()}


def _real(name: str, value: object) -> float:
    """``value`` as a float; a ValueError naming ``name`` if it is not a real
    number or lies beyond the float range.  ``numbers.Real`` admits ints,
    fractions and numpy's scalars without importing numpy; bool is refused,
    as no count or rate is True."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a fraction; its repr may be too long to print
        raise ValueError(f"{name} is a real number beyond the float range") from None


def checked_float(name: str, value: object) -> float:
    """``value`` as a float; a ValueError naming ``name`` if it is not a real
    number inside ``name``'s interval (NaN never is).  A float comes back as
    the same object."""
    x = value if type(value) is float else _real(name, value)
    low, high = _RANGES[name]
    if low <= x <= high:
        return x
    raise _out_of_range(name, value)


def _out_of_range(name: str, value: object) -> ValueError:
    return ValueError(f"{name} must be in {_INTERVALS[name]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentParams:
    """Hardware/channel constants for one link configuration, stored as floats."""

    dark_count: float            # per detector per time window
    detector_eff: float
    error_correction_f: float    # error-correction inefficiency, >= 1
    misalignment: float
    fiber_loss_db_km: float
    total_pulses: float
    failure_prob: float
    distance_km: float = 0.0     # total Alice-Bob separation

    def __post_init__(self) -> None:
        # set one by one, never through vars(self): a record whose __dict__ was
        # read loses CPython's fast attribute reads, which every evaluation uses
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            checked = checked_float(name, value)
            if checked is not value:
                object.__setattr__(self, name, checked)

    def at_distance(self, distance_km: float) -> "ExperimentParams":
        # a point grid moves each preset to hundreds of distances: the other
        # fields were checked when this record was built, so they are copied,
        # skipping __init__'s checks and dataclasses.replace's introspection
        moved = object.__new__(type(self))
        set_field = object.__setattr__
        for name in self.__dataclass_fields__:
            set_field(moved, name, getattr(self, name))
        set_field(moved, "distance_km", checked_float("distance_km", distance_km))
        return moved


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable source and protocol choices, stored as floats and float triples."""

    p_z: float                 # probability of committing to a signal window
    p_send: float              # sending probability inside a signal window
    mu_z: float                # signal intensity
    decoy_intensities: tuple[float, float, float] = (0.0, 0.02, 0.06)
    delta: float = 2.0 * math.pi / 16.0   # phase-slice width, radians

    def __post_init__(self) -> None:
        # the field order decides which of two faults is reported; a scalar
        # is checked as checked_float checks it, inline, since a search
        # builds a protocol for each of its evaluations
        for name, low, high in _PROTOCOL_CHECKS:
            value = getattr(self, name)
            if low is None:
                checked = _decoy_intensities(value)
            else:
                checked = value if type(value) is float else _real(name, value)
                if not low <= checked <= high:
                    raise _out_of_range(name, value)
            if checked is not value:
                object.__setattr__(self, name, checked)

    @property
    def mu1(self) -> float:
        return self.decoy_intensities[1]

    @property
    def mu2(self) -> float:
        return self.decoy_intensities[2]


# each protocol field in order with the least and greatest float it admits;
# the decoy triple, with None, has a check of its own
_PROTOCOL_CHECKS = tuple((name, *_RANGES.get(name, (None, None)))
                         for name in ProtocolParams.__dataclass_fields__)

# the flat keys that set a protocol: its scalar fields, with the decoys as mu1 and mu2
PROTOCOL_KEYS = ("p_z", "p_send", "mu_z", "mu1", "mu2", "delta")


def protocol_from_keys(values: Mapping[str, float], delta: float | None = None) -> ProtocolParams:
    """The protocol that flat keys set; ``p_send`` and ``mu_z`` are needed,
    ``p_z`` falls back to 1 and the rest to the field defaults.  A given
    ``delta`` replaces the keys' own."""
    _, mu1, mu2 = ProtocolParams.decoy_intensities
    return ProtocolParams(
        p_z=values.get("p_z", 1.0),
        p_send=values["p_send"],
        mu_z=values["mu_z"],
        decoy_intensities=(0.0, values.get("mu1", mu1), values.get("mu2", mu2)),
        delta=values.get("delta", ProtocolParams.delta) if delta is None else delta,
    )


def _decoy_intensities(values: object) -> tuple[float, float, float]:
    """The decoy intensities as three floats (the same tuple if it is one):
    vacuum, then 0 < mu1 < mu2 < inf."""
    try:
        nu0, nu1, nu2 = values
    except (TypeError, ValueError):  # not iterable, or not three items
        raise ValueError(f"decoy_intensities must hold three values, got {values!r}") from None
    if type(values) is tuple and type(nu0) is float and type(nu1) is float and type(nu2) is float:
        intensities = values
    else:
        nu0, nu1, nu2 = intensities = (_real("decoy_intensities[0]", nu0),
                                       _real("decoy_intensities[1]", nu1),
                                       _real("decoy_intensities[2]", nu2))
    if nu0 != 0.0:
        raise ValueError("decoy_intensities must start with the vacuum intensity 0")
    if not 0.0 < nu1 < nu2 < math.inf:
        raise ValueError(
            f"decoy intensities must satisfy 0 < mu1 < mu2 < inf, got {nu1!r}, {nu2!r}"
        )
    return intensities


@dataclass(slots=True)
class WindowRates:
    """Expected per-window effective-event probabilities at the signal intensity."""

    q_nn: float        # neither side sends
    q_c: float         # exactly one side sends mu_z
    q_dd: float        # both sides send mu_z, phase averaged
    y1: float          # single-photon yield (one-sided single photon)
    e1_raw: float      # single-photon phase error, asymptotic exact value
    eta_arm: float     # arm transmittance the rates were computed at


def arm_transmittance(exp: ExperimentParams) -> float:
    """Source-to-detection transmittance of one (symmetric) arm.

    Charlie sits at the midpoint, so each arm spans half the distance;
    detector efficiency is folded in.
    """
    return exp.detector_eff * 10.0 ** (-exp.fiber_loss_db_km * (exp.distance_km / 2.0) / 10.0)


def _visibility(exp: ExperimentParams, convention: Convention) -> tuple[float, float]:
    """Interference visibility and right/wrong detector mixing weight."""
    if convention == "visibility":
        return 1.0 - 2.0 * exp.misalignment, 0.0
    if convention == "mixing":
        return 1.0, exp.misalignment
    raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")


def effective_rate_phase_averaged(
    mu_a: float,
    mu_b: float,
    exp: ExperimentParams,
    eta_arm: float,
    convention: Convention = "visibility",
) -> float:
    """Probability of exactly one click, averaged over a uniform phase difference.

    Closed form 2(1-d) e^{-S/2} I0(kappa) - 2(1-d)^2 e^{-S} with
    S = eta*(mu_a+mu_b) and kappa = eta*sqrt(mu_a*mu_b)*V.
    """
    # inline, not through checked_float: every evaluation computes two to
    # four of these rates, and a call would cost about 2 % of an asymptotic one
    if not (0.0 <= mu_a < math.inf and 0.0 <= mu_b < math.inf):  # also refuses NaN
        raise ValueError(f"intensities must be in [0, inf), got mu_a={mu_a!r}, mu_b={mu_b!r}")
    if not 0.0 <= eta_arm <= 1.0:
        raise ValueError(f"eta_arm must be in [0, 1], got {eta_arm!r}")
    s = eta_arm * (mu_a + mu_b)
    vis, _ = _visibility(exp, convention)
    kappa = eta_arm * math.sqrt(mu_a * mu_b) * abs(vis)
    quiet = 1.0 - exp.dark_count
    return 2.0 * quiet * math.exp(-0.5 * s) * bessel_i0(kappa) - 2.0 * quiet * quiet * math.exp(-s)


def x_window_rates(
    mu_k: float,
    delta: float,
    exp: ExperimentParams,
    eta_arm: float,
    convention: Convention = "visibility",
) -> float:
    """Wrong-click rate t_x of phase-post-selected decoy windows.

    Both sides send mu_k; the announced phase difference is post-selected into
    |d| <= delta/2 (the slice around pi is symmetric and identical, so the
    integral runs over the zero slice only).  t_x is the probability, per
    post-selected window, that only the wrong detector clicked (the mixing
    convention mixes in a share of right-only clicks).

    The integrand is even in d, so Simpson's rule with ``X_QUAD_INTERVALS``
    intervals runs over the half slice [0, delta/2].  Each detector's click
    probability is formed with expm1, so a rate far below one keeps its
    relative precision instead of being a difference of numbers near one.
    """
    mu_k = checked_float("mu_k", mu_k)
    delta = checked_float("delta", delta)
    eta_arm = checked_float("eta_arm", eta_arm)
    vis, mix = _visibility(exp, convention)
    return _x_window_integral(mu_k, delta, exp.dark_count, vis, mix, eta_arm)


# A search holds mu1 on its bound, and a slice-width refinement holds delta,
# so most finite evaluations ask again for the previous one's t_x: one entry
# answers them, and every other call still reaches ``simpson``.  The key is
# every number the integral reads, all floats (``x_window_rates`` converts
# its arguments, ExperimentParams its fields), so a hit returns the bits a
# fresh call would.  Floats equal under == differ only as 0.0 and -0.0, which
# reach the result only when d = 0 and eta_arm * mu_k = 0; then every
# integrand value is a signed zero, the weighted sum (started at +0.0) is
# +0.0, and t_x is -0.0 for either sign.
@functools.lru_cache(maxsize=1)
def _x_window_integral(
    mu_k: float, delta: float, dark_count: float, vis: float, mix: float, eta_arm: float
) -> float:
    """t_x of ``x_window_rates`` from checked floats, the convention's
    visibility and mixing weight in place of the convention."""
    # imported here: only the finite variant integrates, so the asymptotic
    # ones never load numpy
    import numpy as np

    base = math.log1p(-dark_count) - eta_arm * mu_k
    half = 0.5 * delta

    def clicks_alone(sign: float) -> float:
        """Probability that only the wrong (sign 1) or only the right (sign -1,
        the one the interference favours) detector clicks."""
        def integrand(phase: np.ndarray) -> np.ndarray:
            # this detector stays dark with log-probability base + swing, the
            # other with base - swing; expm1 negates this one's click probability
            swing = (sign * eta_arm * mu_k * vis) * np.cos(phase)
            return np.expm1(base + swing) * np.exp(base - swing)
        return simpson(integrand, 0.0, half, X_QUAD_INTERVALS) / -half

    t_x = clicks_alone(1.0)
    if mix > 0.0:
        t_x = (1.0 - mix) * t_x + mix * clicks_alone(-1.0)
    return t_x


def single_photon_quantities(exp: ExperimentParams, eta_arm: float) -> tuple[float, float]:
    """Yield and phase error of a one-sided single photon.

    A detected photon (probability eta_arm) clicks one detector and the other
    must stay dark; a lost photon leaves dark counts only, which carry no
    phase information.
    """
    eta_arm = checked_float("eta_arm", eta_arm)
    d = exp.dark_count
    y1 = eta_arm * (1.0 - d) + (1.0 - eta_arm) * 2.0 * d * (1.0 - d)
    if y1 == 0.0:
        return 0.0, 0.5
    e1 = (eta_arm * exp.misalignment * (1.0 - d) + (1.0 - eta_arm) * d * (1.0 - d)) / y1
    return y1, e1


# The last link's constants: (ExperimentParams, arm transmittance,
# single-photon yield and error, vacuum rate).  Every point of a search shares
# one ExperimentParams, so one entry matched by identity answers them; one
# tuple, so a concurrent caller reads the old entry or the new one whole.
_last_link: tuple = (None,)


def window_rates(
    exp: ExperimentParams,
    proto: ProtocolParams,
    convention: Convention = "visibility",
) -> WindowRates:
    """Assemble the signal-window rates the counting formulas consume."""
    global _last_link
    link = _last_link
    if link[0] is exp:
        _, eta, y1, e1, q_nn = link
    else:
        eta = arm_transmittance(exp)
        y1, e1 = single_photon_quantities(exp, eta)
        # no intensity: the vacuum rate is the same in either convention
        q_nn = effective_rate_phase_averaged(0.0, 0.0, exp, eta, convention)
        _last_link = (exp, eta, y1, e1, q_nn)
    # q_c's rate refuses an unknown convention, on a memo hit too
    return WindowRates(
        q_nn=q_nn,
        q_c=effective_rate_phase_averaged(proto.mu_z, 0.0, exp, eta, convention),
        q_dd=effective_rate_phase_averaged(proto.mu_z, proto.mu_z, exp, eta, convention),
        y1=y1,
        e1_raw=e1,
        eta_arm=eta,
    )
