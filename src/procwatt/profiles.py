"""Power-profile models for a process facing CPU competition.

A profile maps the competition level p (percent of the CPU used by other
processes) to the watts drawn by the observed process.  Two families are
supported: an affine one, W(p) = a + b*p, and an n-th-root one,
W(p) = c + d*p**(1/n).  The module also carries the classic machine-level
utilization model and trapezoidal energy integration over power traces.

Units are fixed throughout the package: watts, seconds, joules, CPU percent
in [0, 100].  Machine utilization is a fraction in [0, 1]; converting from
percent is the caller's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from numbers import Real
from typing import Union

import numpy as np

from .errors import (
    DomainError,
    InputError,
    InsufficientDataError,
    OrderingError,
    SingularityError,
)


def _number(name, value, lo=None, hi=None, *, open_lo=False, open_hi=False, integer=False,
            error=InputError):
    """value checked against its field's rule: a float, or for an integer field
    the exact int (an integral float such as 2.0 counts as an integer).

    A bool, a string or any other non-Real, a number beyond the float range,
    NaN, +-inf, a value outside lo..hi (open at an end with open_lo/open_hi)
    and, for an integer field, a fraction each raise error naming the field.
    """
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise error(f"{name} is an integer beyond the float range") from None
        if (
            math.isfinite(number)
            and (lo is None or (lo < number if open_lo else lo <= number))
            and (hi is None or (number < hi if open_hi else number <= hi))
            and not (integer and int(value) != value)
        ):
            return int(value) if integer else number
    if integer:
        rule = "must be an integer" + (
            "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        )
    elif hi is not None:
        rule = f"must lie in {'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    elif lo is not None:
        rule = f"must be finite and {'>' if open_lo else '>='} {lo}"
    else:
        rule = "must be finite"
    raise error(f"{name} {rule}, got {value!r}")


def _store(obj, name, *bounds, **rule):
    """Check a frozen dataclass's field with _number, store and return the result."""
    value = _number(name, getattr(obj, name), *bounds, **rule)
    object.__setattr__(obj, name, value)
    return value


@dataclass(frozen=True)
class LinearProfile:
    """W(p) = a + b*p.  a is the intercept in watts, b the slope in W/percent."""

    a: float
    b: float

    def __post_init__(self):
        _store(self, "a")
        _store(self, "b")


@dataclass(frozen=True)
class NRootProfile:
    """W(p) = c + d*p**(1/n) with integer root degree n >= 2."""

    c: float
    d: float
    n: int

    def __post_init__(self):
        _store(self, "c")
        _store(self, "d")
        _store(self, "n", 2, integer=True)

    @property
    def k(self) -> float:
        """Exponent 1 - 1/n of the derivative's denominator; lies in (0, 1)."""
        return 1.0 - 1.0 / self.n


PowerProfile = Union[LinearProfile, NRootProfile]


def evaluate(profile: PowerProfile, p: float) -> float:
    """Watts drawn at competition level p (percent).

    Defined at p = 0, where it returns the intercept.  Negative p is outside
    the model's domain.
    """
    if not p >= 0:
        raise DomainError(f"competition level must be >= 0, got {p}")
    if isinstance(profile, LinearProfile):
        return profile.a + profile.b * p
    if isinstance(profile, NRootProfile):
        return profile.c + profile.d * p ** (1.0 / profile.n)
    raise InputError(f"not a power profile: {profile!r}")


def derivative(profile: PowerProfile, p: float) -> float:
    """Rate of change of the profile in watts per percentage point.

    Constant (b) for the linear family.  For the n-root family the derivative
    d / (n * p**(1 - 1/n)) is unbounded as p -> 0, so p must be positive.
    """
    if not p >= 0:
        raise DomainError(f"competition level must be >= 0, got {p}")
    if isinstance(profile, LinearProfile):
        return profile.b
    if isinstance(profile, NRootProfile):
        if p == 0:
            raise SingularityError("n-root derivative is unbounded at p = 0")
        return profile.d / (profile.n * p ** (1.0 - 1.0 / profile.n))
    raise InputError(f"not a power profile: {profile!r}")


@dataclass(frozen=True)
class ReferenceMachineModel:
    """Whole-machine utilization model: P(u) = (p_max - p_idle)*u + p_idle."""

    p_idle: float
    p_max: float

    def __post_init__(self):
        _store(self, "p_idle", 0)
        _store(self, "p_max")
        if self.p_idle > self.p_max:
            raise InputError(f"need p_idle <= p_max, got p_idle={self.p_idle}, p_max={self.p_max}")


def machine_power(model: ReferenceMachineModel, u: float) -> float:
    """Machine watts at utilization fraction u in [0, 1]."""
    u = _number("utilization", u, 0, 1, error=DomainError)
    return (model.p_max - model.p_idle) * u + model.p_idle


def integrate_energy(samples) -> float:
    """Energy in joules of a (timestamp, watts) series, by the trapezoidal rule.

    Parameters
    ----------
    samples : sequence of (t, power) pairs or array of shape (n, 2)
        Timestamps in seconds, never decreasing; powers in watts, >= 0.
        A repeated timestamp is a zero-width step and adds 0 J.

    Returns
    -------
    float
        Trapezoidal approximation of the integral of power over the span.
        Exact for piecewise-linear power.
    """
    try:
        if not isinstance(samples, (list, tuple, np.ndarray)):
            samples = list(samples)
        arr = np.asarray(samples, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected numeric (t, power) pairs: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError(f"expected (t, power) pairs, got array of shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 samples to integrate, got {arr.shape[0]}"
        )
    t = arr[:, 0]
    power = arr[:, 1]
    if not np.isfinite(arr).all():
        raise InputError("samples must be finite")
    steps = np.diff(t)
    if (steps < 0).any():
        raise OrderingError("timestamps must not decrease")
    if (power < 0).any():
        raise DomainError("powers must be non-negative")
    steps *= 0.5  # in place, the same IEEE ops in the same order as 0.5 * dt * (p1 + p0)
    steps *= power[1:] + power[:-1]
    return float(np.sum(steps))


def profile_to_dict(profile: PowerProfile) -> dict:
    """JSON-ready form: {"kind": "linear", ...} or {"kind": "nroot", ...}."""
    if isinstance(profile, LinearProfile):
        return {"kind": "linear", "a": profile.a, "b": profile.b}
    if isinstance(profile, NRootProfile):
        return {"kind": "nroot", "c": profile.c, "d": profile.d, "n": profile.n}
    raise InputError(f"not a power profile: {profile!r}")


def _document(value):
    """The JSON-ready form of a result: a profile as its profile_to_dict
    document, any other dataclass as {field: document} in declaration order,
    a tuple or list as a list, a dict as a new dict, anything else as itself.

    A report's JSON object is therefore its dataclass's fields.  Content that
    must stay out of the default output is added beside this document under
    the flag that asks for it, not as a dataclass field.
    """
    if isinstance(value, (LinearProfile, NRootProfile)):
        return profile_to_dict(value)
    if is_dataclass(value):
        return {field.name: _document(getattr(value, field.name)) for field in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_document(item) for item in value]
    if isinstance(value, dict):
        return {key: _document(item) for key, item in value.items()}
    return value


def profile_from_dict(data: dict) -> PowerProfile:
    """Inverse of profile_to_dict.  Round-trips finite parameters exactly.

    The values go to the constructors as they are: a parameter must be a JSON
    number (a numeric string or a bool is refused, naming the field), and n
    an integer, for which 2.0 counts.
    """
    if not isinstance(data, dict):
        raise InputError(f"profile document must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    try:
        if kind == "linear":
            return LinearProfile(a=data["a"], b=data["b"])
        if kind == "nroot":
            return NRootProfile(c=data["c"], d=data["d"], n=data["n"])
    except KeyError as exc:
        raise InputError(f"profile document is missing field {exc.args[0]!r}") from exc
    raise InputError(f"unknown profile kind {kind!r}")
