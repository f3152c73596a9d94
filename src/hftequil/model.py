"""Market primitives and validated parameter containers.

A market consists of a risky asset whose fundamental value moves by i.i.d.
Gaussian increments with volatility ``sigma_S``, exogenous Gaussian noise
flow with volatility ``sigma_K``, and ``k`` strategic traders who observe
each value innovation one period before the dealers and pay a running
quadratic inventory penalty at rate ``gamma_i``.

``dt == 0`` is accepted as the continuous-trading limit, and the discount
constraint ``rho_i * dt in (0, 1)`` is waived for that case only. Solvers
answer it on the same path as any dt > 0, where every decay rate comes
out exactly 0; the simulator needs dt > 0 and refuses it.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

__all__ = [
    "TraderParams",
    "MarketParams",
    "ValidatedParams",
    "Violation",
    "InvalidParamsError",
    "ConfigError",
    "check_params",
    "validate",
    "load_config",
    "params_to_config",
]

_CONFIG_KEYS = ("sigma_S", "sigma_K", "dt", "tax", "traders")
_TRADER_KEYS = ("gamma", "rho", "initial_inventory")
_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max


@dataclass(frozen=True)
class TraderParams:
    """One strategic trader: penalty rate, discount rate, starting inventory."""

    gamma: float
    rho: float
    initial_inventory: float = 0.0


@dataclass(frozen=True)
class MarketParams:
    """Raw, possibly invalid, market description."""

    sigma_S: float
    sigma_K: float
    dt: float
    traders: tuple[TraderParams, ...]
    tax: float = 0.0


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


class InvalidParamsError(ValueError):
    """Raised with the complete list of parameter violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__(
            "invalid market parameters: "
            + "; ".join(f"{v.code}: {v.message}" for v in self.violations)
        )

    @property
    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


class ConfigError(ValueError):
    """Malformed configuration input (unknown keys, wrong types, missing fields)."""


def _as_real(x) -> float | None:
    """``x`` as a float if it is a real number other than a bool (a float, an
    int or a numpy real scalar), else None. A real beyond the float range,
    such as a 400-digit int, becomes an infinity, which the checks refuse."""
    if type(x) is float:
        return x
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


_new = object.__new__
_setattr = object.__setattr__


def _frozen(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` whose ``__dict__`` is
    ``fields``, which names every field in declaration order.

    One ``object.__setattr__`` call stands in for the generated
    ``__init__``, which makes one per field. ``==``, ``hash``, ``repr``,
    ``asdict`` and ``replace`` read the fields, so they see no difference,
    and assignment still raises ``FrozenInstanceError``. For result records
    only: no ``__post_init__`` or default runs.
    """
    obj = _new(cls)
    _setattr(obj, "__dict__", fields)
    return obj


def _as_float_trader(t: TraderParams) -> TraderParams:
    if type(t.gamma) is float and type(t.rho) is float and type(t.initial_inventory) is float:
        return t
    return TraderParams(float(t.gamma), float(t.rho), float(t.initial_inventory))


def _check_trader_index(trader_index, k: int) -> None:
    """Refuse an index outside [0, k): -1 would silently name the last trader."""
    if not 0 <= trader_index < k:
        raise ValueError(f"trader index {trader_index} out of range for k={k}")


def _square_violation(name: str, v: float) -> Violation:
    return Violation("VolatilityOutOfRange", f"{name} = {v!r} squares to {v * v!r}, not a normal positive float")


def check_params(params: MarketParams) -> list[Violation]:
    """Collect every violated constraint; an empty list means valid.

    Each field is checked as the float it is stored as (see ``_as_real``).
    sigma_S**2, sigma_K**2 and (sigma_K/sigma_S)**2 must be normal floats:
    an infinite or zero square breaks the solver, a subnormal one has lost
    digits and gives a silently wrong equilibrium.
    """
    out: list[Violation] = []
    vols = []
    for name in ("sigma_S", "sigma_K"):
        raw = getattr(params, name)
        v = _as_real(raw)
        if v is not None and math.isfinite(v) and v > 0:
            vols.append(v)
            # x * x gives inf where x**2 raises; a subnormal square has lost digits
            if not _MIN_NORMAL <= v * v <= _MAX_FLOAT:
                out.append(_square_violation(name, v))
        else:
            out.append(Violation("NonPositiveVolatility", f"{name} must be a positive real, got {raw!r}"))
    if len(vols) == 2:
        ratio = vols[1] / vols[0]
        if not _MIN_NORMAL <= ratio * ratio <= _MAX_FLOAT:
            out.append(_square_violation("sigma_K/sigma_S", ratio))
    dt = _as_real(params.dt)
    dt_ok = dt is not None and math.isfinite(dt) and dt >= 0
    if not dt_ok:
        out.append(Violation("DiscountOutOfRange", f"dt must be a finite real >= 0, got {params.dt!r}"))
    tax = _as_real(params.tax)
    if not (tax is not None and math.isfinite(tax) and tax >= 0):
        out.append(Violation("NegativeTax", f"tax must be a finite real >= 0, got {params.tax!r}"))
    if len(params.traders) == 0:
        out.append(Violation("EmptyTraderList", "at least one trader is required"))
    for i, t in enumerate(params.traders):
        gamma = _as_real(t.gamma)
        if not (gamma is not None and math.isfinite(gamma) and gamma > 0):
            out.append(Violation("NonPositiveGamma", f"trader {i}: gamma must be a positive real, got {t.gamma!r}"))
        rho = _as_real(t.rho)
        if not (rho is not None and math.isfinite(rho) and rho > 0):
            out.append(Violation("DiscountOutOfRange", f"trader {i}: rho must be a positive real, got {t.rho!r}"))
        elif dt_ok and dt > 0 and not (rho * dt < 1):
            out.append(
                Violation(
                    "DiscountOutOfRange",
                    f"trader {i}: rho*dt = {rho * dt!r} must lie in (0, 1)",
                )
            )
        inv = _as_real(t.initial_inventory)
        if not (inv is not None and math.isfinite(inv)):
            out.append(
                Violation(
                    "NonFiniteInventory",
                    f"trader {i}: initial_inventory must be a finite real, got {t.initial_inventory!r}",
                )
            )
    return out


@dataclass(frozen=True)
class ValidatedParams:
    """A market description that passed :func:`check_params`.

    Direct construction re-runs the checks, so an instance can never carry a
    violating field. Every field is stored as a Python float, whatever real
    type it was given as (an int or a numpy scalar), so that
    :func:`params_to_config` stays JSON-serialisable. ``vol_ratio_sq`` is
    ``(sigma_K / sigma_S)**2``, a normal float by the checks, computed once
    here and shared by every module.
    """

    sigma_S: float
    sigma_K: float
    dt: float
    traders: tuple[TraderParams, ...]
    tax: float = 0.0
    vol_ratio_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        violations = check_params(
            MarketParams(self.sigma_S, self.sigma_K, self.dt, tuple(self.traders), self.tax)
        )
        if violations:
            raise InvalidParamsError(violations)
        for name in ("sigma_S", "sigma_K", "dt", "tax"):
            v = getattr(self, name)
            if type(v) is not float:
                object.__setattr__(self, name, float(v))
        object.__setattr__(self, "traders", tuple(_as_float_trader(t) for t in self.traders))
        object.__setattr__(self, "vol_ratio_sq", (self.sigma_K / self.sigma_S) ** 2)

    @property
    def k(self) -> int:
        return len(self.traders)

    @property
    def gammas(self) -> tuple[float, ...]:
        return tuple(t.gamma for t in self.traders)

    @property
    def rhos(self) -> tuple[float, ...]:
        return tuple(t.rho for t in self.traders)

    @property
    def initial_inventories(self) -> tuple[float, ...]:
        return tuple(t.initial_inventory for t in self.traders)

    def with_dt(self, dt: float) -> "ValidatedParams":
        return ValidatedParams(self.sigma_S, self.sigma_K, dt, self.traders, self.tax)

    def with_tax(self, tax: float) -> "ValidatedParams":
        return ValidatedParams(self.sigma_S, self.sigma_K, self.dt, self.traders, tax)


def validate(params: MarketParams) -> ValidatedParams:
    """Return the validated form of ``params`` or raise with all violations."""
    return ValidatedParams(params.sigma_S, params.sigma_K, params.dt, tuple(params.traders), params.tax)


def _require_number(mapping: dict, key: str, where: str) -> float:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    v = mapping[key]
    x = _as_real(v)
    if x is None:
        raise ConfigError(f"{where}: key {key!r} must be a number, got {type(v).__name__}")
    return x


def load_config(source) -> ValidatedParams:
    """Read a market configuration from a JSON file path, file object, or dict.

    Recognized keys: sigma_S, sigma_K, dt, tax (default 0), and traders, a
    nonempty list of {gamma, rho, initial_inventory (default 0)}. Unknown
    keys are rejected.
    """
    if isinstance(source, dict):
        raw = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        raise ConfigError(f"unsupported config source {type(source).__name__}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    sigma_S = _require_number(raw, "sigma_S", "config")
    sigma_K = _require_number(raw, "sigma_K", "config")
    dt = _require_number(raw, "dt", "config")
    tax = _require_number(raw, "tax", "config") if "tax" in raw else 0.0
    if "traders" not in raw:
        raise ConfigError("config: missing required key 'traders'")
    if not isinstance(raw["traders"], list):
        raise ConfigError("config: 'traders' must be a list")
    traders = []
    for i, entry in enumerate(raw["traders"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"config: traders[{i}] must be an object")
        unknown = sorted(set(entry) - set(_TRADER_KEYS))
        if unknown:
            raise ConfigError(f"config: traders[{i}] unknown keys: {', '.join(unknown)}")
        gamma = _require_number(entry, "gamma", f"traders[{i}]")
        rho = _require_number(entry, "rho", f"traders[{i}]")
        inv = _require_number(entry, "initial_inventory", f"traders[{i}]") if "initial_inventory" in entry else 0.0
        traders.append(TraderParams(gamma, rho, inv))
    return validate(MarketParams(sigma_S, sigma_K, dt, tuple(traders), tax))


def params_to_config(params: ValidatedParams) -> dict:
    """Inverse of :func:`load_config`: a dict that parses back to ``params``."""
    return {
        "sigma_S": params.sigma_S,
        "sigma_K": params.sigma_K,
        "dt": params.dt,
        "tax": params.tax,
        "traders": [
            {"gamma": t.gamma, "rho": t.rho, "initial_inventory": t.initial_inventory}
            for t in params.traders
        ],
    }
