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
from dataclasses import dataclass

__all__ = [
    "TraderParams",
    "ValidatedParams",
    "Violation",
    "InvalidParamsError",
    "ConfigError",
    "load_config",
    "params_to_config",
]

_CONFIG_KEYS = frozenset(("sigma_S", "sigma_K", "dt", "tax", "traders"))
_TRADER_KEYS = frozenset(("gamma", "rho", "initial_inventory"))
_MISSING = object()
_MIN_NORMAL = sys.float_info.min
_MAX_FLOAT = sys.float_info.max


@dataclass(frozen=True)
class TraderParams:
    """One strategic trader: penalty rate, discount rate, starting inventory."""

    gamma: float
    rho: float
    initial_inventory: float = 0.0


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
    and assignment still raises ``FrozenInstanceError``. No ``__post_init__``
    or default runs, so ``fields`` must already be what they would store.

    It builds the records made once per call: a :class:`ValidatedParams`
    from :func:`_checked` fields, an ``Equilibrium``, a ``SolveDiagnostics``.
    A record made once per trader (``TraderParams`` by :func:`_trader`,
    ``Expansion``, ``ValueCoefficients``) is cheaper built by storing its
    fields one by one, in declaration order, into the new instance's own
    ``__dict__``: assigning ``__dict__`` discards the instance's key-shared
    dict. A loop over the field names, or ``__dict__.update`` with a dict
    literal, is no faster than this function, so each of those builders
    writes its own stores.
    """
    obj = _new(cls)
    _setattr(obj, "__dict__", fields)
    return obj


def _trader(gamma: float, rho: float, initial_inventory: float) -> TraderParams:
    """``TraderParams(gamma, rho, initial_inventory)``, built without the
    generated ``__init__`` (see :func:`_frozen`)."""
    obj = _new(TraderParams)
    d = obj.__dict__
    d["gamma"] = gamma
    d["rho"] = rho
    d["initial_inventory"] = initial_inventory
    return obj


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_trader_index(trader_index, k: int) -> None:
    """Refuse an index that is not an int in [0, k): -1 would silently name
    the last trader, and True trader 1."""
    if not _is_int(trader_index):
        raise ValueError(f"trader index must be an int, got {trader_index!r}")
    if not 0 <= trader_index < k:
        raise ValueError(f"trader index {trader_index} out of range for k={k}")


def _square_violation(name: str, v: float) -> Violation:
    return Violation("VolatilityOutOfRange", f"{name} = {v!r} squares to {v * v!r}, not a normal positive float")


def _volatility(name: str, raw, out: list[Violation]) -> float | None:
    """``raw`` as a positive finite float, else None with its violation added
    to ``out``; a square that is not a normal float adds a violation too."""
    v = _as_real(raw)
    if v is None or not 0 < v <= _MAX_FLOAT:
        out.append(Violation("NonPositiveVolatility", f"{name} must be a positive real, got {raw!r}"))
        return None
    # x * x gives inf where x**2 raises; a subnormal square has lost digits
    if not _MIN_NORMAL <= v * v <= _MAX_FLOAT:
        out.append(_square_violation(name, v))
    return v


def _checked(sigma_S, sigma_K, dt, traders, tax) -> dict:
    """Check every field once; return the ``__dict__`` of the
    :class:`ValidatedParams` they describe, or raise
    :class:`InvalidParamsError` with every violation.

    Each field is checked as the float it is stored as (see ``_as_real``);
    ``0 < x <= _MAX_FLOAT`` is a finite positive float, as NaN compares
    false. sigma_S**2 and sigma_K**2 must be normal floats: an infinite or
    zero variance breaks the model, a subnormal one has lost digits. So must
    (sigma_K/sigma_S)**2, though no layer forms it: the scale is read as m =
    sigma_K/sigma_S alone, and the bound keeps beta_sigma = m u finite at
    every u = beta_sigma/m the solve reaches. The stored record holds every
    field as a float, a signed zero as +0.0 and the traders as a tuple of
    float :class:`TraderParams` (one already stored so is kept as given). A
    trader that is not a :class:`TraderParams` raises ``TypeError``.
    """
    out: list[Violation] = []
    s = _volatility("sigma_S", sigma_S, out)
    k = _volatility("sigma_K", sigma_K, out)
    if s is not None and k is not None:
        ratio = k / s
        if not _MIN_NORMAL <= ratio * ratio <= _MAX_FLOAT:
            out.append(_square_violation("sigma_K/sigma_S", ratio))
    d = _as_real(dt)
    if d is None or not 0 <= d <= _MAX_FLOAT:
        out.append(Violation("DiscountOutOfRange", f"dt must be a finite real >= 0, got {dt!r}"))
        d = None
    c = _as_real(tax)
    if c is None or not 0 <= c <= _MAX_FLOAT:
        out.append(Violation("NegativeTax", f"tax must be a finite real >= 0, got {tax!r}"))
    try:
        traders = tuple(traders)
    except TypeError:
        raise TypeError(f"traders must be an iterable of TraderParams, got {type(traders).__name__}") from None
    if not traders:
        out.append(Violation("EmptyTraderList", "at least one trader is required"))
    stored = []
    for i, t in enumerate(traders):
        if not isinstance(t, TraderParams):
            raise TypeError(f"trader {i} must be a TraderParams, got {type(t).__name__}")
        g, r, l = t.gamma, t.rho, t.initial_inventory
        gamma = _as_real(g)
        if gamma is None or not 0 < gamma <= _MAX_FLOAT:
            out.append(Violation("NonPositiveGamma", f"trader {i}: gamma must be a positive real, got {g!r}"))
        rho = _as_real(r)
        if rho is None or not 0 < rho <= _MAX_FLOAT:
            out.append(Violation("DiscountOutOfRange", f"trader {i}: rho must be a positive real, got {r!r}"))
        elif d and not rho * d < 1:
            out.append(Violation("DiscountOutOfRange", f"trader {i}: rho*dt = {rho * d!r} must lie in (0, 1)"))
        inv = _as_real(l)
        if inv is None or not -_MAX_FLOAT <= inv <= _MAX_FLOAT:
            out.append(
                Violation("NonFiniteInventory", f"trader {i}: initial_inventory must be a finite real, got {l!r}")
            )
        elif not out:
            if inv == 0.0 and math.copysign(1.0, inv) < 0.0:
                inv = 0.0
            if gamma is not g or rho is not r or inv is not l:
                t = _trader(gamma, rho, inv)
            stored.append(t)
    if out:
        raise InvalidParamsError(out)
    # x + 0.0 is x, bit for bit, except that -0.0 becomes +0.0
    return {"sigma_S": s, "sigma_K": k, "dt": d + 0.0, "traders": tuple(stored), "tax": c + 0.0}


@dataclass(frozen=True)
class ValidatedParams:
    """A market description whose every field has been checked.

    Every way to make one checks each field exactly once, and an instance
    never carries a violating field: a refused market raises
    :class:`InvalidParamsError`, whose ``violations`` list every violation.
    Direct construction (and ``dataclasses.replace``) re-runs every check;
    :func:`load_config` runs them on the floats it read; :meth:`with_dt`
    and :meth:`with_tax` run them on this record's fields with one field
    replaced, and keep the stored traders as they are. Every field is stored as a Python float,
    whatever real type it was given as (an int or a numpy scalar), and a
    signed zero as +0.0, so that :func:`params_to_config` stays
    JSON-serialisable and prints no ``-0.0``. The solver, the expansions
    and verify read the market's scale as m = sigma_K/sigma_S alone.
    """

    sigma_S: float
    sigma_K: float
    dt: float
    traders: tuple[TraderParams, ...]
    tax: float = 0.0

    def __post_init__(self):
        _setattr(self, "__dict__", _checked(self.sigma_S, self.sigma_K, self.dt, self.traders, self.tax))

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
        """This market at period length ``dt``, checked by the one checker."""
        return _frozen(ValidatedParams, _checked(self.sigma_S, self.sigma_K, dt, self.traders, self.tax))

    def with_tax(self, tax: float) -> "ValidatedParams":
        """This market at tax rate ``tax``, checked by the one checker."""
        return _frozen(ValidatedParams, _checked(self.sigma_S, self.sigma_K, self.dt, self.traders, tax))


def _require_number(mapping: dict, key: str, trader: int | None = None) -> float:
    """``mapping[key]`` as a float (see ``_as_real``); ``trader`` is the index
    of the traders entry that ``mapping`` is, None for the root."""
    v = mapping.get(key, _MISSING)
    x = _as_real(v)
    if x is None:
        where = "config" if trader is None else f"traders[{trader}]"
        if v is _MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
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

    if not raw.keys() <= _CONFIG_KEYS:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(raw.keys() - _CONFIG_KEYS))}")
    sigma_S = _require_number(raw, "sigma_S")
    sigma_K = _require_number(raw, "sigma_K")
    dt = _require_number(raw, "dt")
    tax = _require_number(raw, "tax") if "tax" in raw else 0.0
    if "traders" not in raw:
        raise ConfigError("config: missing required key 'traders'")
    entries = raw["traders"]
    if not isinstance(entries, list):
        raise ConfigError("config: 'traders' must be a list")
    traders = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"config: traders[{i}] must be an object")
        if not entry.keys() <= _TRADER_KEYS:
            raise ConfigError(f"config: traders[{i}] unknown keys: {', '.join(sorted(entry.keys() - _TRADER_KEYS))}")
        traders.append(_trader(
            _require_number(entry, "gamma", i),
            _require_number(entry, "rho", i),
            _require_number(entry, "initial_inventory", i) if "initial_inventory" in entry else 0.0,
        ))
    return _frozen(ValidatedParams, _checked(sigma_S, sigma_K, dt, traders, tax))


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
