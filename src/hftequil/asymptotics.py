"""Small time-step behaviour of the equilibrium coefficients.

Every coefficient converges as dt -> 0 and the leading correction is of
order sqrt(dt), except the single-trader price impact whose sqrt(dt) term
cancels and whose first correction is linear in dt. ``convergence_order``
measures the empirical rate at which the truncated expansion tracks the
exact solve over a dt grid, which is the standard way to confirm both the
solver and the coefficients at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ValidatedParams
from .solver import solve_nash

__all__ = [
    "Expansion",
    "ConvergencePoint",
    "InfeasiblePoint",
    "ConvergenceTable",
    "monopoly_expansions",
    "nash_expansions",
    "convergence_order",
    "CONVERGENCE_QUANTITIES",
]

CONVERGENCE_QUANTITIES = ("beta", "beta_sigma", "lambda", "phi", "mu")


@dataclass(frozen=True)
class Expansion:
    """Truncated expansion limit + half_order_coeff sqrt(dt) + dt_coeff dt."""

    limit: float
    half_order_coeff: float
    dt_coeff: float = 0.0
    remainder: str = "O(dt)"

    def evaluate(self, dt: float) -> float:
        if dt < 0:
            raise ValueError(f"dt must be nonnegative, got {dt!r}")
        return self.limit + self.half_order_coeff * math.sqrt(dt) + self.dt_coeff * dt

    def to_dict(self) -> dict:
        return {
            "limit": self.limit,
            "half_order_coeff": self.half_order_coeff,
            "dt_coeff": self.dt_coeff,
            "remainder": self.remainder,
        }


def _require_untaxed(params: ValidatedParams, op: str) -> None:
    if params.tax != 0.0:
        raise ValueError(f"{op} covers the untaxed game only, got tax={params.tax!r}")


def monopoly_expansions(params: ValidatedParams) -> dict[str, Expansion]:
    """Single-trader expansions, keyed beta, lambda, phi, mu, A, B, C, D.

    The k = 1 entries of ``nash_expansions``, one Expansion each instead of
    a one-entry tuple, without beta_sigma, which equals beta. A through D
    are the value function coefficients on M^2, dS^2, M dS and the
    constant, in that order. The lambda entry is the only one with a known
    dt-order coefficient; its sqrt(dt) term vanishes identically.
    """
    _require_untaxed(params, "monopoly_expansions")
    if params.k != 1:
        raise ValueError(f"monopoly_expansions requires k=1, got k={params.k}")
    return {
        key: value[0] if isinstance(value, tuple) else value
        for key, value in nash_expansions(params).items()
        if key != "beta_sigma"
    }


def nash_expansions(params: ValidatedParams) -> dict:
    """Per-trader expansions for the k-trader game.

    Keys beta, phi, mu, A, B, C, D map to tuples with one Expansion per
    trader; beta_sigma and lambda are scalars. Heterogeneity enters through
    each trader's own gamma and through the mean root inventory aversion
    gbar = (1/k) sum_j sqrt(gamma_j). At k=1 the lambda entry also carries
    a dt coefficient, which is only known in the single-trader case;
    ``monopoly_expansions`` is this table's k=1 view.
    """
    _require_untaxed(params, "nash_expansions")
    sS = params.sigma_S
    sK = params.sigma_K
    k = params.k
    m = sK / sS
    m12 = math.sqrt(m)
    m32 = m * m12
    ratio = sS / sK
    sqrt_ratio = math.sqrt(ratio)
    gbar = sum(math.sqrt(t.gamma) for t in params.traders) / k
    sqk = math.sqrt(k)
    kq = k**0.25
    k34 = k**0.75
    opk = 1.0 + k
    sopk = math.sqrt(opk)

    beta = tuple(
        Expansion(
            m / sqk,
            -(sopk / (2.0 * k34)) * (2.0 * math.sqrt(t.gamma) - gbar) * m32,
        )
        for t in params.traders
    )
    beta_sigma = Expansion(sqk * m, -(sopk / (2.0 * k34)) * k * gbar * m32)
    lam = Expansion(
        (sqk / opk) * ratio,
        (kq * (k - 1.0) / (2.0 * opk**1.5)) * gbar * sqrt_ratio,
        dt_coeff=-params.traders[0].gamma / 8.0 if k == 1 else 0.0,
        remainder="O(dt^(3/2))" if k == 1 else "O(dt)",
    )
    phi = tuple(
        Expansion(0.0, (sopk / kq) * math.sqrt(t.gamma) * m12) for t in params.traders
    )
    mu = tuple(
        Expansion(0.0, (kq / sopk) * math.sqrt(t.gamma) * sqrt_ratio)
        for t in params.traders
    )
    A = tuple(
        Expansion(0.0, (kq / (2.0 * sopk)) * math.sqrt(t.gamma) * sqrt_ratio)
        for t in params.traders
    )
    B = tuple(
        Expansion(
            2.0 * m / (sqk * opk),
            (1.0 / (2.0 * k34 * opk**1.5))
            * ((2.0 + 6.0 * k) * gbar - 5.0 * opk * math.sqrt(t.gamma))
            * m32,
        )
        for t in params.traders
    )
    C = tuple(
        Expansion(0.0, (1.5 / (kq * sopk)) * math.sqrt(t.gamma) * m12)
        for t in params.traders
    )
    D = tuple(
        Expansion(
            sS * sK / (sqk * opk * t.rho),
            (1.0 / (4.0 * k34 * opk**1.5))
            * ((2.0 + 6.0 * k) * gbar - 5.0 * opk * math.sqrt(t.gamma))
            * math.sqrt(sS)
            * sK**1.5
            / t.rho,
        )
        for t in params.traders
    )
    return {
        "beta": beta,
        "beta_sigma": beta_sigma,
        "lambda": lam,
        "phi": phi,
        "mu": mu,
        "A": A,
        "B": B,
        "C": C,
        "D": D,
    }


@dataclass(frozen=True)
class ConvergencePoint:
    dt: float
    exact: float
    expansion: float
    error: float
    order: float | None


@dataclass(frozen=True)
class InfeasiblePoint:
    dt: float
    reason: str


@dataclass(frozen=True)
class ConvergenceTable:
    quantity: str
    trader: int
    points: tuple[ConvergencePoint, ...]
    skipped: tuple[InfeasiblePoint, ...]

    @property
    def orders(self) -> tuple[float, ...]:
        return tuple(p.order for p in self.points if p.order is not None)

    @property
    def final_order(self) -> float:
        orders = self.orders
        if not orders:
            raise ValueError("no consecutive error pairs to estimate an order from")
        return orders[-1]


def convergence_order(
    params: ValidatedParams,
    quantity: str,
    dt_grid,
    trader: int = 0,
) -> ConvergenceTable:
    """Empirical order of |exact - expansion| along a decreasing dt grid.

    Grid entries where some rho dt >= 1, or dt <= 0, are skipped and
    reported rather than raising; the solve has no equilibrium there.
    """
    if quantity not in CONVERGENCE_QUANTITIES:
        raise ValueError(f"quantity must be one of {CONVERGENCE_QUANTITIES}, got {quantity!r}")
    _require_untaxed(params, "convergence_order")
    if not 0 <= trader < params.k:
        raise ValueError(f"trader index {trader} out of range for k={params.k}")
    exps = nash_expansions(params)
    expn = exps[quantity] if quantity in ("beta_sigma", "lambda") else exps[quantity][trader]
    rho_max = max(t.rho for t in params.traders)
    points: list[ConvergencePoint] = []
    skipped: list[InfeasiblePoint] = []
    prev_dt = prev_err = None
    for dt in dt_grid:
        dt = float(dt)
        if not dt > 0.0:
            skipped.append(InfeasiblePoint(dt, "dt must be positive"))
            continue
        if rho_max * dt >= 1.0:
            skipped.append(InfeasiblePoint(dt, f"rho*dt = {rho_max * dt!r} leaves no discounting room"))
            continue
        eq, _ = solve_nash(params.with_dt(dt))
        if quantity == "beta":
            exact = eq.betas[trader]
        elif quantity == "beta_sigma":
            exact = eq.beta_sigma
        elif quantity == "lambda":
            exact = eq.lam
        elif quantity == "phi":
            exact = eq.phis[trader]
        else:
            exact = eq.mus[trader]
        approx = expn.evaluate(dt)
        err = abs(exact - approx)
        order = None
        if prev_dt is not None and err > 0.0 and prev_err > 0.0 and dt != prev_dt:
            order = math.log(prev_err / err) / math.log(prev_dt / dt)
        points.append(ConvergencePoint(dt, exact, approx, err, order))
        prev_dt, prev_err = dt, err
    return ConvergenceTable(quantity, trader, tuple(points), tuple(skipped))
