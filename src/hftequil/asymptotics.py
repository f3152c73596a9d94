"""Small time-step behaviour of the equilibrium coefficients.

Write eps = sqrt(dt). Every coefficient is a smooth function of eps near
the continuous-trading limit eps = 0, so its expansion to order sqrt(dt)
is its value and its eps-derivative there. Both come from the aggregate
fixed point h(t; eps) = (m^2/t) sum_i (1 - phi_i) - t = 0 that the solver
solves, with m = sigma_K/sigma_S: at eps = 0 every decay rate is 0 and
t = m sqrt(k), each decay rate starts as phi_i = a_i eps, implicit
differentiation of h gives the aggregate's slope t' in eps, and the chain
rule carries t' through the pricing identities and the value
coefficients. The
single-trader price impact is the exception: its sqrt(dt) term cancels
and its first correction, linear in dt, is the one term written by hand.
``convergence_order`` measures the empirical rate at which the truncated
expansion tracks the exact solve over a dt grid, which confirms both the
solver and the coefficients at once.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .model import ValidatedParams, _check_trader_index, _new
from .solver import _require_finite, _sum_left, solve_equilibrium

__all__ = [
    "Expansion",
    "ConvergencePoint",
    "InfeasiblePoint",
    "ConvergenceTable",
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
        if not 0 <= dt < math.inf:  # NaN compares false
            raise ValueError(f"dt must be finite and nonnegative, got {dt!r}")
        return self.limit + self.half_order_coeff * math.sqrt(dt) + self.dt_coeff * dt

    def to_dict(self) -> dict:
        return asdict(self)


def _expansion(limit: float, half_order_coeff: float) -> Expansion:
    """``Expansion(limit, half_order_coeff)``, built without the generated
    ``__init__`` (see ``model._frozen``)."""
    obj = _new(Expansion)
    d = obj.__dict__
    d["limit"] = limit
    d["half_order_coeff"] = half_order_coeff
    d["dt_coeff"] = 0.0
    d["remainder"] = "O(dt)"
    return obj


def _require_untaxed(params: ValidatedParams, op: str) -> None:
    if params.tax != 0.0:
        raise ValueError(f"{op} covers the untaxed game only, got tax={params.tax!r}")


def nash_expansions(params: ValidatedParams) -> dict:
    """Per-trader expansions for the k-trader game, derived at eps = sqrt(dt) = 0.

    Keys beta, phi, mu, A, B, C, D map to tuples with one Expansion per
    trader; beta_sigma and lambda are scalars. A through D are the value
    function coefficients on M^2, dS^2, M dS and the constant.

    In m = sigma_K/sigma_S, not its square: t = beta_sigma(0) = m sqrt(k),
    beta_i = m/sqrt(k), lambda = sqrt(k)/((1 + k) m), eta = 1/(1 + k) and phi_i
    = 0. Each decay rate starts as phi_i = a_i eps with a_i^2 = gamma_i m (k +
    1)/sqrt(k), the leading term of the solver's root 2s/(w + q). The excess h
    has slope -2 in t at eps = 0, so t' = -(m/(2 sqrt(k))) sum_i a_i, and the other
    sqrt(dt) coefficients follow by the chain rule through
    beta_i = (m^2/t)(1 - phi_i), lambda = t/(m^2 + t^2), mu_i = lambda phi_i
    and ``value_coefficients``' expressions for A to D. At k = 1 the
    sqrt(dt) term of lambda vanishes and its dt coefficient -gamma/8 is
    the one hand-derived term, which only the single-trader case has.
    A coefficient that overflows, as D = B sigma_S^2/(2 rho) does when rho
    is tiny, raises ConstraintViolated("value_finite").
    """
    _require_untaxed(params, "nash_expansions")
    # x0 is a limit and x1 its sqrt(dt) coefficient; t1 is t'
    m = params.sigma_K / params.sigma_S
    k = params.k
    sqrt_k = math.sqrt(k)
    t = m * sqrt_k
    # sqrt_k**2 + 1 rather than k + 1 keeps every bit of the table at m = 1
    a = [math.sqrt(tr.gamma * m * (sqrt_k * sqrt_k + 1.0) / sqrt_k) for tr in params.traders]
    beta0 = m / sqrt_k
    t1 = -0.5 * beta0 * _sum_left(a)
    lam0 = sqrt_k / ((1.0 + k) * m)
    eta0 = 1.0 / (1.0 + k)
    # lambda'(t) = (1 - k)/((1 + k)^2 m^2), times t1 <= 0 written as (k - 1) (-t1): +0.0 at k = 1
    lam1 = (k - 1) * (-t1 / m) / ((1.0 + k) ** 2 * m)
    eta1 = -(lam1 * t + lam0 * t1)
    B0 = 2.0 * beta0 * eta0
    isfinite = math.isfinite
    if not isfinite(t + t1 + lam0 + lam1 + beta0 + B0):
        _require_finite({"beta_sigma0": t, "beta_sigma1": t1, "lambda0": lam0, "lambda1": lam1,
                         "beta0": beta0, "B0": B0})
    neg_t1_k = -t1 / k
    beta0_sq = beta0 * beta0
    sigma_S_sq = params.sigma_S**2
    beta, phi, mu, A, B, C, D = ([] for _ in range(7))
    for i, (tr, ai) in enumerate(zip(params.traders, a)):
        beta1 = neg_t1_k - beta0 * ai
        A1 = tr.gamma / (2.0 * ai)
        B1 = 2.0 * (beta1 * eta0 + beta0 * eta1) - beta0_sq * A1
        d_scale = sigma_S_sq / (2.0 * tr.rho)
        mu1 = lam0 * ai
        C1 = beta0 * A1 + ai * eta0
        D0 = B0 * d_scale
        D1 = B1 * d_scale
        # one test per trader; a sum that overflows on finite terms is rechecked
        if not isfinite(beta1 + ai + mu1 + A1 + B1 + C1 + D0 + D1):
            _require_finite({"beta1": beta1, "phi1": ai, "mu1": mu1, "A1": A1, "B1": B1,
                             "C1": C1, "D0": D0, "D1": D1}, f"trader {i}: ")
        beta.append(_expansion(beta0, beta1))
        phi.append(_expansion(0.0, ai))
        mu.append(_expansion(0.0, mu1))
        A.append(_expansion(0.0, A1))
        B.append(_expansion(B0, B1))
        C.append(_expansion(0.0, C1))
        D.append(_expansion(D0, D1))
    lam = Expansion(
        lam0,
        lam1,
        dt_coeff=-params.traders[0].gamma / 8.0 if k == 1 else 0.0,
        remainder="O(dt^(3/2))" if k == 1 else "O(dt)",
    )
    return {"beta": tuple(beta), "beta_sigma": _expansion(t, t1), "lambda": lam,
            "phi": tuple(phi), "mu": tuple(mu), "A": tuple(A), "B": tuple(B), "C": tuple(C),
            "D": tuple(D)}


def _pick(value, trader: int):
    """The trader's entry of a per-trader tuple; a scalar as it is."""
    return value[trader] if isinstance(value, tuple) else value


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
    _check_trader_index(trader, params.k)
    expn = _pick(nash_expansions(params)[quantity], trader)
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
        eq, _ = solve_equilibrium(params.with_dt(dt))
        exact = _pick({"beta": eq.betas, "beta_sigma": eq.beta_sigma, "lambda": eq.lam,
                       "phi": eq.phis, "mu": eq.mus}[quantity], trader)
        approx = expn.evaluate(dt)
        err = abs(exact - approx)
        order = None
        if prev_dt is not None and err > 0.0 and prev_err > 0.0 and dt != prev_dt:
            order = math.log(prev_err / err) / math.log(prev_dt / dt)
        points.append(ConvergencePoint(dt, exact, approx, err, order))
        prev_dt, prev_err = dt, err
    return ConvergenceTable(quantity, trader, tuple(points), tuple(skipped))
