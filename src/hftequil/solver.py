"""Equilibrium solvers for the discrete insider trading game.

With k traders the aggregate loading solves a one-dimensional fixed point:
at a conjectured aggregate each trader's best response is written through
its decay rate phi_i, the positive root of a quadratic taken without
subtraction, and the aggregate must equal the sum of the implied loadings.
A quadratic transaction tax, c dL^2 on a trade dL each period, deforms the
quadratic but keeps the same structure and the same unique positive root,
so a taxed game is solved directly at its tax rate, like an untaxed one.
The same fixed point covers the monopolist, the k = 1 game, and the
continuous-trading limit dt = 0, where every decay rate is exactly 0 and
u = beta_sigma/m solves u (u + 2cm (1 + u^2)) = k, m = sigma_K/sigma_S.

The solve runs in the model's dimensionless groups: the equilibrium depends
only on k, cm, gamma_i dt m and rho_i dt, through u, beta_i/m and phi_i, and
is rescaled by m once, at the end. All root finding is one safeguarded
Newton iteration on a sign-changing bracket whose ends come from the
uniqueness proof. A step that would leave the bracket bisects it at its
geometric mean, so the bracket stays a certificate for the root; the
iteration stops once a step or the bracket is at most both 1e-14 and 1e-8
times its upper end, so a root far below 1 keeps its precision. One
evaluator over any number type gives it the excess and its slope, and each
trader's loading and decay rate at the root; the tests run it at 50 digits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ValidatedParams, _frozen

__all__ = [
    "Equilibrium",
    "SolveDiagnostics",
    "SolverError",
    "NoRootInBracket",
    "ConstraintViolated",
    "solve_taxed",
    "solve_equilibrium",
    "pricing_from_beta",
    "system_residual",
    "validate_equilibrium",
]

BRACKET_WIDTH_REL = 1e-14
SYSTEM_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """The structured refusal of the solve, of the value layer and of the
    horizon rule: ``NoRootInBracket``, ``ConstraintViolated``, which names
    the constraint, and the simulator's ``HorizonTooShort``."""


class NoRootInBracket(SolverError):
    pass


class ConstraintViolated(SolverError):
    def __init__(self, which: str, detail: str = ""):
        self.which = which
        super().__init__(f"equilibrium constraint violated: {which}" + (f" ({detail})" if detail else ""))


def _require_finite(named: dict, where: str = "") -> None:
    """Raise ConstraintViolated("value_finite") naming every non-finite value."""
    bad = {name: x for name, x in named.items() if not math.isfinite(x)}
    if bad:
        raise ConstraintViolated("value_finite", f"{where}non-finite {bad!r}")


@dataclass(frozen=True)
class Equilibrium:
    """Linear equilibrium coefficients: signal loadings, price impact, decay."""

    betas: tuple[float, ...]
    beta_sigma: float
    lam: float
    phis: tuple[float, ...]
    mus: tuple[float, ...]
    tax: float = 0.0

    @property
    def eta(self) -> float:
        """Residual signal share 1 - lambda * beta_sigma, always in (0, 1]."""
        return 1.0 - self.lam * self.beta_sigma

    def to_dict(self) -> dict:
        return {
            "betas": list(self.betas),
            "beta_sigma": self.beta_sigma,
            "lambda": self.lam,
            "phis": list(self.phis),
            "mus": list(self.mus),
            "tax": self.tax,
        }


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    bracket: tuple[float, float]
    residuals: tuple[float, ...]
    aggregate_residual: float
    # Always 0: every tax rate is solved directly. Kept because the CLI payload
    # and perfbench/spans.py's _solve_attrs read it.
    continuation_steps: int = 0


def _newton(f, lo: float, hi: float, f_lo: float, f_hi: float):
    """Safeguarded Newton on [lo, hi], 0 <= lo < hi; returns (root, iterations, bracket).

    ``f`` returns (value, slope) and must change sign on [lo, hi], whose end
    values ``f_lo`` and ``f_hi`` are passed in; a zero ``f_lo`` is the root,
    and as the one caller's ``f_hi`` is negative the sign check refuses a NaN
    ``f_lo``. From the midpoint each step shrinks the bracket to the sign
    change; a step that leaves it, a NaN slope's among them, bisects it at
    its geometric mean, and a slope that is zero or against the sign change
    raises h_monotonicity. Stops on f = 0 or a step or bracket of at most
    min(BRACKET_WIDTH_REL, 1e-8 hi), hi the current upper end: after a
    relative step of 1e-8 the last Newton step leaves about 1e-16. Raises
    ConstraintViolated("newton_convergence") after 200 steps.
    """
    if f_lo == 0.0:
        return lo, 0, (lo, lo)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoRootInBracket(f"no sign change on [{lo!r}, {hi!r}]")
    tol = BRACKET_WIDTH_REL
    x = 0.5 * (lo + hi)
    for iterations in range(1, 201):
        fx, dfx = f(x)
        if fx == 0.0:
            return x, iterations, (x, x)
        if dfx == 0.0 or (dfx > 0.0 if f_lo > 0.0 else dfx < 0.0):
            raise ConstraintViolated("h_monotonicity", f"slope {dfx!r} at {x!r} does not match the sign change")
        if (fx > 0.0) == (f_lo > 0.0):
            lo = x
        else:
            hi = x
        step = fx / dfx
        if abs(step) <= tol and abs(step) <= 1e-8 * hi:
            return x - step, iterations, (lo, hi)
        x -= step
        if not lo < x < hi:
            x = math.sqrt(lo) * math.sqrt(hi)
        if hi - lo <= tol and hi - lo <= 1e-8 * hi:
            return x, iterations, (lo, hi)
    raise ConstraintViolated("newton_convergence", f"no stop in 200 steps on [{lo!r}, {hi!r}]")


def _sum_left(values) -> float:
    """0.0 + v_0 + v_1 + ..., rounded at every step: the built-in sum() of
    CPython 3.11. From 3.12 sum() compensates float rounding, so its last
    bit can differ, and with it the bits of every output this feeds."""
    total = 0.0
    for v in values:
        total += v
    return total


def _lam(beta_sigma: float, params: ValidatedParams) -> float:
    """lambda = beta_sigma sigma_S^2 / (sigma_K^2 + beta_sigma^2 sigma_S^2)."""
    sS2 = params.sigma_S**2
    return beta_sigma * sS2 / (params.sigma_K**2 + beta_sigma**2 * sS2)


def pricing_from_beta(beta_sigma: float, betas: tuple[float, ...], params: ValidatedParams):
    """Price impact, decay rates, and inventory price weights from loadings.

    lambda = beta_sigma sigma_S^2 / (sigma_K^2 + beta_sigma^2 sigma_S^2);
    phi_i = 1 - (lambda + 2c) beta_i / (1 - lambda beta_sigma); mu_i = lambda phi_i.
    """
    lam = _lam(beta_sigma, params)
    denom = 1.0 - lam * beta_sigma
    c = params.tax
    phis = tuple(1.0 - (lam + 2.0 * c) * b / denom for b in betas)
    mus = tuple(lam * p for p in phis)
    return lam, phis, mus


# In the groups, u = beta_sigma/m, P = u + 2cm (1 + u^2) and s_i = g_i (1 +
# u^2)/P with g_i = gamma_i dt m, the pricing identities give beta_i/m =
# (1 - phi_i)/P, which turns trader i's response quadratic into d phi^2 + w
# phi - s_i = 0 with d = 1 - rho_i dt and w = rho_i dt + s_i. Its positive
# root phi_i = 2s/(w + q) and 1 - phi_i = 2/(w + q + 2d), with q = sqrt(w^2 +
# 4ds), involve no subtraction. The excess is h(u) = sum_i beta_i/m - u. Its
# one evaluator uses plain operators and an injected sqrt, and takes its
# constants from m (one = m/m), not from float literals, so it runs on any
# number type: decimal refuses float operands.


def _excess(traders, dt, m, c, sqrt=math.sqrt):
    """h(u) -> (h, dh/du), the excess and its slope at u = beta_sigma/m.

    ``traders`` carry ``gamma`` and ``rho``; those, ``dt``, ``m`` =
    sigma_K/sigma_S and ``c`` share one number type, on which ``sqrt`` acts.
    Given two lists, h also appends every trader's beta_i and phi_i to them.
    """
    one = m / m
    two = one + one
    rows = []
    for t in traders:
        rdt = t.rho * dt
        d = one - rdt
        d2 = d + d
        rows.append((t.gamma * dt * m, rdt, d2 + d2, d2))
    c_m = c * m
    c2 = c_m + c_m
    c4 = c2 + c2

    def h(u, betas=None, phis=None):
        P = u + c2 * (one + u * u)
        dP = one + c4 * u
        s_per_g = (u * u + one) / P
        ds_per_g = (u + u - s_per_g * dP) / P
        inv_P = one / P
        sum_x = sum_dphi = one - one
        for g, rdt, d4, d2 in rows:
            s = g * s_per_g
            w = rdt + s
            q = sqrt(w * w + d4 * s)
            x = two / (w + q + d2)
            sum_x += x
            if q:  # q = 0 only at dt = 0, where every phi_i stays 0
                # implicit differentiation of the quadratic; 2 d phi + w = q
                sum_dphi += g * ds_per_g * x / q
            if betas is not None:
                betas.append(m * (inv_P * x))
                phis.append((s + s) / (w + q) if q else q)
        return inv_P * sum_x - u, -inv_P * (dP / P * sum_x + sum_dphi) - one

    return h


def system_residual(eq: Equilibrium, params: ValidatedParams) -> tuple[float, ...]:
    """Per-trader residual of the equilibrium system, in the groups.

    Trader i's response quadratic in y = 1 - phi_i = P beta_i/m is d y^2 -
    (1 + d + s_i) y + 1 = 0 (see ``_excess``): its quadratic in beta_i divided
    by r^2 = m^4, which is never formed. y comes from the loading, not phi_i.
    """
    m = params.sigma_K / params.sigma_S
    u = eq.beta_sigma / m
    P = u + 2.0 * params.tax * m * (1.0 + u * u)
    s_per_g = (1.0 + u * u) / P
    out = []
    for t, b in zip(params.traders, eq.betas):
        d = 1.0 - t.rho * params.dt
        y = P * (b / m)
        out.append(abs(d * y * y - (1.0 + d + t.gamma * params.dt * m * s_per_g) * y + 1.0))
    return tuple(out)


def validate_equilibrium(eq: Equilibrium, params: ValidatedParams) -> None:
    """Raise ConstraintViolated unless all structural invariants hold."""
    k = params.k
    if not len(eq.betas) == len(eq.phis) == len(eq.mus) == k:
        raise ConstraintViolated(
            "trader_count",
            f"{len(eq.betas)} betas, {len(eq.phis)} phis and {len(eq.mus)} mus for k={k} traders",
        )
    r = params.vol_ratio_sq
    total = _sum_left(eq.betas)
    if abs(total - eq.beta_sigma) > 1e-12 * abs(eq.beta_sigma):
        raise ConstraintViolated("aggregate_identity", f"sum(betas)={total!r} vs {eq.beta_sigma!r}")
    if not eq.beta_sigma > 0:
        raise ConstraintViolated("beta_sigma_positive")
    lam = _lam(eq.beta_sigma, params)
    if abs(lam - eq.lam) > 1e-12 * abs(lam):
        raise ConstraintViolated("lambda_formula")
    if not eq.lam * eq.beta_sigma < 1.0:
        raise ConstraintViolated("price_impact_share")
    # Each loading is (r/P)(1 - phi_i) with P = beta_sigma + 2c(r + beta_sigma^2)
    bound = r / (eq.beta_sigma + 2.0 * params.tax * (r + eq.beta_sigma * eq.beta_sigma))
    for i, (b, p, m_) in enumerate(zip(eq.betas, eq.phis, eq.mus)):
        if not (0.0 < b <= bound * (1.0 + 1e-12)):
            raise ConstraintViolated("beta_bound", f"trader {i}: beta={b!r} outside (0, {bound!r}]")
        if params.dt == 0.0:
            if p != 0.0:
                raise ConstraintViolated("phi_limit", f"trader {i}: phi={p!r} at dt=0")
            continue
        lo_ok = p > 0.0 if params.tax == 0.0 else p >= 0.0
        if not (lo_ok and p <= 1.0):
            raise ConstraintViolated("phi_range", f"trader {i}: phi={p!r}")
        if abs(m_ - eq.lam * p) > 1e-12 * abs(m_):
            raise ConstraintViolated("mu_formula", f"trader {i}")


def _solve_fixed_point(params: ValidatedParams, h, m: float):
    """Solve sum_i beta_i/m = u for u = beta_sigma/m at the tax rate params.tax.

    ``h`` is the ``_excess`` of ``params``, for any k and dt >= 0, and m =
    sigma_K/sigma_S. Returns the root u, the Newton steps and the final
    bracket. The root is unique: beta_i/m = 2/(P (w_i + q_i + 2d_i)), and
    as u rises P = u + 2cm (1 + u^2) > 0 grows, P w_i = rho_i dt P + g_i (1 +
    u^2) and P q_i = sqrt((P w_i)^2 + 4 d_i P g_i (1 + u^2)) do not fall, and
    2 d_i P grows. So each beta_i falls and h' < -1, taxed or untaxed, at
    every dt >= 0 (for several informed traders, see Holden & Subrahmanyam
    1992, J. Finance 47:247); ``_newton`` refuses a slope that is not
    negative.

    Neither bracket end is searched. The upper end is hi = sqrt(k) + 1:
    phi_i >= 0 and P >= u give beta_i/m <= 1/u, so h(hi) <= k/hi - hi < 0.
    The lower end is 1e-12 or, where h(1e-12) < 0, t_L = min(1, 2k/(3 (1 +
    4cm + 2g))) with g = max_i g_i. As q_i^2 = (rho_i dt - s_i)^2 + 4 s_i,
    w_i + q_i + 2d_i is largest at rho_i dt = 0, where it is 2 + s_i +
    sqrt(s_i^2 + 4 s_i) <= 3 (s_i + 1), so 1 - phi_i >= 2/(3 (s_i + 1)). For
    u <= 1, P <= 1 + 4cm and P s_i <= 2g, so beta_i/m >= 2/(3 (P + P s_i))
    >= 2/(3 (1 + 4cm + 2g)) and h(t_L) >= 0. A t_L that underflows to 0, or
    an excess that overflows at t_L, leaves no sign change to bracket, and
    NoRootInBracket is raised.
    """
    hi = math.sqrt(params.k) + 1.0
    h_hi = h(hi)[0]
    lo = 1e-12
    h_lo = h(lo)[0]
    if h_lo < 0:
        g = max(t.gamma for t in params.traders) * params.dt * m
        lo = min(1.0, 2 * params.k / (3 * (1 + 4 * params.tax * m + 2 * g)))
        if not lo:
            raise NoRootInBracket(f"t_L underflows to 0 at c m = {params.tax * m!r}, max_i gamma_i dt m = {g!r}")
        h_lo = h(lo)[0]
    return _newton(h, lo, hi, h_lo, h_hi)


def solve_taxed(params: ValidatedParams) -> tuple[Equilibrium, SolveDiagnostics]:
    """Equilibrium under a quadratic transaction tax c dL^2 per trade dL, c = params.tax >= 0."""
    return solve_equilibrium(params)


def solve_equilibrium(params: ValidatedParams) -> tuple[Equilibrium, SolveDiagnostics]:
    """Equilibrium at the tax rate params.tax; the one solve path for every tax rate and dt >= 0."""
    m = params.sigma_K / params.sigma_S
    h = _excess(params.traders, params.dt, m, params.tax)
    u, iterations, (lo, hi) = _solve_fixed_point(params, h, m)
    # The decay rates come from the response itself, not from 1 - P beta_i/m.
    betas, phis = [], []
    h(u, betas, phis)
    beta_sigma, bracket = m * u, (m * lo, m * hi)
    betas, phis = tuple(betas), tuple(phis)
    lam = _lam(beta_sigma, params)
    eq = _frozen(Equilibrium, {"betas": betas, "beta_sigma": beta_sigma, "lam": lam, "phis": phis,
                               "mus": tuple(lam * p for p in phis), "tax": params.tax})
    validate_equilibrium(eq, params)
    residuals = system_residual(eq, params)
    worst = max(residuals)
    if not worst <= SYSTEM_RESIDUAL_TOL:
        raise ConstraintViolated("system_residual", f"max residual {worst!r}")
    diag = _frozen(SolveDiagnostics, {"iterations": iterations, "bracket": bracket, "residuals": residuals,
                                      "aggregate_residual": abs(_sum_left(betas) - beta_sigma), "continuation_steps": 0})
    return eq, diag
