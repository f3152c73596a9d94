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
the aggregate solves t (t + 2c (r + t^2)) = k r.

All root finding is one safeguarded Newton iteration on a sign-changing
bracket: a step that would leave the bracket is replaced by bisection, so
the bracket stays a certificate for the root, and the iteration stops once
a step or the bracket is narrower than 1e-14 times the problem scale.
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
_MAX_BRACKET_EXPANSIONS = 60


class SolverError(RuntimeError):
    """Base class for structured solver failures."""


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
    def k(self) -> int:
        return len(self.betas)

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
    h_samples: tuple[tuple[float, float], ...] = ()
    # Always 0: every tax rate is solved directly. Kept for the CLI payload.
    continuation_steps: int = 0


def _newton(f, lo: float, hi: float, scale: float, f_lo: float, f_hi: float):
    """Safeguarded Newton on [lo, hi]; returns (root, iterations, bracket).

    ``f`` returns (value, slope) and must change sign on [lo, hi]; ``f_lo``
    and ``f_hi`` are its values at the ends, passed in so that no end is
    evaluated twice. Starting from the midpoint, each step shrinks the
    bracket to the sign change; a Newton step that leaves it, or a zero
    slope, becomes a bisection step. Stops on f = 0 or once the step or the
    bracket is at most BRACKET_WIDTH_REL * scale.
    """
    if f_lo == 0.0:
        return lo, 0, (lo, lo)
    if f_hi == 0.0:
        return hi, 0, (hi, hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoRootInBracket(f"no sign change on [{lo!r}, {hi!r}]")
    tol = BRACKET_WIDTH_REL * scale
    x = 0.5 * (lo + hi)
    for iterations in range(1, 201):
        fx, dfx = f(x)
        if fx == 0.0:
            return x, iterations, (x, x)
        if (fx > 0.0) == (f_lo > 0.0):
            lo = x
        else:
            hi = x
        step = fx / dfx if dfx != 0.0 else math.inf
        if abs(step) <= tol:
            return x - step, iterations, (lo, hi)
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
    return x, iterations, (lo, hi)


def _expand(f, x: float, factor: float, sign: float, failure: str) -> tuple[float, float]:
    """Multiply ``x`` by ``factor`` while sign * f(x) > 0; returns x and f(x).

    ``f`` returns the value alone. Raises NoRootInBracket(failure) after
    _MAX_BRACKET_EXPANSIONS steps.
    """
    fx = f(x)
    expansions = 0
    while sign * fx > 0:
        x *= factor
        expansions += 1
        if expansions > _MAX_BRACKET_EXPANSIONS:
            raise NoRootInBracket(failure)
        fx = f(x)
    return x, fx


def _sum_left(values) -> float:
    """0.0 + v_0 + v_1 + ..., rounded at every step: the built-in sum() of
    CPython 3.11. From 3.12 sum() compensates float rounding, so its last
    bit can differ, and with it the bits of every output this feeds."""
    total = 0.0
    for v in values:
        total += v
    return total


def pricing_from_beta(beta_sigma: float, betas: tuple[float, ...], params: ValidatedParams):
    """Price impact, decay rates, and inventory price weights from loadings.

    lambda = beta_sigma sigma_S^2 / (sigma_K^2 + beta_sigma^2 sigma_S^2);
    phi_i = 1 - (lambda + 2c) beta_i / (1 - lambda beta_sigma); mu_i = lambda phi_i.
    """
    sS2 = params.sigma_S**2
    sK2 = params.sigma_K**2
    lam = beta_sigma * sS2 / (sK2 + beta_sigma**2 * sS2)
    denom = 1.0 - lam * beta_sigma
    c = params.tax
    phis = tuple(1.0 - (lam + 2.0 * c) * b / denom for b in betas)
    mus = tuple(lam * p for p in phis)
    return lam, phis, mus


def _trader_rows(params: ValidatedParams) -> tuple[tuple[float, float, float, float], ...]:
    """Per trader (gamma_i dt, rho_i dt, 4d, 2d) with d = 1 - rho_i dt, formed once per solve."""
    dt = params.dt
    rows = []
    for t in params.traders:
        rdt = t.rho * dt
        d = 1.0 - rdt
        rows.append((t.gamma * dt, rdt, 4.0 * d, 2.0 * d))
    return tuple(rows)


# With r = (sigma_K/sigma_S)^2 and P = beta_sigma + 2c (r + beta_sigma^2) the
# pricing identities give beta_i = (r/P)(1 - phi_i), which turns trader i's
# response quadratic into d phi^2 + w phi - s = 0 with d = 1 - rho_i dt,
# s = gamma_i dt (beta_sigma^2 + r)/P and w = rho_i dt + s. Its positive root
# phi_i = 2s/(w + q) and 1 - phi_i = 2/(w + q + 2d), with q = sqrt(w^2 + 4ds),
# involve no subtraction. The excess is h(beta_sigma) = sum_i beta_i -
# beta_sigma. The three evaluators below repeat the per-trader lines, each
# computing only what its caller reads, with the same operations in the
# same order, so they agree bit for bit.


def _excess(rows, r: float, c: float):
    """Value-only excess h(beta_sigma), for the bracket and the monotone witness."""
    c2 = 2.0 * c
    sqrt = math.sqrt

    def h(beta_sigma: float) -> float:
        P = beta_sigma + c2 * (r + beta_sigma * beta_sigma)
        s_per_gdt = (beta_sigma * beta_sigma + r) / P
        sum_x = 0.0
        for gdt, rdt, d4, d2 in rows:
            s = gdt * s_per_gdt
            w = rdt + s
            q = sqrt(w * w + d4 * s)
            sum_x += 2.0 / (w + q + d2)
        return r / P * sum_x - beta_sigma

    return h


def _excess_and_slope(rows, r: float, c: float):
    """(h, dh/dbeta_sigma) at beta_sigma, for Newton's steps."""
    c2 = 2.0 * c
    c4 = 4.0 * c
    sqrt = math.sqrt

    def h(beta_sigma: float) -> tuple[float, float]:
        P = beta_sigma + c2 * (r + beta_sigma * beta_sigma)
        dP = 1.0 + c4 * beta_sigma
        s_per_gdt = (beta_sigma * beta_sigma + r) / P
        ds_per_gdt = (2.0 * beta_sigma - s_per_gdt * dP) / P
        sum_x = sum_dphi = 0.0
        for gdt, rdt, d4, d2 in rows:
            s = gdt * s_per_gdt
            w = rdt + s
            q = sqrt(w * w + d4 * s)
            x = 2.0 / (w + q + d2)
            sum_x += x
            if q:  # q = 0 only at dt = 0, where every phi_i stays 0
                # implicit differentiation of the quadratic; 2 d phi + w = q
                sum_dphi += gdt * ds_per_gdt * x / q
        r_over_P = r / P
        return r_over_P * sum_x - beta_sigma, -r_over_P * (dP / P * sum_x + sum_dphi) - 1.0

    return h


def _responses(beta_sigma: float, rows, r: float, c: float):
    """(betas, phis) of every trader at the aggregate beta_sigma."""
    P = beta_sigma + 2.0 * c * (r + beta_sigma * beta_sigma)
    s_per_gdt = (beta_sigma * beta_sigma + r) / P
    r_over_P = r / P
    betas = []
    phis = []
    for gdt, rdt, d4, d2 in rows:
        s = gdt * s_per_gdt
        w = rdt + s
        q = math.sqrt(w * w + d4 * s)
        betas.append(r_over_P * (2.0 / (w + q + d2)))
        phis.append(2.0 * s / (w + q) if q else 0.0)
    return tuple(betas), tuple(phis)


def system_residual(eq: Equilibrium, params: ValidatedParams) -> tuple[float, ...]:
    """Per-trader residual of the equilibrium system, scaled by r^2."""
    r = params.vol_ratio_sq
    dt = params.dt
    rr = r * r
    if rr == 0.0:
        raise ConstraintViolated("system_residual", f"scale r^2 underflows to 0 at r = {r!r}")
    # trader i's response quadratic a x^2 + b x + r^2 = 0 at the aggregate
    bs2 = eq.beta_sigma**2
    P = eq.beta_sigma + 2.0 * params.tax * (r + bs2)
    out = []
    for i, t in enumerate(params.traders):
        rdt = t.rho * dt
        a = (1.0 - rdt) * P * P
        b = -((P * (2.0 - rdt) + bs2 * t.gamma * dt) * r + rr * t.gamma * dt)
        bi = eq.betas[i]
        out.append(abs(a * bi * bi + b * bi + rr) / rr)
    return tuple(out)


def validate_equilibrium(eq: Equilibrium, params: ValidatedParams) -> None:
    """Raise ConstraintViolated unless all structural invariants hold."""
    r = params.vol_ratio_sq
    total = _sum_left(eq.betas)
    if abs(total - eq.beta_sigma) > 1e-12 * max(1.0, abs(eq.beta_sigma)):
        raise ConstraintViolated("aggregate_identity", f"sum(betas)={total!r} vs {eq.beta_sigma!r}")
    if not eq.beta_sigma > 0:
        raise ConstraintViolated("beta_sigma_positive")
    lam = pricing_from_beta(eq.beta_sigma, (), params)[0]
    if abs(lam - eq.lam) > 1e-12 * max(1.0, abs(lam)):
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
        if abs(m_ - eq.lam * p) > 1e-12 * max(1.0, abs(m_)):
            raise ConstraintViolated("mu_formula", f"trader {i}")


def _solve_fixed_point(params: ValidatedParams, rows):
    """Solve sum_i beta_i(beta_sigma) = beta_sigma at the tax rate params.tax.

    Covers every k and dt >= 0: at dt = 0 every decay rate is 0 and each
    loading is r/P, so the root solves t (t + 2c (r + t^2)) = k r. ``rows``
    is ``_trader_rows(params)``. Returns the root, the Newton steps, the
    final bracket and the monotone-excess witness samples.
    """
    m = params.sigma_K / params.sigma_S
    r = params.vol_ratio_sq
    h = _excess(rows, r, params.tax)
    hi, h_hi = _expand(h, math.sqrt(params.k) * m + m, 2.0, 1.0, "aggregate fixed point not bracketed above")
    lo, h_lo = _expand(h, 1e-12 * m, 0.5, -1.0, "aggregate fixed point not bracketed below")
    root, iterations, bracket = _newton(_excess_and_slope(rows, r, params.tax), lo, hi, m, h_lo, h_hi)

    # Monotone-excess witness: sample a decade around the solution. A strictly
    # decreasing excess is what guarantees the fixed point is unique. A sample
    # on a bracket end reuses the excess already found there.
    samples = []
    s_lo = max(lo, root / 8.0)
    s_hi = min(hi, root * 8.0)
    for j in range(10):
        x = s_lo + (s_hi - s_lo) * j / 9.0
        samples.append((x, h_lo if x == lo else h_hi if x == hi else h(x)))
    for (x0, h0), (x1, h1) in zip(samples, samples[1:]):
        if not h0 > h1:
            raise ConstraintViolated("h_monotonicity", f"excess not strictly decreasing between {x0!r} and {x1!r}")
    return root, iterations, bracket, tuple(samples)


def solve_taxed(params: ValidatedParams) -> tuple[Equilibrium, SolveDiagnostics]:
    """Equilibrium under a quadratic transaction tax c dL^2 per trade dL, c = params.tax >= 0."""
    return solve_equilibrium(params)


def solve_equilibrium(params: ValidatedParams) -> tuple[Equilibrium, SolveDiagnostics]:
    """Equilibrium at the tax rate params.tax; the one solve path for every tax rate and dt >= 0."""
    rows = _trader_rows(params)
    beta_sigma, iterations, bracket, samples = _solve_fixed_point(params, rows)
    r = params.vol_ratio_sq
    betas, phis = _responses(beta_sigma, rows, r, params.tax)
    # The decay rates come from the response itself, not from 1 - P beta_i / r.
    lam = pricing_from_beta(beta_sigma, (), params)[0]
    eq = _frozen(Equilibrium, {"betas": betas, "beta_sigma": beta_sigma, "lam": lam, "phis": phis,
                               "mus": tuple(lam * p for p in phis), "tax": params.tax})
    validate_equilibrium(eq, params)
    residuals = system_residual(eq, params)
    worst = max(residuals)
    if worst > SYSTEM_RESIDUAL_TOL:
        raise ConstraintViolated("system_residual", f"max residual {worst!r}")
    diag = _frozen(SolveDiagnostics, {
        "iterations": iterations,
        "bracket": bracket,
        "residuals": residuals,
        "aggregate_residual": abs(_sum_left(betas) - beta_sigma),
        "h_samples": samples,
        "continuation_steps": 0,
    })
    return eq, diag
