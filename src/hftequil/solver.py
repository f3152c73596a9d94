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
bracket whose ends come from the uniqueness proof. A step that would leave
the bracket bisects it at its geometric mean, so the bracket stays a
certificate for the root; the iteration stops once a step or the bracket is
at most both 1e-14 times the problem scale and 1e-8 times its upper end, so
a root far below that scale keeps its precision. One evaluator over any
number type gives it the excess and its slope, and each trader's loading
and decay rate at the root; the tests run it at 50 digits.
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


def _newton(f, lo: float, hi: float, scale: float, f_lo: float, f_hi: float):
    """Safeguarded Newton on [lo, hi], 0 <= lo < hi; returns (root, iterations, bracket).

    ``f`` returns (value, slope) and must change sign on [lo, hi], whose end
    values ``f_lo`` and ``f_hi`` are passed in; a zero ``f_lo`` is the root,
    and as the one caller's ``f_hi`` is negative the sign check refuses a NaN
    ``f_lo``. From the midpoint each step shrinks the bracket to the sign
    change; a step that leaves it, a NaN slope's among them, bisects it at
    its geometric mean, and a slope that is zero or against the sign change
    raises h_monotonicity. Stops on f = 0 or a step or bracket of at most
    min(BRACKET_WIDTH_REL * scale, 1e-8 hi), hi the current upper end: after
    a relative step of 1e-8 the last Newton step leaves about 1e-16. Raises
    ConstraintViolated("newton_convergence") after 200 steps.
    """
    if f_lo == 0.0:
        return lo, 0, (lo, lo)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoRootInBracket(f"no sign change on [{lo!r}, {hi!r}]")
    tol = BRACKET_WIDTH_REL * scale
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


# With r = (sigma_K/sigma_S)^2 and P = beta_sigma + 2c (r + beta_sigma^2) the
# pricing identities give beta_i = (r/P)(1 - phi_i), which turns trader i's
# response quadratic into d phi^2 + w phi - s = 0 with d = 1 - rho_i dt,
# s = gamma_i dt (beta_sigma^2 + r)/P and w = rho_i dt + s. Its positive root
# phi_i = 2s/(w + q) and 1 - phi_i = 2/(w + q + 2d), with q = sqrt(w^2 + 4ds),
# involve no subtraction. The excess is h(beta_sigma) = sum_i beta_i -
# beta_sigma. Its one evaluator uses plain operators and an injected sqrt,
# and takes its constants from r (one = r/r), not from float literals, so it
# runs on any number type: decimal refuses float operands.


def _excess(traders, dt, r, c, sqrt=math.sqrt):
    """h(beta_sigma) -> (h, dh/dbeta_sigma), the excess and its slope.

    ``traders`` carry ``gamma`` and ``rho``; those, ``dt``, ``r`` and ``c``
    share one number type, on which ``sqrt`` acts. Given two lists, h also
    appends every trader's beta_i and phi_i to them.
    """
    one = r / r
    two = one + one
    rows = []
    for t in traders:
        rdt = t.rho * dt
        d = one - rdt
        d2 = d + d
        rows.append((t.gamma * dt, rdt, d2 + d2, d2))
    c2 = c + c
    c4 = c2 + c2

    def h(beta_sigma, betas=None, phis=None):
        P = beta_sigma + c2 * (r + beta_sigma * beta_sigma)
        dP = one + c4 * beta_sigma
        s_per_gdt = (beta_sigma * beta_sigma + r) / P
        ds_per_gdt = (beta_sigma + beta_sigma - s_per_gdt * dP) / P
        r_over_P = r / P
        sum_x = sum_dphi = one - one
        for gdt, rdt, d4, d2 in rows:
            s = gdt * s_per_gdt
            w = rdt + s
            q = sqrt(w * w + d4 * s)
            x = two / (w + q + d2)
            sum_x += x
            if q:  # q = 0 only at dt = 0, where every phi_i stays 0
                # implicit differentiation of the quadratic; 2 d phi + w = q
                sum_dphi += gdt * ds_per_gdt * x / q
            if betas is not None:
                betas.append(r_over_P * x)
                phis.append((s + s) / (w + q) if q else q)
        return r_over_P * sum_x - beta_sigma, -r_over_P * (dP / P * sum_x + sum_dphi) - one

    return h


def system_residual(eq: Equilibrium, params: ValidatedParams) -> tuple[float, ...]:
    """Per-trader residual of the equilibrium system, scaled by r^2."""
    r = params.vol_ratio_sq
    dt = params.dt
    rr = r * r
    if not 0.0 < rr < math.inf:
        raise ConstraintViolated("system_residual", f"scale r^2 = {rr!r} is not a positive finite float at r = {r!r}")
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


def _solve_fixed_point(params: ValidatedParams, h):
    """Solve sum_i beta_i(beta_sigma) = beta_sigma at the tax rate params.tax.

    ``h`` is the ``_excess`` of ``params``, for any k and dt >= 0. Returns
    the root, the Newton steps and the final bracket. The root is unique:
    beta_i = 2r / (P (w_i + q_i + 2d_i)), and as beta_sigma rises
    P = beta_sigma + 2c (r + beta_sigma^2) > 0 grows, P w_i = rho_i dt P +
    gamma_i dt (beta_sigma^2 + r) and P q_i = sqrt((P w_i)^2 + 4 d_i P
    gamma_i dt (beta_sigma^2 + r)) do not fall, and 2 d_i P grows. So each
    beta_i falls and h' < -1, taxed or untaxed, at every dt >= 0 (for
    several informed traders, see Holden & Subrahmanyam 1992, J. Finance
    47:247); ``_newton`` refuses a slope that is not negative.

    Neither bracket end is searched. With m = sigma_K/sigma_S, the upper end
    is hi = (sqrt(k) + 1) m: phi_i >= 0 and P >= beta_sigma give beta_i <=
    r/beta_sigma, so h(hi) <= k r/hi - hi < 0. The lower end is 1e-12 m or,
    where h(1e-12 m) < 0, t_L = m min(1, 2k/(3 (1 + 4cm + 2m g))) with
    g = max_i gamma_i dt. As q_i^2 = (rho_i dt - s_i)^2 + 4 s_i, w_i + q_i +
    2d_i is largest at rho_i dt = 0, where it is 2 + s_i + sqrt(s_i^2 + 4 s_i)
    <= 3 (s_i + 1), so 1 - phi_i >= 2/(3 (s_i + 1)). For beta_sigma <= m,
    P <= m (1 + 4cm) and P s_i <= 2 m^2 g, so beta_i >= 2r/(3 (P + P s_i))
    >= 2m/(3 (1 + 4cm + 2m g)) and h(t_L) >= 0. An excess that overflows at
    t_L leaves no sign change, and ``_newton`` raises NoRootInBracket.
    """
    m = params.sigma_K / params.sigma_S
    hi = math.sqrt(params.k) * m + m
    h_hi = h(hi)[0]
    lo = 1e-12 * m
    h_lo = h(lo)[0]
    if h_lo < 0:
        g = max(t.gamma for t in params.traders) * params.dt
        lo = m * min(1.0, 2 * params.k / (3 * (1 + 4 * params.tax * m + 2 * m * g)))
        h_lo = h(lo)[0]
    return _newton(h, lo, hi, m, h_lo, h_hi)


def solve_taxed(params: ValidatedParams) -> tuple[Equilibrium, SolveDiagnostics]:
    """Equilibrium under a quadratic transaction tax c dL^2 per trade dL, c = params.tax >= 0."""
    return solve_equilibrium(params)


def solve_equilibrium(params: ValidatedParams) -> tuple[Equilibrium, SolveDiagnostics]:
    """Equilibrium at the tax rate params.tax; the one solve path for every tax rate and dt >= 0."""
    h = _excess(params.traders, params.dt, params.vol_ratio_sq, params.tax)
    beta_sigma, iterations, bracket = _solve_fixed_point(params, h)
    # The decay rates come from the response itself, not from 1 - P beta_i / r.
    betas, phis = [], []
    h(beta_sigma, betas, phis)
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
