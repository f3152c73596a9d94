"""Named consistency checks over a solved equilibrium.

Deterministic checks confirm the fixed-point equations, pricing
identities, and the dynamic programming equation to tight tolerances.
The untaxed monopolist at dt > 0 has one more: its loading, which the
solver finds as the k = 1 game's aggregate fixed point, must also be the
admissible root of the single-trader quartic, at or below sigma_K/sigma_S.
Only this module evaluates the quartic, so its residual is a witness
independent of the solve. Monte Carlo checks confirm the statistical
claims (dealer zero profit, impact regression, inventory moments, the
objective's value, and that the equilibrium strategy beats its
neighbours). Each check reports one named result so a failure points at
the responsible layer.

Most Monte Carlo checks come from one streaming pass over shared paths:
the simulator plays trader 0's equilibrium row and three neighbours
block by block, and row 0, the game every trader plays at equilibrium,
also feeds the dealer's profit, the impact regression and the
mark-to-market. Memory therefore does not grow with the number of paths
past 4096, where the simulator's walk holds its full share of blocks.
``paths`` is 0, which skips this battery, or an integer of at least 2.
Three calls stay separate. The objective check runs over the full
discount horizon rather than ``mc_horizon``, and the reduced-form witness
needs every series of a small batch in which trader 0 deviates. The
moment check could be read off the same blocks, but it stays a call to
``simulate_second_moment``, the public estimator it holds to the formula;
the traced benchmark in ``perfbench`` also reads the spans of all three.

Strict mode is decided here alone; ``verify --strict`` passes the switch
on. ``run_verification(strict=True)`` halves every deterministic gate and
runs four times the paths, so each Monte Carlo tolerance halves at the
same number of standard errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ValidatedParams
from .solver import (
    SYSTEM_RESIDUAL_TOL,
    Equilibrium,
    SolverError,
    _sum_left,
    solve_equilibrium,
    system_residual,
)
from . import simulator as sim
from .value import (
    dpe_argmax_gap,
    dpe_residual,
    value_coefficients,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "run_verification",
]

# Gates of the deterministic checks, which strict mode halves; the system
# gate is the solver's own SYSTEM_RESIDUAL_TOL. _MC_SIGMAS, the standard
# errors a Monte Carlo estimate may stray from its target, stays in strict
# mode, so each Monte Carlo check keeps its false-alarm rate.
_QUARTIC_GATE = 1e-12
_IDENTITY_GATE = 1e-12
_DPE_GATE = 1e-9
_MC_SIGMAS = 4.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""
    warning: bool = False


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.results if not r.passed)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _quartic(beta: float, r: float, g: float, rho: float, dt: float) -> float:
    return (
        beta**4 * (1.0 - rho * dt)
        - (2.0 - rho * dt + beta * g * dt) * r * beta * beta
        + r * r * (1.0 - beta * g * dt)
    )


def _quartic_scale(beta: float, r: float, g: float, rho: float, dt: float) -> float:
    """Magnitude of the quartic's monomials at beta, for relative residuals."""
    return max(
        abs(beta**4 * (1.0 - rho * dt)),
        abs((2.0 - rho * dt + beta * g * dt) * r * beta * beta),
        abs(r * r * (1.0 + beta * g * dt)),
    )


def _check_quartic(eq: Equilibrium, params: ValidatedParams, gate: float) -> CheckResult:
    t = params.traders[0]
    r = params.vol_ratio_sq
    beta = eq.betas[0]
    scale = _quartic_scale(beta, r, t.gamma, t.rho, params.dt)
    value = abs(_quartic(beta, r, t.gamma, t.rho, params.dt)) / scale
    return CheckResult("quartic_residual", value <= gate, value, gate)


def _check_system(eq: Equilibrium, params: ValidatedParams, gate: float) -> CheckResult:
    value = max(system_residual(eq, params))
    return CheckResult("system_residuals", value <= gate, value, gate)


def _check_pricing(eq: Equilibrium, params: ValidatedParams, gate: float) -> CheckResult:
    sS2 = params.sigma_S**2
    sK2 = params.sigma_K**2
    lam_formula = eq.beta_sigma * sS2 / (sK2 + eq.beta_sigma**2 * sS2)
    gaps = [_rel(eq.lam, lam_formula), _rel(_sum_left(eq.betas), eq.beta_sigma)]
    denom = 1.0 - eq.lam * eq.beta_sigma
    for b, p, mu in zip(eq.betas, eq.phis, eq.mus):
        gaps.append(_rel(p, 1.0 - (eq.lam + 2.0 * eq.tax) * b / denom))
        gaps.append(_rel(mu, eq.lam * p))
    gaps.append(max(0.0, -eq.eta))
    gaps.append(max(0.0, eq.lam * eq.beta_sigma - 1.0))
    value = max(gaps)
    return CheckResult("pricing_identities", value <= gate, value, gate)


def _check_phi_bounds(eq: Equilibrium, params: ValidatedParams) -> CheckResult:
    margin = min(min(eq.phis), min(1.0 - p for p in eq.phis))
    if params.dt == 0.0:
        ok = all(p == 0.0 for p in eq.phis)
        return CheckResult("phi_bounds", ok, 0.0 if ok else 1.0, 0.0, detail="dt=0 limit: phi must be exactly 0")
    strict_lower = params.tax == 0.0
    ok = all((p > 0.0 if strict_lower else p >= 0.0) and p <= 1.0 for p in eq.phis)
    return CheckResult("phi_bounds", ok, margin, 0.0, detail=f"phis={list(eq.phis)!r}")


def _value_equation_residuals(coeffs, eq: Equilibrium, i: int, params: ValidatedParams) -> float:
    t = params.traders[i]
    gdt = t.gamma * params.dt
    disc = 1.0 - t.rho * params.dt
    beta, phi, lam, eta = eq.betas[i], eq.phis[i], eq.lam, eq.eta
    A, B, C, D, E, zeta, F, G = (
        coeffs.A, coeffs.B, coeffs.C, coeffs.D, coeffs.E, coeffs.zeta, coeffs.F, coeffs.G,
    )
    p = gdt + 2.0 * lam * t.rho * params.dt
    q = 2.0 * lam * gdt * disc
    res = [
        _rel(A, disc * (1.0 - phi) ** 2 * (A + gdt)),
        _rel(B, disc * beta * (2.0 * eta - beta * (A + gdt))),
        _rel(C, disc * (beta * (1.0 - phi) * (A + gdt) + phi * eta)),
        _rel(D, disc * (D + 0.5 * B * params.sigma_S**2 * params.dt)),
        abs(E * E + E * p - q) / max(1.0, q),
        _rel(zeta * (E + gdt + 2.0 * lam), E + gdt),
        _rel(
            F * (phi + (1.0 - phi) * (zeta * disc + t.rho * params.dt)),
            disc * (lam * phi * zeta + (1.0 - zeta) * (1.0 - phi) * gdt),
        ),
        _rel(G, disc * (-beta * (1.0 - zeta) * (F + gdt) + zeta * (lam * beta - eta))),
    ]
    return max(res)


def _check_value_layer(eq, params, identity_gate, dpe_gate):
    try:
        coeff_list = [value_coefficients(eq, i, params) for i in range(params.k)]
    except SolverError as exc:
        # Reported as five failed checks, so verification never raises here.
        error = f"value_coefficients raised {type(exc).__name__}: {exc}"
        coeff_list = None
        fixed = link = dpe = argmax = sign_margin = math.nan
        g_warn = False
    else:
        error = ""
        fixed = max(_value_equation_residuals(coeff_list[i], eq, i, params) for i in range(params.k))
        link = 0.0
        for i, coeffs in enumerate(coeff_list):
            t = params.traders[i]
            gdt = t.gamma * params.dt
            disc = 1.0 - t.rho * params.dt
            phi = eq.phis[i]
            link = max(
                link,
                _rel(coeffs.F + gdt, eq.lam * phi / (1.0 - phi)),
                _rel(coeffs.E, 2.0 * eq.lam * coeffs.zeta * disc),
            )
        dpe = max(dpe_residual(coeff_list[i], eq, i, params) for i in range(params.k))
        argmax = max(dpe_argmax_gap(coeff_list[i], eq, i, params) for i in range(params.k))

        sign_margin = math.inf
        g_warn = False
        for coeffs in coeff_list:
            hard = (coeffs.A, coeffs.B, coeffs.C, coeffs.D, coeffs.E, coeffs.F, coeffs.zeta, 1.0 - coeffs.zeta)
            sign_margin = min(sign_margin, min(hard))
            if coeffs.G > 0.0:
                g_warn = True
    sign_ok = sign_margin > 0.0
    results = [
        CheckResult("value_fixed_point", fixed <= identity_gate, fixed, identity_gate, detail=error),
        CheckResult("value_link_identity", link <= identity_gate, link, identity_gate, detail=error),
        CheckResult("dpe_residual", dpe <= dpe_gate, dpe, dpe_gate, detail=error),
        CheckResult("dpe_argmax", argmax <= identity_gate, argmax, identity_gate, detail=error),
        CheckResult(
            "sign_pattern",
            sign_ok,
            sign_margin,
            0.0,
            detail=error or ("G > 0, usually a sign of borderline parameters" if g_warn else ""),
            warning=g_warn and sign_ok,
        ),
    ]
    return results, coeff_list


# Trader 0's equilibrium row and three neighbours. Row 0 is the game that
# ``simulate`` plays with every trader on equilibrium, bit for bit.
_SWEEP_SPECS = (
    sim.StrategySpec.equilibrium(),
    sim.StrategySpec.scaled(beta_scale=1.15),
    sim.StrategySpec.scaled(beta_scale=0.85),
    sim.StrategySpec.with_z(zeta=0.5, z0=1.0),
)


def _max_z_gate(sigmas: float, m: int) -> float:
    """Gate for the largest of m z-scores at the false-alarm rate of one.

    This is the Bonferroni bound, the first step of Holm (1979, Scand. J.
    Statist. 6:65): each z is held to a tail m times smaller.
    """
    if m == 1:
        return sigmas
    # Imported on use: statistics loads decimal and fractions, which would
    # add about 2 ms to the start-up of every command.
    from statistics import NormalDist

    normal = NormalDist()
    return normal.inv_cdf(1.0 - (1.0 - normal.cdf(sigmas)) / m)


def _z(estimate, target, std_error) -> float:
    """|estimate - target| in standard errors. A zero standard error, one value
    on every path, gives 0 on an exact match and inf otherwise; a NaN gives inf."""
    gap = abs(estimate - target)
    z = gap / std_error if std_error else (0.0 if gap == 0.0 else math.inf)
    return z if z == z else math.inf


def _z_check(name, estimate, target, std_error, sigmas, detail=""):
    """One Monte Carlo estimate held to its target within ``sigmas`` standard errors."""
    value = _z(estimate, target, std_error)
    return CheckResult(name, value <= sigmas, value, sigmas, detail=detail)


def _mc_checks(eq, params, coeff_list, identity_gate, paths, seed, mc_horizon):
    results = []
    sig = _MC_SIGMAS
    stats = sim._GameStats(eq)
    sweep = sim._sweep(
        eq, params, 0, _SWEEP_SPECS, n_paths=paths, horizon=mc_horizon, seed=seed, stats=stats
    )

    profit = stats.check()
    mean, se = profit.profit.mean, profit.profit.std_error
    results.append(_z_check("zero_profit_mc", mean, 0.0, se, sig, f"mean={mean!r} se={se!r}"))
    results.append(
        _z_check(
            "impact_regression_mc", profit.slope, eq.lam, profit.slope_se, sig,
            f"slope={profit.slope!r} lambda={eq.lam!r}",
        )
    )

    checkpoints = sorted({1, min(10, mc_horizon), min(50, mc_horizon)})
    m0 = params.traders[0].initial_inventory
    moments = sim.simulate_second_moment(eq, 0, params, checkpoints, n_paths=paths, seed=seed)
    worst = max(_z(est.mean, sim.inventory_second_moment(eq, 0, params, n, M0=m0), est.std_error)
                for n, est in moments.items())
    gate = _max_z_gate(sig, len(moments))
    results.append(CheckResult("moment_formula_mc", worst <= gate, worst, gate))

    mtm = stats.mtm.estimate()
    results.append(_z_check("mark_to_market_mc", mtm.mean, 0.0, mtm.std_error, sig))

    if coeff_list is not None:
        try:
            full_horizon = sim.default_horizon(params, cap=20000)
        except sim.HorizonTooShort:
            full_horizon = None
        if full_horizon is not None:
            res = sim.simulate_objective(
                eq, None, params, 0, n_paths=paths, horizon=full_horizon, seed=seed
            )
            coeffs = coeff_list[0]
            target = -0.5 * coeffs.A * (m0 * m0) + 0.5 * coeffs.B * params.sigma_S**2 * params.dt + coeffs.D
            mc, se = res.objective.mean, res.objective.std_error
            results.append(_z_check("objective_value_mc", mc, target, se, sig, f"mc={mc!r} target={target!r}"))

    ok = sweep.best_index == sweep.reference_index and sweep.reference_dominates(slack=sig)
    results.append(
        CheckResult(
            "deviation_argmax_mc",
            ok,
            float(sweep.best_index),
            float(sweep.reference_index),
            detail="equilibrium row must maximise the paired comparison",
        )
    )

    batch = sim.simulate(
        eq,
        {0: sim.StrategySpec.with_z(zeta=0.3, z0=0.7)},
        params,
        n_paths=min(paths, 256),
        horizon=min(mc_horizon, 64),
        seed=seed,
    )
    gap = sim.reduced_form_gap(batch)
    # The gap is rounding error in terms as large as the price adjustment, the
    # signal move and mu_j M_j, which the identity cancels against lambda phi_j
    # M_j, so the identity tolerance is relative to them.
    scale = max(1.0, float(abs(batch.price_adj).max()), float(abs(batch.dS).max()),
                *(mu * float(abs(batch.M[:, j]).max()) for j, mu in enumerate(eq.mus)))
    gate = identity_gate * scale
    results.append(CheckResult("reduced_form_witness", gap <= gate, gap, gate))
    return results


def run_verification(
    params: ValidatedParams,
    *,
    paths: int = 4096,
    seed: int = 0,
    strict: bool = False,
    mc_horizon: int = 256,
) -> VerificationReport:
    """Solve the game for ``params`` and run every applicable check.

    ``paths = 0`` skips the Monte Carlo battery; any other count must be an
    integer of at least 2. ``mc_horizon`` and ``seed`` are checked first
    too, whatever ``paths`` is. Value-layer checks run for the untaxed game at
    dt > 0, where the quadratic value function applies. ``strict=True``
    halves every deterministic gate and runs four times ``paths``, which
    halves the Monte Carlo checks' absolute tolerances at the same number
    of standard errors.
    """
    if not sim._is_int(paths) or paths < 0 or paths == 1:
        raise ValueError(f"paths must be 0 or an integer of at least 2, got {paths!r}")
    if not sim._is_int(mc_horizon) or mc_horizon < 1:
        raise ValueError(f"mc_horizon must be an integer of at least 1, got {mc_horizon!r}")
    if not sim._is_int(seed) or not 0 <= seed < sim._MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    gate_scale = 0.5 if strict else 1.0
    if strict:
        paths *= 4
    identity_gate = gate_scale * _IDENTITY_GATE
    eq, _ = solve_equilibrium(params)
    results: list[CheckResult] = []
    if params.k == 1 and params.tax == 0.0 and params.dt > 0.0:
        results.append(_check_quartic(eq, params, gate_scale * _QUARTIC_GATE))
    results.append(_check_system(eq, params, gate_scale * SYSTEM_RESIDUAL_TOL))
    results.append(_check_pricing(eq, params, identity_gate))
    results.append(_check_phi_bounds(eq, params))
    coeff_list = None
    if params.tax == 0.0 and params.dt > 0.0:
        value_results, coeff_list = _check_value_layer(eq, params, identity_gate, gate_scale * _DPE_GATE)
        results.extend(value_results)
    if paths and params.dt > 0.0:
        # A huge initial inventory overflows some Monte Carlo sums to inf, and
        # inf - inf is NaN; such an estimate fails its check with value inf.
        # Forked workers inherit the error state.
        with np.errstate(over="ignore", invalid="ignore"):
            results.extend(_mc_checks(eq, params, coeff_list, identity_gate, paths, seed, mc_horizon))
    return VerificationReport(tuple(results))
