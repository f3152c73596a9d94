"""Named consistency checks over a solved equilibrium.

Deterministic checks confirm the fixed-point equations, pricing
identities, and the dynamic programming equation to tight tolerances;
Monte Carlo checks confirm the statistical claims (dealer zero profit,
impact regression, inventory moments, the objective's value, and that the
equilibrium strategy beats its neighbours). Each check reports one named
result so a failure points at the responsible layer.

Most Monte Carlo checks come from one streaming pass over shared paths:
the simulator plays trader 0's equilibrium row and three neighbours
block by block, and row 0, the game every trader plays at equilibrium,
also feeds the dealer's profit, the impact regression and the
mark-to-market. Memory therefore does not grow with the number of paths.
Three calls stay separate. The objective check runs over the full
discount horizon rather than ``mc_horizon``, and the reduced-form witness
needs every series of a small batch in which trader 0 deviates. The
moment check could be read off the same blocks, but it stays a call to
``simulate_second_moment``, the public estimator it holds to the formula;
the traced benchmark in ``perfbench`` also reads the spans of all three.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import ValidatedParams
from .solver import (
    Equilibrium,
    SolverError,
    _quartic,
    _quartic_scale,
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
    "Tolerances",
    "CheckResult",
    "VerificationReport",
    "run_verification",
]


@dataclass(frozen=True)
class Tolerances:
    quartic_residual: float = 1e-12
    system_residual: float = 1e-10
    identity: float = 1e-12
    dpe_residual: float = 1e-9
    mc_sigmas: float = 4.0

    @classmethod
    def strict(cls) -> "Tolerances":
        """Half of every deterministic tolerance.

        ``mc_sigmas`` stays, so a Monte Carlo check keeps its false-alarm
        rate; its absolute tolerance halves when the paths are quadrupled,
        as ``verify --strict`` does.
        """
        base = cls()
        return replace(
            base,
            quartic_residual=base.quartic_residual / 2,
            system_residual=base.system_residual / 2,
            identity=base.identity / 2,
            dpe_residual=base.dpe_residual / 2,
        )


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


def _check_quartic(eq: Equilibrium, params: ValidatedParams, tol: Tolerances) -> CheckResult:
    t = params.traders[0]
    r = params.vol_ratio_sq
    beta = eq.betas[0]
    scale = _quartic_scale(beta, r, t.gamma, t.rho, params.dt)
    value = abs(_quartic(beta, r, t.gamma, t.rho, params.dt)) / scale
    return CheckResult("quartic_residual", value <= tol.quartic_residual, value, tol.quartic_residual)


def _check_system(eq: Equilibrium, params: ValidatedParams, tol: Tolerances) -> CheckResult:
    value = max(system_residual(eq, params))
    return CheckResult("system_residuals", value <= tol.system_residual, value, tol.system_residual)


def _check_pricing(eq: Equilibrium, params: ValidatedParams, tol: Tolerances) -> CheckResult:
    sS2 = params.sigma_S**2
    sK2 = params.sigma_K**2
    lam_formula = eq.beta_sigma * sS2 / (sK2 + eq.beta_sigma**2 * sS2)
    gaps = [_rel(eq.lam, lam_formula), _rel(sum(eq.betas), eq.beta_sigma)]
    denom = 1.0 - eq.lam * eq.beta_sigma
    for b, p, mu in zip(eq.betas, eq.phis, eq.mus):
        gaps.append(_rel(p, 1.0 - (eq.lam + 2.0 * eq.tax) * b / denom))
        gaps.append(_rel(mu, eq.lam * p))
    gaps.append(max(0.0, -eq.eta))
    gaps.append(max(0.0, eq.lam * eq.beta_sigma - 1.0))
    value = max(gaps)
    return CheckResult("pricing_identities", value <= tol.identity, value, tol.identity)


def _check_phi_bounds(eq: Equilibrium, params: ValidatedParams, tol: Tolerances) -> CheckResult:
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


def _check_value_layer(eq, params, tol):
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
        CheckResult("value_fixed_point", fixed <= tol.identity, fixed, tol.identity, detail=error),
        CheckResult("value_link_identity", link <= tol.identity, link, tol.identity, detail=error),
        CheckResult("dpe_residual", dpe <= tol.dpe_residual, dpe, tol.dpe_residual, detail=error),
        CheckResult("dpe_argmax", argmax <= tol.identity, argmax, tol.identity, detail=error),
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


def _mc_checks(eq, params, coeff_list, tol, paths, seed, mc_horizon):
    results = []
    sig = tol.mc_sigmas
    stats = sim._GameStats(eq)
    sweep = sim._sweep(
        eq, params, 0, _SWEEP_SPECS, n_paths=paths, horizon=mc_horizon, seed=seed, stats=stats
    )

    profit = stats.check()
    value = abs(profit.profit.mean) / profit.profit.std_error
    results.append(
        CheckResult(
            "zero_profit_mc",
            value <= sig,
            value,
            sig,
            detail=f"mean={profit.profit.mean!r} se={profit.profit.std_error!r}",
        )
    )
    value = abs(profit.slope - eq.lam) / profit.slope_se
    results.append(
        CheckResult(
            "impact_regression_mc",
            value <= sig,
            value,
            sig,
            detail=f"slope={profit.slope!r} lambda={eq.lam!r}",
        )
    )

    checkpoints = sorted({1, min(10, mc_horizon), min(50, mc_horizon)})
    m0 = params.traders[0].initial_inventory
    moments = sim.simulate_second_moment(eq, 0, params, checkpoints, n_paths=paths, seed=seed)
    worst = 0.0
    for n, est in moments.items():
        target = sim.inventory_second_moment(eq, 0, params, n, M0=m0)
        worst = max(worst, abs(est.mean - target) / est.std_error)
    gate = _max_z_gate(sig, len(moments))
    results.append(CheckResult("moment_formula_mc", worst <= gate, worst, gate))

    mtm = stats.mtm.estimate()
    value = abs(mtm.mean) / mtm.std_error
    results.append(CheckResult("mark_to_market_mc", value <= sig, value, sig))

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
            target = -0.5 * coeffs.A * m0**2 + 0.5 * coeffs.B * params.sigma_S**2 * params.dt + coeffs.D
            value = abs(res.objective.mean - target) / res.objective.std_error
            results.append(
                CheckResult(
                    "objective_value_mc",
                    value <= sig,
                    value,
                    sig,
                    detail=f"mc={res.objective.mean!r} target={target!r}",
                )
            )

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

    witness_batch = sim.simulate(
        eq,
        {0: sim.StrategySpec.with_z(zeta=0.3, z0=0.7)},
        params,
        n_paths=min(paths, 256),
        horizon=min(mc_horizon, 64),
        seed=seed,
    )
    gap = sim.reduced_form_gap(witness_batch)
    # The gap is rounding error in terms as large as the price adjustment and
    # the signal move, so the identity tolerance is relative to them.
    scale = max(1.0, float(abs(witness_batch.price_adj).max()), float(abs(witness_batch.dS).max()))
    gate = tol.identity * scale
    results.append(CheckResult("reduced_form_witness", gap <= gate, gap, gate))
    return results


def run_verification(
    params: ValidatedParams,
    *,
    paths: int = 4096,
    seed: int = 0,
    tolerances: Tolerances | None = None,
    mc_horizon: int = 256,
) -> VerificationReport:
    """Solve the game for ``params`` and run every applicable check.

    ``paths = 0`` skips the Monte Carlo battery. Value-layer checks run for
    the untaxed game at dt > 0, where the quadratic value function applies.
    """
    tol = tolerances or Tolerances()
    eq, _ = solve_equilibrium(params)
    results: list[CheckResult] = []
    if params.k == 1 and params.tax == 0.0 and params.dt > 0.0:
        results.append(_check_quartic(eq, params, tol))
    results.append(_check_system(eq, params, tol))
    results.append(_check_pricing(eq, params, tol))
    results.append(_check_phi_bounds(eq, params, tol))
    coeff_list = None
    if params.tax == 0.0 and params.dt > 0.0:
        value_results, coeff_list = _check_value_layer(eq, params, tol)
        results.extend(value_results)
    if paths >= 2 and params.dt > 0.0:
        results.extend(_mc_checks(eq, params, coeff_list, tol, paths, seed, mc_horizon))
    return VerificationReport(tuple(results))
