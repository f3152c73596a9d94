"""Acceptance battery: named criteria, one verdict line each under -v.

Each test states its numeric claim and its runtime budget. Tolerances are
taken literally; Monte Carlo checks run at fixed seeds so reruns are
deterministic. Budgets are wall-clock and generous relative to measured
times on a single core.
"""
import math
import time

import numpy as np
import pytest

from hftequil import (
    Equilibrium,
    StrategySpec,
    convergence_order,
    dealer_profit_check,
    deviation_sweep,
    dpe_argmax_gap,
    dpe_residual,
    inventory_second_moment,
    nash_expansions,
    simulate,
    simulate_objective,
    simulate_second_moment,
    solve_equilibrium,
    solve_taxed,
    stationary_inventory_std,
    value_coefficients,
)
from helpers import make_params, mispriced_profit


def test_criterion_01_limit_closed_forms():
    budget, t0 = 1.0, time.perf_counter()
    sigma_S, sigma_K = 1.3, 0.7
    m = sigma_K / sigma_S
    for k in range(1, 11):
        p = make_params(k=k, dt=0.0, sigma_S=sigma_S, sigma_K=sigma_K)
        eq, _ = solve_equilibrium(p)
        assert abs(eq.betas[0] - m / math.sqrt(k)) <= 1e-14 * m
        assert abs(eq.beta_sigma - math.sqrt(k) * m) <= 1e-14 * m
        lam_want = math.sqrt(k) / (1 + k) * sigma_S / sigma_K
        assert abs(eq.lam - lam_want) <= 1e-14 * lam_want
        assert eq.phis == tuple(0.0 for _ in range(k))
    hetero = make_params(k=3, dt=0.0, gammas=[0.5, 1.0, 2.0], sigma_S=sigma_S, sigma_K=sigma_K)
    eq, _ = solve_equilibrium(hetero)
    for b in eq.betas:
        assert abs(b - m / math.sqrt(3)) <= 1e-14 * m
    n = 200
    t1 = time.perf_counter()
    for _ in range(n):
        solve_equilibrium(make_params(k=5, dt=0.0))
    per_solve = (time.perf_counter() - t1) / n
    assert per_solve < 1e-3, f"limit solve took {per_solve * 1e3:.3f} ms on average"
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_02_expansion_convergence_orders():
    budget, t0 = 1.0, time.perf_counter()
    p = make_params(gamma=1.0, rho=0.05)
    grid = np.geomspace(1e-2, 1e-6, 9)
    beta_order = convergence_order(p, "beta", grid).final_order
    phi_order = convergence_order(p, "phi", grid).final_order
    lam_order = convergence_order(p, "lambda", grid).final_order
    assert abs(beta_order - 1.0) <= 0.2, beta_order
    assert abs(phi_order - 1.0) <= 0.2, phi_order
    assert abs(lam_order - 1.5) <= 0.3, lam_order
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_03_monopoly_impact_near_its_limit():
    budget, t0 = 1.0, time.perf_counter()
    p = make_params()
    limit = nash_expansions(p)["lambda"].limit
    for dt in (1 / 250, 1 / 1000, 1 / 2500, 1 / 25000):
        eq, _ = solve_equilibrium(p.with_dt(dt))
        assert abs(eq.lam - limit) / limit < 0.01, dt
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_04_value_identity_and_dpe_residual():
    budget, t0 = 1.0, time.perf_counter()
    cases = [
        make_params(k=1, dt=0.0),
        make_params(k=2, dt=0.0),
        make_params(k=4, dt=0.0),
        make_params(k=2, dt=0.0, gammas=[0.5, 2.0]),
    ]
    for base in cases:
        for dt in (1 / 250, 1 / 25000):
            p = base.with_dt(dt)
            eq, _ = solve_equilibrium(p)
            for i in range(p.k):
                cs = value_coefficients(eq, i, p)
                gdt = p.traders[i].gamma * dt
                phi = eq.phis[i]
                link_gap = abs((cs.F + gdt) - eq.lam * phi / (1.0 - phi))
                assert link_gap <= 1e-12, (p.k, dt, i, link_gap)
                assert dpe_residual(cs, eq, i, p) <= 1e-9, (p.k, dt, i)
                assert dpe_argmax_gap(cs, eq, i, p) <= 1e-12, (p.k, dt, i)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_05_dealer_zero_profit_with_negative_control():
    budget, t0 = 30.0, time.perf_counter()
    p = make_params(k=2, dt=1 / 250)
    eq, _ = solve_equilibrium(p)
    batch = simulate(eq, None, p, n_paths=1000, horizon=1000, seed=0)

    check = dealer_profit_check(batch)
    assert abs(check.profit.mean) <= 4.0 * check.profit.std_error, (check.profit.mean, check.profit.std_error)
    assert abs(check.slope - eq.lam) <= 3.0 * check.slope_se

    control = dealer_profit_check(batch, lambda_scale=1.1)
    assert control.profit.mean > 4.0 * control.profit.std_error
    mispricing = mispriced_profit(p, eq, 1000, 1.1)
    assert abs(control.profit.mean - mispricing) <= 4.0 * control.profit.std_error
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_06_equilibrium_is_the_deviation_argmax():
    budget, t0 = 120.0, time.perf_counter()
    for k in (1, 2, 4):
        p = make_params(k=k, dt=1 / 2500)
        eq, _ = solve_equilibrium(p)
        zeta = value_coefficients(eq, 0, p).zeta
        # the 1.0 point of both scale sweeps is the equilibrium row itself
        rows = [StrategySpec.equilibrium()]
        rows += [StrategySpec.scaled(beta_scale=s) for s in (0.8, 0.9, 1.1, 1.2)]
        rows += [StrategySpec.scaled(phi_scale=s) for s in (0.8, 0.9, 1.1, 1.2)]
        zeta_grid = (0.0, 0.5 * zeta, zeta, 2.0 * zeta, 1.0)
        rows += [StrategySpec.with_z(z, 1.0) for z in zeta_grid]
        result = deviation_sweep(eq, p, 0, rows, n_paths=100_000, horizon=450, seed=0)
        means = [r.objective.mean for r in result.rows]
        beta_family = [0, 1, 2, 3, 4]
        phi_family = [0, 5, 6, 7, 8]
        z_family = [9, 10, 11, 12, 13]
        assert max(beta_family, key=lambda i: means[i]) == 0, (k, means[:5])
        assert max(phi_family, key=lambda i: means[i]) == 0, (k, means[5:9])
        # within the workdown family the optimal rate is the value-theoretic zeta
        assert max(z_family, key=lambda i: means[i]) == 11, (k, means[9:])
        assert result.reference_dominates(slack=4.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_07_simulated_objective_matches_value_function():
    budget, t0 = 60.0, time.perf_counter()
    p = make_params(k=1, dt=0.1)
    eq, _ = solve_equilibrium(p)
    cs = value_coefficients(eq, 0, p)
    target = 0.5 * cs.B * p.sigma_S**2 * p.dt + cs.D
    assert target == pytest.approx(8.633603202280732, rel=1e-12)
    res = simulate_objective(eq, None, p, 0, n_paths=20_000, seed=0)
    gap = abs(res.objective.mean - target)
    assert gap <= 4.0 * res.objective.std_error, (res.objective.mean, target)
    # the mark-to-market has mean zero; held to 4 standard errors, as the
    # objective is, not to a 95% interval that about one seed in twenty fails
    assert abs(res.mark_to_market.mean) <= 4.0 * res.mark_to_market.std_error, res.mark_to_market
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_08_second_moment_formula_and_boundedness():
    budget, t0 = 10.0, time.perf_counter()
    p = make_params(k=1, dt=0.1)
    eq, _ = solve_equilibrium(p)
    ests = simulate_second_moment(eq, 0, p, [1, 10, 100], n_paths=200_000, seed=0)
    for n, est in ests.items():
        target = inventory_second_moment(eq, 0, p, n)
        assert abs(est.mean - target) <= 4.0 * est.std_error, n

    # E[M_n^2] settles iff 0 < phi < 2: at phi = 0 or 2 it grows like n, and
    # beyond them (1 - phi)^(2n) leaves the float range
    def settles(game):
        try:
            late = [inventory_second_moment(game, 0, p, n) for n in (10**12, 2 * 10**12)]
        except OverflowError:
            return False
        return math.isfinite(late[1]) and late[1] == pytest.approx(late[0], rel=1e-12)

    assert settles(eq)
    phi_grid = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0 - 1e-9, 2.0, 2.5)
    for phi in phi_grid:
        fake = Equilibrium(betas=(0.9,), beta_sigma=0.9, lam=0.45, phis=(phi,), mus=(0.0,))
        assert settles(fake) == (0.0 < phi < 2.0), phi
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_09_transaction_tax_directions():
    budget, t0 = 1.0, time.perf_counter()
    grid = (0.0, 5e-4, 1e-3, 1.5e-3, 2e-3)
    lams = {}
    for k in (1, 2):
        p = make_params(k=k, dt=1 / 25000)
        lams[k] = []
        for c in grid:
            eq, _ = solve_taxed(p.with_tax(c))
            lams[k].append(eq.lam)
        spreads = [lam + c for lam, c in zip(lams[k], grid)]
        assert all(a < b for a, b in zip(spreads, spreads[1:])), k
    assert all(a > b for a, b in zip(lams[1], lams[1][1:]))
    assert all(a < b for a, b in zip(lams[2], lams[2][1:]))

    p = make_params(k=2, dt=1 / 25000)
    eq_taxed, _ = solve_taxed(p)
    eq_nash, _ = solve_equilibrium(p)
    assert abs(eq_taxed.lam - eq_nash.lam) <= 1e-10
    assert all(abs(a - b) <= 1e-10 for a, b in zip(eq_taxed.betas, eq_nash.betas))
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_10_impact_falls_with_competition():
    budget, t0 = 1.0, time.perf_counter()
    lams = []
    for k in range(1, 11):
        p = make_params(k=k, dt=1 / 25000)
        eq, _ = solve_equilibrium(p)
        limit = nash_expansions(p)["lambda"].limit
        gap = abs(eq.lam - limit) / limit
        assert gap < 0.005, (k, gap)
        lams.append(eq.lam)
    assert all(a > b for a, b in zip(lams, lams[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_12_inventories_vanish_as_trading_rounds_grow():
    """The abstract: the optimal inventories "vanish as the number of trading
    rounds becomes large". Each trader's stationary inventory std falls as
    dt^(1/4), to beta_0 sigma_S/sqrt(2 a_i) with a_i the sqrt(dt) coefficient
    of phi_i and beta_0 the loading's limit, with a relative gap of at most
    C sqrt(dt). The risk-neutral inventory, at phi = 0, is a random walk:
    its second moment grows linearly in the number of rounds."""
    budget, t0 = 1.0, time.perf_counter()
    markets = (
        # C is the largest gap/sqrt(dt) measured over dt = 1e-2 .. 1e-8, rounded up
        (make_params(k=2, dt=0.01), 0.07),
        (make_params(gammas=[1.0, 3.0, 0.5], rhos=[0.05, 0.2, 1.0], sigma_K=1.3, dt=0.01), 0.71),
    )
    for p, C in markets:
        exp = nash_expansions(p)
        limits = [exp["beta"][i].limit * p.sigma_S / math.sqrt(2.0 * exp["phi"][i].half_order_coeff) for i in range(p.k)]
        if p.k == 2:
            assert limits == [pytest.approx(0.41430, abs=5e-6)] * 2
        for dt in (1e-2, 1e-4, 1e-6, 1e-8):
            q = p.with_dt(dt)
            eq, _ = solve_equilibrium(q)
            for i, limit in enumerate(limits):
                gap = abs(stationary_inventory_std(eq, i, q) / dt**0.25 / limit - 1.0)
                assert gap <= C * math.sqrt(dt), (p.k, dt, i, gap)
        # contrast: the risk-neutral game at the same dt
        rn, _ = solve_equilibrium(p.with_dt(0.0))
        assert rn.phis == (0.0,) * p.k
        for i, beta in enumerate(rn.betas):
            drive = beta**2 * p.sigma_S**2 * p.dt
            for n in (1, 10, 1000, 10**6):
                assert inventory_second_moment(rn, i, p, n) == drive * n
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
