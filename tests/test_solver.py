"""Equilibrium solver tests against independently computed reference values.

Every literal below was produced by a 50-digit arbitrary-precision root
finder applied to the defining polynomials, then rounded to double. The
solver under test must reproduce them to close to machine precision.
"""
import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hftequil import (
    ConstraintViolated,
    Equilibrium,
    NoRootInBracket,
    SolverError,
    pricing_from_beta,
    run_verification,
    solve_equilibrium,
    solve_taxed,
    system_residual,
    validate_equilibrium,
    value_coefficients,
)
from hftequil.solver import SYSTEM_RESIDUAL_TOL, _excess, _newton
from hftequil.verify import _QUARTIC_GATE, _check_quartic, _quartic, _quartic_scale
from helpers import fuzz_market, make_params
from test_precision_oracle import ULPS, _ulp_errors

# sigma_S = sigma_K = 1, gamma = 1, rho = 0.05
MONO_BETA_DT01 = 0.93181244195427218522
MONO_ROOT2_DT01 = 1.0734464085482122316
MONO_LAMBDA_DT01 = 0.49875565842868347443
MONO_PHI_DT01 = 0.13172557301921612951
MONO_BETA_DT004 = 0.95630247438115536323
MONO_LAMBDA_DT004 = 0.49950131643753598235
MONO_PHI_DT004 = 0.08548557749247969019

# sigma_S = 0.28368333194319617, sigma_K = 3.1603578189831494e-06,
# gamma = 0.04805584005190545, rho = 0.0997591218592117, dt = 2.6445241972596937e-11:
# m gamma dt is below the quartic's rounding error, so its residual at m passes the gate
TINY_DT_MARKET = dict(
    sigma_S=0.28368333194319617,
    sigma_K=3.1603578189831494e-06,
    gamma=0.04805584005190545,
    rho=0.0997591218592117,
    dt=2.6445241972596937e-11,
)
TINY_DT_BETA = 1.1140442369062196589e-05

# sigma_S = 1, sigma_K = 2, gamma = 0.5, dt = 0.004
SCALED_ROOTS_DT004 = (1.9126049487623107265, 2.0915978821024168792)

# best response of a gamma = 1, rho = 0.05 trader at dt = 0.01
BEST_RESPONSE = {
    1.0: 0.86842715908136059061,
    1.5: 0.57562604013217316517,
    2.0: 0.42704466617133755065,
}

# two identical traders, gamma = 1, rho = 0.05, dt = 0.004
NASH2_BETA_SIGMA = 1.3510840013879891546
NASH2_BETA = 0.67554200069399457728
NASH2_LAMBDA = 0.47818737958370030533
NASH2_PHI = 0.087286010596710060133

# gamma = (0.5, 2.0), rho = 0.05, dt = 4e-5
HETERO_PHIS = (0.00648616194358, 0.0129311725201)

REL = 5e-14


def monopoly_beta(p):
    """The monopolist's loading: the k = 1 game's aggregate."""
    return solve_equilibrium(p)[0].beta_sigma


def second_quartic_root(p):
    """The monopolist's quartic root above the volatility ratio m, by bisection.

    The quartic is -2 m gamma dt < 0 at m and grows like beta^4, so the
    root is bracketed by m and the first doubling of m where it is positive.
    """
    t = p.traders[0]
    m = p.sigma_K / p.sigma_S

    def f(beta):
        return _quartic(beta / m, t.gamma * p.dt * m, 1.0 - t.rho * p.dt)

    lo = m
    assert f(lo) < 0.0
    hi = 2.0 * lo
    while f(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f(lo)) <= abs(f(hi)) else hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


class TestMonopolyQuartic:
    """The monopolist is the k = 1 game; its loading is also the admissible
    root of a quartic, at or below the volatility ratio, and the quartic's
    other real root lies above it and prices a negative decay rate."""

    def test_beta_dt_001(self):
        p = make_params(dt=0.01)
        assert monopoly_beta(p) == pytest.approx(MONO_BETA_DT01, rel=REL)

    def test_beta_dt_0004(self):
        p = make_params(dt=0.004)
        assert monopoly_beta(p) == pytest.approx(MONO_BETA_DT004, rel=REL)

    def test_beta_equals_vol_ratio_at_dt_zero(self):
        # the quartic's two roots meet at the volatility ratio when dt == 0
        for m in (1e-6, 1e-3, 3.0, 1e3, 1e6):
            assert monopoly_beta(make_params(dt=0.0, sigma_K=m)) == m

    def test_root_stays_below_vol_ratio(self):
        for dt in (0.2, 0.05, 0.01, 1e-4, 1e-7):
            p = make_params(dt=dt, sigma_K=2.0, gamma=0.7)
            assert 0.0 < monopoly_beta(p) <= 2.0

    def test_both_roots_and_classification(self):
        p = make_params(dt=0.01)
        assert monopoly_beta(p) == pytest.approx(MONO_BETA_DT01, rel=REL)
        second = second_quartic_root(p)
        assert second == pytest.approx(MONO_ROOT2_DT01, rel=REL)
        assert second > p.sigma_K / p.sigma_S
        _, phis, _ = pricing_from_beta(second, (second,), p)
        assert phis[0] < 0.0

    def test_scaled_volatility_roots(self):
        p = make_params(dt=0.004, sigma_K=2.0, gamma=0.5)
        assert monopoly_beta(p) == pytest.approx(SCALED_ROOTS_DT004[0], rel=REL)
        second = second_quartic_root(p)
        assert second == pytest.approx(SCALED_ROOTS_DT004[1], rel=REL)
        _, phis, _ = pricing_from_beta(second, (second,), p)
        assert phis[0] < 0.0

    def test_volatility_scaling_identity(self):
        # beta(m*sigma, gamma) = m * beta(sigma, gamma*m) for the quartic
        p = make_params(dt=0.01, sigma_K=2.0, gamma=0.5)
        assert monopoly_beta(p) == pytest.approx(2.0 * MONO_BETA_DT01, rel=REL)

    def test_beta_where_the_quartic_rounds_away_its_sign(self):
        p = make_params(**TINY_DT_MARKET)
        assert monopoly_beta(p) == pytest.approx(TINY_DT_BETA, rel=REL)
        # the quartic cannot tell its two roots apart here, the solve still can
        t = p.traders[0]
        g, d = t.gamma * p.dt * p.sigma_K / p.sigma_S, 1.0 - t.rho * p.dt
        assert abs(_quartic(1.0, g, d)) <= _QUARTIC_GATE * _quartic_scale(1.0, g, d)


def _at_aggregate(beta_sigma, p):
    """(betas, phis) of every trader when the aggregate is conjectured fixed at beta_sigma."""
    m = p.sigma_K / p.sigma_S
    betas, phis = [], []
    _excess(p.traders, p.dt, m, p.tax)(beta_sigma / m, betas, phis)
    return betas, phis


def _best_response(beta_sigma, p):
    """The single trader's loading when the aggregate is conjectured fixed at beta_sigma."""
    return _at_aggregate(beta_sigma, p)[0][0]


class TestBestResponse:
    @pytest.mark.parametrize("beta_sigma", sorted(BEST_RESPONSE))
    def test_frozen_values(self, beta_sigma):
        p = make_params(dt=0.01)
        u = _best_response(beta_sigma, p)
        assert u == pytest.approx(BEST_RESPONSE[beta_sigma], rel=REL)

    def test_dt_zero_closed_form(self):
        p = make_params(dt=0.0, sigma_K=2.0)
        # with r = 4 and no tax the response is r / beta_sigma
        assert _best_response(2.5, p) == pytest.approx(4.0 / 2.5, rel=1e-15)

    def test_response_decreases_in_aggregate(self):
        p = make_params(dt=0.01)
        us = [_best_response(b, p) for b in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(us, us[1:]))


class TestNash:
    def test_monopoly_limit_matches_quartic(self):
        p = make_params(dt=0.01)
        eq, diag = solve_equilibrium(p)
        assert eq.beta_sigma == pytest.approx(MONO_BETA_DT01, rel=REL)
        assert eq.lam == pytest.approx(MONO_LAMBDA_DT01, rel=REL)
        assert eq.phis[0] == pytest.approx(MONO_PHI_DT01, rel=REL)
        assert eq.mus[0] == pytest.approx(eq.lam * eq.phis[0], rel=1e-12)
        assert diag.iterations > 0
        assert diag.bracket[0] < eq.beta_sigma < diag.bracket[1] or math.isclose(
            diag.bracket[0], eq.beta_sigma
        )

    def test_two_identical_traders(self):
        p = make_params(k=2, dt=0.004)
        eq, _ = solve_equilibrium(p)
        assert eq.beta_sigma == pytest.approx(NASH2_BETA_SIGMA, rel=REL)
        assert eq.betas[0] == pytest.approx(NASH2_BETA, rel=REL)
        assert eq.betas[1] == pytest.approx(NASH2_BETA, rel=REL)
        assert eq.lam == pytest.approx(NASH2_LAMBDA, rel=REL)
        assert eq.phis[0] == pytest.approx(NASH2_PHI, rel=REL)

    def test_heterogeneous_decay_ordering(self):
        p = make_params(k=2, dt=4e-5, gammas=[0.5, 2.0])
        eq, _ = solve_equilibrium(p)
        assert eq.phis[0] == pytest.approx(HETERO_PHIS[0], rel=5e-12)
        assert eq.phis[1] == pytest.approx(HETERO_PHIS[1], rel=5e-12)
        # the more inventory-averse trader trades less and unwinds faster
        assert eq.betas[0] > eq.betas[1]
        assert eq.phis[0] < eq.phis[1]

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_dt_zero_closed_forms(self, k):
        p = make_params(k=k, dt=0.0, sigma_S=2.0, sigma_K=3.0)
        eq, _ = solve_equilibrium(p)
        m = 3.0 / 2.0
        assert eq.beta_sigma == pytest.approx(math.sqrt(k) * m, rel=1e-14)
        assert eq.lam == pytest.approx(math.sqrt(k) / (1 + k) * (2.0 / 3.0), rel=1e-14)
        assert eq.phis == tuple(0.0 for _ in range(k))
        assert eq.mus == tuple(0.0 for _ in range(k))

    def test_dt_zero_ignores_penalty_heterogeneity(self):
        p = make_params(k=3, dt=0.0, gammas=[0.5, 1.0, 2.0])
        eq, _ = solve_equilibrium(p)
        expected = math.sqrt(3.0) / 3.0
        for b in eq.betas:
            assert b == pytest.approx(expected, rel=1e-14)

    def test_residuals_scale(self):
        p = make_params(k=3, dt=0.002, gammas=[0.5, 1.0, 2.0])
        eq, diag = solve_equilibrium(p)
        assert max(abs(r) for r in system_residual(eq, p)) < 1e-10
        assert diag.aggregate_residual < 1e-10
        assert len(diag.residuals) == 3

    def test_underflowing_residual_scale_solves(self):
        # (sigma_K/sigma_S)^4 underflows to 0 below a ratio of about 1e-81;
        # the solve and its residual run in the groups and never form it
        errors = _ulp_errors(make_params(sigma_K=1e-81, dt=1e-3))
        assert max(errors.values()) <= 2, errors

    def test_overflowing_residual_scale_solves(self):
        # (sigma_K/sigma_S)^4 = 1e312 overflows to inf
        errors = _ulp_errors(make_params(k=2, sigma_K=1e78, dt=1e-8))
        assert max(errors.values()) <= 2, errors

    def test_solve_equilibrium_dispatch(self):
        eq, _ = solve_equilibrium(make_params(k=2, dt=0.004))
        assert eq.tax == 0.0
        eq_taxed, _ = solve_equilibrium(make_params(k=2, dt=0.004, tax=1e-3))
        assert eq_taxed.tax == 1e-3
        assert eq_taxed.lam != eq.lam


class TestPricingAndValidation:
    def test_pricing_formulas_by_hand(self):
        p = make_params(k=2, dt=0.004)
        betas = (0.6, 0.7)
        bs = 1.3
        lam, phis, mus = pricing_from_beta(bs, betas, p)
        assert lam == pytest.approx(bs / (1.0 + bs * bs), rel=1e-15)
        for b, phi, mu in zip(betas, phis, mus):
            assert phi == pytest.approx(1.0 - lam * b / (1.0 - lam * bs), rel=1e-14)
            assert mu == pytest.approx(lam * phi, rel=1e-15)

    def test_tax_enters_decay_rate(self):
        p = make_params(dt=0.004, tax=1e-3)
        lam, phis, _ = pricing_from_beta(0.9, (0.9,), p)
        expected = 1.0 - (lam + 2e-3) * 0.9 / (1.0 - lam * 0.9)
        assert phis[0] == pytest.approx(expected, rel=1e-14)

    def test_validate_accepts_solution(self):
        p = make_params(k=2, dt=0.004)
        eq, _ = solve_equilibrium(p)
        validate_equilibrium(eq, p)

    def test_validate_rejects_tampered_lambda(self):
        p = make_params(k=2, dt=0.004)
        eq, _ = solve_equilibrium(p)
        bad = dataclasses.replace(eq, lam=eq.lam * 1.01)
        with pytest.raises(ConstraintViolated) as exc:
            validate_equilibrium(bad, p)
        assert exc.value.which == "lambda_formula"

    def test_validate_rejects_broken_aggregate(self):
        p = make_params(k=2, dt=0.004)
        eq, _ = solve_equilibrium(p)
        bad = dataclasses.replace(eq, betas=(eq.betas[0], eq.betas[1] + 1e-6))
        with pytest.raises(ConstraintViolated) as exc:
            validate_equilibrium(bad, p)
        assert exc.value.which == "aggregate_identity"

    def test_validate_rejects_negative_phi_when_untaxed(self):
        p = make_params(dt=0.01)
        eq, _ = solve_equilibrium(p)
        bad = dataclasses.replace(
            eq, phis=(-0.01,), mus=(eq.lam * -0.01,)
        )
        with pytest.raises(ConstraintViolated):
            validate_equilibrium(bad, p)

    @pytest.mark.parametrize("dt", [0.004, 0.0])
    def test_validate_holds_each_loading_to_the_taxed_bound(self, dt):
        # At tax 0.05, r/P = 0.671 while r/beta_sigma = 0.809 (dt = 0.004):
        # a loading of 1.01 r/P passed the untaxed bound and, at dt = 0, none
        p = make_params(k=2, dt=dt, tax=0.05)
        eq, _ = solve_equilibrium(p)
        r, bs = (p.sigma_K / p.sigma_S) ** 2, eq.beta_sigma
        b0 = 1.01 * r / (bs + 2.0 * p.tax * (r + bs * bs))
        assert b0 * bs < r
        bad = dataclasses.replace(eq, betas=(b0, bs - b0))
        with pytest.raises(ConstraintViolated, match="trader 0: beta=") as exc:
            validate_equilibrium(bad, p)
        assert exc.value.which == "beta_bound"

    def test_validate_refuses_a_full_price_impact_share_without_dividing_by_zero(self):
        # lambda beta_sigma rounds to exactly 1 at sigma_K/sigma_S = 1e-9 and beta_sigma = 1
        p = make_params(sigma_K=1e-9)
        eq = Equilibrium((1.0,), 1.0, 1.0, (0.5,), (0.5,))
        with pytest.raises(ConstraintViolated) as exc:
            validate_equilibrium(eq, p)
        assert exc.value.which == "price_impact_share"

    @pytest.mark.parametrize("k_eq, k_params", [(2, 3), (3, 2)])
    def test_validate_refuses_another_trader_count(self, k_eq, k_params):
        eq, _ = solve_equilibrium(make_params(k=k_eq, dt=0.004))
        with pytest.raises(ConstraintViolated, match=f"for k={k_params} traders") as exc:
            validate_equilibrium(eq, make_params(k=k_params, dt=0.004))
        assert exc.value.which == "trader_count"

    def test_validate_refuses_ragged_fields(self):
        p = make_params(k=2, dt=0.004)
        eq, _ = solve_equilibrium(p)
        for bad in (dataclasses.replace(eq, phis=eq.phis[:1]), dataclasses.replace(eq, mus=eq.mus * 2)):
            with pytest.raises(ConstraintViolated) as exc:
                validate_equilibrium(bad, p)
            assert exc.value.which == "trader_count"

    def test_eta_in_unit_interval(self):
        for k in (1, 2, 4):
            eq, _ = solve_equilibrium(make_params(k=k, dt=0.004))
            assert 0.0 < eq.eta < 1.0

    def test_to_dict_uses_lambda_key(self):
        eq, _ = solve_equilibrium(make_params(dt=0.01))
        d = eq.to_dict()
        assert set(d) == {"betas", "beta_sigma", "lambda", "phis", "mus", "tax"}
        assert d["lambda"] == eq.lam


class TestTaxed:
    def test_zero_tax_matches_untaxed_exactly(self):
        p = make_params(k=2, dt=0.004)
        eq_taxed, _ = solve_taxed(p)
        eq_nash, _ = solve_equilibrium(p)
        assert eq_taxed == eq_nash

    def test_monopoly_impact_falls_with_tax(self):
        p = make_params(dt=4e-5)
        lams = []
        for c in (0.0, 5e-4, 1e-3, 1.5e-3, 2e-3):
            eq, _ = solve_taxed(p.with_tax(c))
            lams.append(eq.lam)
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert lams[0] == pytest.approx(0.499995001137905127, rel=1e-12)
        assert lams[-1] == pytest.approx(0.499982199949771631, rel=1e-12)

    def test_duopoly_impact_rises_with_tax(self):
        p = make_params(k=2, dt=4e-5)
        lams = []
        for c in (0.0, 5e-4, 1e-3, 1.5e-3, 2e-3):
            eq, _ = solve_taxed(p.with_tax(c))
            lams.append(eq.lam)
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[0] == pytest.approx(0.472123723851085698, rel=1e-12)
        assert lams[-1] == pytest.approx(0.472771778428609213, rel=1e-12)

    def test_effective_spread_rises_for_both(self):
        for k in (1, 2):
            p = make_params(k=k, dt=4e-5)
            spread = []
            for c in (0.0, 1e-3, 2e-3):
                eq, _ = solve_taxed(p.with_tax(c))
                spread.append(eq.lam + c)
            assert all(a < b for a, b in zip(spread, spread[1:]))

    def test_dt_zero_taxed_closed_form(self):
        c = 1e-3
        p = make_params(k=2, dt=0.0, tax=c)
        eq, _ = solve_taxed(p)
        t = eq.beta_sigma
        # aggregate solves t*(t + 2c(r + t^2)) = k*r with r = 1, k = 2
        assert t * (t + 2 * c * (1.0 + t * t)) == pytest.approx(2.0, rel=1e-12)
        assert eq.phis == (0.0, 0.0)


class TestLowerBracket:
    """Where the root u = beta_sigma/m lies below 1e-12, the lower end of the
    bracket is the proven bound t_L = min(1, 2k/(3 (1 + 4cm + 2m max_i
    gamma_i dt))) instead of a search, so no market is refused for a root
    too small to reach; a market whose t_L underflows to 0, or whose excess
    cannot be evaluated there, is still refused with a SolverError."""

    @pytest.mark.parametrize(
        "market",
        [{"tax": 1e20}, {"tax": 1e30}, {"gamma": 1e33}, {"tax": 1e300}],
        ids=["tax=1e20", "tax=1e30", "gamma=1e33", "tax=1e300"],
    )
    def test_a_root_far_below_the_first_lower_end_solves_to_full_precision(self, market):
        p = make_params(dt=0.01, **market)
        eq, _ = solve_equilibrium(p)
        assert eq.beta_sigma < 1e-12
        errors = _ulp_errors(p)
        assert max(errors.values()) <= ULPS, errors

    def test_a_heavily_taxed_root_verifies(self):
        assert run_verification(make_params(dt=0.01, tax=1e20), paths=0).passed

    @pytest.mark.parametrize(
        "market, error, match",
        [({"gamma": 1e200}, NoRootInBracket, "^no sign change ")],
        ids=["gamma=1e200"],
    )
    def test_an_excess_that_overflows_at_the_lower_end_is_refused(self, market, error, match):
        with pytest.raises(error, match=match):
            solve_equilibrium(make_params(dt=0.01, **market))

    @pytest.mark.parametrize(
        "market", [{"dt": 0.5, "gamma": 1e308}, {"dt": 0.01, "tax": 5e307}], ids=["gamma=1e308", "tax=5e307"]
    )
    def test_a_lower_end_that_underflows_to_zero_is_refused(self, market):
        # 1 + 4cm + 2 m gamma dt overflows, so t_L rounds to 0: untaxed, the
        # excess divides by P = 0 there; taxed, Newton's geometric bisection
        # never leaves 0
        with pytest.raises(NoRootInBracket, match="t_L underflows to 0"):
            solve_equilibrium(make_params(**market))

    def test_the_excess_is_not_negative_at_the_proven_lower_end(self):
        rng = random.Random(0)
        for _ in range(20000):
            p = fuzz_market(rng)
            m = p.sigma_K / p.sigma_S
            g = max(t.gamma for t in p.traders) * p.dt * m
            t_lower = min(1.0, 2 * p.k / (3 * (1 + 4 * p.tax * m + 2 * g)))
            h = _excess(p.traders, p.dt, m, p.tax)(t_lower)[0]
            assert not h < 0.0, (p, t_lower, h)

    def test_validate_holds_a_tiny_aggregate_to_a_relative_gate(self):
        # The sum of the loadings three times the aggregate passed the absolute
        # gate of 1e-12 that held below 1.
        p = make_params(dt=0.5, gamma=1e31)
        eq, _ = solve_equilibrium(p)
        bad = dataclasses.replace(eq, beta_sigma=6.7e-32, betas=(2e-31,))
        with pytest.raises(ConstraintViolated) as exc:
            validate_equilibrium(bad, p)
        assert exc.value.which == "aggregate_identity"


class TestNumericalCore:
    def test_newton_finds_simple_root(self):
        root, iters, bracket = _newton(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, -2.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-13)
        assert iters >= 1
        assert bracket[0] <= root <= bracket[1]

    def test_newton_requires_sign_change(self):
        with pytest.raises(NoRootInBracket):
            _newton(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0, 2.0, 2.0)

    def test_newton_polish_stays_in_bracket(self):
        x, _, _ = _newton(lambda x: (x * x * x - 2.0, 3.0 * x * x), 1.2, 1.3, 1.2**3 - 2.0, 1.3**3 - 2.0)
        assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        assert 1.2 <= x <= 1.3

    def test_newton_refuses_to_return_an_unconverged_point(self):
        # Slope 1e12 makes every step 1e-13 or so: 200 steps move x by about
        # 5e-11 and leave it far from the root at 1.25.
        with pytest.raises(ConstraintViolated) as exc:
            _newton(lambda x: (x - 1.25, 1e12), 1.0, 2.0, -0.25, 0.75)
        assert exc.value.which == "newton_convergence"

    def test_newton_polish_guards_against_divergence(self):
        # the derivative is NaN everywhere; every step must fall back to bisection
        x, _, bracket = _newton(lambda x: (x * x - 2.0, math.nan), 1.0, 2.0, -1.0, 2.0)
        assert 1.0 <= bracket[0] <= x <= bracket[1] <= 2.0
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-13)

    @pytest.mark.parametrize("slope", [0.0, -1.0])
    def test_newton_refuses_a_slope_against_the_sign_change(self, slope):
        # x^2 - 2 rises across [1, 2], so a zero or negative slope is refused
        with pytest.raises(ConstraintViolated) as info:
            _newton(lambda x: (x * x - 2.0, slope), 1.0, 2.0, -1.0, 2.0)
        assert info.value.which == "h_monotonicity"


@given(
    log_ratio=st.floats(-6.0, 2.0),
    log_dt=st.floats(-7.0, -1.0),
    gammas=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
    rho=st.floats(0.01, 1.0),
    tax=st.sampled_from([0.0, 1e-4, 1e-2]),
    bs_scale=st.floats(0.25, 4.0),
)
def test_decay_rate_form_solves_the_response_quadratic(log_ratio, log_dt, gammas, rho, tax, bs_scale):
    """The phi-form loading beta_i = (r/P)(1 - phi_i) is the smaller root of
    the original response quadratic, with 0 < phi_i <= 1."""
    m = 10.0**log_ratio
    dt = 10.0**log_dt
    p = make_params(dt=dt, gammas=gammas, rho=rho, sigma_K=m, tax=tax / m)
    bs = bs_scale * m * math.sqrt(len(gammas))
    r = (p.sigma_K / p.sigma_S) ** 2
    betas, phis = _at_aggregate(bs, p)
    P = bs + 2.0 * p.tax * (r + bs * bs)
    for t, beta, phi in zip(p.traders, betas, phis):
        # a x^2 + b x + r^2 = 0, the response quadratic before the phi substitution
        a = (1.0 - t.rho * dt) * P * P
        b = -((P * (2.0 - t.rho * dt) + bs * bs * t.gamma * dt) * r + r * r * t.gamma * dt)
        assert abs(a * beta * beta + b * beta + r * r) / (r * r) <= SYSTEM_RESIDUAL_TOL
        assert 0.0 < phi <= 1.0


@given(
    log_ratio=st.floats(-4.0, 4.0),
    log_dt=st.one_of(st.none(), st.floats(-7.0, math.log10(0.3))),
    traders=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 1.0)), min_size=1, max_size=4),
    log_tax=st.one_of(st.none(), st.floats(-6.0, 2.0)),
)
def test_taxed_games_solve_directly_at_their_tax_rate(log_ratio, log_dt, traders, log_tax):
    """The excess, taxed or untaxed and at dt = 0 too, is strictly
    decreasing with a negative slope across the whole initial bracket, so
    its one sign change is the equilibrium and no continuation in the tax
    rate is needed; the direct solve passes every check."""
    m = 10.0**log_ratio
    p = make_params(
        dt=0.0 if log_dt is None else 10.0**log_dt,
        gammas=[g for g, _ in traders],
        rhos=[r for _, r in traders],
        sigma_K=m,
        # up to 100 times the impact scale sigma_S/sigma_K
        tax=0.0 if log_tax is None else 10.0**log_tax / m,
    )
    h_and_slope = _excess(p.traders, p.dt, m, p.tax)
    lo, hi = 1e-12, math.sqrt(p.k) + 1.0
    grid = [lo * (hi / lo) ** (j / 399) for j in range(400)]
    excess = [h_and_slope(x)[0] for x in grid]
    assert all(a > b for a, b in zip(excess, excess[1:]))
    assert all(h_and_slope(x)[1] < 0.0 for x in grid)
    eq, diag = solve_taxed(p)
    assert eq.tax == p.tax
    assert diag.continuation_steps == 0
    validate_equilibrium(eq, p)


@given(
    k=st.integers(1, 100),
    log_ratio=st.floats(-4.0, 4.0),
    dt=st.one_of(st.just(0.0), st.floats(1e-9, 0.3)),
    traders=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 1.0)), min_size=1, max_size=4),
    log_tax=st.one_of(st.none(), st.floats(-6.0, 2.0)),
)
def test_the_upper_bracket_end_needs_no_search(k, log_ratio, dt, traders, log_tax):
    """beta_i/m <= 1/P <= 1/u with u = beta_sigma/m and m = sigma_K/sigma_S,
    so at hi = sqrt(k) + 1 the excess is at most k/hi - hi < 0: the solver
    takes hi as the upper end of its bracket without evaluating anything
    further out."""
    m = 10.0**log_ratio
    cycle = [traders[i % len(traders)] for i in range(k)]
    p = make_params(
        dt=dt,
        gammas=[g for g, _ in cycle],
        rhos=[r for _, r in cycle],
        sigma_K=m,
        # up to 100 times the impact scale sigma_S/sigma_K
        tax=0.0 if log_tax is None else 10.0**log_tax / m,
    )
    hi = math.sqrt(k) + 1.0
    h_hi = _excess(p.traders, p.dt, m, p.tax)(hi)[0]
    assert h_hi < 0.0
    assert h_hi <= (k / hi - hi) * (1.0 - 1e-12)


@given(
    scale=st.floats(0.1, 10.0),
    dt=st.sampled_from([0.0, 0.004, 0.01, 0.05]),
    k=st.integers(1, 4),
)
def test_joint_volatility_scaling_leaves_betas_unchanged(scale, dt, k):
    """Scaling both volatilities by the same factor preserves the signal
    loadings, the price impact, and the decay rates, because only the
    volatility ratio enters the defining equations."""
    base = make_params(k=k, dt=dt)
    scaled = make_params(k=k, dt=dt, sigma_S=scale, sigma_K=scale)
    eq0, _ = solve_equilibrium(base)
    eq1, _ = solve_equilibrium(scaled)
    assert eq1.beta_sigma == pytest.approx(eq0.beta_sigma, rel=1e-11)
    assert eq1.lam == pytest.approx(eq0.lam, rel=1e-11)
    for p0, p1 in zip(eq0.phis, eq1.phis):
        assert p1 == pytest.approx(p0, rel=1e-10, abs=1e-13)


def _ulps_apart(a, b):
    return 0.0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _zetas(eq, p):
    """Every trader's zeta, or none where the value layer refuses the game:
    it covers untaxed games only, and its invariant checks lose digits as
    phi nears 1."""
    try:
        return [value_coefficients(eq, i, p).zeta for i in range(p.k)] if p.tax == 0.0 else []
    except SolverError:
        return []


def test_the_solve_depends_only_on_the_dimensionless_groups():
    """With m = sigma_K/sigma_S, the equilibrium depends on k, c m and, per
    trader, gamma_i dt m and rho_i dt alone: u = beta_sigma/m, lambda m,
    every phi_i and, untaxed, every zeta_i. Each fuzzed market is solved
    again at another sigma_S and a smaller dt, with gamma, rho and c
    rescaled to keep the groups; the inputs' own rounding moves each output
    by at most 8 ulps (the worst of 23,000 draws)."""
    rng = random.Random(0)
    for _ in range(2000):
        p = fuzz_market(rng)
        sigma_S, dt = 10.0 ** rng.uniform(-3, 3), p.dt * 10.0 ** rng.uniform(-3, 0)
        m, m2 = p.sigma_K / p.sigma_S, p.sigma_K / sigma_S
        q = make_params(
            sigma_S=sigma_S, sigma_K=p.sigma_K, dt=dt, tax=p.tax * m / m2,
            gammas=[t.gamma * p.dt * m / (dt * m2) for t in p.traders], rhos=[t.rho * p.dt / dt for t in p.traders],
        )
        outputs = []
        for market, scale in ((p, m), (q, m2)):
            eq, _ = solve_equilibrium(market)
            outputs.append([eq.beta_sigma / scale, eq.lam * scale, *eq.phis, *_zetas(eq, market)])
        # zip stops at the shorter list: the zetas count where both games have them
        worst = max(_ulps_apart(a, b) for a, b in zip(*outputs))
        assert worst <= 8, (p, q, outputs)


@given(
    gammas=st.lists(st.floats(0.2, 5.0), min_size=2, max_size=4),
    dt=st.sampled_from([0.002, 0.01]),
)
def test_trader_permutation_symmetry(gammas, dt):
    p = make_params(dt=dt, gammas=gammas)
    q = make_params(dt=dt, gammas=list(reversed(gammas)))
    eq_p, _ = solve_equilibrium(p)
    eq_q, _ = solve_equilibrium(q)
    assert eq_p.beta_sigma == pytest.approx(eq_q.beta_sigma, rel=1e-11)
    assert eq_p.lam == pytest.approx(eq_q.lam, rel=1e-11)
    for a, b in zip(eq_p.betas, reversed(eq_q.betas)):
        assert a == pytest.approx(b, rel=1e-9)


@given(k=st.integers(1, 6), dt=st.sampled_from([0.001, 0.01]))
def test_identical_traders_split_the_aggregate_evenly(k, dt):
    p = make_params(k=k, dt=dt)
    eq, _ = solve_equilibrium(p)
    for b in eq.betas:
        assert b == pytest.approx(eq.beta_sigma / k, rel=1e-11)
    phis = set(eq.phis)
    assert max(phis) - min(phis) < 1e-12


@given(
    dt=st.floats(1e-6, 0.2),
    gamma=st.floats(0.1, 5.0),
    sigma_K=st.floats(0.3, 3.0),
)
def test_quartic_residual_is_tiny_at_reported_root(dt, gamma, sigma_K):
    p = make_params(dt=dt, gamma=gamma, sigma_K=sigma_K)
    u, g, d = monopoly_beta(p) / sigma_K, gamma * dt * sigma_K, 1.0 - 0.05 * dt
    assert abs(_quartic(u, g, d)) <= 1e-12 * _quartic_scale(u, g, d)


@given(
    log_dt=st.floats(math.log(1e-11), math.log(0.3)),
    log_ratio=st.floats(-12.0, 12.0),
    gamma=st.floats(0.05, 20.0),
    rho=st.floats(0.01, 1.0),
)
def test_monopoly_beta_is_the_single_trader_aggregate(log_dt, log_ratio, gamma, rho):
    """The k = 1 game's aggregate is the root of the monopolist's quartic:
    verify's quartic check passes on it, down to time steps where the
    quartic cannot resolve its own sign."""
    p = make_params(dt=math.exp(log_dt), gamma=gamma, rho=rho, sigma_K=math.exp(log_ratio))
    eq, _ = solve_equilibrium(p)
    check = _check_quartic(eq, p, _QUARTIC_GATE)
    assert check.passed, check


@given(
    k=st.integers(1, 100),
    log_ratio=st.floats(-9.0, 9.0),
    log_tax=st.floats(-12.0, 5.0),
)
def test_taxed_limit_solves_the_aggregate_equation(k, log_ratio, log_tax):
    """At dt = 0 every decay rate is 0 and every loading r/P, so the taxed
    aggregate t solves t (t + 2c (r + t^2)) = k r."""
    m = math.exp(log_ratio)
    p = make_params(k=k, dt=0.0, sigma_K=m, tax=math.exp(log_tax) / m)
    eq, _ = solve_taxed(p)
    t, c, r = eq.beta_sigma, p.tax, (p.sigma_K / p.sigma_S) ** 2
    assert abs(t * (t + 2.0 * c * (r + t * t)) - k * r) <= 1e-14 * k * r
    assert eq.phis == (0.0,) * k


def test_a_rising_excess_slope_is_refused(monkeypatch):
    """The excess provably falls; if Newton ever reads a positive slope,
    the fixed point is not certified unique and the solve is refused."""
    import hftequil.solver as solver

    p = make_params(k=3, gammas=[1.0, 3.0, 0.5], rhos=[0.05, 0.2, 1.0], sigma_K=1.3)
    with_slope = solver._excess

    def rising(*args):
        h = with_slope(*args)
        return lambda x: (h(x)[0], 1.0)

    monkeypatch.setattr(solver, "_excess", rising)
    with pytest.raises(ConstraintViolated) as info:
        solve_equilibrium(p)
    assert info.value.which == "h_monotonicity"
    assert "slope 1.0" in str(info.value)


def test_sums_round_left_to_right_on_every_python():
    """Sums that feed outputs add left to right, rounding at every step, as
    the built-in sum() did before Python 3.12 compensated it."""
    from hftequil.solver import _sum_left

    assert _sum_left([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert _sum_left([0.1] * 10) == 0.9999999999999999
    assert _sum_left(()) == 0.0
