"""Small-dt expansions checked against exact solves.

The decisive tests here are the error-ratio checks: if any limit or
sqrt(dt) coefficient were wrong, the truncation error against the exact
solve would shrink one half-order slower than asserted and the ratios
would fall far outside the accepted bands.
"""
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hftequil import (
    CONVERGENCE_QUANTITIES,
    Expansion,
    SolverError,
    convergence_order,
    nash_expansions,
    solve_equilibrium,
    value_coefficients,
)
from hftequil.solver import _sum_left
from helpers import make_params

SQ2 = math.sqrt(2.0)


class TestMonopolyCoefficients:
    def test_unit_parameter_values(self):
        exp = nash_expansions(make_params(dt=0.01))
        assert exp["beta"][0].limit == pytest.approx(1.0, rel=1e-15)
        assert exp["beta"][0].half_order_coeff == pytest.approx(-math.sqrt(0.5), rel=1e-15)
        assert exp["lambda"].limit == pytest.approx(0.5, rel=1e-15)
        assert exp["lambda"].half_order_coeff == 0.0
        assert exp["lambda"].dt_coeff == pytest.approx(-0.125, rel=1e-15)
        assert exp["lambda"].remainder == "O(dt^(3/2))"
        assert exp["phi"][0].limit == 0.0
        assert exp["phi"][0].half_order_coeff == pytest.approx(SQ2, rel=1e-15)
        assert exp["mu"][0].half_order_coeff == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert exp["A"][0].half_order_coeff == pytest.approx(SQ2 / 4.0, rel=1e-15)
        assert exp["B"][0].limit == pytest.approx(1.0, rel=1e-15)
        assert exp["B"][0].half_order_coeff == pytest.approx(-SQ2 / 4.0, rel=1e-15)
        assert exp["C"][0].half_order_coeff == pytest.approx(3.0 * SQ2 / 4.0, rel=1e-15)
        assert exp["D"][0].limit == pytest.approx(10.0, rel=1e-15)
        assert exp["D"][0].half_order_coeff == pytest.approx(-2.5 * SQ2, rel=1e-15)

    def test_requires_untaxed_game(self):
        with pytest.raises(ValueError):
            nash_expansions(make_params(dt=0.01, tax=1e-3))


def _closed_forms(p):
    """The paper's closed forms for the limits and sqrt(dt) coefficients.

    Each entry is (limit terms, half-order terms) per trader, or one such
    pair for beta_sigma and lambda; a value is the sum of its terms. With
    m = sigma_K/sigma_S and gbar the mean of sqrt(gamma_j).
    """
    k = p.k
    m = p.sigma_K / p.sigma_S
    gbar = sum(math.sqrt(t.gamma) for t in p.traders) / k
    sqk, kq, k34 = math.sqrt(k), k**0.25, k**0.75
    opk = 1.0 + k
    sopk = math.sqrt(opk)
    roots = [math.sqrt(t.gamma) for t in p.traders]
    beta_pre = -(sopk / (2.0 * k34)) * m**1.5
    b_pre = m**1.5 / (2.0 * k34 * opk**1.5)
    b_terms = [[b_pre * (2.0 + 6.0 * k) * gbar, -b_pre * 5.0 * opk * g] for g in roots]
    d_scales = [p.sigma_S**2 / (2.0 * t.rho) for t in p.traders]
    return {
        "beta": [([m / sqk], [beta_pre * 2.0 * g, -beta_pre * gbar]) for g in roots],
        "beta_sigma": ([sqk * m], [beta_pre * k * gbar]),
        "lambda": ([sqk / (opk * m)], [kq * (k - 1.0) / (2.0 * opk**1.5) * gbar / math.sqrt(m)]),
        "phi": [([0.0], [(sopk / kq) * g * math.sqrt(m)]) for g in roots],
        "mu": [([0.0], [(kq / sopk) * g / math.sqrt(m)]) for g in roots],
        "A": [([0.0], [(kq / (2.0 * sopk)) * g / math.sqrt(m)]) for g in roots],
        "B": [([2.0 * m / (sqk * opk)], terms) for terms in b_terms],
        "C": [([0.0], [(1.5 / (kq * sopk)) * g * math.sqrt(m)]) for g in roots],
        "D": [
            ([2.0 * m / (sqk * opk) * s], [x * s for x in terms])
            for terms, s in zip(b_terms, d_scales)
        ],
    }


def _matches(got, terms):
    return abs(got - sum(terms)) <= 1e-12 * max(abs(x) for x in terms)


@given(
    k=st.integers(1, 30),
    log_ratio=st.floats(-354.0, 354.0),
    log_sigma_S=st.floats(-2.0, 2.0),
    log_gammas=st.lists(st.floats(-4.6, 4.6), min_size=30, max_size=30),
    log_rhos=st.lists(st.floats(-4.6, 1.0), min_size=30, max_size=30),
)
@example(k=1, log_ratio=0.0, log_sigma_S=0.0, log_gammas=[0.0] * 30, log_rhos=[-3.0] * 30)
# sigma_S = 1e-100, sigma_K = 1.3e54: (sigma_K/sigma_S)^2 = 1.69e308 is a normal float, but
# k (sigma_K/sigma_S)^2 is not, and forming it refused the table with value_finite
@example(k=2, log_ratio=math.log(1.3e154), log_sigma_S=math.log(1e-100), log_gammas=[0.0] * 30, log_rhos=[-3.0] * 30)
def test_derived_table_matches_closed_forms(k, log_ratio, log_sigma_S, log_gammas, log_rhos):
    """The table derived at sqrt(dt) = 0 reproduces the hand-derived closed
    forms in k, gamma_i, gbar and powers of sigma_K/sigma_S, each within
    1e-12 of the largest term of its closed form, over the whole valid
    range of sigma_K/sigma_S."""
    # sigma_S moves towards 1 where sigma_K^2 would leave the normal floats
    sigma_S = math.exp(min(max(log_sigma_S, -354.0 - log_ratio), 354.0 - log_ratio))
    p = make_params(
        dt=0.001,
        gammas=[math.exp(x) for x in log_gammas[:k]],
        rhos=[math.exp(x) for x in log_rhos[:k]],
        sigma_S=sigma_S,
        sigma_K=sigma_S * math.exp(log_ratio),
    )
    exp = nash_expansions(p)
    for key, want in _closed_forms(p).items():
        got = exp[key] if isinstance(exp[key], tuple) else (exp[key],)
        want = want if isinstance(want, list) else [want]
        assert len(got) == len(want)
        for e, (limit, half) in zip(got, want):
            assert _matches(e.limit, limit), (key, e.limit, limit)
            assert _matches(e.half_order_coeff, half), (key, e.half_order_coeff, half)
    if k == 1:
        assert math.copysign(1.0, exp["lambda"].half_order_coeff) == 1.0


def _two_pass_expansions(params):
    """``nash_expansions`` as first written: a row per trader, transposed,
    and every entry built by ``Expansion.__init__``."""
    m = params.sigma_K / params.sigma_S
    k = params.k
    sqrt_k = math.sqrt(k)
    t = m * sqrt_k
    a = [math.sqrt(tr.gamma * m * (sqrt_k * sqrt_k + 1.0) / sqrt_k) for tr in params.traders]
    beta0 = m / sqrt_k
    t1 = -0.5 * beta0 * _sum_left(a)
    lam0 = sqrt_k / ((1.0 + k) * m)
    eta0 = 1.0 / (1.0 + k)
    lam1 = (k - 1) * (-t1 / m) / ((1.0 + k) ** 2 * m)
    eta1 = -(lam1 * t + lam0 * t1)
    B0 = 2.0 * beta0 * eta0
    rows = []
    for tr, ai in zip(params.traders, a):
        beta1 = -t1 / k - beta0 * ai
        A1 = tr.gamma / (2.0 * ai)
        B1 = 2.0 * (beta1 * eta0 + beta0 * eta1) - beta0 * beta0 * A1
        d_scale = params.sigma_S**2 / (2.0 * tr.rho)
        rows.append((
            (beta0, beta1), (0.0, ai), (0.0, lam0 * ai), (0.0, A1), (B0, B1),
            (0.0, beta0 * A1 + ai * eta0), (B0 * d_scale, B1 * d_scale),
        ))
    beta, phi, mu, A, B, C, D = (tuple(Expansion(*c) for c in col) for col in zip(*rows))
    lam = Expansion(
        lam0,
        lam1,
        dt_coeff=-params.traders[0].gamma / 8.0 if k == 1 else 0.0,
        remainder="O(dt^(3/2))" if k == 1 else "O(dt)",
    )
    return {"beta": beta, "beta_sigma": Expansion(t, t1), "lambda": lam,
            "phi": phi, "mu": mu, "A": A, "B": B, "C": C, "D": D}


@given(
    k=st.integers(1, 30),
    log_ratio=st.floats(-9.0, 9.0),
    log_sigma_S=st.floats(-2.0, 2.0),
    log_gammas=st.lists(st.floats(-4.6, 4.6), min_size=30, max_size=30),
    log_rhos=st.lists(st.floats(-4.6, 1.0), min_size=30, max_size=30),
)
@example(k=1, log_ratio=0.0, log_sigma_S=0.0, log_gammas=[0.0] * 30, log_rhos=[-3.0] * 30)
def test_one_pass_table_is_the_two_pass_table_bit_for_bit(k, log_ratio, log_sigma_S, log_gammas, log_rhos):
    sigma_S = math.exp(log_sigma_S)
    p = make_params(
        dt=0.001,
        gammas=[math.exp(x) for x in log_gammas[:k]],
        rhos=[math.exp(x) for x in log_rhos[:k]],
        sigma_S=sigma_S,
        sigma_K=sigma_S * math.exp(log_ratio),
    )
    got, want = nash_expansions(p), _two_pass_expansions(p)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        # ValidatedParams accepts rho = 1e-310, but D = B sigma_S^2/(2 rho) overflows
        (dict(k=2, rhos=[0.05, 1e-310]), "trader 1: non-finite {'D0': inf"),
    ],
    ids=["trader"],
)
def test_infinite_coefficient_is_a_solver_error(kwargs, named):
    with pytest.raises(SolverError, match="value_finite") as exc:
        nash_expansions(make_params(dt=0.01, **kwargs))
    assert named in str(exc.value)


def test_finite_coefficients_whose_sum_overflows_are_returned():
    # D = 2.03e307 + 1.71e308 sqrt(dt): each finite, their sum is not
    D = nash_expansions(make_params(dt=0.01, k=2, gammas=[0.01, 100.0], rhos=[1.16e-308, 0.05]))["D"][0]
    assert math.isfinite(D.limit) and math.isfinite(D.half_order_coeff)
    assert D.limit + D.half_order_coeff == math.inf


class TestNashCoefficients:
    def test_aggregate_half_coefficient_is_the_sum(self):
        p = make_params(k=3, dt=0.004, gammas=[0.5, 1.0, 2.0])
        exp = nash_expansions(p)
        assert exp["beta_sigma"].half_order_coeff == pytest.approx(
            sum(b.half_order_coeff for b in exp["beta"]), rel=1e-12
        )
        assert exp["beta_sigma"].limit == pytest.approx(
            sum(b.limit for b in exp["beta"]), rel=1e-12
        )

    def test_cross_quantity_relations(self):
        p = make_params(k=2, dt=0.004, gammas=[0.5, 2.0], sigma_S=1.2, sigma_K=0.8)
        exp = nash_expansions(p)
        lam0 = exp["lambda"].limit
        for i in range(2):
            # mu = lambda * phi at leading order
            assert exp["mu"][i].half_order_coeff == pytest.approx(
                lam0 * exp["phi"][i].half_order_coeff, rel=1e-12
            )
            # the inventory value slope starts at half the prediction slope
            assert exp["A"][i].half_order_coeff == pytest.approx(
                0.5 * exp["mu"][i].half_order_coeff, rel=1e-12
            )
            # the constant term is the discounted dS^2 coefficient
            scale = p.sigma_S**2 / (2.0 * p.traders[i].rho)
            assert exp["D"][i].limit == pytest.approx(
                exp["B"][i].limit * scale, rel=1e-12
            )
            assert exp["D"][i].half_order_coeff == pytest.approx(
                exp["B"][i].half_order_coeff * scale, rel=1e-12
            )
            # cubic cross-term tracks the decay coefficient
            assert exp["C"][i].half_order_coeff == pytest.approx(
                1.5 * exp["phi"][i].half_order_coeff / (1.0 + p.k), rel=1e-12
            )

    def test_heterogeneous_ordering(self):
        p = make_params(k=2, dt=0.004, gammas=[0.5, 2.0])
        exp = nash_expansions(p)
        assert exp["phi"][0].half_order_coeff < exp["phi"][1].half_order_coeff
        assert exp["beta"][0].half_order_coeff > exp["beta"][1].half_order_coeff
        assert exp["beta"][0].limit == exp["beta"][1].limit

    def test_lambda_half_coefficient_vanishes_only_at_k1(self):
        assert nash_expansions(make_params(dt=0.01))["lambda"].half_order_coeff == 0.0
        for k in (2, 3, 5):
            exp = nash_expansions(make_params(k=k, dt=0.01))
            assert exp["lambda"].half_order_coeff > 0.0
            assert exp["lambda"].dt_coeff == 0.0
            assert exp["lambda"].remainder == "O(dt)"


def _truncation_error(params, quantity, trader, dt):
    eq, _ = solve_equilibrium(params.with_dt(dt))
    exps = nash_expansions(params)
    if quantity == "beta_sigma":
        return abs(eq.beta_sigma - exps["beta_sigma"].evaluate(dt))
    if quantity == "lambda":
        return abs(eq.lam - exps["lambda"].evaluate(dt))
    exact = {"beta": eq.betas, "phi": eq.phis, "mu": eq.mus}[quantity][trader]
    return abs(exact - exps[quantity][trader].evaluate(dt))


class TestTruncationOrders:
    @pytest.mark.parametrize("quantity", ["beta", "beta_sigma", "phi", "mu"])
    def test_first_order_remainder_hetero_duopoly(self, quantity):
        p = make_params(k=2, gammas=[0.5, 2.0])
        e1 = _truncation_error(p, quantity, 1, 6.4e-4)
        e2 = _truncation_error(p, quantity, 1, 4.0e-5)
        assert 8.0 < e1 / e2 < 32.0  # error ~ dt over a 16x grid refinement

    def test_lambda_three_halves_order_at_k1(self):
        p = make_params()
        e1 = _truncation_error(p, "lambda", 0, 6.4e-4)
        e2 = _truncation_error(p, "lambda", 0, 4.0e-5)
        assert 32.0 < e1 / e2 < 128.0  # error ~ dt^1.5 over a 16x refinement

    def test_lambda_first_order_at_k2(self):
        p = make_params(k=2)
        e1 = _truncation_error(p, "lambda", 0, 6.4e-4)
        e2 = _truncation_error(p, "lambda", 0, 4.0e-5)
        assert 8.0 < e1 / e2 < 32.0

    @pytest.mark.parametrize("key", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_value_coefficient_expansions(self, key, k):
        p = make_params(k=k)
        exps = nash_expansions(p)[key][0]
        errs = []
        for dt in (6.4e-4, 4.0e-5):
            q = p.with_dt(dt)
            eq, _ = solve_equilibrium(q)
            cs = value_coefficients(eq, 0, q)
            exact = {"A": cs.A, "B": cs.B, "C": cs.C, "D": cs.D}[key]
            errs.append(abs(exact - exps.evaluate(dt)))
        assert 8.0 < errs[0] / errs[1] < 32.0

    def test_value_constant_error_band(self):
        # |D_exact - D_expansion| measured near 3.4*dt for the unit monopoly
        p = make_params(dt=0.004)
        eq, _ = solve_equilibrium(p)
        cs = value_coefficients(eq, 0, p)
        err = abs(cs.D - nash_expansions(p)["D"][0].evaluate(0.004))
        assert err < 10.0 * 0.004


class TestConvergenceTable:
    def test_orders_on_geometric_grid(self):
        import numpy as np

        p = make_params()
        grid = np.geomspace(1e-2, 1e-6, 9)
        beta = convergence_order(p, "beta", grid)
        phi = convergence_order(p, "phi", grid)
        lam = convergence_order(p, "lambda", grid)
        assert abs(beta.final_order - 1.0) <= 0.2
        assert abs(phi.final_order - 1.0) <= 0.2
        assert abs(lam.final_order - 1.5) <= 0.3
        assert len(beta.points) == 9
        assert beta.skipped == ()
        assert beta.points[0].order is None
        assert len(beta.orders) == 8

    def test_infeasible_entries_are_reported_not_raised(self):
        p = make_params(rho=0.05)
        table = convergence_order(p, "beta", [30.0, 0.01, 0.0, 0.001, -1.0])
        assert len(table.points) == 2
        assert len(table.skipped) == 3
        reasons = [s.reason for s in table.skipped]
        assert any("rho*dt" in r for r in reasons)
        assert sum("positive" in r for r in reasons) == 2

    def test_rejects_unknown_quantity_and_bad_trader(self):
        p = make_params(k=2, dt=0.01)
        with pytest.raises(ValueError):
            convergence_order(p, "eta", [0.01])
        with pytest.raises(ValueError):
            convergence_order(p, "beta", [0.01], trader=2)
        # True used to answer for trader 1, and 1.0 and "1" raised a bare TypeError
        for trader in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="trader index must be an int"):
                convergence_order(p, "beta", [0.01], trader=trader)
        with pytest.raises(ValueError):
            convergence_order(p.with_tax(1e-3), "beta", [0.01])

    def test_final_order_requires_two_points(self):
        p = make_params()
        table = convergence_order(p, "beta", [0.01])
        with pytest.raises(ValueError):
            table.final_order

    def test_quantity_list_is_stable(self):
        assert CONVERGENCE_QUANTITIES == ("beta", "beta_sigma", "lambda", "phi", "mu")


class TestExpansionContainer:
    def test_evaluate(self):
        e = Expansion(limit=2.0, half_order_coeff=-1.0, dt_coeff=0.5)
        assert e.evaluate(0.0) == 2.0
        assert e.evaluate(0.04) == pytest.approx(2.0 - 0.2 + 0.02, rel=1e-15)
        for bad in (-0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                e.evaluate(bad)

    def test_to_dict(self):
        e = Expansion(limit=1.0, half_order_coeff=0.5)
        assert e.to_dict() == {
            "limit": 1.0,
            "half_order_coeff": 0.5,
            "dt_coeff": 0.0,
            "remainder": "O(dt)",
        }
