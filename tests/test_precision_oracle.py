"""A 50-digit reference solve: the float solve is within a few ulps of it.

The reference runs the solver's own excess evaluator, ``solver._excess``, in
stdlib ``decimal`` at 50 digits with ``Decimal.sqrt``, on the model's
dimensionless groups formed at 50 digits from the exact binary values of the
inputs, and finds the root u = beta_sigma/m by bisection instead of the
solver's safeguarded Newton iteration; it rescales by m = sigma_K/sigma_S at
50 digits. It measures the float solve's rounding, not the expression the
two share; that is checked apart, without the groups: each 50-digit loading
must solve its trader's response quadratic a beta^2 + b beta + r^2 = 0 in
beta, r = m^2, before the decay-rate substitution. 1 - phi is not compared:
formed by subtraction from the float phi it loses digits that the solve
does not.
"""
import math
import random
from decimal import Decimal, localcontext

import pytest

from hftequil import TraderParams, solve_equilibrium
from hftequil.solver import _excess
from helpers import fuzz_market, make_params

ULPS = 4
# The fuzz's first 20,000 draws read at most 4.73 ulps, 9 of them above 4,
# and raised no SolverError; the test runs the first FUZZ_DRAWS of them.
FUZZ_ULPS = 6
FUZZ_DRAWS = 200
FUZZ_SEED = 0


def _exact(params):
    """m = sigma_K/sigma_S, c, dt and the traders of ``params`` as decimals, in the current context."""
    m = Decimal(params.sigma_K) / Decimal(params.sigma_S)
    traders = [TraderParams(Decimal(t.gamma), Decimal(t.rho)) for t in params.traders]
    return m, Decimal(params.tax), Decimal(params.dt), traders


def _reference_solve(params):
    """beta_sigma, lambda, betas and phis of ``params`` to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        m, c, dt, traders = _exact(params)
        h = _excess(traders, dt, m, c, Decimal.sqrt)
        # Every beta_i/m is at most 1/P <= 1/u, so the excess is negative
        # above u = sqrt(k); halve down to a positive excess, then bisect.
        hi = Decimal(params.k).sqrt() + 1
        lo = hi / 2
        while h(lo)[0] <= 0:
            hi, lo = lo, lo / 2
        while hi - lo > hi * Decimal("1e-48"):
            mid = (lo + hi) / 2
            if h(mid)[0] > 0:
                lo = mid
            else:
                hi = mid
        u = (lo + hi) / 2
        betas, phis = [], []
        h(u, betas, phis)
        t = m * u
        sS2, sK2 = Decimal(params.sigma_S) ** 2, Decimal(params.sigma_K) ** 2
        lam = t * sS2 / (sK2 + t * t * sS2)
        return t, lam, betas, phis


def _ulps(got: float, want: Decimal) -> float:
    return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))


def _ulp_errors(params) -> dict:
    """Distance in ulps of every float output from the 50-digit reference."""
    eq, _ = solve_equilibrium(params)
    beta_sigma, lam, betas, phis = _reference_solve(params)
    errors = {"beta_sigma": _ulps(eq.beta_sigma, beta_sigma), "lambda": _ulps(eq.lam, lam)}
    for i in range(params.k):
        errors[f"beta_{i}"] = _ulps(eq.betas[i], betas[i])
        errors[f"phi_{i}"] = _ulps(eq.phis[i], phis[i])
    return errors


MARKETS = {
    "ratio_1e6_dt_0.1": make_params(sigma_K=1e6, dt=0.1),
    "ratio_1e4_dt_0.1": make_params(sigma_K=1e4, dt=0.1),
    "ratio_2e9_dt_0.01": make_params(sigma_K=2e9, dt=0.01),
    "k3_hetero": make_params(gammas=[1.0, 3.0, 0.5], rhos=[0.05, 0.2, 1.0], sigma_K=1.3, dt=0.004),
    "k2_taxed": make_params(k=2, dt=0.004, tax=0.05),
    "k4_ratio_1e-3_dt_1e-6": make_params(k=4, sigma_K=1e-3, dt=1e-6),
}


@pytest.mark.parametrize("params", MARKETS.values(), ids=MARKETS.keys())
def test_solve_is_within_a_few_ulps_of_the_50_digit_reference(params):
    errors = _ulp_errors(params)
    assert max(errors.values()) <= ULPS, errors


@pytest.mark.parametrize("params", MARKETS.values(), ids=MARKETS.keys())
def test_reference_loadings_solve_the_response_quadratic(params):
    """The shared evaluator is checked against the quadratic it was derived
    from: each 50-digit beta_i is a root of a x^2 + b x + r^2 = 0 to 1e-45
    relative to r^2."""
    t, _, betas, _ = _reference_solve(params)
    with localcontext() as ctx:
        ctx.prec = 50
        m, c, dt, traders = _exact(params)
        r = m * m
        P = t + 2 * c * (r + t * t)
        for trader, beta in zip(traders, betas):
            rdt = trader.rho * dt
            a = (1 - rdt) * P * P
            b = -((P * (2 - rdt) + t * t * trader.gamma * dt) * r + r * r * trader.gamma * dt)
            assert abs(a * beta * beta + b * beta + r * r) / (r * r) <= Decimal("1e-45")


def test_fuzzed_solves_are_within_the_fuzz_bound_of_the_reference():
    rng = random.Random(FUZZ_SEED)
    failures = []
    for draw in range(FUZZ_DRAWS):
        params = fuzz_market(rng)
        errors = _ulp_errors(params)
        if max(errors.values()) > FUZZ_ULPS:
            failures.append((draw, params, errors))
    assert not failures
