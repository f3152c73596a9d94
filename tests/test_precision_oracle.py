"""A 50-digit reference solve: the float solve is within a few ulps of it.

The oracle solves the same fixed point as ``solver.py``, in stdlib
``decimal`` at 50 digits and from the exact binary values of the inputs:
with r = (sigma_K/sigma_S)^2 and P = t + 2c(r + t^2), trader i's decay rate
is phi_i = 2s/(w + q) and its loading beta_i = (r/P) 2/(w + q + 2d), where
d = 1 - rho_i dt, s = gamma_i dt (t^2 + r)/P, w = rho_i dt + s and
q = sqrt(w^2 + 4ds). The aggregate t = beta_sigma is the root of the
strictly decreasing excess (r/P) sum_i 2/(w + q + 2d) - t, found by
bisection. 1 - phi is not compared: formed by subtraction from the float
phi it loses digits that the solve does not.
"""
import math
from decimal import Decimal, localcontext

import pytest

from hftequil import solve_equilibrium
from helpers import make_params

ULPS = 4


def _responses(t, r, c, traders, dt):
    """(r/P, [(phi_i, 1 - phi_i)]) at the aggregate t, in the current context."""
    P = t + 2 * c * (r + t * t)
    out = []
    for gamma, rho in traders:
        d = 1 - rho * dt
        s = gamma * dt * (t * t + r) / P
        w = rho * dt + s
        q = (w * w + 4 * d * s).sqrt()
        out.append((2 * s / (w + q) if q else Decimal(0), 2 / (w + q + 2 * d)))
    return r / P, out


def _reference_solve(params):
    """beta_sigma, lambda, betas and phis of ``params`` to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        sS, sK = Decimal(params.sigma_S), Decimal(params.sigma_K)
        r = (sK / sS) ** 2
        c, dt = Decimal(params.tax), Decimal(params.dt)
        traders = [(Decimal(t.gamma), Decimal(t.rho)) for t in params.traders]

        def excess(t):
            r_over_P, rows = _responses(t, r, c, traders, dt)
            return r_over_P * sum(x for _, x in rows) - t

        # Every loading is at most r/P <= r/t, so the excess is negative
        # above sqrt(k r); halve down to a positive excess, then bisect.
        hi = (Decimal(params.k).sqrt() + 1) * r.sqrt()
        lo = hi / 2
        while excess(lo) <= 0:
            hi, lo = lo, lo / 2
        while hi - lo > hi * Decimal("1e-48"):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        t = (lo + hi) / 2
        r_over_P, rows = _responses(t, r, c, traders, dt)
        lam = t * sS * sS / (sK * sK + t * t * sS * sS)
        return t, lam, [r_over_P * x for _, x in rows], [phi for phi, _ in rows]


def _ulps(got: float, want: Decimal) -> float:
    return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))


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
    eq, _ = solve_equilibrium(params)
    beta_sigma, lam, betas, phis = _reference_solve(params)
    errors = {"beta_sigma": _ulps(eq.beta_sigma, beta_sigma), "lambda": _ulps(eq.lam, lam)}
    for i in range(params.k):
        errors[f"beta_{i}"] = _ulps(eq.betas[i], betas[i])
        errors[f"phi_{i}"] = _ulps(eq.phis[i], phis[i])
    assert max(errors.values()) <= ULPS, errors
