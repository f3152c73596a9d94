"""Parameter builders shared across the test modules."""
import math
import random

from hftequil import TraderParams, ValidatedParams


def make_params(
    k=1,
    dt=0.004,
    gamma=1.0,
    rho=0.05,
    sigma_S=1.0,
    sigma_K=1.0,
    tax=0.0,
    gammas=None,
    rhos=None,
    l0=None,
):
    gs = list(gammas) if gammas is not None else [gamma] * k
    rs = list(rhos) if rhos is not None else [rho] * len(gs)
    if len(rs) == 1 and len(gs) > 1:
        rs = rs * len(gs)
    l0s = list(l0) if l0 is not None else [0.0] * len(gs)
    traders = tuple(
        TraderParams(gamma=g, rho=r, initial_inventory=l)
        for g, r, l in zip(gs, rs, l0s)
    )
    return ValidatedParams(sigma_S=sigma_S, sigma_K=sigma_K, dt=dt, traders=traders, tax=tax)


def mispriced_profit(p, eq, horizon, lambda_scale):
    """Exact mean of ``dealer_profit_check(batch, lambda_scale).profit`` on an
    equilibrium batch of ``horizon`` periods.

    The dealer then earns (lambda_scale - 1) lam E[dY_n^2] in period n on
    average. With dY_n = x_n - sum_j phi_j M^j_{n-1} and the effective flow x_n
    independent of the predictions, E[dY_n^2] = var x + sum_ij phi_i phi_j
    E[M^i M^j]_{n-1}, where M' = (1 - phi) M + beta dS gives E[M^i M^j]_n =
    a^n M^i_0 M^j_0 + c (1 - a^n) / (1 - a) with a = (1 - phi_i)(1 - phi_j) and
    c = beta_i beta_j sigma_S^2 dt. The check averages the periods' profits.
    """
    var_x = (p.sigma_K**2 + eq.beta_sigma**2 * p.sigma_S**2) * p.dt
    m0 = p.initial_inventories
    predicted = 0.0
    for i in range(p.k):
        for j in range(p.k):
            a = (1.0 - eq.phis[i]) * (1.0 - eq.phis[j])
            c = eq.betas[i] * eq.betas[j] * p.sigma_S**2 * p.dt
            # sum of a^n over n = 0 .. horizon - 1
            geom = (1.0 - a**horizon) / (1.0 - a)
            predicted += eq.phis[i] * eq.phis[j] * (m0[i] * m0[j] * geom + c * (horizon - geom) / (1.0 - a))
    return (lambda_scale - 1.0) * eq.lam * (var_x + predicted / horizon)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def fuzz_market(rng: random.Random):
    """k <= 4, sigma_K/sigma_S in [1e-12, 1e10], dt in [1e-12, 0.5], gamma_i in
    [1e-2, 1e2] and rho_i in [1e-2, 1], each log-uniform; on 40% of draws a
    tax of 1e-6 to 100 times the impact scale sigma_S/sigma_K."""
    k = rng.randint(1, 4)
    m = _log_uniform(rng, 1e-12, 1e10)
    dt = _log_uniform(rng, 1e-12, 0.5)
    gammas = [_log_uniform(rng, 1e-2, 1e2) for _ in range(k)]
    rhos = [_log_uniform(rng, 1e-2, 1.0) for _ in range(k)]
    tax = _log_uniform(rng, 1e-6, 1e2) / m if rng.random() < 0.4 else 0.0
    return make_params(gammas=gammas, rhos=rhos, sigma_K=m, dt=dt, tax=tax)


# sigma_K/sigma_S may range over [_M_LO, _M_HI]: its square must be a normal float
_M_LO, _M_HI = 1.5e-154, 1.34e154


def edge_scale_market(rng: random.Random):
    """A market at the edge of the valid scale range: sigma_S log-uniform in
    [0.1, 10] and m = sigma_K/sigma_S log-uniform over the top or, on half
    of the draws, the bottom ten decades of the range that keeps m and
    sigma_K valid; dt log-uniform in [1e-6, 0.5] and k in {1, 2, 3, 10, 100},
    with each gamma_i dt m in [1e-3, 1e3] and rho_i in [1e-2, 1], each
    log-uniform; on 30% of draws a tax c with c m in [1e-3, 10]."""
    sigma_S = _log_uniform(rng, 0.1, 10.0)
    lo, hi = max(_M_LO, _M_LO / sigma_S), min(_M_HI, _M_HI / sigma_S)
    m = _log_uniform(rng, hi * 1e-10, hi) if rng.random() < 0.5 else _log_uniform(rng, lo, lo * 1e10)
    dt = _log_uniform(rng, 1e-6, 0.5)
    k = rng.choice((1, 2, 3, 10, 100))
    gammas = [_log_uniform(rng, 1e-3, 1e3) / (dt * m) for _ in range(k)]
    rhos = [_log_uniform(rng, 1e-2, 1.0) for _ in range(k)]
    tax = _log_uniform(rng, 1e-3, 10.0) / m if rng.random() < 0.3 else 0.0
    return make_params(gammas=gammas, rhos=rhos, sigma_S=sigma_S, sigma_K=sigma_S * m, dt=dt, tax=tax)
