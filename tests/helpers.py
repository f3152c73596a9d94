"""Parameter builders shared across the test modules."""
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
