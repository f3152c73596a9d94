"""Quadratic continuation value of a single trader at equilibrium.

The state is (M, dS, Z): the dealer's prediction of the trader's
inventory, the current signal increment, and the gap Z = L - M between the
actual and predicted inventory. On the equilibrium path Z = 0; the Z
coefficients price off-path inventory and pin down the optimal workdown
rate zeta, with the deviation gap contracting by the factor (1 - zeta)
each period.

numpy is imported by the DPE-grid functions alone, so the value
function itself loads without it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .model import ValidatedParams, _check_trader_index, _new
from .solver import ConstraintViolated, Equilibrium, _require_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ValueCoefficients",
    "value_coefficients",
    "dpe_residual",
    "dpe_argmax_gap",
    "stationary_inventory_std",
]

_INVARIANT_TOL = 1e-9


@dataclass(frozen=True)
class ValueCoefficients:
    """v(M, dS, Z) = -A/2 M^2 + B/2 dS^2 - C M dS + D - E/2 Z^2 - F M Z + G dS Z."""

    A: float
    B: float
    C: float
    D: float
    E: float
    zeta: float
    F: float
    G: float
    eta: float

    def to_dict(self) -> dict:
        return asdict(self)


def value_coefficients(
    eq: Equilibrium, trader_index: int, params: ValidatedParams
) -> ValueCoefficients:
    """Coefficients of trader ``trader_index``'s value function at equilibrium.

    Only defined for the untaxed game at dt > 0. E solves a quadratic whose
    positive root is taken in the subtraction-free form, and zeta is the
    induced workdown rate (E + gamma dt)/(E + gamma dt + 2 lambda). The
    internal cross-checks (E = 2 lambda zeta (1 - rho dt) and
    F + gamma dt = lambda phi/(1 - phi)) guard the implementation, not the
    inputs; a violation means a bug and raises ConstraintViolated. So does
    a coefficient that overflows, as D = (1 - rho dt) B sigma_S^2/(2 rho)
    does when rho is tiny, and, as ConstraintViolated("value_denominator"),
    a denominator that vanishes, as 1 - phi does where the solve rounds phi
    to 1.
    """
    if params.dt == 0.0:
        raise ValueError("value coefficients are defined for dt > 0 only")
    if params.tax != 0.0 or eq.tax != 0.0:
        raise ValueError("value coefficients cover the untaxed game only")
    _check_trader_index(trader_index, params.k)
    t = params.traders[trader_index]
    g, rho, dt = t.gamma, t.rho, params.dt
    disc = 1.0 - rho * dt
    beta = eq.betas[trader_index]
    phi = eq.phis[trader_index]
    lam = eq.lam
    eta = eq.eta
    gdt = g * dt

    # 1 - (1 - rho dt)(1 - phi)^2, without cancellation at small phi and rho dt
    a_den = phi * (2.0 - phi) + rho * dt * (1.0 - phi) ** 2
    if a_den <= 0.0:
        raise ConstraintViolated("value_denominator", f"1 - (1 - rho dt)(1 - phi)^2 = {a_den!r} <= 0")
    A = disc * (1.0 - phi) ** 2 * gdt / a_den
    B = disc * beta * (2.0 * eta - beta * (A + gdt))
    C = disc * (beta * (1.0 - phi) * (A + gdt) + phi * eta)
    D = disc * B * params.sigma_S**2 / (2.0 * rho)

    # E^2 + E (gamma dt + 2 lambda rho dt) - 2 lambda gamma dt (1 - rho dt) = 0,
    # positive root without cancellation.
    p = gdt + 2.0 * lam * rho * dt
    q = 2.0 * lam * gdt * disc
    E = 2.0 * q / (p + math.sqrt(p * p + 4.0 * q))
    zeta = (E + gdt) / (E + gdt + 2.0 * lam)
    if not 0.0 < zeta < 1.0:
        raise ConstraintViolated("zeta_range", f"zeta = {zeta!r}")
    e_check = 2.0 * lam * zeta * disc
    if abs(E - e_check) > _INVARIANT_TOL * max(1.0, abs(E)):
        raise ConstraintViolated("value_invariant", f"E = {E!r} vs 2 lambda zeta (1 - rho dt) = {e_check!r}")

    f_den = phi + (1.0 - phi) * (zeta * disc + rho * dt)
    if f_den <= 0.0:
        raise ConstraintViolated("value_denominator", f"F denominator = {f_den!r} <= 0")
    F = disc * (lam * phi * zeta + (1.0 - zeta) * (1.0 - phi) * gdt) / f_den
    if phi >= 1.0:
        raise ConstraintViolated("value_denominator", f"phi = {phi!r} >= 1 breaks the decay link")
    link = lam * phi / (1.0 - phi)
    if abs((F + gdt) - link) > _INVARIANT_TOL * max(1.0, abs(link)):
        raise ConstraintViolated("value_invariant", f"F + gamma dt = {F + gdt!r} vs {link!r}")
    G = disc * (-beta * (1.0 - zeta) * (F + gdt) + zeta * (lam * beta - eta))
    isfinite = math.isfinite
    if not (
        isfinite(A) and isfinite(B) and isfinite(C) and isfinite(D) and isfinite(E)
        and isfinite(zeta) and isfinite(F) and isfinite(G) and isfinite(eta)
    ):
        _require_finite(dict(A=A, B=B, C=C, D=D, E=E, zeta=zeta, F=F, G=G, eta=eta))
    # built without the generated __init__ (see model._frozen)
    obj = _new(ValueCoefficients)
    d = obj.__dict__
    d["A"] = A
    d["B"] = B
    d["C"] = C
    d["D"] = D
    d["E"] = E
    d["zeta"] = zeta
    d["F"] = F
    d["G"] = G
    d["eta"] = eta
    return obj


def _evaluate_value(coeffs: ValueCoefficients, M, dS, Z):
    """Quadratic form of the value function; accepts scalars or arrays.

    Each element sees the operations of the formula, left to right; a sum
    accumulates in place wherever the next term cannot widen its shape.
    """
    v = -0.5 * coeffs.A * M**2 + 0.5 * coeffs.B * dS**2
    v -= coeffs.C * M * dS
    v += coeffs.D
    v = v - 0.5 * coeffs.E * Z**2
    v -= coeffs.F * M * Z
    v += coeffs.G * dS * Z
    return v


def _dpe_rhs(
    coeffs: ValueCoefficients,
    eq: Equilibrium,
    trader_index: int,
    params: ValidatedParams,
    M,
    dS,
    Z,
    dZ,
):
    """Flow payoff plus expected continuation for a chosen deviation flow dZ.

    The flow nets out the noise term, whose product with the trade has zero
    mean, so this is the exact conditional expectation given (M, dS, Z, dZ).
    Evaluated as ``_evaluate_value`` is.
    """
    _check_trader_index(trader_index, params.k)
    t = params.traders[trader_index]
    gdt = t.gamma * params.dt
    beta = eq.betas[trader_index]
    phi = eq.phis[trader_index]
    lam = eq.lam
    beta_dS = beta * dS
    m_next = beta_dS + (1.0 - phi) * M
    z_next = Z + dZ
    rhs = (coeffs.eta * dS - lam * dZ) * (beta_dS - phi * M + dZ) - 0.5 * gdt * (m_next + z_next) ** 2
    expected = -0.5 * coeffs.A * m_next**2
    expected += 0.5 * coeffs.B * params.sigma_S**2 * params.dt
    expected += coeffs.D
    expected = expected - 0.5 * coeffs.E * z_next**2
    expected -= coeffs.F * m_next * z_next
    rhs += expected
    return rhs


def _dpe_argmax(
    coeffs: ValueCoefficients,
    eq: Equilibrium,
    trader_index: int,
    params: ValidatedParams,
    M,
    dS,
    Z,
):
    """Exact maximiser of _dpe_rhs in dZ, from the first-order condition,
    evaluated as ``_evaluate_value`` is."""
    _check_trader_index(trader_index, params.k)
    t = params.traders[trader_index]
    gdt = t.gamma * params.dt
    beta = eq.betas[trader_index]
    phi = eq.phis[trader_index]
    lam = eq.lam
    beta_dS = beta * dS
    m_next = beta_dS + (1.0 - phi) * M
    grad = -lam * (beta_dS - phi * M)
    grad += coeffs.eta * dS
    grad = grad - gdt * (m_next + Z)
    grad -= coeffs.E * Z
    grad -= coeffs.F * m_next
    grad /= 2.0 * lam + gdt + coeffs.E
    return grad


def stationary_inventory_std(eq: Equilibrium, trader_index: int, params: ValidatedParams) -> float:
    """Standard deviation of the trader's predicted inventory in steady state."""
    _check_trader_index(trader_index, params.k)
    phi = eq.phis[trader_index]
    # 1 - (1 - phi)^2, without cancellation at small phi
    gap = phi * (2.0 - phi)
    if not gap > 0.0:
        raise ValueError(f"phi = {phi!r} gives no stationary inventory distribution")
    beta = eq.betas[trader_index]
    var = beta**2 * params.sigma_S**2 * params.dt / gap
    return math.sqrt(var)


def _default_dpe_grid(
    eq: Equilibrium, trader_index: int, params: ValidatedParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """5x5x5 state grid: M within 3 stationary sd, dS within 3 sigma_S sqrt(dt), Z in [-1, 1].

    The M and dS axes are ``np.linspace(-x, x, 5)``, point for point,
    without its call: -x + i step for i < 4 with step = (x - -x)/4, then x.
    linspace takes another branch where the step underflows to 0, which
    gives other points only at x = 2^-1074, and three times a double never
    is that.
    """
    import numpy as np

    axes = []
    for x in (3.0 * stationary_inventory_std(eq, trader_index, params),
              3.0 * (params.sigma_S * math.sqrt(params.dt))):
        start = -x
        step = (x - start) / 4.0
        axes.append(np.array([0.0 * step + start, step + start, 2.0 * step + start, 3.0 * step + start, x]))
    axes.append(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    return tuple(axes)


def _grid(eq: Equilibrium, trader_index: int, params: ValidatedParams):
    """The default grid's M, dS and Z as meshgrid's full (5, 5, 5) copies,
    filled in one buffer. Each grid point sees the same operations as on
    broadcast axes, and numpy calls on operands of one shape skip the
    broadcasting, which costs more than filling the buffer."""
    import numpy as np

    m, s, z = _default_dpe_grid(eq, trader_index, params)
    grid = np.empty((3, 5, 5, 5))
    grid[0] = m[:, None, None]
    grid[1] = s[:, None]
    grid[2] = z
    return grid


def dpe_residual(
    coeffs: ValueCoefficients,
    eq: Equilibrium,
    trader_index: int,
    params: ValidatedParams,
) -> float:
    """Worst scaled gap between v/(1 - rho dt) and the optimised right side.

    The candidate optimum dZ = -zeta Z is used; ``dpe_argmax_gap`` checks
    separately that it is the true maximiser. Scaling is 1 + |v| pointwise;
    a NaN gap anywhere on the grid makes the result NaN.
    """
    import numpy as np

    M, dS, Z = _grid(eq, trader_index, params)
    disc = 1.0 - params.traders[trader_index].rho * params.dt
    v = _evaluate_value(coeffs, M, dS, Z)
    gap = v / disc
    gap -= _dpe_rhs(coeffs, eq, trader_index, params, M, dS, Z, -coeffs.zeta * Z)
    np.abs(gap, out=gap)
    gap /= 1.0 + np.abs(v)
    return float(gap.max())


def dpe_argmax_gap(
    coeffs: ValueCoefficients,
    eq: Equilibrium,
    trader_index: int,
    params: ValidatedParams,
) -> float:
    """Worst gap between the first-order-condition maximiser and -zeta Z; NaN if any gap is."""
    import numpy as np

    M, dS, Z = _grid(eq, trader_index, params)
    gap = _dpe_argmax(coeffs, eq, trader_index, params, M, dS, Z)
    gap -= -coeffs.zeta * Z
    np.abs(gap, out=gap)
    gap /= 1.0 + np.abs(Z)
    return float(gap.max())
