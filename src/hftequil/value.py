"""Quadratic continuation value of a single trader at equilibrium.

The state is (M, dS, Z): the dealer's prediction of the trader's
inventory, the current signal increment, and the gap Z = L - M between the
actual and predicted inventory. On the equilibrium path Z = 0; the Z
coefficients price off-path inventory and pin down the optimal workdown
rate zeta, with the deviation gap contracting by the factor (1 - zeta)
each period.

Like the solve, the value layer reads the market in its dimensionless
groups, m = sigma_K/sigma_S, gamma dt m, rho dt, beta/m and lambda m, and
rescales by m once, at the end, so no formula depends on the market's
scale. 1 - phi = u beta/m, u = beta_sigma/m, and 1 - zeta come from
positive terms, never from a subtraction. The DPE checks evaluate v/(sigma_S
sigma_K dt) with M and Z in units of sigma_K sqrt(dt) and dS in units of
sigma_S sqrt(dt).

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


def _groups(eq: Equilibrium, trader_index: int, params: ValidatedParams):
    """m and trader i's gamma_i dt m, beta_i/m, phi_i, 1 - phi_i = u beta_i/m
    (as ``solver.system_residual`` forms it) and lambda m."""
    _check_trader_index(trader_index, params.k)
    m = params.sigma_K / params.sigma_S
    b = eq.betas[trader_index] / m
    g = params.traders[trader_index].gamma * params.dt * m
    return m, g, b, eq.phis[trader_index], eq.beta_sigma / m * b, eq.lam * m


def value_coefficients(
    eq: Equilibrium, trader_index: int, params: ValidatedParams
) -> ValueCoefficients:
    """Coefficients of trader ``trader_index``'s value function at equilibrium.

    Only defined for the untaxed game at dt > 0; formed in the groups as A m,
    B/m, C, E m, F m and G, then rescaled by m. E solves a quadratic whose
    positive root is taken in the subtraction-free form, and zeta is the
    induced workdown rate (E + gamma dt)/(E + gamma dt + 2 lambda). The
    internal cross-checks (E = 2 lambda zeta (1 - rho dt) and F + gamma dt =
    lambda phi/(1 - phi)), relative at every size, guard the implementation,
    not the inputs; a violation means a bug and raises ConstraintViolated.
    So does a coefficient that overflows, as D = (1 - rho dt) B sigma_S^2/(2
    rho) does when rho is tiny, and, as ConstraintViolated("value_denominator"),
    a denominator that vanishes.
    """
    if params.dt == 0.0:
        raise ValueError("value coefficients are defined for dt > 0 only")
    if params.tax != 0.0 or eq.tax != 0.0:
        raise ValueError("value coefficients cover the untaxed game only")
    m, g, beta, phi, y, lam = _groups(eq, trader_index, params)
    rho, dt = params.traders[trader_index].rho, params.dt
    disc = 1.0 - rho * dt
    eta = eq.eta
    y2 = y * y

    # 1 - (1 - rho dt)(1 - phi)^2, without cancellation at small phi and rho dt
    a_den = phi * (2.0 - phi) + rho * dt * y2
    if a_den <= 0.0:
        raise ConstraintViolated("value_denominator", f"1 - (1 - rho dt)(1 - phi)^2 = {a_den!r} <= 0")
    A = disc * y2 * g / a_den
    B = disc * beta * (2.0 * eta - beta * (A + g))
    C = disc * (beta * y * (A + g) + phi * eta)

    # E^2 + E (gamma dt + 2 lambda rho dt) - 2 lambda gamma dt (1 - rho dt) = 0,
    # positive root without cancellation.
    p = g + 2.0 * lam * rho * dt
    q = 2.0 * lam * g * disc
    E = 2.0 * q / (p + math.sqrt(p * p + 4.0 * q))
    z_den = E + g + 2.0 * lam
    zeta = (E + g) / z_den
    rest = 2.0 * lam / z_den  # 1 - zeta
    if not (zeta > 0.0 and rest > 0.0):
        raise ConstraintViolated("zeta_range", f"zeta = {zeta!r}, 1 - zeta = {rest!r}")
    e_check = 2.0 * lam * zeta * disc
    if abs(E - e_check) > _INVARIANT_TOL * abs(E):
        raise ConstraintViolated("value_invariant", f"E m = {E!r} vs 2 lambda m zeta (1 - rho dt) = {e_check!r}")

    f_den = phi + y * (zeta * disc + rho * dt)
    if f_den <= 0.0:
        raise ConstraintViolated("value_denominator", f"F denominator = {f_den!r} <= 0")
    F = disc * (lam * phi * zeta + rest * y * g) / f_den
    # F + gamma dt = lambda phi/(1 - phi), multiplied out: no 1 - phi divides
    link = lam * phi
    if abs((F + g) * y - link) > _INVARIANT_TOL * abs(link):
        raise ConstraintViolated("value_invariant", f"(F + gamma dt)(1 - phi) m = {(F + g) * y!r} vs {link!r}")
    G = disc * (-beta * rest * (F + g) + zeta * (lam * beta - eta))
    A, B, E, F = A / m, B * m, E / m, F / m
    D = disc * B * params.sigma_S**2 / (2.0 * rho)
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


def _grouped(c: ValueCoefficients, params: ValidatedParams) -> ValueCoefficients:
    """The coefficients of v/(sigma_S sigma_K dt) in the DPE checks' units:
    A m, B/m, C, D/(sigma_S sigma_K dt), E m, zeta, F m, G and eta."""
    m, d = params.sigma_K / params.sigma_S, params.sigma_S * params.sigma_K * params.dt
    return ValueCoefficients(c.A * m, c.B / m, c.C, c.D / d, c.E * m, c.zeta, c.F * m, c.G, c.eta)


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


def _dpe_rhs(coeffs: ValueCoefficients, eq: Equilibrium, trader_index: int, params: ValidatedParams, M, dS, Z, dZ):
    """Flow payoff plus expected continuation for a chosen deviation flow dZ,
    in the DPE checks' units, with ``_grouped``'s coefficients.

    The flow nets out the noise term, whose product with the trade has zero
    mean, so this is the exact conditional expectation given (M, dS, Z, dZ).
    Evaluated as ``_evaluate_value`` is.
    """
    _, g, beta, phi, y, lam = _groups(eq, trader_index, params)
    beta_dS = beta * dS
    m_next = beta_dS + y * M
    z_next = Z + dZ
    rhs = (coeffs.eta * dS - lam * dZ) * (beta_dS - phi * M + dZ) - 0.5 * g * (m_next + z_next) ** 2
    expected = -0.5 * coeffs.A * m_next**2
    expected += 0.5 * coeffs.B
    expected += coeffs.D
    expected = expected - 0.5 * coeffs.E * z_next**2
    expected -= coeffs.F * m_next * z_next
    rhs += expected
    return rhs


def _dpe_argmax(coeffs: ValueCoefficients, eq: Equilibrium, trader_index: int, params: ValidatedParams, M, dS, Z):
    """Exact maximiser of _dpe_rhs in dZ, from the first-order condition, in
    the units of ``_dpe_rhs`` and evaluated as ``_evaluate_value`` is."""
    _, g, beta, phi, y, lam = _groups(eq, trader_index, params)
    beta_dS = beta * dS
    m_next = beta_dS + y * M
    grad = -lam * (beta_dS - phi * M)
    grad += coeffs.eta * dS
    grad = grad - g * (m_next + Z)
    grad -= coeffs.E * Z
    grad -= coeffs.F * m_next
    grad /= 2.0 * lam + g + coeffs.E
    return grad


def _stationary_gap(eq: Equilibrium, trader_index: int, params: ValidatedParams) -> float:
    """1 - (1 - phi)^2 = phi (2 - phi), without cancellation at small phi."""
    _check_trader_index(trader_index, params.k)
    phi = eq.phis[trader_index]
    gap = phi * (2.0 - phi)
    if not gap > 0.0:
        raise ValueError(f"phi = {phi!r} gives no stationary inventory distribution")
    return gap


def stationary_inventory_std(eq: Equilibrium, trader_index: int, params: ValidatedParams) -> float:
    """Standard deviation of the trader's predicted inventory in steady state."""
    gap = _stationary_gap(eq, trader_index, params)
    return math.sqrt(eq.betas[trader_index] ** 2 * params.sigma_S**2 * params.dt / gap)


def _default_dpe_grid(
    eq: Equilibrium, trader_index: int, params: ValidatedParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """5x5x5 state grid in the DPE checks' units: M within 3 stationary sd,
    3 beta/(m sqrt(phi (2 - phi))), dS in [-3, 3] and Z in [-1, 1].

    The M and dS axes are ``np.linspace(-x, x, 5)``, point for point,
    without its call: -x + i step for i < 4 with step = (x - -x)/4, then x.
    linspace takes another branch where the step underflows to 0, which
    gives other points only at x = 2^-1074, and three times a double never
    is that.
    """
    import numpy as np

    gap = _stationary_gap(eq, trader_index, params)
    axes = []
    for x in (3.0 * (eq.betas[trader_index] / (params.sigma_K / params.sigma_S) / math.sqrt(gap)), 3.0):
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

    Taken in the DPE checks' units on the default grid. The candidate optimum
    dZ = -zeta Z is used; ``dpe_argmax_gap`` checks separately that it is
    the true maximiser. Scaling is 1 + |v| pointwise; a NaN gap anywhere on
    the grid makes the result NaN.
    """
    import numpy as np

    M, dS, Z = _grid(eq, trader_index, params)
    coeffs = _grouped(coeffs, params)
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
    """Worst gap between the first-order-condition maximiser and -zeta Z, in
    the DPE checks' units; NaN if any gap is."""
    import numpy as np

    M, dS, Z = _grid(eq, trader_index, params)
    coeffs = _grouped(coeffs, params)
    gap = _dpe_argmax(coeffs, eq, trader_index, params, M, dS, Z)
    gap -= -coeffs.zeta * Z
    np.abs(gap, out=gap)
    gap /= 1.0 + np.abs(Z)
    return float(gap.max())
