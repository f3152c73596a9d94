"""Quadratic continuation value of a single trader at equilibrium.

The state is (M, dS, Z): the dealer's prediction of the trader's
inventory, the current signal increment, and the gap Z = L - M between the
actual and predicted inventory. On the equilibrium path Z = 0; the Z
coefficients price off-path inventory and pin down the optimal workdown
rate zeta, with the deviation gap contracting by the factor (1 - zeta)
each period.

numpy is imported by the three DPE-grid functions alone, so the value
function itself loads without it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .model import ValidatedParams, _check_trader_index, _frozen
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
    return _frozen(
        ValueCoefficients,
        {"A": A, "B": B, "C": C, "D": D, "E": E, "zeta": zeta, "F": F, "G": G, "eta": eta},
    )


def _evaluate_value(coeffs: ValueCoefficients, M, dS, Z):
    """Quadratic form of the value function; accepts scalars or arrays."""
    return (
        -0.5 * coeffs.A * M**2
        + 0.5 * coeffs.B * dS**2
        - coeffs.C * M * dS
        + coeffs.D
        - 0.5 * coeffs.E * Z**2
        - coeffs.F * M * Z
        + coeffs.G * dS * Z
    )


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
    """
    _check_trader_index(trader_index, params.k)
    t = params.traders[trader_index]
    gdt = t.gamma * params.dt
    beta = eq.betas[trader_index]
    phi = eq.phis[trader_index]
    lam = eq.lam
    m_next = beta * dS + (1.0 - phi) * M
    z_next = Z + dZ
    flow = (coeffs.eta * dS - lam * dZ) * (beta * dS - phi * M + dZ) - 0.5 * gdt * (
        m_next + z_next
    ) ** 2
    expected = (
        -0.5 * coeffs.A * m_next**2
        + 0.5 * coeffs.B * params.sigma_S**2 * params.dt
        + coeffs.D
        - 0.5 * coeffs.E * z_next**2
        - coeffs.F * m_next * z_next
    )
    return flow + expected


def _dpe_argmax(
    coeffs: ValueCoefficients,
    eq: Equilibrium,
    trader_index: int,
    params: ValidatedParams,
    M,
    dS,
    Z,
):
    """Exact maximiser of _dpe_rhs in dZ, from the first-order condition."""
    _check_trader_index(trader_index, params.k)
    t = params.traders[trader_index]
    gdt = t.gamma * params.dt
    beta = eq.betas[trader_index]
    phi = eq.phis[trader_index]
    lam = eq.lam
    m_next = beta * dS + (1.0 - phi) * M
    grad_at_zero = (
        -lam * (beta * dS - phi * M)
        + coeffs.eta * dS
        - gdt * (m_next + Z)
        - coeffs.E * Z
        - coeffs.F * m_next
    )
    curvature = 2.0 * lam + gdt + coeffs.E
    return grad_at_zero / curvature


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
    """5x5x5 state grid: M within 3 stationary sd, dS within 3 sigma_S sqrt(dt), Z in [-1, 1]."""
    import numpy as np

    m_sd = stationary_inventory_std(eq, trader_index, params)
    s_sd = params.sigma_S * math.sqrt(params.dt)
    return (
        np.linspace(-3.0 * m_sd, 3.0 * m_sd, 5),
        np.linspace(-3.0 * s_sd, 3.0 * s_sd, 5),
        np.array([-1.0, -0.5, 0.0, 0.5, 1.0]),
    )


def _grid_axes(eq: Equilibrium, trader_index: int, params: ValidatedParams):
    """The default grid's M, dS and Z axes shaped (5, 1, 1), (1, 5, 1) and
    (1, 1, 5): they broadcast to the 5x5x5 grid, and each grid point sees
    the same operations as on meshgrid's full copies."""
    m, s, z = _default_dpe_grid(eq, trader_index, params)
    return m[:, None, None], s[None, :, None], z[None, None, :]


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

    M, dS, Z = _grid_axes(eq, trader_index, params)
    disc = 1.0 - params.traders[trader_index].rho * params.dt
    v = _evaluate_value(coeffs, M, dS, Z)
    rhs = _dpe_rhs(coeffs, eq, trader_index, params, M, dS, Z, -coeffs.zeta * Z)
    return float(np.max(np.abs(v / disc - rhs) / (1.0 + np.abs(v))))


def dpe_argmax_gap(
    coeffs: ValueCoefficients,
    eq: Equilibrium,
    trader_index: int,
    params: ValidatedParams,
) -> float:
    """Worst gap between the first-order-condition maximiser and -zeta Z; NaN if any gap is."""
    import numpy as np

    M, dS, Z = _grid_axes(eq, trader_index, params)
    star = _dpe_argmax(coeffs, eq, trader_index, params, M, dS, Z)
    return float(np.max(np.abs(star - (-coeffs.zeta * Z)) / (1.0 + np.abs(Z))))
