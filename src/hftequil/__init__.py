"""Equilibrium pricing and inventory dynamics for high-frequency insider games.

A dealer prices order flow linearly while k inventory-averse traders share
a private signal stream. The package solves the resulting stationary
equilibrium (with or without a quadratic transaction tax c dL^2), expands it
for small period lengths, evaluates each trader's quadratic value
function, and verifies everything by direct simulation.

Every public name is the object its submodule exports, loaded on first use
(PEP 562). So ``import hftequil`` and the analytic layers (``model``,
``solver``, ``asymptotics``, ``value``) do not import numpy; the first
simulation, verification or DPE-grid function used does.
"""

_EXPORTS = {
    "model": (
        "ConfigError",
        "InvalidParamsError",
        "MarketParams",
        "TraderParams",
        "ValidatedParams",
        "Violation",
        "check_params",
        "load_config",
        "params_to_config",
        "validate",
    ),
    "solver": (
        "ConstraintViolated",
        "Equilibrium",
        "NoRootInBracket",
        "QuarticRoots",
        "RootsNotSeparated",
        "SolveDiagnostics",
        "SolverError",
        "monopoly_quartic_roots",
        "nash_best_response_beta",
        "pricing_from_beta",
        "solve_equilibrium",
        "solve_monopoly_beta",
        "solve_nash",
        "solve_taxed",
        "system_residual",
        "validate_equilibrium",
    ),
    "asymptotics": (
        "CONVERGENCE_QUANTITIES",
        "ConvergencePoint",
        "ConvergenceTable",
        "Expansion",
        "InfeasiblePoint",
        "convergence_order",
        "nash_expansions",
    ),
    "value": (
        "DegenerateDenominator",
        "ValueCoefficients",
        "default_dpe_grid",
        "dpe_argmax",
        "dpe_argmax_gap",
        "dpe_residual",
        "dpe_rhs",
        "evaluate_value",
        "stationary_inventory_std",
        "value_coefficients",
    ),
    "simulator": (
        "DeviationSweepResult",
        "Estimate",
        "HorizonTooShort",
        "InadmissibleStrategy",
        "ObjectiveResult",
        "PathBatch",
        "ProfitCheck",
        "StrategySpec",
        "SweepRow",
        "dealer_profit_check",
        "default_horizon",
        "deviation_sweep",
        "effective_order_flow",
        "estimate_objective",
        "inventory_is_bounded",
        "inventory_second_moment",
        "mark_to_market",
        "reduced_form_gap",
        "simulate",
        "simulate_objective",
        "simulate_second_moment",
    ),
    "verify": ("CheckResult", "Tolerances", "VerificationReport", "run_verification"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
