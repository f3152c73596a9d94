"""Equilibrium pricing and inventory dynamics for high-frequency insider games.

A dealer prices order flow linearly while k inventory-averse traders share
a private signal stream. The package solves the resulting stationary
equilibrium (with or without a proportional transaction tax), expands it
for small period lengths, evaluates each trader's quadratic value
function, and verifies everything by direct simulation.
"""
from .model import (
    ConfigError,
    InvalidParamsError,
    MarketParams,
    TraderParams,
    ValidatedParams,
    Violation,
    check_params,
    load_config,
    params_to_config,
    validate,
)
from .solver import (
    ConstraintViolated,
    Equilibrium,
    NoRootInBracket,
    QuarticRoots,
    RootsNotSeparated,
    SolveDiagnostics,
    SolverError,
    monopoly_quartic_roots,
    nash_best_response_beta,
    pricing_from_beta,
    solve_equilibrium,
    solve_monopoly_beta,
    solve_nash,
    solve_taxed,
    system_residual,
    validate_equilibrium,
)
from .asymptotics import (
    CONVERGENCE_QUANTITIES,
    ConvergencePoint,
    ConvergenceTable,
    Expansion,
    InfeasiblePoint,
    convergence_order,
    nash_expansions,
)
from .value import (
    DegenerateDenominator,
    ValueCoefficients,
    default_dpe_grid,
    dpe_argmax,
    dpe_argmax_gap,
    dpe_residual,
    dpe_rhs,
    evaluate_value,
    stationary_inventory_std,
    value_coefficients,
)
from .simulator import (
    DeviationSweepResult,
    Estimate,
    HorizonTooShort,
    InadmissibleStrategy,
    ObjectiveResult,
    PathBatch,
    ProfitCheck,
    StrategySpec,
    SweepRow,
    dealer_profit_check,
    default_horizon,
    deviation_sweep,
    effective_order_flow,
    estimate_objective,
    inventory_is_bounded,
    inventory_second_moment,
    mark_to_market,
    reduced_form_gap,
    simulate,
    simulate_objective,
    simulate_second_moment,
)
from .verify import CheckResult, Tolerances, VerificationReport, run_verification

__version__ = "0.1.0"
