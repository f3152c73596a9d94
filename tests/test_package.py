"""The public names: each submodule's __all__ and nothing else, found on first use."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hftequil
from hftequil import asymptotics, cli, model, simulator, solver, value, verify

SUBMODULES = (model, solver, asymptotics, value, simulator, verify)
SUBMODULE_NAMES = {"model", "solver", "asymptotics", "value", "simulator", "verify", "cli"}
BASE = ["--sigma-s", "1.0", "--sigma-k", "1.0", "--dt", "0.004", "--k", "2"]
SIMULATION_LAYERS = ("numpy", "hftequil.simulator", "hftequil.verify")
# Every public name, sorted: adding or retiring one shows up here as a diff.
PUBLIC_NAMES = [
    "CONVERGENCE_QUANTITIES", "CheckResult", "ConfigError", "ConstraintViolated", "ConvergencePoint",
    "ConvergenceTable", "DeviationSweepResult", "Equilibrium", "Estimate", "Expansion",
    "HorizonTooShort", "InadmissibleStrategy", "InfeasiblePoint", "InvalidParamsError", "NoRootInBracket",
    "ObjectiveResult", "PathBatch", "ProfitCheck", "SolveDiagnostics", "SolverError", "StrategySpec", "SweepRow",
    "TraderParams", "ValidatedParams", "ValueCoefficients", "VerificationReport", "Violation",
    "convergence_order", "dealer_profit_check", "default_horizon", "deviation_sweep",
    "dpe_argmax_gap", "dpe_residual", "inventory_second_moment",
    "load_config", "nash_expansions", "params_to_config", "pricing_from_beta", "reduced_form_gap",
    "run_verification", "simulate", "simulate_objective", "simulate_second_moment", "solve_equilibrium",
    "solve_taxed", "stationary_inventory_std", "system_residual", "validate_equilibrium", "value_coefficients",
]


def test_package_exports_exactly_the_submodule_names():
    declared = set().union(*(m.__all__ for m in SUBMODULES))
    assert len(hftequil.__all__) == len(declared)
    assert set(hftequil.__all__) == declared
    listed = {name for name in dir(hftequil) if not name.startswith("_")}
    assert listed - SUBMODULE_NAMES == declared
    for m in SUBMODULES:
        for name in m.__all__:
            assert getattr(hftequil, name) is getattr(m, name), name


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 49
    assert sorted(hftequil.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_declared_name():
    namespace = {}
    exec("from hftequil import *", namespace)
    for m in SUBMODULES:
        for name in m.__all__:
            assert namespace[name] is getattr(m, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hftequil.no_such_name


def test_cli_names_exist():
    for name in cli.__all__:
        assert callable(getattr(cli, name)), name


def run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(hftequil.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "statement",
    [
        f"from hftequil import cli; assert cli.main({['solve', *BASE]!r}) == 0",
        f"from hftequil import cli; assert cli.main({['expand', *BASE]!r}) == 0",
        "import hftequil; hftequil.solve_equilibrium",
        "import hftequil; assert not hasattr(hftequil, '__wrapped__')",
        "import hftequil.model",
    ],
    ids=["solve", "expand", "import", "dunder", "submodule"],
)
def test_analytic_calls_leave_the_simulation_layers_unloaded(statement):
    check = f"import sys; print(sorted(m for m in {SIMULATION_LAYERS!r} if m in sys.modules))"
    proc = run_python("-c", f"{statement}\n{check}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv",
    [["verify", *BASE, "--paths", "64"], ["simulate", *BASE, "--paths", "64", "--horizon", "32"]],
    ids=["verify", "simulate"],
)
def test_simulation_commands_load_their_layers_in_a_fresh_process(argv):
    proc = run_python("-m", "hftequil.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
