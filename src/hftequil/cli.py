"""Command line front end.

Subcommands: solve, expand, sweep, tax-sweep, simulate, verify. Parameters
come either from a JSON config file (--config) or from inline flags, never
both. Output is deterministic byte for byte: floats are written with repr
and nothing timestamps itself, so reruns diff clean.

The simulation layers load when a command first needs them: ``sim`` and
``run_verification`` are module attributes resolved on first use (PEP 562),
and numpy comes with them or with a sweep grid. So ``solve`` and ``expand``
run without numpy. The runners read these attributes from the module, so a
binding that a test or tracer sets wins. ``verify --strict`` passes
``strict=True`` to ``run_verification``, which alone decides what strict
means.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .asymptotics import nash_expansions
from .model import ConfigError, ValidatedParams, load_config, params_to_config
from .solver import SolverError, solve_equilibrium, solve_taxed
from .value import value_coefficients

__all__ = ["build_parser", "main", "entry_point"]

_INLINE_FLAGS = ("sigma_s", "sigma_k", "dt", "tax", "k", "gamma", "rho", "l0")
# Points a sweep grid may hold, each one solve and one output row; a larger
# count is refused before numpy or range would try to build the grid.
MAX_GRID_POINTS = 100_000


def __getattr__(name: str):
    if name == "sim":
        from . import simulator as value
    elif name == "run_verification":
        from .verify import run_verification as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _late(name: str):
    """This module's attribute ``name``, loading it on first use."""
    return getattr(sys.modules[__name__], name)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma separated list of numbers, got {text!r}") from None


def _parse_grid(text: str, flag: str) -> tuple[float, float, int]:
    """The endpoints and count of an a:b:n grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag} expects a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{flag} expects numbers a:b and an integer count, got {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"{flag} needs finite endpoints a:b, got {text!r}")
    _check_grid_size(n, flag, text)
    return a, b, n


def _check_grid_size(n: int, flag: str, text: str) -> None:
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"{flag} holds at most {MAX_GRID_POINTS} points, got {text!r}")


def _parse_geometric_grid(text: str, flag: str) -> tuple[float, ...]:
    a, b, n = _parse_grid(text, flag)
    if n < 2 or a <= 0 or b <= 0:
        raise ConfigError(f"{flag} needs n >= 2 and positive endpoints, got {text!r}")
    import numpy as np

    return tuple(float(x) for x in np.geomspace(a, b, n))


def _parse_linear_grid(text: str, flag: str) -> tuple[float, ...]:
    a, b, n = _parse_grid(text, flag)
    if n < 2 or a < 0 or b <= a:
        raise ConfigError(f"{flag} needs n >= 2 and 0 <= a < b, got {text!r}")
    import numpy as np

    return tuple(float(x) for x in np.linspace(a, b, n))


def _parse_int_range(text: str, flag: str) -> tuple[int, ...]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects a..b, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"{flag} expects integers, got {text!r}") from None
    if a < 1 or b < a:
        raise ConfigError(f"{flag} needs 1 <= a <= b, got {text!r}")
    _check_grid_size(b - a + 1, flag, text)
    return tuple(range(a, b + 1))


def _params_from_args(args: argparse.Namespace) -> ValidatedParams:
    inline = [name for name in _INLINE_FLAGS if getattr(args, name, None) is not None]
    if args.config is not None:
        if inline:
            raise ConfigError(f"pass --config or inline flags, not both (got --{inline[0].replace('_', '-')})")
        try:
            return load_config(Path(args.config))
        except OSError as exc:
            raise ConfigError(f"cannot read --config {args.config}: {exc.strerror or exc}") from None
    missing = [f for f in ("sigma_s", "sigma_k", "dt") if getattr(args, f, None) is None]
    if missing:
        raise ConfigError(
            "pass --config FILE or the inline flags "
            + ", ".join("--" + f.replace("_", "-") for f in ("sigma_s", "sigma_k", "dt"))
        )
    gammas = _parse_float_list(args.gamma, "--gamma") if args.gamma is not None else [1.0]
    rhos = _parse_float_list(args.rho, "--rho") if args.rho is not None else [0.05]
    l0s = _parse_float_list(args.l0, "--l0") if args.l0 is not None else None
    k = args.k
    if k is None:
        k = max(len(gammas), len(rhos), len(l0s) if l0s else 1)
    for name, values in (("--gamma", gammas), ("--rho", rhos), ("--l0", l0s or [])):
        if values and len(values) not in (0, 1, k):
            raise ConfigError(f"{name} has {len(values)} entries but k={k}")
    if len(gammas) == 1:
        gammas = gammas * k
    if len(rhos) == 1:
        rhos = rhos * k
    if l0s is None:
        l0s = [0.0] * k
    elif len(l0s) == 1:
        l0s = l0s * k
    config = {
        "sigma_S": args.sigma_s,
        "sigma_K": args.sigma_k,
        "dt": args.dt,
        "tax": args.tax if args.tax is not None else 0.0,
        "traders": [
            {"gamma": g, "rho": r, "initial_inventory": l}
            for g, r, l in zip(gammas, rhos, l0s)
        ],
    }
    return load_config(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hftequil",
        description="Equilibrium solver and Monte Carlo verifier for the inventory-averse insider game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="JSON parameter file; excludes inline flags")
        sp.add_argument("--sigma-s", dest="sigma_s", type=float, help="signal volatility per unit time")
        sp.add_argument("--sigma-k", dest="sigma_k", type=float, help="noise flow volatility per unit time")
        sp.add_argument("--dt", type=float, help="period length; 0 selects the continuous limit")
        sp.add_argument("--tax", type=float, help="quadratic transaction tax c: a trade dL pays c dL^2 (default 0)")
        sp.add_argument("--k", type=int, help="number of traders")
        sp.add_argument("--gamma", help="inventory aversion, scalar or comma list")
        sp.add_argument("--rho", help="discount rate, scalar or comma list")
        sp.add_argument("--l0", help="initial inventories, scalar or comma list (default 0)")

    def add_output_flags(sp: argparse.ArgumentParser, formats: list[str], default: str) -> None:
        sp.add_argument("--out", help="write output to this file instead of stdout")
        sp.add_argument("--format", choices=formats, default=default)

    sp = sub.add_parser("solve", help="solve the equilibrium and report all coefficients")
    add_param_flags(sp)
    add_output_flags(sp, ["json"], "json")

    sp = sub.add_parser("expand", help="small-dt expansion coefficients")
    add_param_flags(sp)
    add_output_flags(sp, ["json", "csv"], "json")

    sp = sub.add_parser("sweep", help="exact vs expansion along a dt grid or a trader-count grid")
    add_param_flags(sp)
    add_output_flags(sp, ["csv", "json"], "csv")
    sp.add_argument("--dt-grid", dest="dt_grid", help=f"geometric grid a:b:n over period lengths, n <= {MAX_GRID_POINTS}")
    sp.add_argument("--k-grid", dest="k_grid", help=f"integer range a..b of at most {MAX_GRID_POINTS} trader counts")

    sp = sub.add_parser("tax-sweep", help="price impact along a transaction tax grid")
    add_param_flags(sp)
    add_output_flags(sp, ["csv", "json"], "csv")
    sp.add_argument("--c-grid", dest="c_grid", required=True, help=f"linear tax grid a:b:n, a may be 0, n <= {MAX_GRID_POINTS}")

    sp = sub.add_parser("simulate", help="Monte Carlo objective and mark-to-market estimates")
    add_param_flags(sp)
    add_output_flags(sp, ["json", "csv"], "json")
    sp.add_argument("--paths", type=int, default=4096)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--horizon", type=int, default=None, help="periods to simulate (default: discount tail rule)")

    sp = sub.add_parser("verify", help="run the named consistency checks")
    add_param_flags(sp)
    add_output_flags(sp, ["text", "json"], "text")
    sp.add_argument("--paths", type=int, default=4096, help="Monte Carlo paths; 0 skips the MC checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--strict", action="store_true", help="halve every tolerance (the Monte Carlo ones by running 4x --paths)"
    )
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _to_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _rows_to_csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(row[key]) for key in header))
    return "\n".join(lines) + "\n"


def _emit_rows(rows: list[dict], args: argparse.Namespace) -> None:
    if args.format == "csv":
        _emit(_rows_to_csv(rows), args.out)
    else:
        _emit(_to_json(rows), args.out)


def _value_block(eq, params: ValidatedParams):
    if params.dt == 0.0 or params.tax != 0.0:
        return None
    return [value_coefficients(eq, i, params).to_dict() for i in range(params.k)]


def run_solve(args: argparse.Namespace, params: ValidatedParams) -> int:
    eq, diag = solve_equilibrium(params)
    payload = {
        "params": params_to_config(params),
        "equilibrium": eq.to_dict(),
        "value": _value_block(eq, params),
        "diagnostics": {
            "iterations": diag.iterations,
            "bracket": list(diag.bracket),
            "residuals": list(diag.residuals),
            "aggregate_residual": diag.aggregate_residual,
            "continuation_steps": diag.continuation_steps,
        },
    }
    _emit(_to_json(payload), args.out)
    return 0


def run_expand(args: argparse.Namespace, params: ValidatedParams) -> int:
    exps = nash_expansions(params)
    if args.format == "json":
        payload = {}
        for key, value in exps.items():
            if isinstance(value, tuple):
                payload[key] = [e.to_dict() for e in value]
            else:
                payload[key] = value.to_dict()
        _emit(_to_json(payload), args.out)
        return 0
    rows = []
    for key, value in exps.items():
        entries = value if isinstance(value, tuple) else (value,)
        for i, e in enumerate(entries):
            rows.append(
                {
                    "quantity": key,
                    "trader": "-" if not isinstance(value, tuple) else i,
                    "limit": e.limit,
                    "half_order_coeff": e.half_order_coeff,
                    "dt_coeff": e.dt_coeff,
                    "remainder": e.remainder,
                }
            )
    _emit(_rows_to_csv(rows), args.out)
    return 0


def run_sweep(args: argparse.Namespace, params: ValidatedParams) -> int:
    dt_grid = _parse_geometric_grid(args.dt_grid, "--dt-grid") if args.dt_grid else None
    k_grid = _parse_int_range(args.k_grid, "--k-grid") if args.k_grid else None
    if (dt_grid is None) == (k_grid is None):
        raise ConfigError("sweep needs exactly one of --dt-grid or --k-grid")
    if params.tax != 0.0:
        raise ConfigError("sweep covers the untaxed game; use tax-sweep for nonzero tax")
    rows = []
    if dt_grid is not None:
        exps = nash_expansions(params)
        for dt in dt_grid:
            p = params.with_dt(dt)
            eq, _ = solve_equilibrium(p)
            coeffs = value_coefficients(eq, 0, p)
            sq = math.sqrt(dt)
            rows.append(
                {
                    "dt": dt,
                    "beta_sigma_exact": eq.beta_sigma,
                    "beta_sigma_limit": exps["beta_sigma"].limit,
                    "beta_sigma_expansion": exps["beta_sigma"].evaluate(dt),
                    "lambda_exact": eq.lam,
                    "lambda_limit": exps["lambda"].limit,
                    "lambda_expansion": exps["lambda"].evaluate(dt),
                    "phi0_over_sqrt_dt_exact": eq.phis[0] / sq,
                    "phi0_over_sqrt_dt_coeff": exps["phi"][0].half_order_coeff,
                    "mu0_over_sqrt_dt_exact": eq.mus[0] / sq,
                    "mu0_over_sqrt_dt_coeff": exps["mu"][0].half_order_coeff,
                    "D0_exact": coeffs.D,
                    "D0_limit": exps["D"][0].limit,
                    "D0_expansion": exps["D"][0].evaluate(dt),
                }
            )
    else:
        if params.k != 1:
            raise ConfigError("the trader-count sweep replicates a single template trader; pass k=1 parameters")
        for k in k_grid:
            p = ValidatedParams(params.sigma_S, params.sigma_K, params.dt, params.traders * k, params.tax)
            eq, _ = solve_equilibrium(p)
            exps = nash_expansions(p)
            rows.append(
                {
                    "k": k,
                    "lambda_exact": eq.lam,
                    "lambda_limit": exps["lambda"].limit,
                    "lambda_expansion": exps["lambda"].evaluate(p.dt),
                }
            )
    _emit_rows(rows, args)
    return 0


def run_tax_sweep(args: argparse.Namespace, params: ValidatedParams) -> int:
    rows = []
    for c in _parse_linear_grid(args.c_grid, "--c-grid"):
        p = params.with_tax(c)
        eq, _ = solve_taxed(p)
        rows.append({"c": c, "lambda": eq.lam, "lambda_plus_c": eq.lam + c})
    _emit_rows(rows, args)
    return 0


def run_simulate(args: argparse.Namespace, params: ValidatedParams) -> int:
    sim = _late("sim")
    horizon = args.horizon
    if horizon is None:
        try:
            horizon = sim.default_horizon(params, cap=1_000_000)
        except sim.HorizonTooShort as exc:
            raise ConfigError(f"{exc}; pass --horizon explicitly") from exc
    eq, _ = solve_equilibrium(params)
    rows = []
    for i in range(params.k):
        res = sim.simulate_objective(
            eq, None, params, i, n_paths=args.paths, horizon=horizon, seed=args.seed, tail_tol=None
        )
        rows.append(
            {
                "trader": i,
                "objective_mean": res.objective.mean,
                "objective_se": res.objective.std_error,
                "mtm_mean": res.mark_to_market.mean,
                "mtm_se": res.mark_to_market.std_error,
                "paths": args.paths,
                "horizon": horizon,
                "seed": args.seed,
            }
        )
    if args.format == "json":
        payload = {
            "params": params_to_config(params),
            "equilibrium": eq.to_dict(),
            "results": rows,
        }
        _emit(_to_json(payload), args.out)
    else:
        _emit(_rows_to_csv(rows), args.out)
    return 0


def run_verify(args: argparse.Namespace, params: ValidatedParams) -> int:
    report = _late("run_verification")(params, paths=args.paths, seed=args.seed, strict=args.strict)
    if args.format == "json":
        payload = {
            "passed": report.passed,
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    # JSON has no NaN or infinity; a failed check may carry either.
                    "value": r.value if math.isfinite(r.value) else None,
                    "threshold": r.threshold,
                    "detail": r.detail,
                }
                for r in report.results
            ],
        }
        _emit(_to_json(payload), args.out)
    else:
        lines = []
        for r in report.results:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.name} value={r.value!r} threshold={r.threshold!r}"
            if r.detail:
                line += f" ({r.detail})"
            lines.append(line)
        _emit("\n".join(lines) + "\n", args.out)
    if not report.passed:
        print(f"verification failed: {', '.join(report.failures)}", file=sys.stderr)
        return 1
    return 0


_RUNNERS = {
    "solve": run_solve,
    "expand": run_expand,
    "sweep": run_sweep,
    "tax-sweep": run_tax_sweep,
    "simulate": run_simulate,
    "verify": run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _params_from_args(args)
        return _RUNNERS[args.command](args, params)
    except ValueError as exc:
        # ConfigError and InvalidParamsError are ValueErrors: bad arguments.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
