"""Seeded inputs, operations and correctness gates of the three workloads.

Every input is drawn from ``random.Random`` seeded with a string built from
the workload name and the run seed, so a seed names one fixed list of
inputs on every platform. The program sees only those inputs.

An operation returns an :class:`Outcome`: the time spent in the program's
calls, the exact counts it produced, and ``failure``, which is None when
the op passed its gate. A failure whose signature matches one of the two
defects known at the time the benchmark was written starts with
``defect-a`` or ``defect-b``; anything else starts with ``unexpected``.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from hftequil import StrategySpec

WORKLOADS = ("solve_mix", "nash_sweep", "verify_battery")

SOLVE_MIX_OPS = 1000
SOLVE_MIX_TAXED_SHARE = 0.2
K_MAX = 100
SYSTEM_RESIDUAL_GATE = 1e-10
DPE_RESIDUAL_GATE = 1e-9

# Criterion 06 of the acceptance suite, with one chunk of deviation_sweep's
# default 20000 paths instead of five: each period then touches the same
# (rows x 20000) arrays as criterion 06, so its cache regime is kept.
SWEEP_KS = (1, 2, 4)
SWEEP_DT = 1 / 2500
SWEEP_HORIZON = 450
SWEEP_PATHS = 20000
SWEEP_SLACK = 4.0

VERIFY_CLASSES = ("k1_objective", "k2_hetero_l0", "k2_taxed", "k3_objective")


@dataclass
class Outcome:
    label: str
    seconds: float
    failure: str | None = None
    counts: dict = field(default_factory=dict)

    def signature(self):
        return (self.label, self.failure, tuple(sorted(self.counts.items())))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ----------------------------------------------------------------- solve_mix

def _solve_mix_market(rng: random.Random, k: int, taxed: bool) -> dict:
    sigma_s = _log_uniform(rng, 0.1, 10.0)
    ratio = _log_uniform(rng, 1e-3, 1e2)
    dt = _log_uniform(rng, 1e-6, 1e-1)
    traders = [
        {"gamma": _log_uniform(rng, 0.1, 10.0), "rho": _log_uniform(rng, 0.01, 1.0)}
        for _ in range(k)
    ]
    # Impact scales as sigma_S / sigma_K, so the tax is drawn relative to it.
    tax = _log_uniform(rng, 1e-4, 1e-1) / ratio if taxed else 0.0
    return {"sigma_S": sigma_s, "sigma_K": sigma_s * ratio, "dt": dt, "tax": tax, "traders": traders}


def solve_mix_inputs(seed: int) -> list[dict]:
    """Market configs: k in [1, K_MAX] weighted toward small k, a fifth taxed.

    Trader count comes from floor((K_MAX + 1) ** (u * u)) with u stratified
    within the taxed and the untaxed draws, so that seeds differ in their
    values but not in their mix of cheap and costly solves. Every other
    parameter is an independent log-uniform draw.
    """
    rng = random.Random(f"solve_mix:{seed}")
    n_taxed = round(SOLVE_MIX_OPS * SOLVE_MIX_TAXED_SHARE)
    draws = []
    for taxed, count in ((True, n_taxed), (False, SOLVE_MIX_OPS - n_taxed)):
        for j in range(count):
            u = (j + rng.random()) / count
            k = min(K_MAX, int((K_MAX + 1) ** (u * u)))
            draws.append(_solve_mix_market(rng, k, taxed))
    rng.shuffle(draws)
    return draws


def _market_label(cfg: dict) -> str:
    ratio = cfg["sigma_K"] / cfg["sigma_S"]
    return f"k={len(cfg['traders'])} ratio={ratio:.3g} dt={cfg['dt']:.3g} tax={cfg.get('tax', 0.0):.3g}"


def _is_defect_a(step: str, exc: Exception, cfg: dict) -> bool:
    """value_coefficients trips its own invariant at tiny vol ratio and dt."""
    return (
        step == "value_coefficients"
        and getattr(exc, "which", None) == "value_invariant"
        and cfg["sigma_K"] / cfg["sigma_S"] < 1e-2
        and cfg["dt"] < 1e-4
    )


def solve_op(api, cfg: dict) -> Outcome:
    """load_config, solve_equilibrium, then value_coefficients for every trader
    and nash_expansions when untaxed; gated on validate_equilibrium, the
    system residual and trader 0's dynamic programming residual."""
    out = Outcome(_market_label(cfg), 0.0)
    step = "load_config"
    t0 = time.perf_counter()
    try:
        params = api.load_config(cfg)
        step = "solve_equilibrium"
        eq, diag = api.solve_equilibrium(params)
        out.counts = {
            "solves": 1,
            "taxed_solves": int(params.tax > 0.0),
            "solver_iterations": diag.iterations,
            "continuation_steps": diag.continuation_steps,
        }
        coeffs = None
        if params.tax == 0.0:
            step = "value_coefficients"
            coeffs = [api.value_coefficients(eq, i, params) for i in range(params.k)]
            step = "nash_expansions"
            api.nash_expansions(params)
    except Exception as exc:
        out.seconds = time.perf_counter() - t0
        kind = "defect-a" if _is_defect_a(step, exc, cfg) else "unexpected"
        out.failure = f"{kind}: {step} raised {type(exc).__name__}: {exc}"
        return out
    out.seconds = time.perf_counter() - t0
    try:
        api.validate_equilibrium(eq, params)
        residual = max(api.system_residual(eq, params))
        dpe = api.dpe_residual(coeffs[0], eq, 0, params) if coeffs else 0.0
    except Exception as exc:
        out.failure = f"unexpected: gate raised {type(exc).__name__}: {exc}"
        return out
    if not residual <= SYSTEM_RESIDUAL_GATE:
        out.failure = f"unexpected: system residual {residual!r} > {SYSTEM_RESIDUAL_GATE}"
    elif not dpe <= DPE_RESIDUAL_GATE:
        out.failure = f"unexpected: dpe residual {dpe!r} > {DPE_RESIDUAL_GATE}"
    return out


# ---------------------------------------------------------------- nash_sweep

def nash_sweep_inputs(seed: int) -> list[tuple[int, int]]:
    """(k, Monte Carlo seed) for one sweep at each trader count."""
    rng = random.Random(f"nash_sweep:{seed}")
    return [(k, rng.getrandbits(63)) for k in SWEEP_KS]


def sweep_rows(zeta: float) -> list[StrategySpec]:
    rows = [StrategySpec.equilibrium()]
    rows += [StrategySpec.scaled(beta_scale=s) for s in (0.8, 0.9, 1.1, 1.2)]
    rows += [StrategySpec.scaled(phi_scale=s) for s in (0.8, 0.9, 1.1, 1.2)]
    rows += [StrategySpec.with_z(z, 1.0) for z in (0.0, 0.5 * zeta, zeta, 2.0 * zeta, 1.0)]
    return rows


def sweep_op(api, inp: tuple[int, int]) -> Outcome:
    """Criterion 06's deviation sweep, gated on reference_dominates(slack=4)."""
    k, seed = inp
    out = Outcome(f"k={k}", 0.0)
    cfg = {"sigma_S": 1.0, "sigma_K": 1.0, "dt": SWEEP_DT,
           "traders": [{"gamma": 1.0, "rho": 0.05} for _ in range(k)]}
    t0 = time.perf_counter()
    try:
        params = api.load_config(cfg)
        eq, diag = api.solve_equilibrium(params)
        rows = sweep_rows(api.value_coefficients(eq, 0, params).zeta)
        result = api.deviation_sweep(
            eq, params, 0, rows, n_paths=SWEEP_PATHS, horizon=SWEEP_HORIZON, seed=seed
        )
    except Exception as exc:
        out.seconds = time.perf_counter() - t0
        out.failure = f"unexpected: raised {type(exc).__name__}: {exc}"
        return out
    out.seconds = time.perf_counter() - t0
    out.counts = {
        "solves": 1,
        "solver_iterations": diag.iterations,
        "sweep_path_steps": SWEEP_PATHS * SWEEP_HORIZON * len(rows),
    }
    if not result.reference_dominates(slack=SWEEP_SLACK):
        out.failure = "unexpected: a deviation beats the equilibrium row by more than 4 standard errors"
    return out


# ------------------------------------------------------------ verify_battery

def _verify_market(rng: random.Random, name: str) -> dict:
    k, taxed, l0_first, l0_rest, objective = {
        "k1_objective": (1, False, False, False, True),
        "k2_hetero_l0": (2, False, True, False, False),
        "k2_taxed": (2, True, False, True, False),
        "k3_objective": (3, False, False, True, True),
    }[name]
    sigma_s = _log_uniform(rng, 0.5, 2.0)
    ratio = _log_uniform(rng, 0.1, 10.0)
    # run_verification estimates the objective only when the discount tail
    # fits in 20000 periods, i.e. rho * dt above about 7e-4. In the objective
    # classes trader 0 has rho * dt = 0.05 and the others more, so the
    # objective runs over 270 periods on every seed; elsewhere rho * dt < 5e-4.
    dt = _log_uniform(rng, 1e-3, 1e-1) if objective else _log_uniform(rng, 1e-4, 1e-2)
    traders = []
    for i in range(k):
        if objective:
            rho = (0.05 if i == 0 else _log_uniform(rng, 0.05, 0.1)) / dt
        else:
            rho = _log_uniform(rng, 0.005, 0.05)
        l0 = 0.0
        if (l0_first if i == 0 else l0_rest):
            l0 = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 0.1, 1.0)
        traders.append({"gamma": _log_uniform(rng, 0.2, 5.0), "rho": rho, "initial_inventory": l0})
    tax = _log_uniform(rng, 1e-3, 1e-1) / ratio if taxed else 0.0
    return {"sigma_S": sigma_s, "sigma_K": sigma_s * ratio, "dt": dt, "tax": tax, "traders": traders}


def verify_battery_inputs(seed: int) -> list[tuple[str, dict, int]]:
    """(class, market config, Monte Carlo seed), one per class."""
    rng = random.Random(f"verify_battery:{seed}")
    return [(name, _verify_market(rng, name), rng.getrandbits(63)) for name in VERIFY_CLASSES]


def verify_op(api, inp: tuple[str, dict, int]) -> Outcome:
    """run_verification at its defaults, gated on report.passed."""
    name, cfg, seed = inp
    out = Outcome(name, 0.0)
    t0 = time.perf_counter()
    try:
        params = api.load_config(cfg)
        report = api.run_verification(params, seed=seed)
    except Exception as exc:
        out.seconds = time.perf_counter() - t0
        out.failure = f"unexpected: raised {type(exc).__name__}: {exc}"
        return out
    out.seconds = time.perf_counter() - t0
    out.counts = {"checks": len(report.results), "checks_failed": len(report.failures)}
    if report.passed:
        return out
    # The moment check simulates from M0 = 0 but targets trader 0's l0.
    kind = "unexpected"
    if report.failures == ("moment_formula_mc",) and params.traders[0].initial_inventory != 0.0:
        kind = "defect-b"
    out.failure = f"{kind}: failed {', '.join(report.failures)}"
    return out


INPUTS = {
    "solve_mix": solve_mix_inputs,
    "nash_sweep": nash_sweep_inputs,
    "verify_battery": verify_battery_inputs,
}
OPS = {"solve_mix": solve_op, "nash_sweep": sweep_op, "verify_battery": verify_op}
