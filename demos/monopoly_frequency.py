"""How a single inventory-averse intermediary behaves as trading speeds up.

Solves the single-trader equilibrium over a geometric grid of trading
intervals and compares the exact quantities with their high-frequency
closed forms. The pass-through coefficient beta and the inventory decay
phi converge at first order in dt; the price impact lambda converges
faster because its half-order correction vanishes.

Run from the repository root:

    python3 demos/monopoly_frequency.py
"""
import numpy as np

from hftequil import convergence_order, load_config, nash_expansions, solve_equilibrium


def main() -> None:
    params = load_config(
        {
            "sigma_S": 1.0,
            "sigma_K": 1.0,
            "dt": 0.0,
            "traders": [{"gamma": 1.0, "rho": 0.05}],
        }
    )
    exp = nash_expansions(params)

    print("single intermediary, sigma_S = sigma_K = 1, gamma = 1, rho = 0.05")
    print()
    print("high-frequency limits and first corrections:")
    for name in ("beta", "lambda", "phi"):
        e = exp[name]
        obj = e if name in ("lambda", "beta_sigma") else e[0]
        print(
            f"  {name:<7} limit {obj.limit:+.6f}"
            f"  sqrt(dt) coeff {obj.half_order_coeff:+.6f}"
            f"  dt coeff {obj.dt_coeff:+.6f}"
        )
    print()

    header = f"{'dt':>10} {'beta':>12} {'lambda':>12} {'phi':>12} {'lambda gap':>12}"
    print(header)
    lam_limit = exp["lambda"].limit
    for dt in np.geomspace(1e-1, 1e-5, 5):
        eq, _ = solve_equilibrium(params.with_dt(float(dt)))
        gap = abs(eq.lam - lam_limit) / lam_limit
        print(
            f"{dt:>10.1e} {eq.betas[0]:>12.8f} {eq.lam:>12.8f}"
            f" {eq.phis[0]:>12.8f} {gap:>12.2e}"
        )
    print()
    print("already at daily trading (dt = 1/250) lambda sits within 1% of 0.5,")
    print("so the continuous-time intuition prices the discrete market well.")
    print()

    grid = np.geomspace(1e-2, 1e-6, 9)
    for name, want in (("beta", 1.0), ("phi", 1.0), ("lambda", 1.5)):
        table = convergence_order(params, name, grid)
        print(
            f"empirical convergence order for {name:<7}"
            f" {table.final_order:.3f} (theory {want})"
        )


if __name__ == "__main__":
    main()
