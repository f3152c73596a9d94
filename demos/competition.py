"""What competition among intermediaries does to price impact.

Solves the symmetric equilibrium for one through ten identical traders
at a fast trading interval, then a heterogeneous pair to show how
inventory aversion splits the flow. Price impact falls monotonically in
the number of traders toward sqrt(k)/(1+k), so a more crowded market is
cheaper to trade against even though each trader carries less flow.

Run from the repository root:

    python3 demos/competition.py
"""
import math

from hftequil import load_config, nash_expansions, solve_equilibrium


def homogeneous(k: int, dt: float):
    return load_config(
        {
            "sigma_S": 1.0,
            "sigma_K": 1.0,
            "dt": dt,
            "traders": [{"gamma": 1.0, "rho": 0.05} for _ in range(k)],
        }
    )


def main() -> None:
    dt = 1 / 25000
    print(f"identical intermediaries, dt = {dt}")
    print()
    print(f"{'k':>3} {'beta_i':>12} {'beta_total':>12} {'lambda':>12} {'limit':>12}")
    for k in range(1, 11):
        p = homogeneous(k, dt)
        eq, _ = solve_equilibrium(p)
        limit = math.sqrt(k) / (1 + k)
        print(
            f"{k:>3} {eq.betas[0]:>12.8f} {eq.beta_sigma:>12.8f}"
            f" {eq.lam:>12.8f} {limit:>12.8f}"
        )
    print()
    print("each additional trader lowers lambda, and the exact values track")
    print("the sqrt(k)/(1+k) limit to a fraction of a percent at this speed.")
    print()

    hetero = load_config(
        {
            "sigma_S": 1.0,
            "sigma_K": 1.0,
            "dt": dt,
            "traders": [
                {"gamma": 0.5, "rho": 0.05},
                {"gamma": 2.0, "rho": 0.05},
            ],
        }
    )
    eq, _ = solve_equilibrium(hetero)
    exp = nash_expansions(hetero)
    print("heterogeneous pair, gamma = (0.5, 2.0):")
    for i, (beta, phi) in enumerate(zip(eq.betas, eq.phis)):
        print(f"  trader {i}: beta {beta:.8f}  phi {phi:.8f}")
    print()
    print("pass-through is identical in the limit (it does not depend on")
    print("gamma there), but the patient trader sheds inventory more slowly:")
    for i in range(2):
        print(
            f"  trader {i}: phi ~ {exp['phi'][i].half_order_coeff:.6f} * sqrt(dt)"
            f" = {exp['phi'][i].evaluate(dt):.8f}"
        )


if __name__ == "__main__":
    main()
