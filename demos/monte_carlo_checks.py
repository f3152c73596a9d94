"""Monte Carlo corroboration of the analytic equilibrium.

Simulates the market at the solved equilibrium and checks three
predictions against sample statistics: the dealer breaks even on
average, the simulated discounted objective matches the value function
at zero initial inventories, and the stationary second moment of
inventory matches its closed form. A deliberately mispriced dealer is
included as a negative control so the zero-profit check demonstrably
has power.

Run from the repository root (about ten seconds):

    python3 demos/monte_carlo_checks.py
"""
from hftequil import (
    dealer_profit_check,
    inventory_second_moment,
    simulate,
    simulate_objective,
    simulate_second_moment,
    solve_equilibrium,
    load_config,
    value_coefficients,
)


def main() -> None:
    params = load_config(
        {
            "sigma_S": 1.0,
            "sigma_K": 1.0,
            "dt": 1 / 250,
            "traders": [{"gamma": 1.0, "rho": 0.05} for _ in range(2)],
        }
    )
    eq, _ = solve_equilibrium(params)
    print(f"two traders at dt = 1/250: lambda = {eq.lam:.8f}, phi = {eq.phis[0]:.8f}")
    print()

    batch = simulate(eq, None, params, n_paths=1000, horizon=1000, seed=0)
    check = dealer_profit_check(batch)
    print("dealer profit per round (should straddle zero):")
    print(f"  mean {check.profit.mean:+.3e}  se {check.profit.std_error:.3e}")
    print(f"  regression slope {check.slope:.6f} vs lambda {eq.lam:.6f}"
          f" (se {check.slope_se:.6f})")
    control = dealer_profit_check(batch, lambda_scale=1.1)
    z = control.profit.mean / control.profit.std_error
    print(f"  negative control at 1.1 * lambda earns {z:+.1f} standard errors")
    print()

    slow = load_config(
        {
            "sigma_S": 1.0,
            "sigma_K": 1.0,
            "dt": 0.1,
            "traders": [{"gamma": 1.0, "rho": 0.05}],
        }
    )
    eq1, _ = solve_equilibrium(slow)
    cs = value_coefficients(eq1, 0, slow)
    target = 0.5 * cs.B * slow.sigma_S**2 * slow.dt + cs.D
    res = simulate_objective(eq1, None, slow, 0, n_paths=20000, seed=0)
    gap_se = (res.objective.mean - target) / res.objective.std_error
    print("discounted objective from zero inventory (single trader, dt = 0.1):")
    print(f"  value function predicts {target:.6f}")
    print(f"  simulation gives {res.objective.mean:.6f} ({gap_se:+.2f} se)")
    print(f"  mark-to-market term {res.mark_to_market.mean:+.3e}"
          f" (se {res.mark_to_market.std_error:.3e}, mean should be zero)")
    print()

    ests = simulate_second_moment(eq1, 0, slow, [1, 10, 100], n_paths=100_000, seed=0)
    print("inventory second moment E[M_n^2] against the closed form:")
    for n, est in ests.items():
        closed = inventory_second_moment(eq1, 0, slow, n)
        z = (est.mean - closed) / est.std_error
        print(f"  n = {n:>3}: closed {closed:.6f}  sampled {est.mean:.6f} ({z:+.2f} se)")


if __name__ == "__main__":
    main()
