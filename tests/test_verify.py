"""End-to-end verification battery over representative parameter sets."""
import dataclasses
import math
import random
import tracemalloc

import pytest

import hftequil.simulator
import hftequil.verify
from hftequil import (
    CheckResult,
    ConstraintViolated,
    SolverError,
    VerificationReport,
    nash_expansions,
    pricing_from_beta,
    run_verification,
    solve_equilibrium,
)
from hftequil.verify import _IDENTITY_GATE, _MC_SIGMAS, _max_z_gate, _z_check
from helpers import edge_scale_market, fuzz_market, make_params


def _raise_value_invariant(*args, **kwargs):
    raise ConstraintViolated("value_invariant")


VALUE_NAMES = {
    "value_fixed_point",
    "value_link_identity",
    "dpe_residual",
    "dpe_argmax",
    "sign_pattern",
}
DETERMINISTIC_K1 = {
    "quartic_residual",
    "system_residuals",
    "pricing_identities",
    "phi_bounds",
} | VALUE_NAMES
MC_NAMES = {
    "zero_profit_mc",
    "impact_regression_mc",
    "moment_formula_mc",
    "mark_to_market_mc",
    "deviation_argmax_mc",
    "reduced_form_witness",
}
# Checks whose gate strict mode halves directly; the Monte Carlo checks
# tighten through four times the paths instead.
HALVED_BY_STRICT = {
    "quartic_residual",
    "system_residuals",
    "pricing_identities",
    "value_fixed_point",
    "value_link_identity",
    "dpe_residual",
    "dpe_argmax",
    "reduced_form_witness",
}


# The solve rounds every trader's phi to 1.0 exactly on these markets, so
# 1 - phi vanishes in the value layer.
PHI_ONE_MARKETS = [
    make_params(sigma_K=5e11, dt=0.1106519510532586, gamma=0.002167101358143522, rho=0.4990912258867044),
    make_params(
        sigma_K=472187338.79935074,
        dt=0.38627268785186675,
        gammas=[0.9714718099944232, 27.974406384748068, 5.182965192903174, 5.290269073542773],
        rhos=[0.5916675808227054, 0.5711471045977514, 0.7496319373195179, 0.017363103670997537],
    ),
]
FUZZ_DRAWS = 200


class TestFullBattery:
    def test_unit_monopoly_everything_passes(self):
        report = run_verification(make_params(dt=0.1), paths=512, mc_horizon=64)
        assert report.passed, report.failures
        names = {r.name for r in report.results}
        # dt = 0.1 keeps the full-horizon objective check feasible
        assert names == DETERMINISTIC_K1 | MC_NAMES | {"objective_value_mc"}

    def test_duopoly_skips_the_quartic(self):
        report = run_verification(make_params(k=2, dt=0.1), paths=512, mc_horizon=64)
        assert report.passed, report.failures
        names = {r.name for r in report.results}
        assert "quartic_residual" not in names
        assert MC_NAMES <= names

    def test_deterministic_only_when_paths_zero(self):
        report = run_verification(make_params(dt=0.004), paths=0)
        assert report.passed, report.failures
        assert {r.name for r in report.results} == DETERMINISTIC_K1

    @pytest.mark.parametrize("paths", [1, -3, True, 2.0, 512.5, "512"])
    def test_paths_other_than_zero_or_at_least_two_are_refused(self, paths):
        # paths = 1 or a negative count used to skip the Monte Carlo battery silently
        with pytest.raises(ValueError, match="paths must be 0 or an integer of at least 2"):
            run_verification(make_params(dt=0.004), paths=paths)

    @pytest.mark.parametrize("paths", [0, 64])
    @pytest.mark.parametrize(
        "name, bad",
        [("mc_horizon", 0), ("mc_horizon", 2.5), ("mc_horizon", True),
         ("seed", -3), ("seed", 2.5), ("seed", True), ("seed", 2**64)],
    )
    def test_a_bad_mc_horizon_or_seed_is_refused_before_the_solve(self, monkeypatch, paths, name, bad):
        # a solve would raise ConstraintViolated, which is no ValueError
        monkeypatch.setattr(hftequil.verify, "solve_equilibrium", _raise_value_invariant)
        wanted = {"mc_horizon": "an integer of at least 1", "seed": r"an integer in \[0, 2\^64\)"}[name]
        with pytest.raises(ValueError, match=f"^{name} must be {wanted}, got {bad}$"):
            run_verification(make_params(dt=0.1), paths=paths, **{name: bad})

    @pytest.mark.parametrize("strict", [False, True])
    def test_a_horizon_too_long_for_the_paths_is_refused_before_the_solve(self, monkeypatch, strict):
        monkeypatch.setattr(hftequil.verify, "solve_equilibrium", _raise_value_invariant)
        cap = hftequil.simulator.HORIZON_CAP
        with pytest.raises(ValueError, match=f"^mc_horizon {cap + 1} exceeds the cap of {cap} periods; reduce it$"):
            run_verification(make_params(dt=0.1), paths=64, mc_horizon=cap + 1, strict=strict)

    def test_no_paths_need_no_increments(self):
        report = run_verification(make_params(dt=0.004), paths=0, mc_horizon=10**15)
        assert {r.name for r in report.results} == DETERMINISTIC_K1

    @pytest.mark.parametrize("paths", [1, -3])
    def test_strict_refuses_a_count_before_quadrupling_it(self, paths):
        with pytest.raises(ValueError, match=f"at least 2, got {paths}$"):
            run_verification(make_params(dt=0.004), paths=paths, strict=True)

    @pytest.mark.parametrize(
        "paths, strict, message",
        [
            (2**64, False, r"^paths must be at most 2\^63, got 18446744073709551616$"),
            (2**63 + 1, False, r"^paths must be at most 2\^63, got 9223372036854775809$"),
            (2**62, True, r"^paths must be at most 2\^61 under strict, which runs 4 x paths = "
                          r"18446744073709551616, got 4611686018427387904$"),
            (2**61 + 1, True, r"under strict, which runs 4 x paths = 9223372036854775812, got 2305843009213693953$"),
        ],
    )
    def test_a_path_count_too_large_to_simulate_is_refused_before_the_solve(self, monkeypatch, paths, strict, message):
        # the simulator takes at most 2^63 paths; strict runs four times paths
        monkeypatch.setattr(hftequil.verify, "solve_equilibrium", _raise_value_invariant)
        with pytest.raises(ValueError, match=message):
            run_verification(make_params(dt=0.1), paths=paths, strict=strict)

    def test_the_largest_path_counts_reach_the_solve(self, monkeypatch):
        monkeypatch.setattr(hftequil.verify, "solve_equilibrium", _raise_value_invariant)
        for paths, strict in ((2**63, False), (2**61, True)):
            with pytest.raises(ConstraintViolated):
                run_verification(make_params(dt=0.1), paths=paths, strict=strict)

    def test_limit_case_has_no_value_layer(self):
        report = run_verification(make_params(k=2, dt=0.0), paths=512)
        assert report.passed, report.failures
        assert {r.name for r in report.results} == {
            "system_residuals",
            "pricing_identities",
            "phi_bounds",
        }

    def test_taxed_game_subset(self):
        report = run_verification(make_params(k=2, dt=0.1, tax=1e-3), paths=512, mc_horizon=64)
        assert report.passed, report.failures
        names = {r.name for r in report.results}
        assert names == {"system_residuals", "pricing_identities", "phi_bounds"} | MC_NAMES

    def test_strict_tolerances_pass_deterministically(self):
        report = run_verification(make_params(k=2, dt=0.004), paths=0, strict=True)
        assert report.passed, report.failures

    def test_heterogeneous_traders(self):
        p = make_params(k=2, dt=0.1, gammas=[0.5, 2.0])
        report = run_verification(p, paths=512, mc_horizon=64)
        assert report.passed, report.failures

    def test_moment_check_starts_from_the_initial_inventory(self):
        # The simulated moments and their target both start at trader 0's l0.
        p = make_params(k=2, dt=0.1, gammas=[0.5, 2.0], l0=[0.8, -0.3])
        report = run_verification(p, paths=512, mc_horizon=64)
        moment = next(r for r in report.results if r.name == "moment_formula_mc")
        assert moment.passed, moment.value
        assert report.passed, report.failures

    @pytest.mark.parametrize("largest, passed", [(4.1, True), (4.3, False)])
    def test_moment_check_gates_the_largest_z_at_the_family_rate(self, monkeypatch, largest, passed):
        # The checkpoints' estimates sit 0.5, -1 and `largest` standard errors
        # from their targets: 4.1 is above mc_sigmas and below the family gate
        # for three checkpoints, 4.2528, and 4.3 is above both.
        p = make_params(k=2, dt=0.1, gammas=[0.5, 2.0], l0=[0.8, -0.3])

        def chosen_moments(eq, i, params, checkpoints, **kwargs):
            se = 0.01
            return {
                n: hftequil.simulator.Estimate(
                    hftequil.simulator.inventory_second_moment(eq, i, params, n, M0=0.8) + z * se, se, 64
                )
                for n, z in zip(checkpoints, (0.5, -1.0, largest))
            }

        monkeypatch.setattr(hftequil.simulator, "simulate_second_moment", chosen_moments)
        report = run_verification(p, paths=64, mc_horizon=64)
        moment = next(r for r in report.results if r.name == "moment_formula_mc")
        assert moment.threshold == _max_z_gate(4.0, 3)
        assert _MC_SIGMAS < largest
        assert moment.value == pytest.approx(largest, rel=1e-9)
        assert moment.passed == passed

    def test_moment_check_still_catches_moments_started_from_zero(self, monkeypatch):
        # Simulate trader 0's predictions from M0 = 0 while the target keeps l0.
        p = make_params(k=2, dt=0.1, gammas=[0.5, 2.0], l0=[0.8, -0.3])
        from_zero = make_params(k=2, dt=0.1, gammas=[0.5, 2.0], l0=[0.0, -0.3])
        original = hftequil.simulator.simulate_second_moment

        def simulate_from_zero(eq, i, params, checkpoints, **kwargs):
            return original(eq, i, from_zero, checkpoints, **kwargs)

        monkeypatch.setattr(hftequil.simulator, "simulate_second_moment", simulate_from_zero)
        report = run_verification(p, paths=512, mc_horizon=64)
        moment = next(r for r in report.results if r.name == "moment_formula_mc")
        assert moment.threshold == _max_z_gate(4.0, 3)
        assert moment.value > moment.threshold
        assert report.failures == ("moment_formula_mc",)

    @pytest.mark.parametrize("z, passed", [(3.9, True), (4.1, False)])
    def test_deviation_check_gates_the_paired_differences(self, monkeypatch, z, passed):
        # The beta x 1.15 row tops the equilibrium row's objective by z paired
        # standard errors, so it has the largest sample mean; only z decides.
        sweep = hftequil.simulator._sweep

        def shifted(*args, **kwargs):
            result, mtm = sweep(*args, **kwargs)
            rows = list(result.rows)
            ref, diff = rows[result.reference_index].objective, rows[1].difference
            gap = z * diff.std_error
            rows[1] = dataclasses.replace(
                rows[1],
                objective=dataclasses.replace(ref, mean=ref.mean + gap),
                difference=dataclasses.replace(diff, mean=gap),
            )
            result = dataclasses.replace(result, rows=tuple(rows))
            return result, mtm

        monkeypatch.setattr(hftequil.simulator, "_sweep", shifted)
        report = run_verification(make_params(dt=0.1), paths=64, mc_horizon=64)
        check = next(r for r in report.results if r.name == "deviation_argmax_mc")
        assert check.threshold == _MC_SIGMAS
        assert check.value == pytest.approx(z, rel=1e-12)
        assert check.passed == passed

    def test_deviation_check_fails_a_wrongly_solved_equilibrium(self, monkeypatch):
        # Negative control at the default paths: trader 0's beta 20% low.
        solve = hftequil.verify.solve_equilibrium

        def wrong(params):
            eq, diagnostics = solve(params)
            return dataclasses.replace(eq, betas=(0.8 * eq.betas[0],) + eq.betas[1:]), diagnostics

        monkeypatch.setattr(hftequil.verify, "solve_equilibrium", wrong)
        report = run_verification(make_params(dt=0.99, gamma=1.0, rho=1.0))
        check = next(r for r in report.results if r.name == "deviation_argmax_mc")
        assert not check.passed and check.value > check.threshold == _MC_SIGMAS

    @pytest.mark.parametrize("gap", ["lambda", "aggregate"])
    def test_pricing_identities_are_relative_below_one(self, monkeypatch, gap):
        # Negative control at tax 1e20, where beta_sigma and lambda are near
        # 5e-21: lambda doubled, or beta_sigma doubled with its own lambda, is
        # a gap near 5e-21 in absolute terms but of 0.5 or more relative.
        solve = hftequil.verify.solve_equilibrium

        def wrong(params):
            eq, diagnostics = solve(params)
            if gap == "lambda":
                return dataclasses.replace(eq, lam=2 * eq.lam), diagnostics
            lam, _, _ = pricing_from_beta(2 * eq.beta_sigma, eq.betas, params)
            return dataclasses.replace(eq, beta_sigma=2 * eq.beta_sigma, lam=lam), diagnostics

        monkeypatch.setattr(hftequil.verify, "solve_equilibrium", wrong)
        report = run_verification(make_params(dt=0.01, tax=1e20), paths=0)
        check = next(r for r in report.results if r.name == "pricing_identities")
        assert not check.passed and check.value >= 0.5

    def test_memory_does_not_grow_with_paths(self):
        # rho dt = 0.05 keeps the objective's horizon at 270 periods.
        p = make_params(k=3, dt=0.1, rho=0.5)
        run_verification(p, paths=16, mc_horizon=8)  # one-time set-up
        peaks = {}
        for paths in (4096, 16384):
            tracemalloc.start()
            try:
                run_verification(p, paths=paths)
                peaks[paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16384] <= 1.5 * peaks[4096], peaks

    def test_value_layer_error_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(hftequil.verify, "value_coefficients", _raise_value_invariant)
        report = run_verification(make_params(dt=0.004, sigma_K=1e-6), paths=0)
        failed = {r.name: r for r in report.results if not r.passed}
        assert set(failed) == VALUE_NAMES
        assert all("ConstraintViolated" in r.detail for r in failed.values())
        assert not report.passed
        # rho dt = 0.05 would let the objective run; without coefficients it has no target
        p = make_params(dt=0.004, rho=12.5, sigma_K=1e-6)
        report = run_verification(p, paths=64, mc_horizon=16)
        names = {r.name for r in report.results}
        assert "moment_formula_mc" in names and "objective_value_mc" not in names

    @pytest.mark.parametrize("params", PHI_ONE_MARKETS, ids=["k1", "k4"])
    def test_phi_rounded_to_one_fails_phi_bounds_alone(self, params):
        # 1 - phi_i = 2/(w + q + 2d) > 0 in every valid market, so phi_bounds
        # refuses the stored 1.0; the value layer takes 1 - phi_i as u beta_i/m
        # and passes
        report = run_verification(params, paths=0)
        assert report.failures == ("phi_bounds",)

    def test_objective_check_runs_on_trader_0s_own_discount_tail(self):
        # Trader 1's tail needs 138,149 periods, beyond the check's cap of
        # 20,000; trader 0's own, which the target discounts at, needs 270.
        p = make_params(k=2, dt=0.1, gammas=[1.0, 2.0], rhos=[0.5, 0.001])
        report = run_verification(p)
        check = next(r for r in report.results if r.name == "objective_value_mc")
        assert check.passed, (check.value, check.detail)

    def test_overflowing_value_coefficient_fails_the_value_checks(self):
        # ValidatedParams accepts rho = 1e-310, but D = (1 - rho dt) B sigma_S^2/(2 rho) overflows
        report = run_verification(make_params(dt=0.004, rho=1e-310), paths=0)
        failed = {r.name: r for r in report.results if not r.passed}
        assert set(failed) == VALUE_NAMES
        assert all("value_finite" in r.detail for r in failed.values())

    def test_reduced_form_witness_gate_scales_with_the_price_adjustment(self):
        # lambda is about 5e5 here, so the gap's rounding error exceeds 1e-12
        report = run_verification(make_params(dt=0.004, sigma_K=1e-6), paths=256)
        assert report.passed, report.failures
        witness = next(r for r in report.results if r.name == "reduced_form_witness")
        assert witness.value > _IDENTITY_GATE
        assert witness.threshold > _IDENTITY_GATE

    @pytest.mark.parametrize("l0", [1e5, 1e10])
    def test_reduced_form_witness_gate_scales_with_the_inventory_terms(self, l0):
        # The identity cancels lambda phi_j M_j against mu_j M_j, so its
        # rounding grows with the inventory: 5.9e-12 at l0 = 1e5 and 7.2e-7
        # at 1e10, against 1.29e-12 when the gate ignored the inventory.
        report = run_verification(make_params(dt=0.1, l0=[l0]), paths=64)
        witness = next(r for r in report.results if r.name == "reduced_form_witness")
        assert witness.passed, (witness.value, witness.threshold)
        assert witness.value > _IDENTITY_GATE * 1.29

    # Such inventories overflow some Monte Carlo sums to inf, and inf - inf
    # is NaN; the battery asks numpy not to warn of either.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l0", [1e20, 1e100, 1e200])
    def test_a_huge_initial_inventory_gives_a_report(self, l0):
        # Unit noise is below one ulp of these inventories, so Monte Carlo
        # checks may fail; each still reports a value, and none is NaN.
        report = run_verification(make_params(dt=0.1, l0=[l0]), paths=64)
        results = {r.name: r for r in report.results}
        assert set(results) == DETERMINISTIC_K1 | MC_NAMES | {"objective_value_mc"}
        assert all(results[name].passed for name in DETERMINISTIC_K1)
        assert not any(math.isnan(r.value) for r in report.results)
        if l0 >= 1e100:
            # every effective flow rounds to 0, so no impact slope can be fitted
            impact = results["impact_regression_mc"]
            assert impact.value == math.inf and not impact.passed


def test_sign_pattern_holds_G_below_zero(monkeypatch):
    """G < 0 is one of the signs sign_pattern requires, so a G above 0
    fails the check; there is no third verdict."""
    p = make_params(k=2, dt=0.004, gammas=[1.0, 3.0])
    real = hftequil.verify.value_coefficients
    coeffs = [real(solve_equilibrium(p)[0], i, p) for i in range(2)]
    sign = next(r for r in run_verification(p, paths=0).results if r.name == "sign_pattern")
    assert sign.passed and sign.value <= min(-c.G for c in coeffs)

    def flipped(eq, i, params):
        cs = real(eq, i, params)
        return dataclasses.replace(cs, G=-cs.G) if i == 1 else cs

    monkeypatch.setattr(hftequil.verify, "value_coefficients", flipped)
    sign = next(r for r in run_verification(p, paths=0).results if r.name == "sign_pattern")
    assert not sign.passed and sign.value == coeffs[1].G and sign.detail == ""


@pytest.mark.parametrize("family", [fuzz_market, edge_scale_market], ids=lambda f: f.__name__)
def test_every_fuzzed_market_gets_a_report_or_a_solver_error(family):
    # Any other exception escapes run_verification and fails the test. No
    # family's untaxed table overflows, so nash_expansions may not refuse one.
    # At the top of the scale range, beta_sigma^2 and k (sigma_K/sigma_S)^2
    # leave the float range: forming the first raised OverflowError, and the
    # second refused the table with value_finite.
    # The value layer reads the market in the groups, as the solve does, so
    # no untaxed report fails a value check: 21 fuzz and 81 edge reports did
    # while it formed 1 - phi by subtraction and held absolute gates.
    rng = random.Random(0)
    refused = 0
    for _ in range(FUZZ_DRAWS):
        params = family(rng)
        if params.tax == 0.0:
            nash_expansions(params)
        try:
            report = run_verification(params, paths=0)
        except SolverError:
            refused += 1
        else:
            assert isinstance(report, VerificationReport)
            if params.tax == 0.0 and params.dt > 0.0:
                assert not VALUE_NAMES & set(report.failures), (params, report.failures)
    assert refused < FUZZ_DRAWS


class TestReportMechanics:
    def test_failures_lists_names(self):
        ok = CheckResult("good", True, 0.0, 1.0)
        bad = CheckResult("bad_one", False, 2.0, 1.0)
        report = VerificationReport((ok, bad))
        assert not report.passed
        assert report.failures == ("bad_one",)

    def test_strict_halves_every_tolerance(self):
        # strict=True at N paths is the default battery at 4N paths, with
        # every deterministic gate halved and the Monte Carlo gates kept
        p = make_params(dt=0.1)
        strict = run_verification(p, paths=64, mc_horizon=64, strict=True).results
        base = run_verification(p, paths=256, mc_horizon=64).results
        assert [r.name for r in strict] == [r.name for r in base]
        assert {r.name for r in base} == DETERMINISTIC_K1 | MC_NAMES | {"objective_value_mc"}
        for s, b in zip(strict, base):
            assert s.value == b.value, s.name
            if s.name in HALVED_BY_STRICT:
                assert b.threshold > 0.0 and s.threshold == b.threshold / 2, s.name
            else:
                assert s.threshold == b.threshold, s.name

    def test_zero_standard_error_passes_only_an_exact_match(self):
        exact = _z_check("exact", 0.5, 0.5, 0.0, 4.0)
        assert exact.passed and exact.value == 0.0
        off = _z_check("off", 0.5, 0.25, 0.0, 4.0)
        assert not off.passed and off.value == math.inf

    @pytest.mark.parametrize("estimate, target, std_error", [
        (math.inf, math.inf, math.inf), (math.nan, 0.0, 1.0), (0.5, 0.25, math.nan), (math.nan, 0.0, 0.0),
    ])
    def test_a_z_score_that_is_not_a_number_fails_with_value_inf(self, estimate, target, std_error):
        # an overflowed estimate or standard error must not pass, and max()
        # over checkpoints would skip a NaN
        nan = _z_check("nan", estimate, target, std_error, 4.0)
        assert not nan.passed and nan.value == math.inf

    def test_one_period_mark_to_market_is_exactly_zero_without_raising(self):
        # With no initial inventory the one-period mark-to-market is 0 on
        # every path, so its standard error is 0; this used to divide by it.
        # The report as a whole is not asserted: a one-period sweep cannot
        # rank the equilibrium row first (see deviation_sweep).
        report = run_verification(make_params(dt=0.1), paths=64, mc_horizon=1)
        mtm = next(r for r in report.results if r.name == "mark_to_market_mc")
        assert mtm.passed and mtm.value == 0.0

    def test_max_z_gate(self):
        # Bonferroni over m tests: a tail m times smaller, exactly mc_sigmas for one
        assert _max_z_gate(4.0, 1) == 4.0
        assert _max_z_gate(4.0, 3) == pytest.approx(4.2528, abs=1e-4)
        assert 4.0 < _max_z_gate(4.0, 2) < _max_z_gate(4.0, 3)

    def test_all_results_carry_threshold_and_value(self):
        report = run_verification(make_params(dt=0.004), paths=0)
        for r in report.results:
            assert isinstance(r.value, float)
            assert isinstance(r.threshold, float)
            assert isinstance(r.name, str) and r.name
