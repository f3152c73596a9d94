"""End-to-end verification battery over representative parameter sets."""
import math
import tracemalloc

import pytest

import hftequil.simulator
import hftequil.verify
from hftequil import (
    CheckResult,
    ConstraintViolated,
    VerificationReport,
    load_config,
    run_verification,
)
from hftequil.verify import _IDENTITY_GATE, _MC_SIGMAS, _max_z_gate, _z_check
from helpers import make_params


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

    @pytest.mark.parametrize("paths", [1, -3])
    def test_strict_refuses_a_count_before_quadrupling_it(self, paths):
        with pytest.raises(ValueError, match=f"at least 2, got {paths}$"):
            run_verification(make_params(dt=0.004), paths=paths, strict=True)

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

    def test_moment_check_gates_the_largest_z_at_the_family_rate(self):
        # One game where the largest of the three checkpoint z-scores is
        # 4.006 on correct code: above mc_sigmas, below the family gate.
        cfg = {
            "sigma_S": 1.3631544510795928,
            "sigma_K": 3.1275485984577633,
            "dt": 0.0023240186099862956,
            "traders": [{"gamma": 4.40453777485641, "rho": 21.514457666195213}],
        }
        report = run_verification(load_config(cfg), seed=1244839392202525502)
        moment = next(r for r in report.results if r.name == "moment_formula_mc")
        assert moment.threshold == _max_z_gate(4.0, 3)
        assert _MC_SIGMAS < moment.value < moment.threshold
        assert report.passed, report.failures

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


class TestReportMechanics:
    def test_failures_lists_names(self):
        ok = CheckResult("good", True, 0.0, 1.0)
        bad = CheckResult("bad_one", False, 2.0, 1.0)
        report = VerificationReport((ok, bad))
        assert not report.passed
        assert report.failures == ("bad_one",)

    def test_warning_does_not_fail(self):
        warn = CheckResult("soft", True, 0.0, 1.0, detail="note", warning=True)
        report = VerificationReport((warn,))
        assert report.passed
        assert report.failures == ()

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
