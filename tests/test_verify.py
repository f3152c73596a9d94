"""End-to-end verification battery over representative parameter sets."""
import tracemalloc

import pytest

import hftequil.simulator
import hftequil.verify
from hftequil import (
    CheckResult,
    ConstraintViolated,
    Tolerances,
    VerificationReport,
    load_config,
    run_verification,
)
from hftequil.verify import _max_z_gate
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
        report = run_verification(
            make_params(k=2, dt=0.004), paths=0, tolerances=Tolerances.strict()
        )
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
        assert Tolerances().mc_sigmas < moment.value < moment.threshold
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
        # check_params accepts rho = 1e-310, but D = (1 - rho dt) B sigma_S^2/(2 rho) overflows
        report = run_verification(make_params(dt=0.004, rho=1e-310), paths=0)
        failed = {r.name: r for r in report.results if not r.passed}
        assert set(failed) == VALUE_NAMES
        assert all("value_finite" in r.detail for r in failed.values())

    def test_reduced_form_witness_gate_scales_with_the_price_adjustment(self):
        # lambda is about 5e5 here, so the gap's rounding error exceeds 1e-12
        report = run_verification(make_params(dt=0.004, sigma_K=1e-6), paths=256)
        assert report.passed, report.failures
        witness = next(r for r in report.results if r.name == "reduced_form_witness")
        assert witness.value > Tolerances().identity
        assert witness.threshold > Tolerances().identity


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
        base = Tolerances()
        s = Tolerances.strict()
        assert s.quartic_residual == base.quartic_residual / 2
        assert s.system_residual == base.system_residual / 2
        assert s.identity == base.identity / 2
        assert s.dpe_residual == base.dpe_residual / 2
        # the Monte Carlo tolerance halves through 4x the paths, not fewer sigmas
        assert s.mc_sigmas == base.mc_sigmas

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
