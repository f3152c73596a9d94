"""Command line interface: flags, formats, exit codes, determinism."""
import json
import warnings
from pathlib import Path

import pytest

import hftequil.cli as cli
import hftequil.verify
from hftequil import CheckResult, ConstraintViolated, VerificationReport, load_config, run_verification, solve_equilibrium
from hftequil.cli import main
from helpers import make_params

BASE = ["--sigma-s", "1.0", "--sigma-k", "1.0", "--dt", "0.004"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_payload_shape(self, capsys):
        code, out, err = run_cli(capsys, "solve", *BASE, "--k", "2")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert set(payload) == {"params", "equilibrium", "value", "diagnostics"}
        eq = payload["equilibrium"]
        assert set(eq) == {"betas", "beta_sigma", "lambda", "phis", "mus", "tax"}
        assert len(eq["betas"]) == 2
        assert load_config(payload["params"]) == make_params(k=2, dt=0.004)
        assert len(payload["value"]) == 2
        assert set(payload["value"][0]) == {"A", "B", "C", "D", "E", "zeta", "F", "G", "eta"}
        diag = payload["diagnostics"]
        assert set(diag) == {
            "iterations",
            "bracket",
            "residuals",
            "aggregate_residual",
            "continuation_steps",
        }
        assert diag["iterations"] > 0

    def test_signed_zeros_print_as_positive_zero(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sigma-s", "1", "--sigma-k", "1", "--dt", "-0.0", "--tax", "-0.0")
        assert code == 0 and "-0.0" not in out
        assert json.loads(out)["equilibrium"]["tax"] == 0.0

    def test_value_block_is_null_in_the_limit(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sigma-s", "1", "--sigma-k", "1", "--dt", "0")
        assert code == 0
        ints = []
        payload = json.loads(out, parse_int=lambda text: ints.append(text) or int(text))
        assert payload["value"] is None
        assert payload["equilibrium"]["phis"] == [0.0]
        # 0 == 0.0 after parsing, so read the text: phi = 0 prints as 0.0, and
        # only the diagnostics' two counts print as ints
        assert ints == [str(payload["diagnostics"]["iterations"]), "0"]
        for params in (make_params(dt=0.0), make_params(k=3, dt=0.0, tax=0.05)):
            eq, _ = solve_equilibrium(params)
            for name, value in eq.__dict__.items():
                assert all(type(x) is float for x in (value if isinstance(value, tuple) else (value,))), name

    def test_value_block_is_null_when_taxed(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *BASE, "--tax", "0.001")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] is None
        assert payload["equilibrium"]["tax"] == 0.001

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "solve", *BASE)
        _, second, _ = run_cli(capsys, "solve", *BASE)
        assert first == second

    def test_config_file_equals_inline(self, capsys, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(
            json.dumps(
                {
                    "sigma_S": 1.0,
                    "sigma_K": 1.0,
                    "dt": 0.004,
                    "traders": [{"gamma": 1.0, "rho": 0.05}],
                }
            )
        )
        _, from_file, _ = run_cli(capsys, "solve", "--config", str(cfg))
        _, inline, _ = run_cli(capsys, "solve", *BASE)
        assert from_file == inline

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "eq.json"
        code, out, _ = run_cli(capsys, "solve", *BASE, "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["equilibrium"]["lambda"] > 0

    def test_gamma_broadcast(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *BASE, "--k", "3", "--gamma", "2.0")
        assert code == 0
        traders = json.loads(out)["params"]["traders"]
        assert [t["gamma"] for t in traders] == [2.0, 2.0, 2.0]

    def test_gamma_list_sets_k(self, capsys):
        code, out, _ = run_cli(capsys, "solve", *BASE, "--gamma", "0.5,2.0")
        assert code == 0
        assert len(json.loads(out)["equilibrium"]["betas"]) == 2


class TestParamErrors:
    def test_config_and_inline_conflict(self, capsys, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text("{}")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--sigma-s", "1")
        assert code == 2
        assert "--config" in err or "inline" in err

    def test_missing_required_inline_flags(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--sigma-s", "1")
        assert code == 2
        assert "--sigma-k" in err

    def test_gamma_length_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "solve", *BASE, "--k", "3", "--gamma", "1,2")
        assert code == 2
        assert "--gamma" in err

    def test_invalid_values_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--sigma-s", "-1", "--sigma-k", "1", "--dt", "0.01")
        assert code == 2
        assert "NonPositiveVolatility" in err

    def test_underflowing_volatility_ratio_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--sigma-s", "1", "--sigma-k", "1e-81", "--dt", "1e-3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "system_residual" in err

    def test_overflowing_value_coefficient_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", *BASE, "--rho", "1e-310")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "value_finite" in err

    def test_overflowing_expansion_coefficient_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "expand", *BASE, "--rho", "1e-310")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "value_finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--sigma-s", "1", "--sigma-k", "1e200", "--dt", "0.01"],
            ["solve", "--sigma-s", "1e200", "--sigma-k", "1e200", "--dt", "0.01"],
            ["verify", "--sigma-s", "1e-200", "--sigma-k", "1e-200", "--dt", "0.01", "--paths", "0"],
            ["expand", "--sigma-s", "1", "--sigma-k", "1e-170", "--dt", "0.01"],
            ["solve", "--sigma-s", "1e-161", "--sigma-k", "1e-161", "--dt", "0.01"],
        ],
        ids=["sigma_K^2-overflows", "both-overflow", "both-underflow", "ratio-underflows", "subnormal-squares"],
    )
    def test_volatility_squares_out_of_range_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "VolatilityOutOfRange" in err

    @pytest.mark.parametrize("command,l0", [("solve", "nan"), ("simulate", "inf")])
    def test_non_finite_initial_inventory_exits_2(self, capsys, command, l0):
        code, out, err = run_cli(capsys, command, *BASE, "--k", "2", "--l0", l0)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "NonFiniteInventory" in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "eq.json"
        code, out, err = run_cli(capsys, "solve", *BASE, "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: cannot write --out {target}: No such file or directory\n"

    @pytest.mark.parametrize(
        "name, reason", [("missing.json", "No such file or directory"), (".", "Is a directory")], ids=["missing", "dir"]
    )
    def test_unreadable_config_exits_2(self, capsys, tmp_path, name, reason):
        path = tmp_path / name
        code, out, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot read --config {path}: {reason}\n"

    def test_unknown_format_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *BASE, "--format", "csv"])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", *BASE])
        assert exc.value.code == 2


class TestExpand:
    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "expand", *BASE, "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"beta", "beta_sigma", "lambda", "phi", "mu", "A", "B", "C", "D"}
        assert len(payload["beta"]) == 2
        assert set(payload["lambda"]) == {"limit", "half_order_coeff", "dt_coeff", "remainder"}

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "expand", *BASE, "--k", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,trader,limit,half_order_coeff,dt_coeff,remainder"
        # 7 per-trader quantities x 2 traders + 2 scalars
        assert len(lines) == 1 + 16
        scalar_rows = [l for l in lines[1:] if l.split(",")[1] == "-"]
        assert len(scalar_rows) == 2

    def test_taxed_rejected(self, capsys):
        code, _, err = run_cli(capsys, "expand", *BASE, "--tax", "1e-3")
        assert code == 2 and "untaxed" in err


HETERO_K3 = ["--sigma-s", "1", "--sigma-k", "1.3", "--dt", "0.004", "--k", "3", "--gamma", "1,3,0.5", "--rho", "0.05,0.2,1"]
SUM_ORDER = ["--sigma-s", "1", "--dt", "0.004", "--k", "3", "--rho", "0.05,0.2,0.2"]
TAXED_K2 = ["--sigma-s", "1", "--sigma-k", "1.3", "--dt", "0.004", "--k", "2", "--gamma", "1,3", "--rho", "0.05,0.2", "--tax", "0.05"]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["solve", *HETERO_K3], "solve_k3.json"),
        (["expand", *HETERO_K3], "expand_k3.json"),
        (["solve", *TAXED_K2], "solve_taxed_k2.json"),
        # compensated summation changes aggregate_residual here
        (["solve", *SUM_ORDER, "--sigma-k", "2", "--gamma", "2,0.7,0.3"], "solve_k3_sum_order.json"),
        # and the sqrt(dt) coefficients of beta_sigma, beta, lambda, B and D here
        (["expand", *SUM_ORDER, "--sigma-k", "1.3", "--gamma", "1,0.5,0.3"], "expand_k3_sum_order.json"),
    ],
)
def test_analytic_payloads_are_pinned_byte_for_byte(capsys, argv, golden):
    """The analytic payloads do not depend on the Python version or on how
    the solver is organised: the files were recorded on CPython 3.11, and a
    sum that CPython 3.12 would compensate, or a reordered float operation,
    changes a last digit here."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")


class TestSweep:
    def test_dt_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *BASE, "--dt-grid", "0.01:0.0001:3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "dt,beta_sigma_exact,beta_sigma_limit,beta_sigma_expansion,"
            "lambda_exact,lambda_limit,lambda_expansion,"
            "phi0_over_sqrt_dt_exact,phi0_over_sqrt_dt_coeff,"
            "mu0_over_sqrt_dt_exact,mu0_over_sqrt_dt_coeff,"
            "D0_exact,D0_limit,D0_expansion"
        )
        assert len(lines) == 4
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(1e-4, rel=1e-12)
        assert last[4] == pytest.approx(0.5, rel=1e-3)

    def test_k_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", *BASE, "--k-grid", "1..4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,lambda_exact,lambda_limit,lambda_expansion"
        lams = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(lams) == 4
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_exactly_one_grid_required(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *BASE)
        assert code == 2 and "dt-grid" in err
        code, _, err = run_cli(
            capsys, "sweep", *BASE, "--dt-grid", "0.01:0.001:2", "--k-grid", "1..2"
        )
        assert code == 2

    def test_k_grid_needs_single_template(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *BASE, "--k", "2", "--k-grid", "1..3")
        assert code == 2 and "template" in err

    def test_taxed_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", *BASE, "--tax", "1e-3", "--dt-grid", "0.01:0.001:2"
        )
        assert code == 2 and "tax-sweep" in err

    def test_bad_grid_syntax(self, capsys):
        code, _, err = run_cli(capsys, "sweep", *BASE, "--dt-grid", "0.01,0.001")
        assert code == 2


class TestTaxSweep:
    def test_csv_direction_for_duopoly(self, capsys):
        code, out, _ = run_cli(
            capsys, "tax-sweep", *BASE, "--k", "2", "--c-grid", "0:0.002:5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "c,lambda,lambda_plus_c"
        rows = [[float(x) for x in l.split(",")] for l in lines[1:]]
        assert len(rows) == 5
        assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(0.002)
        lams = [r[1] for r in rows]
        spreads = [r[2] for r in rows]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert all(a < b for a, b in zip(spreads, spreads[1:]))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "tax-sweep", *BASE, "--c-grid", "0:0.001:2", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["c"] for r in rows] == [0.0, 0.001]

    def test_grid_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tax-sweep", *BASE])
        assert exc.value.code == 2
        code, _, err = run_cli(capsys, "tax-sweep", *BASE, "--c-grid", "")
        assert code == 2 and "error: --c-grid expects a:b:n" in err


@pytest.mark.parametrize(
    "command, flag, grid",
    [
        ("sweep", "--dt-grid", "1e-4:inf:3"),
        ("sweep", "--dt-grid", "nan:0.01:3"),
        ("tax-sweep", "--c-grid", "0:inf:3"),
        ("tax-sweep", "--c-grid", "0:nan:3"),
    ],
)
def test_non_finite_grid_endpoint_exits_2_before_numpy_runs(capsys, command, flag, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, *BASE, flag, grid)
    assert code == 2 and out == ""
    assert err == f"error: {flag} needs finite endpoints a:b, got {grid!r}\n"


@pytest.mark.parametrize(
    "command, flag, grid",
    [
        ("sweep", "--dt-grid", "1e-4:1e-1:10000000000000"),
        ("tax-sweep", "--c-grid", "0:0.1:10000000000000"),
        ("sweep", "--k-grid", "1..10000000000000"),
    ],
)
def test_huge_grid_exits_2_before_it_is_built(capsys, command, flag, grid):
    # numpy would try to allocate 72.8 TiB, range a tuple as large
    code, out, err = run_cli(capsys, command, *BASE, flag, grid)
    assert code == 2 and out == ""
    assert err == f"error: {flag} holds at most {cli.MAX_GRID_POINTS} points, got {grid!r}\n"


def test_grid_size_cap_is_inclusive():
    cap = cli.MAX_GRID_POINTS
    assert cli._parse_grid(f"0:1:{cap}", "--c-grid") == (0.0, 1.0, cap)
    assert len(cli._parse_int_range(f"2..{cap + 1}", "--k-grid")) == cap
    for parse, text in ((cli._parse_grid, f"0:1:{cap + 1}"), (cli._parse_int_range, f"2..{cap + 2}")):
        with pytest.raises(cli.ConfigError, match="at most"):
            parse(text, "--grid")


class TestSimulate:
    def test_json_and_determinism(self, capsys):
        args = ["simulate", *BASE, "--k", "2", "--paths", "64", "--horizon", "32"]
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(first)
        assert set(payload) == {"params", "equilibrium", "results"}
        assert len(payload["results"]) == 2
        row = payload["results"][0]
        assert set(row) == {
            "trader",
            "objective_mean",
            "objective_se",
            "mtm_mean",
            "mtm_se",
            "paths",
            "horizon",
            "seed",
        }
        assert row["paths"] == 64 and row["horizon"] == 32
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        _, reseeded, _ = run_cli(capsys, *args[:-2], "--horizon", "32", "--seed", "1")
        assert reseeded != first

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", *BASE, "--paths", "16", "--horizon", "8", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "trader,objective_mean,objective_se,mtm_mean,mtm_se,paths,horizon,seed"
        assert len(lines) == 2

    def test_limit_case_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--sigma-s", "1", "--sigma-k", "1", "--dt", "0", "--paths", "16"
        )
        assert code == 2 and "dt > 0" in err

    def test_unreachable_default_horizon_suggests_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--sigma-s", "1", "--sigma-k", "1", "--dt", "1e-9", "--paths", "16"
        )
        assert code == 2 and "--horizon" in err

    def test_a_horizon_too_large_to_hold_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--sigma-s", "1", "--sigma-k", "1", "--dt", "0.1", "--paths", "8",
            "--horizon", "10000001",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: horizon 10000001 exceeds the cap") and err.count("\n") == 1


class TestVerify:
    def test_text_output_all_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", *BASE, "--paths", "0")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert len(lines) == 9
        for line in lines:
            assert line.startswith(("PASS", "WARN"))
            assert "value=" in line and "threshold=" in line

    @pytest.mark.parametrize(
        "paths, flags",
        [
            pytest.param("1", (), id="1"),
            pytest.param("-3", (), id="-3"),
            # strict mode quadruples the count, but only one that is accepted
            pytest.param("1", ("--strict",), id="1-strict"),
            pytest.param("-3", ("--strict",), id="-3-strict"),
        ],
    )
    def test_paths_that_would_skip_the_monte_carlo_checks_exit_2(self, capsys, paths, flags):
        code, out, err = run_cli(capsys, "verify", *BASE, "--paths", paths, *flags)
        assert code == 2 and out == ""
        assert err == f"error: paths must be 0 or an integer of at least 2, got {paths}\n"

    def test_a_bad_seed_exits_2_without_monte_carlo_paths(self, capsys):
        code, out, err = run_cli(capsys, "verify", *BASE, "--paths", "0", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be an integer in [0, 2^64), got -1\n"

    @pytest.mark.parametrize("l0", ["1e100", "1e200"])
    def test_a_huge_initial_inventory_reports_under_warnings_as_errors(self, capsys, l0):
        argv = ["--sigma-s", "1", "--sigma-k", "1", "--dt", "0.1", "--l0", l0, "--paths", "64"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert len(out.strip().split("\n")) == 16 and "FAIL zero_profit_mc value=inf" in out
        assert err.startswith("verification failed: ") and err.count("\n") == 1

    def test_json_output_serializes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", *BASE, "--paths", "128", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = {r["name"] for r in payload["results"]}
        assert "zero_profit_mc" in names
        for r in payload["results"]:
            assert isinstance(r["value"], float)
            assert isinstance(r["passed"], bool)

    def test_json_output_stays_strict_json_when_the_value_layer_fails(self, capsys, monkeypatch):
        # value_coefficients raises, so five checks have no value
        def raise_value_invariant(*args, **kwargs):
            raise ConstraintViolated("value_invariant")

        monkeypatch.setattr(hftequil.verify, "value_coefficients", raise_value_invariant)
        code, out, _ = run_cli(
            capsys, "verify", "--sigma-s", "1", "--sigma-k", "1e-6", "--dt", "0.004",
            "--paths", "0", "--format", "json",
        )
        assert code == 1

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(out, parse_constant=reject)
        failed = [r for r in payload["results"] if not r["passed"]]
        assert len(failed) == 5
        assert all(r["value"] is None for r in failed)

    def test_strict_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", *BASE, "--paths", "0", "--strict")
        assert code == 0
        assert "threshold=5e-13" in out

    def test_strict_flag_quadruples_the_paths(self, capsys):
        argv = ["--sigma-s", "1.0", "--sigma-k", "1.0", "--dt", "0.1", "--seed", "3"]
        code, out, _ = run_cli(capsys, "verify", *argv, "--paths", "64", "--strict", "--format", "json")
        assert code == 0
        strict = json.loads(out)["results"]
        base = run_verification(make_params(dt=0.1), paths=256, seed=3).results
        assert [(r["name"], r["value"]) for r in strict] == [(r.name, r.value) for r in base]

    def test_strict_flag_is_passed_on_unchanged(self, capsys, monkeypatch):
        seen = {}

        def record(params, **kwargs):
            seen.update(kwargs)
            return VerificationReport(())

        monkeypatch.setattr(cli, "run_verification", record)
        code, _, _ = run_cli(capsys, "verify", *BASE, "--paths", "100", "--seed", "3", "--strict")
        assert code == 0
        assert seen == {"paths": 100, "seed": 3, "strict": True}

    def test_horizon_too_short_exits_1(self, capsys, monkeypatch):
        def too_short(*args, **kwargs):
            raise cli.sim.HorizonTooShort("discount tail too large")

        monkeypatch.setattr(cli, "run_verification", too_short)
        code, out, err = run_cli(capsys, "verify", *BASE, "--paths", "0")
        assert code == 1 and out == ""
        assert err == "error: discount tail too large\n"

    @pytest.mark.parametrize(
        "dt, rho, objective",
        [
            # the logarithms put the tail after 3 periods one rounding above 1e-6
            ("0.99", "1", True),
            # 1 - rho dt rounds to 1, so the discount tail never falls
            ("0.1", "1e-20", False),
        ],
    )
    def test_default_horizon_edge_cases_print_a_report(self, capsys, dt, rho, objective):
        code, out, err = run_cli(
            capsys, "verify", "--sigma-s", "1", "--sigma-k", "1", "--dt", dt, "--rho", rho, "--paths", "64"
        )
        assert code == 0 and err == ""
        assert ("objective_value_mc" in out) == objective
        assert all(line.startswith("PASS ") for line in out.strip().split("\n"))

    def test_failure_exits_1_and_names_the_checks(self, capsys, monkeypatch):
        report = VerificationReport(
            (
                CheckResult("fine", True, 0.0, 1.0),
                CheckResult("bad_one", False, 2.0, 1.0),
            )
        )
        monkeypatch.setattr(cli, "run_verification", lambda *a, **k: report)
        code, out, err = run_cli(capsys, "verify", *BASE)
        assert code == 1
        assert "FAIL bad_one" in out
        assert "verification failed: bad_one" in err
