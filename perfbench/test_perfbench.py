"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Workload inputs small enough for a test, with the workloads' own op code."""
    monkeypatch.setattr(workloads, "SWEEP_PATHS", 200)
    return {
        "solve_mix": workloads.solve_mix_inputs(3)[:40],
        "nash_sweep": workloads.nash_sweep_inputs(3),
        "verify_battery": workloads.verify_battery_inputs(3)[:2],
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    make = workloads.INPUTS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_solve_mix_draws_cover_the_stated_ranges():
    draws = workloads.solve_mix_inputs(0)
    ks = [len(d["traders"]) for d in draws]
    assert len(draws) == workloads.SOLVE_MIX_OPS
    assert sum(d["tax"] > 0 for d in draws) == 200
    assert min(ks) == 1 and max(ks) >= 90 and sorted(ks)[len(ks) // 2] <= 10
    ratios = [d["sigma_K"] / d["sigma_S"] for d in draws]
    assert min(ratios) < 2e-3 and max(ratios) > 50
    dts = [d["dt"] for d in draws]
    assert min(dts) < 2e-6 and max(dts) > 0.05


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "verify.run_verification", 0.0, 10.0, None, "v:0"),
        Span(1, "solver.solve_equilibrium", 1.0, 4.0, 0, "v:0"),
        Span(2, "value.value_coefficients", 3.0, 6.0, 0, "v:0"),  # overlaps span 1
        Span(3, "simulator.simulate", 8.0, 12.0, 0, "v:0"),  # runs past its parent
        Span(4, "model.load_config", 2.0, 3.0, 1, "v:0"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_host_factor_is_the_geometric_mean_of_median_ratios_since_a_run():
    host = harness.HostProbe(("small_solves", "row_stream"))
    nominal = (harness.LOOPS["small_solves"][1], harness.LOOPS["row_stream"][1])
    host.times = [(9.0, 9.0)] + [(2 * nominal[0], 8 * nominal[1])] * 2 + [(2 * nominal[0], 0.0)]
    assert host.factor(1) == pytest.approx(4.0)


def test_tracer_restores_every_binding():
    import hftequil.simulator
    import hftequil.verify

    before = (hftequil.verify.solve_equilibrium, hftequil.simulator.simulate)
    tracer = Tracer()
    tracer.install()
    assert hftequil.verify.solve_equilibrium is not before[0]
    tracer.uninstall()
    assert (hftequil.verify.solve_equilibrium, hftequil.simulator.simulate) == before


def test_traced_tour_repeats_exactly_and_reports_every_layer_metric(small):
    tours = []
    for _ in range(2):
        tracer = Tracer()
        plain, rounds = harness.traced_tour(small, tracer)
        metrics = harness.layer_metrics(tracer.spans, [0.1], 0.0)
        tours.append((plain, rounds, metrics, tracer.spans))
    (p1, r1, m1, spans1), (_, r2, m2, _) = tours
    assert set(m1) == set(harness.PER_LAYER)
    assert p1.signature() == r1["solve_mix"].signature()
    for w in small:
        assert r1[w].signature() == r2[w].signature()
        assert not harness._unexpected([r1[w]])
    exact = [k for k, unit in harness.PER_LAYER.items() if unit in ("count", "bytes")]
    assert {k: m1[k] for k in exact} == {k: m2[k] for k in exact}
    assert m1["solver.continuation_steps"] == r1["solve_mix"].counts()["continuation_steps"]
    assert m1["verify.checks"] == r1["verify_battery"].counts()["checks"]
    sweep_steps = sum(s.attrs["path_steps"] for s in spans1 if s.name == "simulator.deviation_sweep"
                      and s.op.startswith("nash_sweep:"))
    assert sweep_steps == r1["nash_sweep"].counts()["sweep_path_steps"]


def test_untraced_run_reports_the_end_to_end_metrics(small, monkeypatch):
    monkeypatch.setitem(harness.INPUTS, "nash_sweep", lambda seed: small["nash_sweep"])
    seconds = 2 * harness.ROUND_SECONDS["nash_sweep"]
    result = harness.measure("nash_sweep", 3, seconds, ROOT)
    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(v > 0 for v, _ in result["metrics"].values())
    # The ops a run attempts follow from the seed and --seconds alone.
    assert result["attempted"] == 2 * len(small["nash_sweep"])
    assert harness.round_count("solve_mix", 30) == harness.round_count("solve_mix", 30.0) >= 1
    assert harness.round_count("verify_battery", 0.0) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
