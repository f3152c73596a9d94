"""Runs one workload, checks its outputs and reports its metrics.

An untraced run repeats the workload's fixed list of operations (a round)
in a closed loop with one caller, as many times as fit in the time on the
host the benchmark was written on, and reports medians over rounds and ops,
scaled to nominal host speed by probe loops run between ops. A traced run
makes one traced round of every workload, the named one op by op beside
an untraced copy, and reports the per-layer metrics from the spans (see
NOTES.md).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from spans import MODULES, Api, Tracer, self_times
from workloads import INPUTS, OPS, WORKLOADS, Outcome

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "op_p50_norm_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.solve_p50_us": "us",
    "solver.iterations_per_solve": "count",
    "solver.taxed_p50_us": "us",
    "solver.taxed_iterations_per_solve": "count",
    "solver.continuation_steps": "count",
    "value.value_coefficients_us": "us",
    "value.dpe_residual_us": "us",
    "asymptotics.nash_expansions_us": "us",
    "model.load_config_us": "us",
    "simulator.deviation_sweep.ns_per_path_step_row": "ns",
    "simulator.deviation_sweep.working_set_bytes": "bytes",
    "simulator.simulate_second_moment.ns_per_path_step": "ns",
    "simulator.simulate.ns_per_path_step": "ns",
    "simulator.simulate.bytes": "bytes",
    "simulator.simulate_objective.ns_per_path_step": "ns",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.import_s": "s",
    "cli.main_ms": "ms",
    **{f"{m}.busy_s": "s" for m in MODULES},
    **{f"{m}.calls": "count" for m in MODULES},
    "simulator.path_steps": "count",
    "trace.overhead_s": "s",
}

SETUP_RUNS = 16
# Round time of each workload on the 2-core host where the benchmark was
# written. A run makes round(--seconds / ROUND_SECONDS) rounds, at least one,
# so it takes about --seconds there. The ops a run attempts, and so its
# failed count, depend only on the seed and --seconds, never on host speed.
ROUND_SECONDS = {"solve_mix": 7.5, "nash_sweep": 25.0, "verify_battery": 5.8}
# Ops run untimed before the first round: lazy imports and first allocations.
WARMUP_OPS = {"solve_mix": 50, "nash_sweep": 0, "verify_battery": 1}
# Share of a run spent in the probe loops at nominal speed, and the number
# of small-solve loops run before each set-up probe.
PROBE_SHARE = 0.05
SETUP_PROBE_LOOPS = 5
CLI_IMPORT_RUNS = 3
CLI_MAIN_RUNS = 5
CLI_SOLVE_ARGS = ["solve", "--sigma-s", "1.0", "--sigma-k", "1.0", "--dt", "0.004", "--k", "2"]
SANDBOX_LIMITS = (
    "shared host: load from other tenants is neither controlled nor measured",
    "no page-cache drop, no CPU pinning, no frequency control",
    "host speed changes in regimes of 10 to 60 s: on the 2-core host where the "
    "benchmark was written, identical solve_mix rounds took 4.3 to 8.4 s within one run",
)


def _small_solves():
    """150 solves of 8x8 systems: the overhead of many small numpy calls."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((8, 8))
    eye, b = np.eye(8), a[0]

    def run() -> float:
        t0 = time.perf_counter()
        for i in range(150):
            np.linalg.solve(a + i * eye, b)
        return time.perf_counter() - t0

    return run


def _scalar_calls():
    """3000 calls of a small float function (a quadratic's smaller root):
    the pure-Python scalar arithmetic that solve_mix's solver spends its
    time in."""

    def root(a: float, b: float, c: float) -> float:
        q = 0.5 * (-b + math.sqrt(b * b - 4.0 * a * c))
        return min(q / a, c / q)

    def run() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += root(1.0 + i * 1e-4, -3.0, 0.5)
        return time.perf_counter() - t0

    return run


def _philox_rows():
    """64 rows of 256 normals, one Philox generator per row: the per-path
    normal generation that verify_battery's simulations spend most time in."""
    import numpy as np

    out = np.empty((64, 256))

    def run() -> float:
        t0 = time.perf_counter()
        for j in range(64):
            key = np.array([j << 1, 12345], dtype=np.uint64)
            np.random.Generator(np.random.Philox(key=key)).standard_normal(256, out=out[j])
        return time.perf_counter() - t0

    return run


def _row_stream():
    """Elementwise passes over six 14 x 20000 arrays: the memory traffic of
    one period of nash_sweep's row recursion. The arrays are made untimed
    and freed after each loop, so they do not add to the memory peak."""
    import numpy as np

    def run() -> float:
        x = [np.full((14, 20000), 1.0 + i) for i in range(6)]
        t0 = time.perf_counter()
        for _ in range(3):
            for i in range(5):
                np.multiply(x[i], 0.999, out=x[i + 1])
                np.add(x[i + 1], x[0], out=x[i + 1])
        return time.perf_counter() - t0

    return run


# Each probe loop, with its median time on the 2-core host where the
# benchmark was written: its time at nominal host speed.
LOOPS = {
    "scalar_calls": (_scalar_calls, 0.0019),
    "small_solves": (_small_solves, 0.0018),
    "philox_rows": (_philox_rows, 0.0019),
    "row_stream": (_row_stream, 0.0065),
}
# Averaging several loops cancels the noise of any one: on five seeds it cut
# the spread of solve_mix's two times from 0.12-0.13 to 0.04-0.07, where
# single loops left 0.02-0.10. verify_battery does all four kinds of work.
# solve_mix streams no arrays, and row_stream's 13 MB would set its memory
# peak. nash_sweep's time is memory traffic: the interpreter-bound loops ran
# 28% faster in host states that left its rounds alone, so it is scaled by
# the streaming loop only. A fresh process (set-up) is interpreter work and
# is scaled by small-solve loops run just before it.
PROBES = {
    "solve_mix": ("scalar_calls", "small_solves", "philox_rows"),
    "nash_sweep": ("row_stream",),
    "verify_battery": tuple(LOOPS),
}
SETUP_PROBE = ("small_solves",)


class HostProbe:
    """Times probe loops, which do not use hftequil, between ops.

    The shared host's speed drifts by 10-20% over tens of seconds.
    ``catch_up`` runs the loops until they have taken PROBE_SHARE of the run
    at nominal speed. ``factor`` is the geometric mean, over the loops, of
    their median time since a given run over their nominal time: how much
    slower than nominal the host ran meanwhile. A time divided by it is the
    time at nominal host speed, which is what the gated metrics report.
    """

    def __init__(self, names):
        self._loops = [LOOPS[n][0]() for n in names]
        self._nominal = [LOOPS[n][1] for n in names]
        self.times: list[tuple[float, ...]] = []
        self.start = time.perf_counter()

    def run(self) -> None:
        self.times.append(tuple(loop() for loop in self._loops))

    def catch_up(self) -> None:
        while len(self.times) * sum(self._nominal) < PROBE_SHARE * (time.perf_counter() - self.start):
            self.run()

    def factor(self, first: int) -> float:
        since = self.times[first:]
        logs = [math.log(_median([t[i] for t in since]) / nom) for i, nom in enumerate(self._nominal)]
        return math.exp(sum(logs) / len(logs))


class BenchError(RuntimeError):
    """The benchmark could not measure: a program output it relies on was wrong."""


@dataclass
class Round:
    wall: float
    outcomes: list[Outcome]

    def signature(self):
        return [o.signature() for o in self.outcomes]

    def counts(self) -> Counter:
        total = Counter()
        for o in self.outcomes:
            total.update(o.counts)
        total["ops"] = len(self.outcomes)
        total["failed_ops"] = sum(o.failure is not None for o in self.outcomes)
        return total


def run_round(workload: str, api, inputs, tracer: Tracer | None = None, between=None) -> Round:
    """One pass over the inputs. ``between`` runs after each op, outside the wall time."""
    op = OPS[workload]
    rnd = Round(0.0, [])
    for j, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = f"{workload}:{j}"
        t0 = time.perf_counter()
        rnd.outcomes.append(op(api, inp))
        rnd.wall += time.perf_counter() - t0
        if between is not None:
            between()
    if tracer is not None:
        tracer.op = None
    return rnd


def paired_rounds(workload: str, inputs, tracer: Tracer) -> tuple[Round, Round]:
    """Each op untraced and traced back to back, alternating which goes first,
    so that both rounds see the same host speed. Returns (untraced, traced)."""
    op = OPS[workload]
    plain_api, traced_api = Api(), Api(tracer)
    plain, traced = Round(0.0, []), Round(0.0, [])
    for j, inp in enumerate(inputs):
        for trace in ((False, True) if j % 2 == 0 else (True, False)):
            if trace:
                tracer.op = f"{workload}:{j}"
                tracer.install()
            try:
                t0 = time.perf_counter()
                outcome = op(traced_api if trace else plain_api, inp)
                seconds = time.perf_counter() - t0
            finally:
                if trace:
                    tracer.uninstall()
                    tracer.op = None
            rnd = traced if trace else plain
            rnd.wall += seconds
            rnd.outcomes.append(outcome)
    return plain, traced


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_solve_payload(text: str) -> None:
    try:
        lam = json.loads(text)["equilibrium"]["lambda"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cli solve printed no equilibrium: {exc}") from exc
    if not lam > 0.0:
        raise BenchError(f"cli solve reported lambda = {lam!r}")


def setup_time(root: Path) -> float:
    """Wall time of one fresh ``python -m hftequil.cli solve`` process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hftequil.cli", *CLI_SOLVE_ARGS],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=60,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"cli solve exited {proc.returncode}: {proc.stderr.strip()}")
    _check_solve_payload(proc.stdout)
    return seconds


def cli_import_times(root: Path) -> list[float]:
    code = "import time; t = time.perf_counter(); import hftequil.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(CLI_IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=child_env(root),
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import hftequil.cli failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout))
    return out


def run_record(root: Path) -> dict:
    """Facts about the program and the machine, stored next to the metrics."""
    import numpy as np

    sha = "unknown: not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    src_lines = {
        p.stem: sum(1 for _ in p.open(encoding="utf-8"))
        for p in sorted((root / "src" / "hftequil").glob("*.py"))
    }
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "caches_cpu0": caches,
        "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()),
        "sandbox_limits": list(SANDBOX_LIMITS),
    }


def _median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def _failure_summary(rounds: list[Round]) -> dict:
    kinds = Counter()
    for r in rounds:
        for o in r.outcomes:
            if o.failure is not None:
                kinds[o.failure.split(":", 1)[0]] += 1
    return dict(kinds)


def _unexpected(rounds: list[Round]) -> list[str]:
    return [
        f"{o.label}: {o.failure}"
        for r in rounds for o in r.outcomes
        if o.failure is not None and o.failure.startswith("unexpected")
    ]


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def measure(workload: str, seed: int, seconds: float, root: Path) -> dict:
    """Untraced run: a warm-up, then a fixed number of rounds, with set-up probes between ops."""
    inputs = INPUTS[workload](seed)
    problems = []
    setup: list[tuple[float, float]] = []
    setup_host = HostProbe(SETUP_PROBE)

    def setup_sample():
        first = len(setup_host.times)
        for _ in range(SETUP_PROBE_LOOPS):
            setup_host.run()
        setup.append((setup_time(root), setup_host.factor(first)))

    api = Api()
    n_rounds = round_count(workload, seconds)
    total_ops = n_rounds * len(inputs)
    done = 0

    def probe():
        # Set-up probe i is due after i/SETUP_RUNS of the ops, so the probes
        # sample the host's speed over the whole run and not one regime of it.
        nonlocal done
        done += 1
        while len(setup) < SETUP_RUNS and len(setup) * total_ops <= SETUP_RUNS * done:
            setup_sample()
        host.catch_up()

    warmup = run_round(workload, api, inputs[:WARMUP_OPS[workload]])
    host = HostProbe(PROBES[workload])
    rounds, factors = [], []
    for _ in range(n_rounds):
        first = len(host.times)
        host.run()
        rounds.append(run_round(workload, api, inputs, between=probe))
        # Each round is scaled by the probe loops run during it: the host's
        # speed can change within a run.
        factors.append(host.factor(first))
    while len(setup) < SETUP_RUNS:
        setup_sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if any(r.signature() != rounds[0].signature() for r in rounds[1:]):
        problems.append("rounds on the same inputs gave different results")
    if warmup.signature() != rounds[0].signature()[:len(warmup.outcomes)]:
        problems.append("the warm-up gave different results from the first round")
    problems += _unexpected(rounds[:1])
    lat = [o.seconds for r in rounds for o in r.outcomes]
    lat_norm = [o.seconds / f for r, f in zip(rounds, factors) for o in r.outcomes]
    wall = _median([r.wall for r in rounds])
    counts = rounds[0].counts()
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(r.counts()["failed_ops"] for r in rounds)
    metrics = {
        "setup_s": (_median([t / f for t, f in setup]), len(setup)),
        "wall_norm_s": (_median([r.wall / f for r, f in zip(rounds, factors)]), len(rounds)),
        "op_p50_norm_ms": (_median(lat_norm) * 1e3, len(lat)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    extra = {
        "setup_raw_s": (_median([t for t, _ in setup]), len(setup), "s"),
        "wall_s": (wall, len(rounds), "s"),
        "op_p50_ms": (_median(lat) * 1e3, len(lat), "ms"),
        "host_factor": (_median(factors), len(host.times), "1"),
        "fail_frac": (failed / attempted, attempted, "1"),
    }
    if workload == "solve_mix":
        extra["solves_per_s"] = (len(inputs) / wall, len(rounds), "1/s")
        extra["solve_p50_us"] = (_median(lat) * 1e6, len(lat), "us")
        if len(lat) >= 1000:
            extra["solve_p99_us"] = (statistics.quantiles(lat, n=100)[98] * 1e6, len(lat), "us")
    elif workload == "nash_sweep":
        busy = _median([sum(o.seconds for o in r.outcomes) for r in rounds])
        extra["path_steps_per_s"] = (counts["sweep_path_steps"] / busy, len(rounds), "1/s")
    else:
        extra["verify_p50_s"] = (_median(lat), len(lat), "s")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "counts_per_round": dict(counts),
        "failures_by_kind": _failure_summary(rounds),
        "failures_round0": [f"{o.label}: {o.failure}" for o in rounds[0].outcomes if o.failure],
        "problems": problems,
        "rounds": [r.wall for r in rounds],
        "host_probe_s": host.times,
        "host_factor_per_round": factors,
    }


def _pick(spans, name, workload):
    return [s for s in spans if s.name == name and (s.op or "").startswith(workload + ":")]


def _median_us(spans) -> float:
    return _median([s.duration for s in spans]) * 1e6


def _rate_ns(spans) -> float:
    steps = sum(s.attrs.get("path_steps", 0) for s in spans)
    return sum(s.duration for s in spans) / steps * 1e9 if steps else float("nan")


def layer_metrics(spans, cli_import: list[float], overhead_s: float) -> dict:
    """Per-layer metrics, each from the workload whose end-to-end metric it moves."""
    own = self_times(spans)
    solves = [s for s in _pick(spans, "solver.solve_equilibrium", "solve_mix") if "iterations" in s.attrs]
    untaxed = [s for s in solves if not s.attrs["taxed"]]
    taxed = [s for s in solves if s.attrs["taxed"]]
    m = {
        "solver.solve_p50_us": _median_us(untaxed),
        "solver.iterations_per_solve": sum(s.attrs["iterations"] for s in untaxed) / len(untaxed),
        "solver.taxed_p50_us": _median_us(taxed),
        "solver.taxed_iterations_per_solve": sum(s.attrs["iterations"] for s in taxed) / len(taxed),
        "solver.continuation_steps": sum(s.attrs["continuation_steps"] for s in solves),
    }
    for name, key in (
        ("value.value_coefficients", "value.value_coefficients_us"),
        ("value.dpe_residual", "value.dpe_residual_us"),
        ("asymptotics.nash_expansions", "asymptotics.nash_expansions_us"),
        ("model.load_config", "model.load_config_us"),
    ):
        m[key] = _median_us(_pick(spans, name, "solve_mix"))
    sweeps = _pick(spans, "simulator.deviation_sweep", "nash_sweep")
    m["simulator.deviation_sweep.ns_per_path_step_row"] = _rate_ns(sweeps)
    m["simulator.deviation_sweep.working_set_bytes"] = max(s.attrs.get("working_set_bytes", 0) for s in sweeps)
    for fn in ("simulate_second_moment", "simulate", "simulate_objective"):
        m[f"simulator.{fn}.ns_per_path_step"] = _rate_ns(_pick(spans, f"simulator.{fn}", "verify_battery"))
    m["simulator.simulate.bytes"] = max(
        s.attrs.get("bytes", 0) for s in _pick(spans, "simulator.simulate", "verify_battery")
    )
    verifies = _pick(spans, "verify.run_verification", "verify_battery")
    m["verify.self_s"] = _median([own[s.id] for s in verifies])
    m["verify.checks"] = sum(s.attrs.get("checks", 0) for s in verifies)
    m["verify.checks_failed"] = sum(s.attrs.get("checks_failed", 0) for s in verifies)
    m["cli.import_s"] = _median(cli_import)
    m["cli.main_ms"] = _median([s.duration for s in spans if s.name == "cli.main"]) * 1e3
    for mod in MODULES:
        mine = [s for s in spans if s.module == mod]
        m[f"{mod}.busy_s"] = sum(own[s.id] for s in mine)
        m[f"{mod}.calls"] = len(mine)
    m["simulator.path_steps"] = sum(s.attrs.get("path_steps", 0) for s in spans if s.module == "simulator")
    m["trace.overhead_s"] = overhead_s
    return m


def _workload_path_rates(spans) -> dict:
    """Monte Carlo path-steps per second of Monte Carlo wall time, per workload."""
    out = {}
    for w in WORKLOADS:
        mc = [s for s in spans if s.module == "simulator" and (s.op or "").startswith(w + ":")]
        steps = sum(s.attrs.get("path_steps", 0) for s in mc)
        if steps:
            out[w] = {"path_steps": steps, "path_steps_per_s": steps / sum(s.duration for s in mc)}
    return out


def traced_tour(inputs: dict, tracer: Tracer) -> tuple[Round, dict[str, Round]]:
    """One traced round per workload, in the order given, then the CLI probe.

    The first workload's ops each run untraced and traced as a pair; its
    untraced round is returned beside the traced round of every workload.
    """
    first, *rest = inputs
    plain, traced = paired_rounds(first, inputs[first], tracer)
    rounds = {first: traced}
    api = Api(tracer)
    tracer.install()
    try:
        for w in rest:
            rounds[w] = run_round(w, api, inputs[w], tracer)
        for j in range(CLI_MAIN_RUNS):
            tracer.op = f"cli:{j}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = api.main(CLI_SOLVE_ARGS)
            if rc != 0:
                raise BenchError(f"cli.main returned {rc}")
            _check_solve_payload(buf.getvalue())
        tracer.op = None
    finally:
        tracer.uninstall()
    return plain, rounds


def measure_traced(workload: str, seed: int, root: Path, out_dir: Path) -> dict:
    problems = []
    cli_import = cli_import_times(root)
    tour = [workload] + [w for w in WORKLOADS if w != workload]
    tracer = Tracer()
    plain, traced = traced_tour({w: INPUTS[w](seed) for w in tour}, tracer)
    tracer.write_jsonl(out_dir / f"trace-{workload}-s{seed}.jsonl")

    if plain.signature() != traced[workload].signature():
        problems.append("the traced round gave different results from the untraced round")
    rounds = [plain, *traced.values()]
    problems += _unexpected(rounds)
    overhead = traced[workload].wall - plain.wall
    metrics = layer_metrics(tracer.spans, cli_import, overhead)
    return {
        "correct": not problems,
        "attempted": sum(len(r.outcomes) for r in rounds),
        "failed": sum(r.counts()["failed_ops"] for r in rounds),
        "metrics": {k: (metrics[k], None) for k in PER_LAYER},
        "extra": {
            "untraced_wall_s": (plain.wall, 1, "s"),
            "traced_wall_s": (traced[workload].wall, 1, "s"),
        },
        "counts_per_workload": {w: dict(traced[w].counts()) for w in tour},
        "monte_carlo": _workload_path_rates(tracer.spans),
        "failures_by_kind": _failure_summary(rounds),
        "problems": problems,
        "spans": len(tracer.spans),
    }


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(workload: str, seed: int, trace: bool, result: dict) -> list[str]:
    units = PER_LAYER if trace else END_TO_END
    lines = [f"perfbench {workload} seed={seed} trace={int(trace)}"]
    for name, (value, n) in result["metrics"].items():
        lines.append(f"  {name:52s} {_fmt(value):>14s} {units[name]:6s}" + (f" n={n}" if n else ""))
    for name, (value, n, unit) in result["extra"].items():
        lines.append(f"  {name:52s} {_fmt(value):>14s} {unit:6s} n={n}")
    for key in ("counts_per_round", "counts_per_workload", "monte_carlo", "failures_by_kind"):
        if key in result:
            lines.append(f"  {key}: {json.dumps(result[key], sort_keys=True)}")
    for p in result["problems"][:20]:
        lines.append(f"  PROBLEM {p}")
    return lines


def main(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    if trace:
        result = measure_traced(workload, seed, root, out_dir)
    else:
        result = measure(workload, seed, seconds, root)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "run_record": run_record(root), **result,
    }
    (out_dir / f"{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    for line in report(workload, seed, trace, result):
        print(line)
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in result["metrics"].items()},
    }))
    return 0
