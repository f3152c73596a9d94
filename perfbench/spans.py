"""Timing spans around the calls that cross hftequil's module boundaries.

A :class:`Tracer` replaces each public function with a wrapper in the
namespace where its caller looks it up: ``hftequil.verify.solve_equilibrium``
for the solve inside ``run_verification``, ``hftequil.simulator.simulate``
for the ``sim.simulate`` calls made by ``verify`` and ``cli``, and so on.
The benchmark's own calls go through the same wrappers via :class:`Api`.
Calls inside one module are left alone, so a span always marks a boundary.

Spans stay in memory while the run lasts and are written out as JSON lines
at the end. Untraced runs build an ``Api`` without a tracer and install
nothing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

MODULES = ("model", "solver", "value", "asymptotics", "simulator", "verify", "cli")

# Functions the benchmark itself calls, by defining module.
BENCH_CALLS = {
    "model": ("load_config",),
    "solver": ("solve_equilibrium", "validate_equilibrium", "system_residual"),
    "value": ("value_coefficients", "dpe_residual"),
    "asymptotics": ("nash_expansions",),
    "simulator": ("deviation_sweep",),
    "verify": ("run_verification",),
    "cli": ("main",),
}

# Names that one module binds from another. ``verify`` and ``cli`` reach the
# simulator as ``sim.<name>``, so those are patched on the simulator module;
# no simulator function calls another one in this list.
CALLER_BINDINGS = {
    "verify": ("solve_equilibrium", "system_residual", "value_coefficients", "dpe_residual", "dpe_argmax_gap"),
    "cli": (
        "load_config", "solve_equilibrium", "solve_taxed", "value_coefficients",
        "nash_expansions", "run_verification",
    ),
    "simulator": (
        "simulate", "simulate_objective", "simulate_second_moment", "deviation_sweep",
        "dealer_profit_check", "reduced_form_gap",
    ),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _solve_attrs(fn, args, kwargs, result) -> dict:
    params = args[0] if args else kwargs["params"]
    _, diag = result
    return {
        "taxed": params.tax > 0.0,
        "k": params.k,
        "iterations": diag.iterations,
        "continuation_steps": diag.continuation_steps,
    }


def _simulate_attrs(fn, args, kwargs, result) -> dict:
    arrays = (
        result.dS, result.dK, result.dY, result.price_adj, result.M, result.L, result.Z,
        result.payoff, result.penalty, result.mtm_discounted,
    )
    return {"path_steps": result.n_paths * result.horizon, "bytes": sum(a.nbytes for a in arrays)}


def _objective_attrs(fn, args, kwargs, result) -> dict:
    return {"path_steps": result.n_paths * result.horizon}


def _second_moment_attrs(fn, args, kwargs, result) -> dict:
    a = _bound_args(fn, args, kwargs)
    return {"path_steps": a["n_paths"] * max(int(n) for n in a["checkpoints"])}


# Arrays of shape (rows, chunk) that the sweep's row recursion touches every
# period: the row state L and objectives, and the dL, dY, padj, pay temporaries.
SWEEP_ROW_ARRAYS = 6


def _sweep_attrs(fn, args, kwargs, result) -> dict:
    a = _bound_args(fn, args, kwargs)
    rows = len(tuple(a["specs"]))
    chunk = min(a["n_paths"], a.get("chunk_size") or a["n_paths"])
    return {
        "path_steps": a["n_paths"] * a["horizon"] * rows,
        "rows": rows,
        "working_set_bytes": SWEEP_ROW_ARRAYS * rows * chunk * 8,
    }


def _verify_attrs(fn, args, kwargs, result) -> dict:
    return {"checks": len(result.results), "checks_failed": len(result.failures)}


ATTRS = {
    "solver.solve_equilibrium": _solve_attrs,
    "simulator.simulate": _simulate_attrs,
    "simulator.simulate_objective": _objective_attrs,
    "simulator.simulate_second_moment": _second_moment_attrs,
    "simulator.deviation_sweep": _sweep_attrs,
    "verify.run_verification": _verify_attrs,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records one span per wrapped call; ``op`` tags the spans of one operation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn):
        name = span_name(fn)
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, time.perf_counter() - self.t0, 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter() - self.t0
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter() - self.t0
            if attrs_fn is not None:
                span.attrs.update(attrs_fn(fn, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every caller binding; :meth:`uninstall` restores the originals."""
        for mod_name, names in CALLER_BINDINGS.items():
            mod = importlib.import_module(f"hftequil.{mod_name}")
            for attr in names:
                current = getattr(mod, attr)
                self._patches.append((mod, attr, current))
                setattr(mod, attr, self.wrap(inspect.unwrap(current)))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "attrs": s.attrs,
                }) + "\n")


class Api:
    """The public functions the benchmark calls, wrapped when a tracer is given.

    Each wrapper goes around the original function, never around a patched
    binding, so a benchmark call opens exactly one span.
    """

    def __init__(self, tracer: Tracer | None = None):
        for mod_name, names in BENCH_CALLS.items():
            mod = importlib.import_module(f"hftequil.{mod_name}")
            for attr in names:
                fn = inspect.unwrap(getattr(mod, attr))
                setattr(self, attr, tracer.wrap(fn) if tracer is not None else fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out
