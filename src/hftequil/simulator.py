"""Monte Carlo engine for the trading game.

Paths are driven by counter-based random streams (Philox; Salmon et al.,
SC'11): path p's signal and noise increments come from a Philox generator
keyed by [(p << 1) | stream, seed] with a zero counter, so every path is
reproducible on its own and results do not depend on chunking. One bit
generator is re-keyed per path by setting its state, which gives the same
numbers as a fresh ``Philox(key=...)`` without the seed sequence that
construction runs. Dealers always price with the equilibrium rule; traders
can play the equilibrium strategy, a scaled variant, or carry an inventory
gap that they work down at a chosen rate. The dealer's inventory predictions
follow the equilibrium recursion no matter what is actually traded, which
is what makes deviations detectable only through the order flow.

The streaming estimators (``simulate_objective``, ``simulate_second_moment``
and ``deviation_sweep``) walk the paths in blocks of ``BLOCK_PATHS``. Each
block's increments are laid out time-major, (horizon, paths), so a period
reads one contiguous row, and the per-period state of a block stays in
cache. Only ``simulate`` keeps full (paths, horizon) series. The recursions
are plain numpy loops over periods; the package depends on numpy alone.

Per period, in order: trades are formed from the previous state and the
fresh signal, the dealer prices the aggregate flow, inventories update, and
the holding penalty applies to the post-trade inventory. Discount factors
start at (1 - rho dt) in the first period.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import ValidatedParams, params_to_config
from .solver import Equilibrium

__all__ = [
    "Estimate",
    "StrategySpec",
    "PathBatch",
    "ObjectiveResult",
    "ProfitCheck",
    "SweepRow",
    "DeviationSweepResult",
    "InadmissibleStrategy",
    "HorizonTooShort",
    "default_horizon",
    "simulate",
    "estimate_objective",
    "mark_to_market",
    "simulate_objective",
    "effective_order_flow",
    "dealer_profit_check",
    "reduced_form_gap",
    "second_moment_closed_form",
    "inventory_second_moment",
    "inventory_is_bounded",
    "simulate_second_moment",
    "deviation_sweep",
]

_MAX_PATH_INDEX = 2**63
_MAX_SEED = 2**64
DEFAULT_TAIL_TOL = 1e-6
HORIZON_CAP = 10_000_000
# Paths per block: a (14 rows x 1024 paths) float64 state is 115 kB, so a
# sweep's per-period arrays stay in a core's L2 cache.
BLOCK_PATHS = 1024


class InadmissibleStrategy(ValueError):
    """The strategy would blow up inventory or breaks a decay bound."""


class HorizonTooShort(RuntimeError):
    """The discounted tail beyond the simulated horizon is not negligible."""


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.std_error
        return (self.mean - half, self.mean + half)

    def covers(self, x: float) -> bool:
        lo, hi = self.ci95
        return lo <= x <= hi


class _RunningStat:
    __slots__ = ("n", "total", "total_sq")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray) -> None:
        self.n += values.size
        self.total += float(values.sum())
        self.total_sq += float((values * values).sum())

    def estimate(self) -> Estimate:
        if self.n < 2:
            raise ValueError("need at least two samples for a standard error")
        mean = self.total / self.n
        var = max(0.0, (self.total_sq - self.n * mean * mean) / (self.n - 1))
        return Estimate(mean, math.sqrt(var / self.n), self.n)


@dataclass(frozen=True)
class StrategySpec:
    """How one trader trades against the equilibrium pricing rule.

    equilibrium: trade the dealer-predicted flow exactly.
    scaled: scale the signal loading by beta_scale and decay the trader's
        own inventory at phi_scale times the equilibrium rate.
    with_z: start with an inventory gap z0 above the prediction and close
        a fraction zeta of the remaining gap each period.
    """

    kind: str = "equilibrium"
    beta_scale: float = 1.0
    phi_scale: float = 1.0
    zeta: float = 0.0
    z0: float = 0.0

    @classmethod
    def equilibrium(cls) -> "StrategySpec":
        return cls()

    @classmethod
    def scaled(cls, beta_scale: float = 1.0, phi_scale: float = 1.0) -> "StrategySpec":
        return cls(kind="scaled", beta_scale=beta_scale, phi_scale=phi_scale)

    @classmethod
    def with_z(cls, zeta: float, z0: float) -> "StrategySpec":
        return cls(kind="with_z", zeta=zeta, z0=z0)

    def label(self) -> str:
        if self.kind == "equilibrium":
            return "equilibrium"
        if self.kind == "scaled":
            return f"scaled(beta_scale={self.beta_scale!r}, phi_scale={self.phi_scale!r})"
        return f"with_z(zeta={self.zeta!r}, z0={self.z0!r})"


def _check_admissible(spec: StrategySpec, eq: Equilibrium, trader_index: int) -> None:
    if spec.kind == "equilibrium":
        return
    if spec.kind == "scaled":
        decay = spec.phi_scale * eq.phis[trader_index]
        if not 0.0 < decay < 2.0:
            raise InadmissibleStrategy(
                f"trader {trader_index}: effective decay {decay!r} outside (0, 2), inventory diverges"
            )
        if not math.isfinite(spec.beta_scale):
            raise InadmissibleStrategy(f"trader {trader_index}: beta_scale must be finite")
        return
    if spec.kind == "with_z":
        if not 0.0 <= spec.zeta < 2.0:
            raise InadmissibleStrategy(
                f"trader {trader_index}: workdown rate {spec.zeta!r} outside [0, 2), gap diverges"
            )
        if not math.isfinite(spec.z0):
            raise InadmissibleStrategy(f"trader {trader_index}: z0 must be finite")
        return
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


def _normalize_strategies(strategies, k: int) -> tuple[StrategySpec, ...]:
    if strategies is None:
        return tuple(StrategySpec() for _ in range(k))
    if isinstance(strategies, dict):
        out = [StrategySpec() for _ in range(k)]
        for i, spec in strategies.items():
            if not 0 <= i < k:
                raise ValueError(f"strategy index {i} out of range for k={k}")
            out[i] = spec
        return tuple(out)
    specs = tuple(strategies)
    if len(specs) != k:
        raise ValueError(f"need one strategy per trader, got {len(specs)} for k={k}")
    return specs


def _check_rng_args(seed: int, first_path: int, n_paths: int, chunk_size: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if first_path < 0 or first_path + n_paths > _MAX_PATH_INDEX:
        raise ValueError("path indices must stay below 2^63")
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got {n_paths}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")


def _fill_normals(out: np.ndarray, seed: int, first_path: int, stream: int) -> None:
    """One Philox stream per (seed, path, stream); rows are chunk-independent.

    A single bit generator is re-keyed for each row. The state it is given is
    the one ``Philox(key=[(path << 1) | stream, seed])`` starts from: zero
    counter and an exhausted output buffer.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    key = [0, seed]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for j in range(out.shape[0]):
        key[0] = ((first_path + j) << 1) | stream
        bitgen.state = state
        gen.standard_normal(out.shape[1], out=out[j])


def _normal_blocks(seed: int, first_path: int, n_paths: int, horizon: int, scales, block: int):
    """Yield (start, arrays): scaled time-major increments for each block of paths.

    Stream s is filled path by path into a reused (b, horizon) scratch,
    multiplied by scales[s] and transposed into a reused (horizon, b)
    buffer, so row n holds period n + 1 for the block's paths. The yielded
    arrays are overwritten by the next block.
    """
    width = min(block, n_paths)
    scratch = np.empty((width, horizon))
    bufs = [np.empty(width * horizon) for _ in scales]
    for start in range(0, n_paths, block):
        b = min(block, n_paths - start)
        rows = scratch[:b]
        arrays = []
        for stream, (scale, buf) in enumerate(zip(scales, bufs)):
            _fill_normals(rows, seed, first_path + start, stream)
            rows *= scale
            tm = buf[: horizon * b].reshape(horizon, b)
            tm[...] = rows.T
            arrays.append(tm)
        yield start, arrays


def default_horizon(
    params: ValidatedParams, tail_tol: float = DEFAULT_TAIL_TOL, cap: int = HORIZON_CAP
) -> int:
    """Periods needed so the slowest trader's discount tail drops below tail_tol."""
    if params.dt == 0.0:
        raise ValueError("simulation requires dt > 0")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must be in (0, 1), got {tail_tol!r}")
    per = 1.0 - min(t.rho for t in params.traders) * params.dt
    n = math.ceil(math.log(tail_tol) / math.log(per))
    if n > cap:
        raise HorizonTooShort(
            f"reaching tail {tail_tol!r} needs {n} periods, beyond the cap {cap}; "
            "pass an explicit horizon or raise the cap"
        )
    return max(n, 1)


@dataclass
class PathBatch:
    """Simulated paths with every per-period series retained.

    Shapes: dS, dK, dY, price_adj are (n_paths, N); M, L, Z are
    (n_paths, k, N + 1) with the initial state at index 0; payoff and
    penalty are (n_paths, k, N), undiscounted; mtm_discounted is
    (n_paths, k), the discounted sum of pre-trade inventory times the
    signal move, which has mean zero for any strategy.
    """

    params: ValidatedParams
    eq: Equilibrium
    strategies: tuple[StrategySpec, ...]
    seed: int
    first_path: int
    dS: np.ndarray
    dK: np.ndarray
    dY: np.ndarray
    price_adj: np.ndarray
    M: np.ndarray
    L: np.ndarray
    Z: np.ndarray
    payoff: np.ndarray
    penalty: np.ndarray
    mtm_discounted: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.dS.shape[0]

    @property
    def horizon(self) -> int:
        return self.dS.shape[1]

    @property
    def k(self) -> int:
        return self.M.shape[1]

    def to_csv(self, file, max_rows: int = 1_000_000) -> None:
        """Long-format CSV, one row per (path, period); states are post-trade."""
        rows = self.n_paths * self.horizon
        if rows > max_rows:
            raise ValueError(f"{rows} rows exceed max_rows={max_rows}; slice the batch or raise the limit")
        k = self.k
        header = ["path", "period", "dS", "dK", "dY", "price_adj"]
        for j in range(k):
            header += [f"L{j}", f"M{j}", f"Z{j}", f"payoff{j}", f"penalty{j}"]
        file.write(",".join(header) + "\n")
        for p in range(self.n_paths):
            for n in range(self.horizon):
                cells = [
                    str(self.first_path + p),
                    str(n + 1),
                    repr(float(self.dS[p, n])),
                    repr(float(self.dK[p, n])),
                    repr(float(self.dY[p, n])),
                    repr(float(self.price_adj[p, n])),
                ]
                for j in range(k):
                    cells += [
                        repr(float(self.L[p, j, n + 1])),
                        repr(float(self.M[p, j, n + 1])),
                        repr(float(self.Z[p, j, n + 1])),
                        repr(float(self.payoff[p, j, n])),
                        repr(float(self.penalty[p, j, n])),
                    ]
                file.write(",".join(cells) + "\n")

    def save_npz(self, path) -> None:
        """Arrays plus a JSON header, written with numpy's portable npz format."""
        header = json.dumps(
            {
                "params": params_to_config(self.params),
                "equilibrium": self.eq.to_dict(),
                "strategies": [
                    {
                        "kind": s.kind,
                        "beta_scale": s.beta_scale,
                        "phi_scale": s.phi_scale,
                        "zeta": s.zeta,
                        "z0": s.z0,
                    }
                    for s in self.strategies
                ],
                "seed": self.seed,
                "first_path": self.first_path,
            }
        )
        np.savez_compressed(
            path,
            header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
            dS=self.dS,
            dK=self.dK,
            dY=self.dY,
            price_adj=self.price_adj,
            M=self.M,
            L=self.L,
            Z=self.Z,
            payoff=self.payoff,
            penalty=self.penalty,
            mtm_discounted=self.mtm_discounted,
        )


def _discount_matrix(params: ValidatedParams, horizon: int) -> np.ndarray:
    """(k, N) matrix of (1 - rho_j dt)^n for n = 1..N."""
    per = np.array([1.0 - t.rho * params.dt for t in params.traders])
    return np.cumprod(np.tile(per[:, None], (1, horizon)), axis=1)


def _deviation_flow(
    spec: StrategySpec,
    beta: float,
    phi: float,
    ds: np.ndarray,
    m_prev: np.ndarray,
    l_prev: np.ndarray,
) -> np.ndarray:
    if spec.kind == "scaled":
        return spec.beta_scale * beta * ds - spec.phi_scale * phi * l_prev
    # with_z: equilibrium trade plus closing a fraction of the current gap
    return beta * ds - phi * m_prev - spec.zeta * (l_prev - m_prev)


def simulate(
    eq: Equilibrium,
    strategies,
    params: ValidatedParams,
    *,
    n_paths: int,
    horizon: int | None = None,
    seed: int = 0,
    chunk_size: int = BLOCK_PATHS,
    first_path: int = 0,
    max_floats: int = 250_000_000,
) -> PathBatch:
    """Simulate n_paths independent paths and keep every series.

    Memory scales as n_paths x horizon x traders; the guard refuses batches
    that would exceed ``max_floats`` doubles. For large-sample estimates of
    a single trader's objective use ``simulate_objective``, which streams.
    """
    if params.dt == 0.0:
        raise ValueError("simulation requires dt > 0")
    specs = _normalize_strategies(strategies, params.k)
    for i, spec in enumerate(specs):
        _check_admissible(spec, eq, i)
    if horizon is None:
        horizon = default_horizon(params)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    _check_rng_args(seed, first_path, n_paths, chunk_size)
    k = params.k
    n_floats = n_paths * (4 * horizon + k * (3 * (horizon + 1) + 2 * horizon) + 1)
    if n_floats > max_floats:
        raise ValueError(
            f"batch needs {n_floats} doubles, above max_floats={max_floats}; "
            "reduce paths or horizon, or use simulate_objective"
        )

    dt = params.dt
    sqdt = math.sqrt(dt)
    betas = np.array(eq.betas)
    phis = np.array(eq.phis)
    mus = np.array(eq.mus)
    gammas = np.array([t.gamma for t in params.traders])
    l0 = np.array(params.initial_inventories)
    z0 = np.array([s.z0 if s.kind == "with_z" else 0.0 for s in specs])
    c = params.tax
    lam = eq.lam
    w = _discount_matrix(params, horizon)
    deviators = [i for i, s in enumerate(specs) if s.kind != "equilibrium"]

    batch = PathBatch(
        params=params,
        eq=eq,
        strategies=specs,
        seed=seed,
        first_path=first_path,
        dS=np.empty((n_paths, horizon)),
        dK=np.empty((n_paths, horizon)),
        dY=np.empty((n_paths, horizon)),
        price_adj=np.empty((n_paths, horizon)),
        M=np.empty((n_paths, k, horizon + 1)),
        L=np.empty((n_paths, k, horizon + 1)),
        Z=np.empty((n_paths, k, horizon + 1)),
        payoff=np.empty((n_paths, k, horizon)),
        penalty=np.empty((n_paths, k, horizon)),
        mtm_discounted=np.empty((n_paths, k)),
    )

    for start in range(0, n_paths, chunk_size):
        stop = min(start + chunk_size, n_paths)
        b = stop - start
        sl = slice(start, stop)
        _fill_normals(batch.dS[sl], seed, first_path + start, stream=0)
        _fill_normals(batch.dK[sl], seed, first_path + start, stream=1)
        batch.dS[sl] *= params.sigma_S * sqdt
        batch.dK[sl] *= params.sigma_K * sqdt

        M = np.tile(l0, (b, 1))
        L = M + z0
        batch.M[sl, :, 0] = M
        batch.L[sl, :, 0] = L
        batch.Z[sl, :, 0] = L - M
        mtm = np.zeros((b, k))
        for n in range(horizon):
            ds = batch.dS[sl, n]
            dM = ds[:, None] * betas - M * phis
            dL = dM.copy()
            for i in deviators:
                dL[:, i] = _deviation_flow(specs[i], betas[i], phis[i], ds, M[:, i], L[:, i])
            dY = batch.dK[sl, n] + dL.sum(axis=1)
            padj = lam * dY + M @ mus
            mtm += (L * ds[:, None]) * w[:, n]
            L_new = L + dL
            M_new = M + dM
            pen = 0.5 * gammas * dt * L_new**2 + c * dL**2
            batch.dY[sl, n] = dY
            batch.price_adj[sl, n] = padj
            batch.payoff[sl, :, n] = dL * (ds - padj)[:, None] - pen
            batch.penalty[sl, :, n] = pen
            M, L = M_new, L_new
            batch.M[sl, :, n + 1] = M
            batch.L[sl, :, n + 1] = L
            batch.Z[sl, :, n + 1] = L - M
        batch.mtm_discounted[sl] = mtm
    return batch


def _estimate_from_array(values: np.ndarray) -> Estimate:
    if values.size < 2:
        raise ValueError("need at least two samples for a standard error")
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return Estimate(mean, se, int(values.size))


def _check_tail(rho: float, dt: float, horizon: int, tail_tol) -> None:
    if tail_tol is None:
        return
    tail = (1.0 - rho * dt) ** horizon
    if tail > tail_tol:
        raise HorizonTooShort(
            f"discount tail {tail!r} after {horizon} periods exceeds tail_tol={tail_tol!r}; "
            "extend the horizon or pass tail_tol=None for a deliberately truncated estimate"
        )


def estimate_objective(
    batch: PathBatch,
    trader_index: int,
    *,
    rho: float | None = None,
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> Estimate:
    """Discounted objective of one trader, averaged over the batch paths."""
    params = batch.params
    if rho is None:
        rho = params.traders[trader_index].rho
    _check_tail(rho, params.dt, batch.horizon, tail_tol)
    disc = np.cumprod(np.full(batch.horizon, 1.0 - rho * params.dt))
    per_path = batch.payoff[:, trader_index, :] @ disc
    return _estimate_from_array(per_path)


def mark_to_market(batch: PathBatch, trader_index: int) -> Estimate:
    """Discounted inventory-times-signal-move sum; zero in expectation."""
    return _estimate_from_array(batch.mtm_discounted[:, trader_index])


@dataclass(frozen=True)
class ObjectiveResult:
    objective: Estimate
    mark_to_market: Estimate
    trader_index: int
    horizon: int
    n_paths: int


def simulate_objective(
    eq: Equilibrium,
    strategies,
    params: ValidatedParams,
    trader_index: int,
    *,
    n_paths: int,
    horizon: int | None = None,
    seed: int = 0,
    chunk_size: int = BLOCK_PATHS,
    first_path: int = 0,
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> ObjectiveResult:
    """Streaming estimate of one trader's discounted objective.

    Identical paths to ``simulate`` for the same seed and path range, but
    only per-path reductions are kept, so horizon and paths can both be
    large.
    """
    if params.dt == 0.0:
        raise ValueError("simulation requires dt > 0")
    specs = _normalize_strategies(strategies, params.k)
    for i, spec in enumerate(specs):
        _check_admissible(spec, eq, i)
    if horizon is None:
        horizon = default_horizon(params)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if not 0 <= trader_index < params.k:
        raise ValueError(f"trader index {trader_index} out of range for k={params.k}")
    _check_rng_args(seed, first_path, n_paths, chunk_size)
    rho_i = params.traders[trader_index].rho
    _check_tail(rho_i, params.dt, horizon, tail_tol)

    dt = params.dt
    sqdt = math.sqrt(dt)
    k = params.k
    betas = np.array(eq.betas)
    phis = np.array(eq.phis)
    mus = np.array(eq.mus)
    g_i = params.traders[trader_index].gamma
    l0 = np.array(params.initial_inventories)
    z0 = np.array([s.z0 if s.kind == "with_z" else 0.0 for s in specs])
    c = params.tax
    lam = eq.lam
    disc = np.cumprod(np.full(horizon, 1.0 - rho_i * dt))
    deviators = [i for i, s in enumerate(specs) if s.kind != "equilibrium"]

    obj = np.empty(n_paths)
    mtm = np.empty(n_paths)
    scales = (params.sigma_S * sqdt, params.sigma_K * sqdt)
    for start, (dS, dK) in _normal_blocks(seed, first_path, n_paths, horizon, scales, chunk_size):
        b = dS.shape[1]
        M = np.tile(l0, (b, 1))
        L = M + z0
        obj_c = np.zeros(b)
        mtm_c = np.zeros(b)
        for n in range(horizon):
            ds = dS[n]
            dM = ds[:, None] * betas - M * phis
            dL = dM.copy()
            for i in deviators:
                dL[:, i] = _deviation_flow(specs[i], betas[i], phis[i], ds, M[:, i], L[:, i])
            dY = dK[n] + dL.sum(axis=1)
            padj = lam * dY + M @ mus
            mtm_c += L[:, trader_index] * ds * disc[n]
            L = L + dL
            M = M + dM
            li = L[:, trader_index]
            dli = dL[:, trader_index]
            pay = dli * (ds - padj) - 0.5 * g_i * dt * li * li - c * dli * dli
            obj_c += disc[n] * pay
        obj[start : start + b] = obj_c
        mtm[start : start + b] = mtm_c
    return ObjectiveResult(
        objective=_estimate_from_array(obj),
        mark_to_market=_estimate_from_array(mtm),
        trader_index=trader_index,
        horizon=horizon,
        n_paths=n_paths,
    )


def effective_order_flow(batch: PathBatch) -> np.ndarray:
    """X_n = dY_n + sum_j phi_j M^j_{n-1}; the dealer prices exactly lambda X_n."""
    phis = np.array(batch.eq.phis)
    return batch.dY + np.einsum("pkn,k->pn", batch.M[:, :, :-1], phis)


@dataclass(frozen=True)
class ProfitCheck:
    profit: Estimate
    slope: float
    slope_se: float
    lambda_scale: float

    @property
    def covers_zero(self) -> bool:
        return self.profit.covers(0.0)


def dealer_profit_check(batch: PathBatch, lambda_scale: float = 1.0) -> ProfitCheck:
    """Expected dealer profit per period and the regression behind the price impact.

    At lambda_scale = 1 the dealer earns zero on average and the projection
    of the signal move on the effective order flow recovers lambda. Other
    scales misprice the flow and the profit mean moves away from zero,
    which gives the negative control. Profit is averaged within each path
    first, since the inventory terms are serially dependent; the regression
    pools all (path, period) pairs because the flow is independent across
    periods.
    """
    eq = batch.eq
    padj = batch.price_adj + (lambda_scale - 1.0) * eq.lam * batch.dY
    per_path = ((padj - batch.dS) * batch.dY).mean(axis=1)
    profit = _estimate_from_array(per_path)

    x = effective_order_flow(batch).ravel()
    y = batch.dS.ravel()
    sxx = float(x @ x)
    slope = float(x @ y) / sxx
    resid = y - slope * x
    slope_se = math.sqrt(float(resid @ resid) / (x.size - 1) / sxx)
    return ProfitCheck(profit=profit, slope=slope, slope_se=slope_se, lambda_scale=lambda_scale)


def reduced_form_gap(batch: PathBatch) -> float:
    """Max pathwise gap of dS - price_adj vs eta dS - lambda dK - lambda dZ.

    dZ aggregates all traders' deviation flows; it vanishes for traders on
    the equilibrium strategy. A nonzero gap means the pricing identity or
    the inventory recursions are implemented inconsistently.
    """
    eq = batch.eq
    dz_total = np.diff(batch.Z.sum(axis=1), axis=1)
    pred = eq.eta * batch.dS - eq.lam * batch.dK - eq.lam * dz_total
    actual = batch.dS - batch.price_adj
    return float(np.max(np.abs(actual - pred)))


def second_moment_closed_form(
    beta: float, phi: float, sigma_S: float, dt: float, n: int, M0: float = 0.0
) -> float:
    """E[M_n^2] for the prediction recursion M' = (1 - phi) M + beta dS."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    a2 = (1.0 - phi) ** 2
    drive = beta**2 * sigma_S**2 * dt
    geom = float(n) if a2 == 1.0 else (1.0 - a2**n) / (1.0 - a2)
    return a2**n * M0**2 + drive * geom


def inventory_second_moment(
    eq: Equilibrium, trader_index: int, params: ValidatedParams, n: int, M0: float = 0.0
) -> float:
    return second_moment_closed_form(
        eq.betas[trader_index], eq.phis[trader_index], params.sigma_S, params.dt, n, M0
    )


def inventory_is_bounded(eq: Equilibrium, trader_index: int) -> bool:
    """Second moment stays bounded iff the decay rate lies strictly in (0, 2)."""
    return 0.0 < eq.phis[trader_index] < 2.0


def simulate_second_moment(
    eq: Equilibrium,
    trader_index: int,
    params: ValidatedParams,
    checkpoints,
    *,
    n_paths: int,
    seed: int = 0,
    chunk_size: int = BLOCK_PATHS,
    M0: float = 0.0,
) -> dict[int, Estimate]:
    """Monte Carlo E[M_n^2] at the given checkpoint periods.

    Only the one trader's prediction recursion is simulated; it is driven
    by the signal stream alone, with the same per-path keying as the full
    game, so checkpoints line up with ``simulate`` output.
    """
    checkpoints = sorted(set(int(n) for n in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive periods")
    _check_rng_args(seed, 0, n_paths, chunk_size)
    horizon = checkpoints[-1]
    beta = eq.betas[trader_index]
    phi = eq.phis[trader_index]
    scale = params.sigma_S * math.sqrt(params.dt)
    stats = {n: _RunningStat() for n in checkpoints}
    wanted = set(checkpoints)
    for _, (dS,) in _normal_blocks(seed, 0, n_paths, horizon, (scale,), chunk_size):
        m = np.full(dS.shape[1], float(M0))
        for n in range(1, horizon + 1):
            m = (1.0 - phi) * m + beta * dS[n - 1]
            if n in wanted:
                stats[n].add(m * m)
    return {n: stats[n].estimate() for n in checkpoints}


@dataclass(frozen=True)
class SweepRow:
    spec: StrategySpec
    objective: Estimate
    difference: Estimate | None


@dataclass(frozen=True)
class DeviationSweepResult:
    """Common-random-number comparison of strategies for one trader.

    ``difference`` on each row is that row's objective minus the reference
    (equilibrium) row, path by path, so its standard error reflects the
    paired design rather than the much larger marginal noise.
    """

    rows: tuple[SweepRow, ...]
    reference_index: int
    trader_index: int
    horizon: int

    @property
    def best_index(self) -> int:
        means = [r.objective.mean for r in self.rows]
        return int(np.argmax(means))

    def reference_dominates(self, slack: float = 2.0) -> bool:
        for i, row in enumerate(self.rows):
            if i == self.reference_index:
                continue
            if row.difference.mean > slack * row.difference.std_error:
                return False
        return True


def deviation_sweep(
    eq: Equilibrium,
    params: ValidatedParams,
    trader_index: int,
    specs,
    *,
    n_paths: int,
    horizon: int,
    seed: int = 0,
    chunk_size: int = BLOCK_PATHS,
) -> DeviationSweepResult:
    """Estimate one trader's objective under each strategy on shared paths.

    All other traders play equilibrium. Their flows and the dealer's
    prediction terms do not depend on the deviator's play, so each period
    computes them once per block of paths and every row reuses them. The
    horizon is explicit: sweeps are usually run truncated, which preserves
    the ranking because every row sees the same truncation.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one strategy")
    if not 0 <= trader_index < params.k:
        raise ValueError(f"trader index {trader_index} out of range for k={params.k}")
    reference_index = None
    for idx, spec in enumerate(specs):
        _check_admissible(spec, eq, trader_index)
        if reference_index is None and spec.kind == "equilibrium":
            reference_index = idx
    if reference_index is None:
        raise ValueError("include an equilibrium row to serve as the reference")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    _check_rng_args(seed, 0, n_paths, chunk_size)

    dt = params.dt
    sqdt = math.sqrt(dt)
    i = trader_index
    betas = np.array(eq.betas)
    phis = np.array(eq.phis)
    mus = np.array(eq.mus)
    beta_i = eq.betas[i]
    phi_i = eq.phis[i]
    g_i = params.traders[i].gamma
    rho_i = params.traders[i].rho
    c = params.tax
    lam = eq.lam
    l0 = np.array(params.initial_inventories)
    disc = np.cumprod(np.full(horizon, 1.0 - rho_i * dt))

    # Every strategy kind is linear in (dS, M_prev, L_prev), so all rows
    # advance together as one (rows, paths) state matrix.
    a_ds = np.empty(len(specs))
    a_m = np.empty(len(specs))
    a_l = np.empty(len(specs))
    for r, spec in enumerate(specs):
        if spec.kind == "equilibrium":
            a_ds[r], a_m[r], a_l[r] = beta_i, -phi_i, 0.0
        elif spec.kind == "scaled":
            a_ds[r], a_m[r], a_l[r] = spec.beta_scale * beta_i, 0.0, -(spec.phi_scale * phi_i)
        else:
            a_ds[r], a_m[r], a_l[r] = beta_i, spec.zeta - phi_i, -spec.zeta
    a_ds, a_m, a_l = a_ds[:, None], a_m[:, None], a_l[:, None]
    z0_rows = np.array([s.z0 if s.kind == "with_z" else 0.0 for s in specs])[:, None]
    obj_stats = [_RunningStat() for _ in specs]
    diff_stats = [_RunningStat() for _ in specs]

    half_g_dt = 0.5 * g_i * dt
    scales = (params.sigma_S * sqdt, params.sigma_K * sqdt)
    for _, (dS, dK) in _normal_blocks(seed, 0, n_paths, horizon, scales, chunk_size):
        b = dS.shape[1]
        M = np.tile(l0, (b, 1))
        L = M[:, i][None, :] + z0_rows
        row_objs = np.zeros((len(specs), b))
        dL, padj, pay, tmp = (np.empty((len(specs), b)) for _ in range(4))
        for n in range(horizon):
            ds = dS[n]
            # Play-independent terms, shared by every row: the equilibrium
            # predictions, the other traders' flow and the dealer's
            # prediction adjustment.
            dM = ds[:, None] * betas - M * phis
            mu_m = M @ mus
            others_flow = dM.sum(axis=1) - dM[:, i]
            # The row update below is, written out,
            #   dL = a_ds ds + a_m M_i + a_l L
            #   padj = lam (dK + others_flow + dL) + mu_m
            #   pay = dL (ds - padj) - half_g_dt L'^2 - c dL^2
            # evaluated in place, in that order, to keep the state in cache.
            # At c = 0 the tax term would subtract exactly zero.
            np.multiply(a_ds, ds, out=dL)
            dL += np.multiply(a_m, M[:, i], out=tmp)
            dL += np.multiply(a_l, L, out=tmp)
            np.add(dK[n] + others_flow, dL, out=padj)
            padj *= lam
            padj += mu_m
            L += dL
            np.subtract(ds, padj, out=pay)
            pay *= dL
            np.multiply(half_g_dt, L, out=tmp)
            tmp *= L
            pay -= tmp
            if c:
                np.multiply(dL, dL, out=tmp)
                tmp *= c
                pay -= tmp
            pay *= disc[n]
            row_objs += pay
            M = M + dM
        for r in range(len(specs)):
            obj_stats[r].add(row_objs[r])
            if r != reference_index:
                diff_stats[r].add(row_objs[r] - row_objs[reference_index])

    rows = tuple(
        SweepRow(
            spec=specs[r],
            objective=obj_stats[r].estimate(),
            difference=None if r == reference_index else diff_stats[r].estimate(),
        )
        for r in range(len(specs))
    )
    return DeviationSweepResult(
        rows=rows, reference_index=reference_index, trader_index=trader_index, horizon=horizon
    )
