"""Monte Carlo engine for the trading game.

Paths are driven by counter-based random streams (Philox; Salmon et al.,
SC'11): path p's signal and noise increments come from a Philox generator
keyed by [(p << 1) | stream, seed] with a zero counter, so every path is
reproducible on its own and results do not depend on blocking. One bit
generator is re-keyed per path by setting its state, which gives the same
numbers as a fresh ``Philox(key=...)`` without the seed sequence that
construction runs. Dealers always price with the equilibrium rule; traders
can play the equilibrium strategy, a scaled variant, or carry an inventory
gap that they work down at a chosen rate. The dealer's inventory predictions
follow the equilibrium recursion no matter what is actually traded, which
is what makes deviations detectable only through the order flow.

Every strategy trades a fixed linear combination of the signal move dS,
the dealer's prediction M and the trader's own inventory L, so one kernel,
``_game``, plays them all from coefficient rows: ``simulate`` and
``simulate_objective`` run it with one row for a trader, ``deviation_sweep``
with one row per strategy.

The kernel walks the paths in blocks of ``BLOCK_PATHS``. Each block's
increments are laid out time-major, (horizon, paths), so a period reads one
contiguous row, and the per-period state of a block stays in cache. Only
``simulate`` keeps full (paths, horizon) series, for callers that need
every series of a small batch. The other entry points pool per-block
results with one streaming estimator, so their memory does not grow with
the number of paths. That includes the pass verify runs: a sweep whose
row 0 also feeds ``_GameStats``, the per-period reduction behind
``dealer_profit_check``. The recursions are plain numpy loops over
periods; the package depends on numpy alone.

Per period, in order: trades are formed from the previous state and the
fresh signal, the dealer prices the aggregate flow, inventories update, and
the holding penalty applies to the post-trade inventory. Discount factors
start at (1 - rho dt) in the first period.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ValidatedParams
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


@dataclass
class _Stat:
    """Streaming mean and standard error over blocks of samples. Each block's
    mean and centred sum of squares merge by the pairwise update of Chan,
    Golub & LeVeque (1983), so one block gives numpy's mean and std(ddof=1)."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, values: np.ndarray) -> "_Stat":
        nb = values.size
        mean_b = float(values.mean())
        d = values - mean_b
        delta = mean_b - self.mean
        n = self.n + nb
        self.mean += delta * (nb / n)
        self.m2 += float((d * d).sum()) + delta * delta * (self.n * nb / n)
        self.n = n
        return self

    def estimate(self) -> Estimate:
        if self.n < 2:
            raise ValueError("need at least two samples for a standard error")
        std = math.sqrt(self.m2 / (self.n - 1))
        return Estimate(self.mean, std / math.sqrt(self.n), self.n)


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


def _coefficients(spec: StrategySpec, eq: Equilibrium, i: int) -> tuple[float, float, float, float]:
    """Trader i's row (a_dS, a_M, a_L, z0): it trades a_dS dS + a_M M + a_L L from L_0 = M_0 + z0.

    Raises InadmissibleStrategy for a spec under which inventory diverges.
    """
    beta, phi = eq.betas[i], eq.phis[i]
    if spec.kind == "equilibrium":
        return beta, -phi, 0.0, 0.0
    if spec.kind == "scaled":
        decay = spec.phi_scale * phi
        if not 0.0 < decay < 2.0:
            raise InadmissibleStrategy(f"trader {i}: effective decay {decay!r} outside (0, 2), inventory diverges")
        if not math.isfinite(spec.beta_scale):
            raise InadmissibleStrategy(f"trader {i}: beta_scale must be finite")
        return spec.beta_scale * beta, 0.0, -decay, 0.0
    if spec.kind == "with_z":
        if not 0.0 <= spec.zeta < 2.0:
            raise InadmissibleStrategy(f"trader {i}: workdown rate {spec.zeta!r} outside [0, 2), gap diverges")
        if not math.isfinite(spec.z0):
            raise InadmissibleStrategy(f"trader {i}: z0 must be finite")
        # equilibrium trade plus closing a fraction zeta of the current gap L - M
        return beta, spec.zeta - phi, -spec.zeta, spec.z0
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


def _checked_game(eq: Equilibrium, strategies, params: ValidatedParams, horizon: int | None):
    """Checks shared by ``simulate`` and ``simulate_objective``: (coefficient rows, horizon)."""
    if params.dt == 0.0:
        raise ValueError("simulation requires dt > 0")
    specs = _normalize_strategies(strategies, params.k)
    coefs = [_coefficients(spec, eq, i) for i, spec in enumerate(specs)]
    if horizon is None:
        horizon = default_horizon(params)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    return coefs, horizon


def _check_rng_args(seed: int, first_path: int, n_paths: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if first_path < 0 or first_path + n_paths > _MAX_PATH_INDEX:
        raise ValueError("path indices must stay below 2^63")
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got {n_paths}")


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


def default_horizon(params: ValidatedParams, cap: int = HORIZON_CAP) -> int:
    """Periods needed so the slowest trader's discount tail drops below DEFAULT_TAIL_TOL."""
    if params.dt == 0.0:
        raise ValueError("simulation requires dt > 0")
    per = 1.0 - min(t.rho for t in params.traders) * params.dt
    n = math.ceil(math.log(DEFAULT_TAIL_TOL) / math.log(per))
    if n > cap:
        raise HorizonTooShort(
            f"reaching tail {DEFAULT_TAIL_TOL!r} needs {n} periods, beyond the cap {cap}; "
            "pass an explicit horizon or raise the cap"
        )
    return max(n, 1)


@dataclass
class PathBatch:
    """Simulated paths with every per-period series retained.

    Shapes: dS, dK, dY, price_adj are (n_paths, N); M and L are
    (n_paths, k, N + 1) with the initial state at index 0, and so is the
    gap Z = L - M, computed on access; payoff and penalty are
    (n_paths, k, N), undiscounted; mtm_discounted is (n_paths, k), the
    discounted sum of pre-trade inventory times the signal move, which has
    mean zero for any strategy.
    """

    params: ValidatedParams
    eq: Equilibrium
    dS: np.ndarray
    dK: np.ndarray
    dY: np.ndarray
    price_adj: np.ndarray
    M: np.ndarray
    L: np.ndarray
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

    @property
    def Z(self) -> np.ndarray:
        """Inventory gap L - M; a new array on every access."""
        return self.L - self.M


def _game(eq, params, coefs, i, rows, n_paths, horizon, seed, first_path):
    """The game recursion on blocks of paths; yields (start, dS, dK, periods).

    Trader i plays each row of ``rows`` in a game of its own against the
    other traders, who play their rows of the profile ``coefs``. Every
    strategy is linear in (dS, M_prev, L_prev), so the R rows and the k - 1
    others advance as one (R + k - 1, paths) state, rows first; the others'
    flows and the dealer's predictions do not depend on trader i's play, so
    all games share them. ``periods`` yields each period's pre-trade M and
    dM (k, b), the state's L, dL and post-trade L + dL, and each game's order
    flow dY and price adjustment padj (R, b), overwritten by the next period.
    ``BLOCK_PATHS`` is read at call time.
    """
    betas = np.array(eq.betas)[:, None]
    phis = np.array(eq.phis)[:, None]
    mus = np.array(eq.mus)
    l0 = np.array(params.initial_inventories)[:, None]
    R = len(rows)
    owner = np.array([i] * R + [j for j in range(params.k) if j != i])
    a_ds, a_m, a_l, z0 = np.array(list(rows) + [coefs[j] for j in owner[R:]], dtype=float).T[:, :, None]

    def periods(dS, dK):
        M = np.repeat(l0, dS.shape[1], axis=1)
        L = M[owner] + z0
        dL, L_next, tmp = (np.empty_like(L) for _ in range(3))
        dY, padj = (np.empty((R, dS.shape[1])) for _ in range(2))
        for n in range(horizon):
            ds = dS[n]
            dM = betas * ds - phis * M
            # Evaluated in place, in this order, to keep the state in cache:
            #   dL = a_ds ds + a_m M_owner + a_l L
            #   dY = dK + (flow of the others) + dL_row
            #   padj = lam dY + mu . M
            np.multiply(a_ds, ds, out=dL)
            np.multiply(a_m[:R], M[i], out=tmp[:R])
            np.multiply(a_m[R:], M[owner[R:]], out=tmp[R:])
            dL += tmp
            dL += np.multiply(a_l, L, out=tmp)
            np.add(dK[n] + dL[R:].sum(axis=0), dL[:R], out=dY)
            np.multiply(eq.lam, dY, out=padj)
            padj += mus @ M
            np.add(L, dL, out=L_next)
            yield M, dM, L, dL, L_next, dY, padj
            M = M + dM
            L, L_next = L_next, L

    scales = (params.sigma_S * math.sqrt(params.dt), params.sigma_K * math.sqrt(params.dt))
    for start, (dS, dK) in _normal_blocks(seed, first_path, n_paths, horizon, scales, BLOCK_PATHS):
        yield start, dS, dK, periods(dS, dK)


def _discounted(eq, params, coefs, i, rows, n_paths, horizon, seed, first_path, with_mtm=False, stats=None):
    """Per block: trader i's discounted objective in each row's game, (R, b),
    and, if asked for, row 0's discounted mark-to-market, (b,), else None.

    A ``_GameStats`` in ``stats`` is fed row 0's flow and prices every period
    and the block's mark-to-market at its end, which implies ``with_mtm``.
    """
    t = params.traders[i]
    disc = np.cumprod(np.full(horizon, 1.0 - t.rho * params.dt))
    half_g_dt = 0.5 * t.gamma * params.dt
    R = len(rows)
    with_mtm = with_mtm or stats is not None
    for _, dS, _, periods in _game(eq, params, coefs, i, rows, n_paths, horizon, seed, first_path):
        obj = np.zeros((R, dS.shape[1]))
        pay, tmp = np.empty_like(obj), np.empty_like(obj)
        mtm = np.zeros(dS.shape[1]) if with_mtm else None
        for n, (M, _, L, dL, L1, dY, padj) in enumerate(periods):
            ds = dS[n]
            if stats is not None:
                stats.period(ds, dY[0], padj[0], M)
            L, dL, L1 = L[:R], dL[:R], L1[:R]
            if with_mtm:
                mtm += L[0] * ds * disc[n]
            # pay = dL (ds - padj) - half_g_dt L1^2 - tax dL^2 with L1 = L + dL,
            # evaluated in place. At tax = 0 that term would subtract exactly zero.
            np.subtract(ds, padj, out=pay)
            pay *= dL
            np.multiply(L1, L1, out=tmp)
            tmp *= half_g_dt
            pay -= tmp
            if params.tax:
                np.multiply(dL, dL, out=tmp)
                tmp *= params.tax
                pay -= tmp
            pay *= disc[n]
            obj += pay
        if stats is not None:
            stats.end_block(mtm)
        yield obj, mtm


def simulate(
    eq: Equilibrium,
    strategies,
    params: ValidatedParams,
    *,
    n_paths: int,
    horizon: int | None = None,
    seed: int = 0,
    first_path: int = 0,
    max_floats: int = 250_000_000,
) -> PathBatch:
    """Simulate n_paths independent paths and keep every series.

    Memory scales as n_paths x horizon x traders; the guard refuses batches
    that would exceed ``max_floats`` doubles. For large-sample estimates of
    a single trader's objective use ``simulate_objective``, which streams.
    """
    coefs, horizon = _checked_game(eq, strategies, params, horizon)
    _check_rng_args(seed, first_path, n_paths)
    k = params.k
    n_floats = n_paths * (4 * horizon + k * (2 * (horizon + 1) + 2 * horizon + 1))
    if n_floats > max_floats:
        raise ValueError(
            f"batch needs {n_floats} doubles, above max_floats={max_floats}; "
            "reduce paths or horizon, or use simulate_objective"
        )

    half_g_dt = 0.5 * np.array(params.gammas)[:, None] * params.dt
    # (k, N) discount factors (1 - rho_j dt)^n for n = 1..N
    per = np.array([1.0 - t.rho * params.dt for t in params.traders])
    w = np.cumprod(np.tile(per[:, None], (1, horizon)), axis=1)
    batch = PathBatch(
        params=params,
        eq=eq,
        dS=np.empty((n_paths, horizon)),
        dK=np.empty((n_paths, horizon)),
        dY=np.empty((n_paths, horizon)),
        price_adj=np.empty((n_paths, horizon)),
        M=np.empty((n_paths, k, horizon + 1)),
        L=np.empty((n_paths, k, horizon + 1)),
        payoff=np.empty((n_paths, k, horizon)),
        penalty=np.empty((n_paths, k, horizon)),
        mtm_discounted=np.empty((n_paths, k)),
    )
    batch.M[:, :, 0] = params.initial_inventories
    batch.L[:, :, 0] = batch.M[:, :, 0] + [z0 for *_, z0 in coefs]

    # With trader 0 playing its own profile row, the kernel's state is the
    # k traders' inventories in trader order.
    for start, dS, dK, periods in _game(eq, params, coefs, 0, coefs[:1], n_paths, horizon, seed, first_path):
        sl = slice(start, start + dS.shape[1])
        batch.dS[sl] = dS.T
        batch.dK[sl] = dK.T
        mtm = np.zeros((k, dS.shape[1]))
        for n, (M, dM, L, dL, L_new, dY, padj) in enumerate(periods):
            ds = dS[n]
            mtm += L * ds * w[:, n, None]
            pen = half_g_dt * L_new**2 + params.tax * dL**2
            batch.dY[sl, n] = dY[0]
            batch.price_adj[sl, n] = padj[0]
            batch.payoff[sl, :, n] = (dL * (ds - padj[0]) - pen).T
            batch.penalty[sl, :, n] = pen.T
            batch.M[sl, :, n + 1] = (M + dM).T
            batch.L[sl, :, n + 1] = L_new.T
        batch.mtm_discounted[sl] = mtm.T
    return batch


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
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> Estimate:
    """Discounted objective of one trader, averaged over the batch paths."""
    params = batch.params
    rho = params.traders[trader_index].rho
    _check_tail(rho, params.dt, batch.horizon, tail_tol)
    disc = np.cumprod(np.full(batch.horizon, 1.0 - rho * params.dt))
    per_path = batch.payoff[:, trader_index, :] @ disc
    return _Stat().add(per_path).estimate()


def mark_to_market(batch: PathBatch, trader_index: int) -> Estimate:
    """Discounted inventory-times-signal-move sum; zero in expectation."""
    return _Stat().add(batch.mtm_discounted[:, trader_index]).estimate()


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
    first_path: int = 0,
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> ObjectiveResult:
    """Streaming estimate of one trader's discounted objective.

    Identical paths to ``simulate`` for the same seed and path range, but
    only per-path reductions are kept, so horizon and paths can both be
    large.
    """
    coefs, horizon = _checked_game(eq, strategies, params, horizon)
    if not 0 <= trader_index < params.k:
        raise ValueError(f"trader index {trader_index} out of range for k={params.k}")
    _check_rng_args(seed, first_path, n_paths)
    _check_tail(params.traders[trader_index].rho, params.dt, horizon, tail_tol)

    i = trader_index
    obj, mtm = _Stat(), _Stat()
    for obj_b, mtm_b in _discounted(eq, params, coefs, i, [coefs[i]], n_paths, horizon, seed, first_path, with_mtm=True):
        obj.add(obj_b[0])
        mtm.add(mtm_b)
    return ObjectiveResult(obj.estimate(), mtm.estimate(), trader_index, horizon, n_paths)


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


class _GameStats:
    """Streaming reductions of one game's dealer side, fed period by period.

    Per path, the dealer's mean profit per period, (padj - dS) dY with the
    price adjustment mispriced by ``lambda_scale``. Over all (path, period)
    pairs, the regression of dS on the effective flow x = dY + sum_j phi_j
    M_j. Its sums are taken about the equilibrium slope, with r = dS -
    lambda x, so while the fitted slope is near lambda the residual sum of
    squares Srr - Sxr^2 / Sxx subtracts a term only about 1/n of Srr.
    ``end_block`` closes a block of paths and pools the block's discounted
    mark-to-market, if given, in ``mtm``.
    """

    def __init__(self, eq: Equilibrium, lambda_scale: float = 1.0):
        self.lam = eq.lam
        self.lambda_scale = lambda_scale
        self.misprice = (lambda_scale - 1.0) * eq.lam
        self.phis = np.array(eq.phis)
        self.profit, self.mtm = _Stat(), _Stat()
        self.sxx = self.sxr = self.srr = 0.0
        self.n = 0
        self.periods = 0
        self.gain = None

    def period(self, ds, dy, padj, M) -> None:
        x = dy + self.phis @ M
        r = ds - self.lam * x
        self.sxx += float(x @ x)
        self.sxr += float(x @ r)
        self.srr += float(r @ r)
        self.n += ds.size
        gain = (padj + self.misprice * dy - ds) * dy
        if self.periods:
            self.gain += gain
        else:
            self.gain = gain
        self.periods += 1

    def end_block(self, mtm=None) -> None:
        self.profit.add(self.gain / self.periods)
        self.periods = 0
        if mtm is not None:
            self.mtm.add(mtm)

    def check(self) -> ProfitCheck:
        gap = self.sxr / self.sxx
        rss = self.srr - self.sxr * gap
        slope_se = math.sqrt(rss / (self.n - 1) / self.sxx)
        return ProfitCheck(self.profit.estimate(), self.lam + gap, slope_se, self.lambda_scale)


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
    stats = _GameStats(batch.eq, lambda_scale)
    for n in range(batch.horizon):
        stats.period(batch.dS[:, n], batch.dY[:, n], batch.price_adj[:, n], batch.M[:, :, n].T)
    stats.end_block()
    return stats.check()


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


def inventory_second_moment(
    eq: Equilibrium, trader_index: int, params: ValidatedParams, n: int, M0: float = 0.0
) -> float:
    """E[M_n^2] for trader ``trader_index``'s prediction recursion M' = (1 - phi) M + beta dS."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    beta, phi = eq.betas[trader_index], eq.phis[trader_index]
    a2 = (1.0 - phi) ** 2
    drive = beta**2 * params.sigma_S**2 * params.dt
    geom = float(n) if a2 == 1.0 else (1.0 - a2**n) / (1.0 - a2)
    return a2**n * M0**2 + drive * geom


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
) -> dict[int, Estimate]:
    """Monte Carlo E[M_n^2] at the given checkpoint periods.

    Only the one trader's prediction recursion is simulated, from the
    trader's initial inventory; it is driven by the signal stream alone,
    with the same per-path keying and update as the full game, so
    checkpoints line up with ``simulate`` output.
    """
    checkpoints = sorted(set(int(n) for n in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive periods")
    _check_rng_args(seed, 0, n_paths)
    horizon = checkpoints[-1]
    beta, phi = eq.betas[trader_index], eq.phis[trader_index]
    m0 = params.traders[trader_index].initial_inventory
    scale = params.sigma_S * math.sqrt(params.dt)
    stats = {n: _Stat() for n in checkpoints}
    for _, (dS,) in _normal_blocks(seed, 0, n_paths, horizon, (scale,), BLOCK_PATHS):
        m = np.full(dS.shape[1], m0)
        for n in range(1, horizon + 1):
            m = m + (beta * dS[n - 1] - phi * m)
            if n in stats:
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
) -> DeviationSweepResult:
    """Estimate one trader's objective under each strategy on shared paths.

    All other traders play equilibrium. Their flows and the dealer's
    prediction terms do not depend on the deviator's play, so each period
    computes them once per block of paths and every row reuses them. The
    horizon is explicit: sweeps are usually run truncated, which preserves
    the ranking because every row sees the same truncation.
    """
    return _sweep(eq, params, trader_index, specs, n_paths=n_paths, horizon=horizon, seed=seed)


def _sweep(eq, params, trader_index, specs, *, n_paths, horizon, seed, stats=None) -> DeviationSweepResult:
    """``deviation_sweep``; a ``_GameStats`` in ``stats`` also reduces row 0's game."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one strategy")
    if not 0 <= trader_index < params.k:
        raise ValueError(f"trader index {trader_index} out of range for k={params.k}")
    i = trader_index
    rows = [_coefficients(spec, eq, i) for spec in specs]
    reference_index = next((r for r, spec in enumerate(specs) if spec.kind == "equilibrium"), None)
    if reference_index is None:
        raise ValueError("include an equilibrium row to serve as the reference")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    _check_rng_args(seed, 0, n_paths)

    others = [_coefficients(StrategySpec(), eq, j) for j in range(params.k)]
    obj_stats = [_Stat() for _ in specs]
    diff_stats = [_Stat() for _ in specs]
    for objs, _ in _discounted(eq, params, others, i, rows, n_paths, horizon, seed, 0, stats=stats):
        for r in range(len(specs)):
            obj_stats[r].add(objs[r])
            if r != reference_index:
                diff_stats[r].add(objs[r] - objs[reference_index])

    rows = tuple(
        SweepRow(spec, obj_stats[r].estimate(), None if r == reference_index else diff_stats[r].estimate())
        for r, spec in enumerate(specs)
    )
    return DeviationSweepResult(rows, reference_index, trader_index, horizon)
