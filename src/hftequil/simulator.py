"""Monte Carlo engine for the trading game.

Paths are driven by seeded SFC64 streams. Paths come in chunks of
``STREAM_PATHS`` = 128, and chunk c's signal and noise increments come from
the SFC64 generators seeded by ``SeedSequence(seed, spawn_key=(c, stream))``,
the stream-th child of the c-th child of ``SeedSequence(seed)``, each read
time-major: period n + 1 of the chunk's path j is its stream's normal
128 n + j. So a path's increments depend only on (seed, path, stream,
period); they do not change with blocking or with the slice of paths
drawn, and a shorter horizon reads a prefix of them. Each group of paths
builds one generator per chunk and stream and draws every tile of its
increments from it in turn. Dealers
always price with the equilibrium rule; traders can play the equilibrium
strategy, a scaled variant, or carry an inventory gap that they work down
at a chosen rate. The dealer's inventory predictions follow the
equilibrium recursion no matter what is actually traded, which is what
makes deviations detectable only through the order flow.

Every strategy trades a fixed linear combination of the signal move dS,
the dealer's prediction M and the trader's own inventory L, so one kernel,
``_game``, plays them all from coefficient rows: ``simulate`` and
``simulate_objective`` run it with one row for a trader, ``deviation_sweep``
with one row per strategy. Most rows ride on the trader's prediction: the
equilibrium row, ``with_z`` and ``scaled`` at the equilibrium decay rate
hold L = s M + D (1 - c)^n with a deterministic gap, so ``_discounted``
prices them in closed form from sums over M's own series, and only a row
with a decay rate of its own is recursed as a series of its own. Each
period one batched product advances the traders and sums to one dealer
residual per path, which prices every row's payoff.

The paths are pooled in blocks of ``BLOCK_PATHS``, and the kernel advances
several consecutive blocks as one array, a group, so each numpy call of a
period covers more paths: a walk advances at most ``GROUP_BLOCKS`` blocks at
once over all its processes, at every horizon. A group's increments are
drawn a tile of at most ``STREAM_PATHS`` periods at a time, laid out
time-major, (periods, paths), so a period reads one contiguous row. Every
step of the kernel is columnwise, and each group is cut back into its
blocks by column slices before anything is pooled, so a path's values and
every estimate are the same, bit for bit, whatever the grouping. Only
``simulate`` keeps full (paths, horizon) series, in a ``PathBatch`` whose
fields a caller reduces as it needs; ``dealer_profit_check`` and
``reduced_form_gap`` are the two batch reductions kept here. The other
entry points pool per-block results with one streaming estimator, so their
memory stops growing with the number of paths at ``GROUP_BLOCKS`` blocks,
4096 paths, whatever the number of workers. ``simulate_objective`` and
``deviation_sweep`` pool through one walk, ``_pooled``: each row's
objective, each row's paired difference against the reference row, row
0's mark-to-market when asked, and the dealer records of the pass verify
runs, a sweep whose row 0 also feeds ``_GameStats``, the per-path reduction
that ``dealer_profit_check`` runs on a batch once it has added its misprice
to the price adjustment. The recursions are plain numpy loops over periods;
the package depends on numpy alone.

Blocks are independent, so ``simulate_objective``, ``deviation_sweep``
(verify's pass included) and ``simulate_second_moment`` hand contiguous
ranges of blocks to forked worker processes, one per usable CPU (``_walk``).
Each worker sends back a few moments per block, and the caller pools them
in block order. So estimates do not depend on the number of workers, bit
for bit, and a path's values do not depend on blocking; only a change of
``BLOCK_PATHS`` reorders the pooled sums. Each of w processes of a walk,
the caller included, advances groups of ``GROUP_BLOCKS`` // w blocks and
needs one group's buffers, a tile of increments of at most 2 MB per block
plus a scratch of 128 kB, its records, under 1 kB per block, and in
verify's pass ``_GameStats``' four per-path sums, 32 bytes per path;
``_discounted``'s per-period coefficients are built on the same tiles. A
worker's other pages are shared with the caller until written.
``simulate`` stays serial and advances groups of ``GROUP_BLOCKS`` blocks.

Per period, in order: trades are formed from the previous state and the
fresh signal, the dealer prices the aggregate flow, inventories update, and
the holding penalty applies to the post-trade inventory. Discount factors
start at (1 - rho dt) in the first period.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .model import ValidatedParams, _check_trader_index, _is_int
from .solver import Equilibrium, SolverError

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
    "simulate_objective",
    "dealer_profit_check",
    "reduced_form_gap",
    "inventory_second_moment",
    "simulate_second_moment",
    "deviation_sweep",
]

_MAX_PATH_INDEX = 2**63
_MAX_SEED = 2**64
DEFAULT_TAIL_TOL = 1e-6
HORIZON_CAP = 10_000_000
# Doubles that ``simulate`` may keep in one PathBatch, 2 GB.
MAX_FLOATS = 250_000_000
# Paths per block: the unit whose moments, dealer sums and checkpoint records
# are pooled, in block order, so a change of it reorders every pooled sum.
BLOCK_PATHS = 1024
# Blocks that one walk advances at once over all its processes. Each of w
# processes advances GROUP_BLOCKS // w consecutive blocks of its range, at
# least one, as one array, a group, at every horizon. A wider array spreads each numpy call
# of a period over more paths: on a 2-core x86-64 host (numpy 2.4.6), a
# serial 14-row sweep (k = 2, horizon 450, 8192 paths) took 155 ns per
# path-step at 1024 paths wide and 132, 133 and 130 at 2048, 4096 and 8192
# (medians of 4 runs), so two blocks take most of the gain. The cap over all
# processes, not per process, fixes where a call's memory stops growing: at
# GROUP_BLOCKS blocks of paths, verify's default 4096, whatever the CPU
# count, as with one block per worker on a 4-CPU host.
GROUP_BLOCKS = 4
# Paths that share one SFC64 stream per stream of increments, a chunk: the
# stream is read time-major, one row of STREAM_PATHS normals per period, so
# its numbers are drawn by a few numpy calls per chunk, not one per path. It
# is also the most periods of a tile, the increments held at once.
STREAM_PATHS = 128
# CPython 3.12 and later warn when a process with several OS threads forks.
_FORK_WARNS = sys.version_info >= (3, 12)


class InadmissibleStrategy(ValueError):
    """The strategy would blow up inventory or breaks a decay bound."""


class HorizonTooShort(SolverError):
    """The discounted tail beyond the simulated horizon is not negligible."""


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """A block's (count, mean, centred sum of squares), as ``_Stat.merge`` pools them."""
    mean = float(values.mean())
    d = values - mean
    return values.size, mean, float((d * d).sum())


@dataclass
class _Stat:
    """Streaming mean and standard error over blocks of samples. Each block's
    mean and centred sum of squares merge by the pairwise update of Chan,
    Golub & LeVeque (1983), so one block gives numpy's mean and std(ddof=1)."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def merge(self, nb: int, mean_b: float, m2_b: float) -> "_Stat":
        """Pool one block given by its ``_moments``."""
        delta = mean_b - self.mean
        n = self.n + nb
        self.mean += delta * (nb / n)
        self.m2 += m2_b + delta * delta * (self.n * nb / n)
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


def _normalize_strategies(strategies, k: int) -> list[StrategySpec]:
    """One spec per trader from a profile, None or {trader: spec}; the traders it leaves out play equilibrium."""
    if strategies is None:
        strategies = {}
    if not isinstance(strategies, dict):
        raise ValueError(f"strategies must be None or a dict of trader index to StrategySpec, got {strategies!r}")
    out = [StrategySpec() for _ in range(k)]
    for i, spec in strategies.items():
        if not _is_int(i) or not isinstance(spec, StrategySpec):
            raise ValueError(f"strategies must map int trader indices to StrategySpec, got {i!r}: {spec!r}")
        _check_trader_index(i, k)
        out[i] = spec
    return out


def _coefficients(spec: StrategySpec, eq: Equilibrium, i: int):
    """Trader i's row (a_dS, a_M, a_L, z0) and ride (s, c), or None for no ride.

    The trader trades a_dS dS + a_M M + a_L L from L_0 = M_0 + z0. A row
    with a ride holds L_n = s M_n + D (1 - c)^n with D = z0 + (1 - s) M_0;
    a row with a decay rate of its own has no ride. Raises
    InadmissibleStrategy for a spec under which inventory diverges.
    """
    beta, phi = eq.betas[i], eq.phis[i]
    if spec.kind == "equilibrium":
        return (beta, -phi, 0.0, 0.0), (1.0, 0.0)
    if spec.kind == "scaled":
        decay = spec.phi_scale * phi
        if not 0.0 < decay < 2.0:
            raise InadmissibleStrategy(f"trader {i}: effective decay {decay!r} outside (0, 2), inventory diverges")
        if not math.isfinite(spec.beta_scale):
            raise InadmissibleStrategy(f"trader {i}: beta_scale must be finite")
        ride = (spec.beta_scale, phi) if spec.phi_scale == 1.0 else None
        return (spec.beta_scale * beta, 0.0, -decay, 0.0), ride
    if spec.kind == "with_z":
        if not 0.0 <= spec.zeta < 2.0:
            raise InadmissibleStrategy(f"trader {i}: workdown rate {spec.zeta!r} outside [0, 2), gap diverges")
        if not math.isfinite(spec.z0):
            raise InadmissibleStrategy(f"trader {i}: z0 must be finite")
        # equilibrium trade plus closing a fraction zeta of the current gap L - M
        return (beta, spec.zeta - phi, -spec.zeta, spec.z0), (1.0, spec.zeta)
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


def _checked_game(eq, strategies, params, trader_index, horizon, seed, n_paths):
    """Checks shared by ``simulate`` and ``simulate_objective``: (``_coefficients`` pairs, horizon)."""
    if horizon is None:
        horizon = default_horizon(params)
    _check_args(params, trader_index, (horizon, seed, n_paths))
    specs = _normalize_strategies(strategies, params.k)
    return [_coefficients(spec, eq, i) for i, spec in enumerate(specs)], horizon


def _check_args(params: ValidatedParams, trader_index=None, run=None) -> None:
    """The argument checks every entry point shares; None skips one.

    The game needs dt > 0; ``run`` is (horizon, seed, n_paths), and a
    horizon above ``HORIZON_CAP`` is refused before anything is allocated.
    """
    if params.dt == 0.0:
        raise ValueError("simulation requires dt > 0")
    if trader_index is not None:
        _check_trader_index(trader_index, params.k)
    if run is None:
        return
    horizon, seed, n_paths = run
    if not _is_int(horizon) or horizon < 1:
        raise ValueError(f"horizon must be an integer of at least 1, got {horizon!r}")
    if horizon > HORIZON_CAP:
        raise ValueError(f"horizon {horizon} exceeds the cap of {HORIZON_CAP} periods; reduce the horizon")
    if not _is_int(seed) or not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not _is_int(n_paths) or not 2 <= n_paths <= _MAX_PATH_INDEX:
        raise ValueError(f"n_paths must be an integer in [2, 2^63], got {n_paths!r}")


def _chunk_stream(seed: int, chunk: int, stream: int):
    """``standard_normal`` of a new SFC64 generator seeded by
    ``SeedSequence(seed, spawn_key=(chunk, stream))``. Drawn piece after
    piece, it goes on where the last piece stopped, so a stream drawn in
    pieces equals the stream drawn in one call.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(chunk, stream))
    return np.random.Generator(np.random.SFC64(seq)).standard_normal


def _cuts(width: int) -> list[slice]:
    """The column slices of the blocks of ``BLOCK_PATHS`` paths in a group of ``width``."""
    return [slice(lo, min(lo + BLOCK_PATHS, width)) for lo in range(0, width, BLOCK_PATHS)]


def _normal_blocks(seed: int, first_path: int, n_paths: int, horizon: int, scales, group: int):
    """Yield (start, b, tiles) for each group of b paths, at most ``group``.

    Path p is column p mod ``STREAM_PATHS`` of chunk c = p // STREAM_PATHS,
    whose stream s is ``_chunk_stream(seed, c, s)`` read time-major: its
    normal n STREAM_PATHS + j is period n + 1 of the chunk's path j. So a
    path's increments depend only on (seed, path, stream, period), and a
    shorter horizon reads a prefix. ``tiles`` yields the group's increments
    a tile of at most ``STREAM_PATHS`` periods at a time, one (periods, b)
    time-major array per stream, times scales[s]. When the group starts, it
    builds one ``_chunk_stream`` for each chunk that its paths touch and
    each stream. For each tile, each of them draws its next periods into a
    reused (periods, STREAM_PATHS) scratch, and the columns for the group's
    paths are copied into a reused buffer. So memory does not grow with the
    horizon, and the yielded arrays are overwritten by the next tile.
    ``first_path`` offsets the paths of a worker's range.
    """
    span = min(STREAM_PATHS, horizon)
    scratch = np.empty((span, STREAM_PATHS))
    bufs = [np.empty(span * min(group, n_paths)) for _ in scales]

    def tiles(lo, b):
        chunks = range(lo // STREAM_PATHS, (lo + b - 1) // STREAM_PATHS + 1)
        draws = [[_chunk_stream(seed, chunk, stream) for chunk in chunks] for stream in range(len(scales))]
        for n in range(0, horizon, span):
            rows = scratch[: horizon - n]
            arrays = []
            for scale, buf, normals in zip(scales, bufs, draws):
                tm = buf[: len(rows) * b].reshape(len(rows), b)
                for chunk, normal in zip(chunks, normals):
                    # the chunk's columns a .. z - 1 are the group's off + a .. off + z - 1
                    off = chunk * STREAM_PATHS - lo
                    a, z = max(-off, 0), min(b - off, STREAM_PATHS)
                    normal(out=rows)
                    np.multiply(rows[:, a:z], scale, out=tm[:, off + a : off + z])
                arrays.append(tm)
            yield arrays

    for start in range(0, n_paths, group):
        b = min(group, n_paths - start)
        yield start, b, tiles(first_path + start, b)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _os_threads() -> int | None:
    """This process's OS threads, BLAS pools included; None where /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _worker_count(n_blocks: int) -> int:
    """Processes that walk n_blocks blocks of paths; 1 is the serial walk.

    One per usable CPU, at most one per block; results do not depend on
    it. The walk stays serial without ``os.fork``, and where forking would
    warn: CPython 3.12 and later warn when a process with several OS
    threads forks.
    """
    if not hasattr(os, "fork"):
        return 1
    workers = min(_usable_cpus(), n_blocks)
    if workers > 1 and _FORK_WARNS and _os_threads() != 1:
        return 1
    return max(workers, 1)


def _walk(blocks, n_paths: int):
    """Yield the records of ``blocks(first, n, group_blocks)`` for paths
    0 .. n_paths - 1, one per block of ``BLOCK_PATHS``, in block order.

    ``blocks`` runs the kernel over paths first .. first + n - 1, a range
    that starts on a block boundary, in groups of at most ``group_blocks``
    blocks, the process's share of ``GROUP_BLOCKS``, and yields one small
    picklable record per block. The blocks are cut into one contiguous range
    per worker: each forked child walks one range while this process walks
    the first, so one worker forks nothing and walks every path itself. A
    child pickles its records through a pipe once its range is done, and
    they are yielded after this process's own. Blocks are the same at any
    worker count and their records arrive in the same order, so whatever
    the caller pools from them is the same, bit for bit. A child ends only
    through ``os._exit``; an exception in it is raised again here, and every
    child is killed and reaped before this returns or raises.
    """
    n_blocks = -(-n_paths // BLOCK_PATHS)
    workers = _worker_count(n_blocks)
    group = max(1, GROUP_BLOCKS // workers)
    cuts = [min(n_paths, n_blocks * w // workers * BLOCK_PATHS) for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork(blocks, lo, hi - lo, group, [reader for _, reader in children]))
        yield from blocks(0, cuts[1], group)
        for _, reader in children:
            try:
                ok, payload = pickle.load(reader)
            except Exception as exc:
                raise RuntimeError("a simulation worker exited without its results") from exc
            if not ok:
                raise payload
            yield from payload
    finally:
        for pid, reader in children:
            reader.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid, _ in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _fork(blocks, first: int, n: int, group: int, inherited):
    """Fork a child that sends ``(True, records)`` or ``(False, exception)``; (pid, reader)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    try:
        os.close(read_fd)
        for reader in inherited:
            reader.close()
        try:
            reply = pickle.dumps((True, list(blocks(first, n, group))), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            except Exception:
                reply = pickle.dumps((False, RuntimeError(f"simulation worker raised {exc!r}")))
        with os.fdopen(write_fd, "wb") as out:
            out.write(reply)
    finally:
        os._exit(0)


def default_horizon(params: ValidatedParams, cap: int = HORIZON_CAP) -> int:
    """Periods needed so the slowest trader's discount tail drops below DEFAULT_TAIL_TOL."""
    _check_args(params)
    if not _is_int(cap) or cap < 1:
        raise ValueError(f"cap must be an integer of at least 1, got {cap!r}")
    return _tail_horizon(min(t.rho for t in params.traders), params.dt, cap)


def _tail_horizon(rho: float, dt: float, cap: int) -> int:
    """Periods needed so the discount tail (1 - rho dt)^n drops below DEFAULT_TAIL_TOL.

    The logarithms can round the count one short, so it is stepped up until
    the tail that ``_check_tail`` computes passes. A discount factor that
    rounds to 1 never reaches the tail and counts as beyond any cap, and a
    count beyond ``cap`` raises HorizonTooShort.
    """
    per = 1.0 - rho * dt
    n = max(math.ceil(math.log(DEFAULT_TAIL_TOL) / math.log(per)), 1) if per < 1.0 else math.inf
    while n <= cap and per**n > DEFAULT_TAIL_TOL:
        n += 1
    if n > cap:
        raise HorizonTooShort(
            f"reaching tail {DEFAULT_TAIL_TOL!r} needs {n} periods, beyond the cap {cap}; "
            "pass an explicit horizon or raise the cap"
        )
    return n


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
    def Z(self) -> np.ndarray:
        """Inventory gap L - M; a new array on every access."""
        return self.L - self.M


def _game(eq, params, coefs, i, rows, n_paths, horizon, seed, first_path, group_blocks):
    """The game recursion on groups of paths; yields (start, b, periods).

    Trader i plays each row of ``rows`` in a game of its own against the
    other traders, who play their rows of the profile ``coefs``; the others'
    flows and the dealer's predictions do not depend on trader i's play, so
    all games share them. Per period, one product batched over the traders
    maps each one's (dS, M_j, L_j) to (dM_j, dL_j, -lam dL_j - mu_j M_j).
    Trader i's L slot carries dK instead and its third output is dS - lam
    dK - mu_i M_i, so the third outputs sum to the dealer residual of a zero
    own trade, e = dS - lam (dK + sum_{j != i} dL_j) - mu . M. One product
    of the rows' (a_dS, a_M) and (beta_i, -phi_i) with (dS, M_i) forms every
    row's trade but a_L L and trader i's prediction move, so an equilibrium
    row trades exactly that move. A path-step costs O(R + k). ``periods``
    yields each period's increments dS and dK (b,), read from the tiles of
    ``_normal_blocks``; pre-trade M and dM (k, b); the rows' L, dL and
    post-trade L + dL (R, b); each trader's L and dL (k, b), which for
    trader i hold dK and zero; and e (b,), all overwritten by the next
    period. Every operation is columnwise, so a path's values do not depend
    on the width b of its group of ``group_blocks`` blocks.
    """
    k, R = params.k, len(rows)
    a_l, z0 = np.array([row[2:] for row in rows]).T[:, :, None]
    z0_all = np.array([0.0 if j == i else coefs[j][3] for j in range(k)])
    moves = np.zeros((k, 3, 3))
    for j, (beta, phi, mu) in enumerate(zip(eq.betas, eq.phis, eq.mus)):
        own = np.zeros(3) if j == i else np.array(coefs[j][:3])
        moves[j] = (beta, -phi, 0.0), own, -eq.lam * own - (0.0, mu, 0.0)
    # trader i's L slot carries dK, so the third rows sum to the residual e
    moves[i, 2] = (1.0, -eq.mus[i], -eq.lam)
    trade = np.array([row[:2] for row in rows] + [moves[i, 0, :2]])

    def periods(b, tiles):
        # A one-column product would take BLAS's matrix-vector route, which
        # rounds differently, so the buffers keep at least two columns.
        w = max(b, 2)
        # (dS, M, L) and (dM, dL, share of e) as (3, k, w): trader j's inputs and
        # outputs are the (3, w) matrices [:, j], and each quantity is one
        # contiguous (k, w) block
        state = np.zeros((3, k, w))
        state[1, :, :b] = np.array(params.initial_inventories)[:, None]
        state[2, :, :b] = state[1, :, :b] + z0_all[:, None]
        step = np.empty_like(state)
        out = np.empty((R + 1, w))
        M, dM, Lj, dLj = state[1, :, :b], step[0, :, :b], state[2, :, :b], step[1, :, :b]
        dL, shares = out[:R, :b], step[2, :, :b]
        e = shares[0] if k == 1 else np.empty(b)
        ds_in, dk_in, inputs, moved = state[0, :, :b], state[2, i, :b], state[:2, i], step[0, i]
        L = M[i] + z0
        L1, tmp = np.empty_like(L), np.empty_like(L)
        A_l = np.repeat(a_l, b, axis=1)
        for tile in tiles:
            for ds, dk in zip(*tile):
                ds_in[...] = ds
                dk_in[...] = dk
                np.matmul(moves, state.transpose(1, 0, 2), out=step.transpose(1, 0, 2))
                np.matmul(trade, inputs, out=out)
                # trader i's prediction move from the rows' product: bit for bit
                # an equilibrium row's trade
                moved[...] = out[R]
                dL += np.multiply(A_l, L, out=tmp)
                np.add(L, dL, out=L1)
                if k > 1:
                    np.add.reduce(shares, axis=0, out=e)
                yield ds, dk, M, dM, L, dL, L1, Lj, dLj, e
                state[1:] += step[:2]
                L, L1 = L1, L

    scales = (params.sigma_S * math.sqrt(params.dt), params.sigma_K * math.sqrt(params.dt))
    for start, b, tiles in _normal_blocks(seed, first_path, n_paths, horizon, scales, group_blocks * BLOCK_PATHS):
        yield start, b, periods(b, tiles)


def _discounted(eq, params, coefs, i, rows, n_paths, horizon, seed, first_path, group_blocks, with_mtm, stats):
    """Per block of paths first_path .. first_path + n_paths - 1: trader i's
    discounted objective in each row's game, (R, b); if asked for, row 0's
    discounted mark-to-market, (b,), else None; and the block's ``_GameStats``
    record, else None. ``_game`` advances groups of up to ``group_blocks``
    blocks; each group is cut back into its blocks by column slices.

    ``rows`` are ``_coefficients`` pairs. Row r's price is dS - e + lam dL
    with the residual e of ``_game``, so it pays dL (e - (lam + tax) dL) -
    half_g_dt L1^2. Its inventory is L = s X + D_n on a series X: trader i's
    prediction M_i for a row with a ride (s, c), with D_n = D (1 - c)^n, and
    a series of its own (s = 1, D = 0) for a row with its own decay rate, so
    ``_game`` recurses M_i and one series per such row. With e' = disc e,
    imp = -(lam + tax) disc and hold = half_g_dt disc, the row's objective
    is s^2 Q + s (1 - s) U + sum_n w_n . (e', dX, X1) + C, where Q = sum dX
    (e' + imp dX) - hold X1^2 is the series' own objective and U = sum dX e'
    on M_i. The weights w_n = (dD, 2 s imp dD, -2 s hold D_{n+1}) and C =
    sum imp dD^2 - hold D_{n+1}^2 vanish unless D != 0, and one product adds
    the gap terms of all rows with a gap each period. Every coefficient is
    built, and C summed, a tile at a time, so memory does not grow with the
    horizon. A ``_GameStats`` in ``stats`` is fed row 0's flow and prices
    every period, which implies ``with_mtm``, and closes each group by the
    blocks' column slices; the records that ``end_blocks`` returns are the
    blocks' third items.
    """
    trader = params.traders[i]
    per, half_g_dt = 1.0 - trader.rho * params.dt, 0.5 * trader.gamma * params.dt
    series, plan = [_coefficients(StrategySpec(), eq, i)[0]], []
    for row, ride in rows:
        if ride is None:
            plan.append((len(series), 1.0, 0.0, 0.0))
            series.append(row)
        else:
            s, c = ride
            plan.append((0, s, row[3] + (1.0 - s) * params.initial_inventories[i], c))
    idx, s, D, c = (np.array(col) for col in zip(*plan))
    gap = np.flatnonzero(D)
    sg = s[gap, None]
    # row 0's inventory s X + D_n and its trade feed the mark-to-market and
    # _GameStats; shifted0 tells whether they differ from its series'
    j0, s0, shifted0 = idx[0], s[0], D[0] != 0.0 or s[0] != 1.0
    with_mtm = with_mtm or stats is not None
    game = _game(eq, params, coefs, i, series, n_paths, horizon, seed, first_path, group_blocks)
    for _, b, periods in game:
        Q = np.zeros((len(series), b))
        tmp = np.empty_like(Q)
        U, u = np.zeros(b), np.empty(b)
        # (e', dX, X1) on M_i; as in _game, products keep two columns
        V, gain = np.zeros((3, max(b, 2))), np.empty((gap.size, max(b, 2)))
        ed, G = V[0, :b], np.zeros((gap.size, b))
        mtm = np.zeros(b) if with_mtm else None
        cuts = _cuts(b)
        C, disc = np.zeros(len(rows)), np.ones(1)
        for n, (ds, dk, M, _, X, dX, X1, _, dLj, e) in enumerate(periods):
            # period n is row t of its tile of increments and of coefficients
            t = n % STREAM_PATHS
            if not t:
                # disc goes on from the last tile's last factor: one running product
                factors = np.full(min(STREAM_PATHS, horizon - n) + 1, per)
                factors[0] = disc[-1]
                disc = np.cumprod(factors)[1:]
                impact, hold = -(eq.lam + params.tax) * disc, half_g_dt * disc
                Dn = D[:, None] * np.power(1.0 - c[:, None], np.arange(n, n + disc.size + 1))
                dD, D1 = -c[:, None] * Dn[:, :-1], Dn[:, 1:]
                C += (impact * dD * dD - hold * D1 * D1).sum(axis=1)
                # the weights of the rows with a gap on (e', dX, X1), W[t]: (gaps, 3)
                W = np.stack((dD[gap], 2.0 * sg * impact * dD[gap], -2.0 * sg * hold * D1[gap]), axis=-1)
                W = np.ascontiguousarray(W.transpose(1, 0, 2))
            if with_mtm:
                x0, dx0 = X[j0], dX[j0]
                if shifted0:
                    x0, dx0 = s0 * x0 + Dn[0, t], s0 * dx0 + dD[0, t]
                mtm += x0 * ds * disc[t]
                if stats is not None:
                    stats.period(ds, dk + np.add.reduce(dLj, axis=0) + dx0, ds - e + eq.lam * dx0, M)
            np.multiply(e, disc[t], out=ed)
            U += np.multiply(dX[0], ed, out=u)
            if gap.size:
                V[1, :b], V[2, :b] = dX[0], X1[0]
                np.matmul(W[t], V, out=gain)
                G += gain[:, :b]
            # Q += dX (e' + imp dX) - hold X1^2, in place
            np.multiply(dX, impact[t], out=tmp)
            tmp += ed
            tmp *= dX
            Q += tmp
            np.square(X1, out=tmp)
            tmp *= hold[t]
            Q -= tmp
        obj = (s * s)[:, None] * Q[idx] + (s * (1.0 - s))[:, None] * U
        obj[gap] += G + C[gap, None]
        records = [None] * len(cuts) if stats is None else stats.end_blocks(cuts)
        for cut, record in zip(cuts, records):
            yield obj[:, cut], None if mtm is None else mtm[cut], record


def _pooled(eq, params, coefs, i, rows, n_paths, horizon, seed, reference=None, with_mtm=False, stats=None):
    """Walk ``_discounted`` over paths 0 .. n_paths - 1 and pool, in block
    order, the estimates of each row's objective, then of each other row's
    paired difference against row ``reference``, if given, then of row 0's
    mark-to-market, if ``with_mtm`` or ``stats`` asks for it. A
    ``_GameStats`` in ``stats`` folds each block's dealer record.
    """

    def blocks(first, n, group_blocks):
        for objs, mtm, dealer in _discounted(
            eq, params, coefs, i, rows, n, horizon, seed, first, group_blocks, with_mtm, stats
        ):
            diffs = [obj - objs[reference] for r, obj in enumerate(objs) if reference not in (None, r)]
            yield [_moments(v) for v in (*objs, *diffs, mtm) if v is not None], dealer

    return _pool(blocks, n_paths, stats)


def _pool(blocks, n_paths: int, stats=None) -> list[Estimate]:
    """Walk ``blocks`` over paths 0 .. n_paths - 1; each block's record is a
    list of ``_moments`` and a dealer record. Pool the moments, in block
    order, into one estimate each, and fold the dealer records into the
    ``_GameStats`` in ``stats``, if given.
    """
    pooled = None
    for moments, dealer in _walk(blocks, n_paths):
        pooled = pooled or [_Stat() for _ in moments]
        for stat, block in zip(pooled, moments):
            stat.merge(*block)
        if stats is not None:
            stats.fold(dealer)
    return [stat.estimate() for stat in pooled]


def simulate(
    eq: Equilibrium,
    strategies,
    params: ValidatedParams,
    *,
    n_paths: int,
    horizon: int | None = None,
    seed: int = 0,
) -> PathBatch:
    """Simulate n_paths independent paths and keep every series.

    Memory scales as n_paths x horizon x traders; the guard refuses batches
    that would exceed ``MAX_FLOATS`` doubles. For large-sample estimates of
    a single trader's objective use ``simulate_objective``, which streams.
    """
    pairs, horizon = _checked_game(eq, strategies, params, None, horizon, seed, n_paths)
    coefs = [row for row, _ in pairs]
    k = params.k
    n_floats = n_paths * (4 * horizon + k * (2 * (horizon + 1) + 2 * horizon + 1))
    if n_floats > MAX_FLOATS:
        raise ValueError(
            f"batch needs {n_floats} doubles, above max_floats={MAX_FLOATS}; "
            "reduce paths or horizon, or use simulate_objective"
        )

    half_g_dt = 0.5 * np.array(params.gammas)[:, None] * params.dt
    per = np.array([1.0 - t.rho * params.dt for t in params.traders])
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

    # Trader 0 plays its own profile row; its inventories are that row's.
    for start, b, periods in _game(eq, params, coefs, 0, coefs[:1], n_paths, horizon, seed, 0, GROUP_BLOCKS):
        sl = slice(start, start + b)
        mtm = np.zeros((k, b))
        # the discount factors (1 - rho_j dt)^n, a running product from n = 1
        w = np.ones(k)
        for n, (ds, dk, M, dM, L0, dL0, L0_new, Lj, dLj, e) in enumerate(periods):
            L, dL = np.vstack((L0, Lj[1:])), np.vstack((dL0, dLj[1:]))
            L_new = np.vstack((L0_new, Lj[1:] + dLj[1:]))
            dY = dk + np.add.reduce(dLj, axis=0) + dL0[0]
            padj = ds - e + eq.lam * dL0[0]
            w *= per
            mtm += L * ds * w[:, None]
            pen = half_g_dt * L_new**2 + params.tax * dL**2
            batch.dS[sl, n] = ds
            batch.dK[sl, n] = dk
            batch.dY[sl, n] = dY
            batch.price_adj[sl, n] = padj
            batch.payoff[sl, :, n] = (dL * (ds - padj) - pen).T
            batch.penalty[sl, :, n] = pen.T
            batch.M[sl, :, n + 1] = (M + dM).T
            batch.L[sl, :, n + 1] = L_new.T
        batch.mtm_discounted[sl] = mtm.T
    return batch


def _check_tail(rho: float, dt: float, horizon: int, tail_tol) -> None:
    if tail_tol is None:
        return
    if isinstance(tail_tol, bool) or not isinstance(tail_tol, (int, float)) or not tail_tol >= 0:
        raise ValueError(f"tail_tol must be None or a real number of at least 0, got {tail_tol!r}")
    tail = (1.0 - rho * dt) ** horizon
    if tail > tail_tol:
        raise HorizonTooShort(
            f"discount tail {tail!r} after {horizon} periods exceeds tail_tol={tail_tol!r}; "
            "extend the horizon or pass tail_tol=None for a deliberately truncated estimate"
        )


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
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> ObjectiveResult:
    """Streaming estimate of one trader's discounted objective.

    Identical paths to ``simulate`` for the same seed, but only per-path
    reductions are kept, so horizon and paths can both be large.
    """
    pairs, horizon = _checked_game(eq, strategies, params, trader_index, horizon, seed, n_paths)
    _check_tail(params.traders[trader_index].rho, params.dt, horizon, tail_tol)

    i = trader_index
    coefs = [row for row, _ in pairs]
    obj, mtm = _pooled(eq, params, coefs, i, pairs[i : i + 1], n_paths, horizon, seed, with_mtm=True)
    return ObjectiveResult(obj, mtm, trader_index, horizon, n_paths)


def _effective_flow(phis, dy, M):
    """dy + sum_j phis[j] M[j], elementwise, so a path's value does not depend on its column."""
    x = dy + phis[0] * M[0]
    for phi, m in zip(phis[1:], M[1:]):
        x += phi * m
    return x


@dataclass(frozen=True)
class ProfitCheck:
    profit: Estimate
    slope: float
    slope_se: float
    lambda_scale: float


class _GameStats:
    """Streaming reductions of one game's dealer side, fed period by period.

    Per path, the dealer's mean profit per period, (padj - dS) dY, at the
    price it is fed; ``dealer_profit_check`` adds any misprice first. Over
    all (path, period) pairs, the regression of dS on the effective flow x =
    dY + sum_j phi_j M_j. Its sums are taken about the equilibrium slope,
    with r = dS - lambda x, so while the fitted slope is near lambda the
    residual sum of squares Srr - Sxr^2 / Sxx subtracts a term only about
    1/n of Srr.

    ``period`` feeds one period of a group of paths into four per-path
    running sums, x x, x r, r r and the profit, so memory does not grow
    with the horizon. ``end_blocks(cuts)`` closes the group: for each block,
    given by its column slice, it returns a record of its three regression
    sums, its path-steps and the moments of its profit. ``fold`` pools
    records in block order, so the pooled sums do not depend on where or
    beside which blocks a block was computed.
    """

    def __init__(self, eq: Equilibrium):
        self.lam = eq.lam
        self.phis = eq.phis
        self.profit = _Stat()
        self.sxx = self.sxr = self.srr = 0.0
        self.n = 0
        self.paths, self.periods = None, 0

    def period(self, ds, dy, padj, M) -> None:
        x = _effective_flow(self.phis, dy, M)
        r = ds - self.lam * x
        terms = (x * x, x * r, r * r, (padj - ds) * dy)
        if self.paths is None:
            self.paths = terms
        else:
            for total, term in zip(self.paths, terms):
                total += term
        self.periods += 1

    def end_blocks(self, cuts=(slice(None),)) -> list:
        xx, xr, rr, gain = self.paths
        records = [
            ((float(xx[c].sum()), float(xr[c].sum()), float(rr[c].sum())),
             self.periods * gain[c].size, _moments(gain[c] / self.periods))
            for c in cuts
        ]
        self.paths, self.periods = None, 0
        return records

    def fold(self, record) -> None:
        (xx, xr, rr), n, profit = record
        self.sxx += xx
        self.sxr += xr
        self.srr += rr
        self.n += n
        self.profit.merge(*profit)

    def check(self, lambda_scale: float = 1.0) -> ProfitCheck:
        if not self.sxx:  # every flow rounded to 0 under a huge inventory: no slope to fit
            return ProfitCheck(self.profit.estimate(), math.nan, 0.0, lambda_scale)
        gap = self.sxr / self.sxx
        rss = self.srr - self.sxr * gap
        slope_se = math.sqrt(rss / (self.n - 1) / self.sxx)
        return ProfitCheck(self.profit.estimate(), self.lam + gap, slope_se, lambda_scale)


def dealer_profit_check(batch: PathBatch, lambda_scale: float = 1.0) -> ProfitCheck:
    """Expected dealer profit per period and the regression behind the price impact.

    At lambda_scale = 1 the dealer earns zero on average and the projection
    of the signal move on the effective order flow recovers lambda. Other
    scales misprice the flow and the profit mean moves away from zero,
    which gives the negative control: the price adjustment gains
    (lambda_scale - 1) lambda dY before ``_GameStats`` reduces it. Profit is
    averaged within each path first, since the inventory terms are serially
    dependent; the regression pools all (path, period) pairs because the
    flow is independent across periods.
    """
    stats = _GameStats(batch.eq)
    misprice = (lambda_scale - 1.0) * batch.eq.lam
    for n in range(batch.horizon):
        dy = batch.dY[:, n]
        stats.period(batch.dS[:, n], dy, batch.price_adj[:, n] + misprice * dy, batch.M[:, :, n].T)
    for record in stats.end_blocks():
        stats.fold(record)
    return stats.check(lambda_scale)


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
    _check_args(params, trader_index)
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    beta, phi = eq.betas[trader_index], eq.phis[trader_index]
    drive = beta**2 * params.sigma_S**2 * params.dt
    # 1 - a2 = phi (2 - phi) without cancellation; for 0 < phi < 1, a2^n =
    # exp(2n log1p(-phi)) keeps the digits that 1 - phi would round away
    if 0.0 < phi < 1.0:
        log_a2n = 2.0 * n * math.log1p(-phi)
        a2n, geom = math.exp(log_a2n), -math.expm1(log_a2n) / (phi * (2.0 - phi))
    else:
        a2 = (1.0 - phi) * (1.0 - phi)
        try:
            a2n = a2**n
        except OverflowError:
            a2n = math.inf
        if a2n == math.inf:
            # (1 - phi)^(2n) leaves the float range: the moment is +inf
            # unless nothing starts or drives it
            return math.inf if M0 or drive else 0.0
        geom = float(n) if a2 == 1.0 else (1.0 - a2n) / (phi * (2.0 - phi))
    # a2n = 0 forgets M0 even where M0 * M0 overflows to inf
    return (a2n * (M0 * M0) if a2n else 0.0) + drive * geom


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
    with the same keying and update as the full game, so
    checkpoints line up with ``simulate`` output. The moments are those of
    (M/unit)^2, unit the power of two at or below max(|M_0|, beta sigma_S
    sqrt(dt)), scaled by unit^2 once pooled: the sums of M^4 would leave
    the float range at either end of it, and scaling by a power of two
    moves no bit where they stay inside.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or not all(_is_int(n) and n >= 1 for n in checkpoints):
        raise ValueError(f"checkpoints must be positive integer periods, got {checkpoints!r}")
    checkpoints = sorted(set(checkpoints))
    horizon = checkpoints[-1]
    _check_args(params, trader_index, (horizon, seed, n_paths))
    beta, phi = eq.betas[trader_index], eq.phis[trader_index]
    m0 = params.traders[trader_index].initial_inventory
    scale = params.sigma_S * math.sqrt(params.dt)
    unit = math.ldexp(0.5, math.frexp(max(abs(m0), beta * scale))[1])
    marks = set(checkpoints)

    def blocks(first, count, group_blocks):
        for _, b, tiles in _normal_blocks(seed, first, count, horizon, (scale,), group_blocks * BLOCK_PATHS):
            m, cuts = np.full(b, m0), _cuts(b)
            records = [[] for _ in cuts]
            periods = (ds for (dS,) in tiles for ds in dS)
            for n, ds in enumerate(periods, 1):
                m = m + (beta * ds - phi * m)
                if n in marks:
                    m2 = m / unit
                    m2 *= m2
                    for c, record in zip(cuts, records):
                        record.append(_moments(m2[c]))
            for record in records:
                yield record, None

    return {n: Estimate(est.mean * unit * unit, est.std_error * unit * unit, est.n_samples)
            for n, est in zip(checkpoints, _pool(blocks, n_paths))}


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

    def reference_dominates(self, slack: float = 4.0) -> bool:
        """No row beats the reference by more than ``slack`` paired standard
        errors in ``_z``, and no paired difference is NaN."""
        diffs = [row.difference for row in self.rows if row.difference is not None]
        return all(_z(d.mean, d.std_error) <= slack for d in diffs)


def _z(gap: float, std_error: float) -> float:
    """``gap`` in standard errors, signed. A zero standard error, one value on
    every path, gives 0 on a zero gap and +-inf otherwise; a NaN gives inf."""
    z = gap / std_error if std_error else (0.0 if gap == 0.0 else math.copysign(math.inf, gap))
    return z if z == z and gap == gap else math.inf


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
    computes them once per block of paths and every row reuses them.

    The horizon is explicit and each objective stops there, so the
    inventory a row leaves at the horizon, and what it would still cost,
    is not priced. Every row is cut at the same period but leaves a
    different state, so a truncated sweep keeps the ranking only once the
    horizon is long enough that the rows' unpriced tails differ by less
    than their objective gaps. A row that trades harder gains now and pays
    for its inventory later: at k = 1, dt = 0.1, gamma = 1, rho = 0.05
    (20,000 paths, seed 0) beta x 1.15 beats equilibrium by 22.8 standard
    errors over one period and by 12.0 over two, and loses by 9.1 over four.
    """
    return _sweep(eq, params, trader_index, specs, n_paths=n_paths, horizon=horizon, seed=seed)[0]


def _sweep(eq, params, trader_index, specs, *, n_paths, horizon, seed, stats=None):
    """``deviation_sweep``'s result and row 0's mark-to-market, None without
    ``stats``; a ``_GameStats`` in ``stats`` also reduces row 0's game."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one strategy")
    for spec in specs:
        if not isinstance(spec, StrategySpec):
            raise ValueError(f"every strategy must be a StrategySpec, got {spec!r}")
    _check_args(params, trader_index, (horizon, seed, n_paths))
    i = trader_index
    rows = [_coefficients(spec, eq, i) for spec in specs]
    reference_index = next((r for r, spec in enumerate(specs) if spec.kind == "equilibrium"), None)
    if reference_index is None:
        raise ValueError("include an equilibrium row to serve as the reference")

    others = [_coefficients(StrategySpec(), eq, j)[0] for j in range(params.k)]
    pooled = _pooled(eq, params, others, i, rows, n_paths, horizon, seed, reference_index, stats=stats)
    R = len(rows)
    diffs = pooled[R : 2 * R - 1]
    diffs.insert(reference_index, None)
    rows = tuple(SweepRow(spec, obj, diff) for spec, obj, diff in zip(specs, pooled, diffs))
    return DeviationSweepResult(rows, reference_index, trader_index, horizon), None if stats is None else pooled[-1]
