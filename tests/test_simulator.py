"""Path simulation tests.

The central oracle here is a pure-Python reimplementation of the market
recursion, fed by the same counter-based random streams, checked
element by element against the vectorized engine. Everything else builds
on reproducibility: blocking, grouping and the worker count must not
change a single bit of any path.
"""
import decimal
import math
import os
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from hftequil import (
    DeviationSweepResult,
    Equilibrium,
    Estimate,
    HorizonTooShort,
    InadmissibleStrategy,
    SolverError,
    StrategySpec,
    SweepRow,
    dealer_profit_check,
    default_horizon,
    deviation_sweep,
    inventory_second_moment,
    reduced_form_gap,
    simulate,
    simulate_objective,
    simulate_second_moment,
    solve_equilibrium,
    solve_taxed,
)
from hftequil import run_verification, simulator
from hftequil.simulator import BLOCK_PATHS, DEFAULT_TAIL_TOL, STREAM_PATHS, _chunk_stream, _normal_blocks
from helpers import make_params, mispriced_profit


def chunk_stream(seed, chunk, stream, n):
    """The first n normals of a chunk's stream, from a fresh generator."""
    seq = np.random.SeedSequence(seed, spawn_key=(chunk, stream))
    return np.random.Generator(np.random.SFC64(seq)).standard_normal(n)


def normals(seed, path, stream, n):
    """Periods 1 .. n of a path's stream: its column of its chunk's stream read time-major."""
    chunk, column = divmod(path, STREAM_PATHS)
    return chunk_stream(seed, chunk, stream, n * STREAM_PATHS).reshape(n, STREAM_PATHS)[:, column]


def sample_estimate(values):
    """numpy's mean and standard error of per-path samples."""
    return Estimate(float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size)), values.size)


def discounted_payoffs(batch, i):
    """Trader i's discounted payoff sum on each path of a ``simulate`` batch."""
    rho = batch.params.traders[i].rho
    return batch.payoff[:, i, :] @ np.cumprod(np.full(batch.horizon, 1.0 - rho * batch.params.dt))


def effective_flow(batch):
    """X_n = dY_n + sum_j phi_j M^j_{n-1}; the dealer prices exactly lambda X_n."""
    return batch.dY + np.tensordot(batch.eq.phis, batch.M[:, :, :-1], axes=(0, 1))


class TestRandomStreams:
    def test_keying_is_reproducible_per_path(self):
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        batch = simulate(eq, None, p, n_paths=7, horizon=16, seed=7)
        scale = p.sigma_S * math.sqrt(p.dt)
        for j in range(7):
            want_s = normals(7, j, 0, 16) * scale
            want_k = normals(7, j, 1, 16) * (p.sigma_K * math.sqrt(p.dt))
            assert np.array_equal(batch.dS[j], want_s)
            assert np.array_equal(batch.dK[j], want_k)

    def test_chunking_never_changes_paths(self, monkeypatch):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = {1: StrategySpec.with_z(0.4, 0.8)}
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 3)
        a = simulate(eq, specs, p, n_paths=13, horizon=21, seed=5)
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 64)
        b = simulate(eq, specs, p, n_paths=13, horizon=21, seed=5)
        for name in ("dS", "dK", "dY", "price_adj", "M", "L", "Z", "payoff", "penalty", "mtm_discounted"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_seed_changes_paths(self):
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        a = simulate(eq, None, p, n_paths=3, horizon=8, seed=0)
        b = simulate(eq, None, p, n_paths=3, horizon=8, seed=1)
        assert not np.array_equal(a.dS, b.dS)

    @pytest.mark.parametrize("seed", [True, -1, 2**64])
    def test_bad_seed_rejected(self, seed):
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError):
            simulate(eq, None, p, n_paths=2, horizon=4, seed=seed)

    def test_single_path_rejected(self):
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError):
            simulate(eq, None, p, n_paths=1, horizon=4)

    @pytest.mark.parametrize("seed", [7, 2**64 - 1])
    def test_chunk_streams_equal_fresh_generators(self, seed):
        for chunk, stream in ((0, 0), (5, 1), (2**56 - 1, 0), (2**56 - 1, 1)):
            got = _chunk_stream(seed, chunk, stream)(300)
            assert np.array_equal(got, chunk_stream(seed, chunk, stream, 300)), (chunk, stream)

    def test_chunk_streams_draw_their_pinned_numbers(self):
        # the first three normals of four streams, the last two keyed at
        # seed >= 2^63 and the last at the largest chunk of 2^63 paths
        pinned = {
            (0, 0, 0): ["0x1.cbe1d62217e69p-2", "-0x1.dc2a060ff1849p-1", "-0x1.69f4a03e050c2p-1"],
            (123456789012345678, 99, 0): ["-0x1.269ebb32e8206p-1", "0x1.655d10c14643dp-1", "0x1.3a10fdfe860f0p-1"],
            (2**63, 5, 1): ["-0x1.cbf45d665c410p+0", "-0x1.c8634fb497de4p+0", "0x1.b016d9eb4e2bcp-3"],
            (2**64 - 1, 2**56 - 1, 1): ["0x1.0086e18f7291ep+0", "0x1.3ddff317a2a74p-1", "0x1.4ceb073101e6fp+0"],
        }
        for (seed, chunk, stream), want in pinned.items():
            assert [x.hex() for x in _chunk_stream(seed, chunk, stream)(3)] == want, (seed, chunk, stream)

    def test_chunk_streams_are_the_seed_sequence_spawn_tree(self):
        # chunk c's stream s is the s-th child of the c-th child of SeedSequence(seed)
        for seed, chunk, stream in ((0, 0, 0), (0, 2, 1), (2**64 - 1, 5, 1)):
            child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk].spawn(stream + 1)[stream]
            want = np.random.Generator(np.random.SFC64(child)).standard_normal(300)
            assert np.array_equal(_chunk_stream(seed, chunk, stream)(300), want), (seed, chunk, stream)
        # distinct keys draw distinct streams, and adjacent keys do not correlate
        seeds, keys = (0, 2**63 - 1, 2**63, 2**64 - 1), ((0, 0), (0, 1), (1, 0), (2**56 - 1, 1))
        heads = {tuple(_chunk_stream(seed, c, s)(4)) for seed in seeds for c, s in keys}
        assert len(heads) == len(seeds) * len(keys)
        n = 2**15
        pairs = (((7, 40, 0), (7, 41, 0)), ((7, 40, 0), (7, 40, 1)), ((7, 40, 0), (8, 40, 0)), ((2**63 - 1, 0, 0), (2**63, 0, 0)))
        for a, b in pairs:
            r = np.corrcoef(_chunk_stream(*a)(n), _chunk_stream(*b)(n))[0, 1]
            assert abs(r) < 4 / math.sqrt(n), (a, b, r)

    @pytest.mark.parametrize("seed", [7, 2**64 - 1])
    def test_a_stream_drawn_in_two_tiles_equals_one_call(self, seed):
        # the stream goes on where its first tile stopped, after another
        # stream was drawn
        normal, first, other, second = _chunk_stream(seed, 3, 1), np.empty(301), np.empty(50), np.empty(299)
        normal(out=first)
        _chunk_stream(seed, 3, 0)(out=other)
        normal(out=second)
        assert np.array_equal(np.concatenate((first, second)), chunk_stream(seed, 3, 1, 600))

    @pytest.mark.parametrize("first_path, seed", [(11, 4), (250, 2**64 - 1), (2**63 - 300, 5)])
    @pytest.mark.parametrize("horizon", [9, 130, 300])
    def test_time_major_blocks_are_the_scaled_streams(self, first_path, seed, horizon):
        # Groups of 100 paths cut chunks of STREAM_PATHS paths at uneven
        # columns; 130 periods span two tiles, of 128 and 2 periods, and 300
        # span three, of 128, 128 and 44.
        n_paths, seen = 270, 0
        for start, b, tiles in _normal_blocks(seed, first_path, n_paths, horizon, (0.5, 2.0), 100):
            assert b == min(100, n_paths - start)
            # each tile's arrays are overwritten by the next, so copy them
            tiles = [(ds.copy(), dk.copy()) for ds, dk in tiles]
            periods = [min(STREAM_PATHS, horizon - n) for n in range(0, horizon, STREAM_PATHS)]
            assert [ds.shape for ds, _ in tiles] == [dk.shape for _, dk in tiles] == [(n, b) for n in periods]
            ds, dk = (np.concatenate(stream) for stream in zip(*tiles))
            for j in range(b):
                path = first_path + start + j
                assert np.array_equal(ds[:, j], normals(seed, path, 0, horizon) * 0.5)
                assert np.array_equal(dk[:, j], normals(seed, path, 1, horizon) * 2.0)
            seen += b
        assert seen == n_paths

    def test_a_path_draws_the_same_increments_four_ways(self, monkeypatch):
        # Path 300, off a chunk boundary: alone at the start of a worker's
        # range, inside a larger run, at another BLOCK_PATHS, and as the
        # prefix of a longer horizon.
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        path, horizon = 300, 130
        scales = (p.sigma_S * math.sqrt(p.dt), p.sigma_K * math.sqrt(p.dt))
        ((_, _, tiles),) = _normal_blocks(3, path, 2, horizon, scales, 2)
        alone = np.concatenate([np.stack(tile)[:, :, 0] for tile in tiles], axis=1)  # (stream, period)
        larger = simulate(eq, None, p, n_paths=400, horizon=horizon, seed=3)
        longer = simulate(eq, None, p, n_paths=302, horizon=3 * horizon, seed=3)
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 7)
        blocked = simulate(eq, None, p, n_paths=320, horizon=horizon, seed=3)
        for stream, name, scale in zip((0, 1), ("dS", "dK"), scales):
            want = normals(3, path, stream, horizon) * scale
            assert np.array_equal(alone[stream], want), name
            assert np.array_equal(getattr(larger, name)[path], want), name
            assert np.array_equal(getattr(blocked, name)[path], want), name
            assert np.array_equal(getattr(longer, name)[path, :horizon], want), name


class TestIntegerArguments:
    """Path counts and horizons must be ints; anything else, bools included,
    is a ValueError before any path is drawn."""

    BAD = [1.5, 4.0, True, "4"]

    def setup_method(self):
        self.p = make_params(k=2, dt=0.01)
        self.eq, _ = solve_equilibrium(self.p)

    @pytest.mark.parametrize("bad", BAD)
    def test_simulate(self, bad):
        for kw in (dict(n_paths=bad), dict(horizon=bad)):
            args = dict(n_paths=4, horizon=5, seed=1) | kw
            with pytest.raises(ValueError):
                simulate(self.eq, None, self.p, **args)

    @pytest.mark.parametrize("bad", BAD)
    def test_simulate_objective(self, bad):
        for kw in (dict(n_paths=bad), dict(horizon=bad)):
            args = dict(n_paths=4, horizon=5, seed=1, tail_tol=None) | kw
            with pytest.raises(ValueError):
                simulate_objective(self.eq, None, self.p, 0, **args)

    def test_path_indices_stay_below_2_63(self):
        with pytest.raises(ValueError, match=r"n_paths must be an integer in \[2, 2\^63\]"):
            simulate_objective(self.eq, None, self.p, 0, n_paths=2**63 + 1, horizon=5, tail_tol=None)

    @pytest.mark.parametrize("bad", BAD)
    def test_deviation_sweep(self, bad):
        specs = [StrategySpec.equilibrium()]
        for kw in (dict(n_paths=bad), dict(horizon=bad)):
            args = dict(n_paths=4, horizon=5, seed=1) | kw
            with pytest.raises(ValueError):
                deviation_sweep(self.eq, self.p, 0, specs, **args)

    @pytest.mark.parametrize("bad", BAD)
    def test_simulate_second_moment(self, bad):
        with pytest.raises(ValueError):
            simulate_second_moment(self.eq, 0, self.p, [1, 3], n_paths=bad, seed=1)
        with pytest.raises(ValueError, match="checkpoints"):
            simulate_second_moment(self.eq, 0, self.p, [1, bad], n_paths=4, seed=1)

    @pytest.mark.parametrize("bad", BAD)
    def test_inventory_second_moment(self, bad):
        with pytest.raises(ValueError, match="n must be"):
            inventory_second_moment(self.eq, 0, self.p, bad)


def _entry_points(eq, p, i):
    """Every simulator entry point that takes a trader index, called for trader i."""
    rows = [StrategySpec.equilibrium(), StrategySpec.with_z(0.5, 1.0), StrategySpec.scaled(beta_scale=0.9)]
    return {
        "simulate_objective": lambda: simulate_objective(eq, None, p, i, n_paths=4, horizon=3, tail_tol=None),
        "deviation_sweep": lambda: deviation_sweep(eq, p, i, rows, n_paths=4, horizon=3),
        "simulate_second_moment": lambda: simulate_second_moment(eq, i, p, [1, 2], n_paths=4),
        "inventory_second_moment": lambda: inventory_second_moment(eq, i, p, 3),
    }


class TestEntryPointRefusals:
    """The game needs dt > 0 and a trader index in [0, k); every entry point
    refuses anything else with a ValueError instead of answering."""

    NAMES = ("simulate_objective", "deviation_sweep", "simulate_second_moment", "inventory_second_moment")

    @pytest.mark.parametrize("name", NAMES)
    def test_dt_zero(self, name):
        p = make_params(k=2, dt=0.0)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError, match="dt > 0"):
            _entry_points(eq, p, 0)[name]()

    def test_simulate_at_dt_zero(self):
        p = make_params(k=2, dt=0.0)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError, match="dt > 0"):
            simulate(eq, None, p, n_paths=4, horizon=3)

    @pytest.mark.parametrize("index", [-1, 2, True, 1.0, "1"])
    @pytest.mark.parametrize("name", NAMES)
    def test_index_out_of_range(self, name, index):
        # True used to pass for trader 1 (in deviation_sweep, to raise a bare
        # IndexError), and 1.0 and "1" to raise a bare TypeError
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        message = "out of range" if type(index) is int else re.escape(f"trader index must be an int, got {index!r}")
        with pytest.raises(ValueError, match=message):
            _entry_points(eq, p, index)[name]()

    @pytest.mark.parametrize("index", [-1, 2])
    def test_a_profile_key_out_of_range(self, index):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError, match=f"^trader index {index} out of range for k=2$"):
            simulate(eq, {index: StrategySpec.with_z(0.5, 1.0)}, p, n_paths=2, horizon=4)

    SPEC = StrategySpec.with_z(0.5, 1.0)
    MALFORMED_PROFILES = {
        "value str": {0: "with_z"},
        "value int": {0: 3},
        "key str": {"0": SPEC},
        "key float": {0.0: SPEC},
        "key bool": {True: SPEC},
    }

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("shape", sorted(MALFORMED_PROFILES))
    @pytest.mark.parametrize("name", ["simulate", "simulate_objective"])
    def test_a_malformed_profile_is_refused(self, name, shape, k):
        """A profile maps int trader indices (not bools) to StrategySpecs;
        anything else is a ValueError, not an AttributeError or TypeError
        from deeper down, and True does not pass for trader 1."""
        p = make_params(k=k, dt=0.01)
        eq, _ = solve_equilibrium(p)
        profile = self.MALFORMED_PROFILES[shape]
        call = {
            "simulate": lambda: simulate(eq, profile, p, n_paths=2, horizon=4),
            "simulate_objective": lambda: simulate_objective(eq, profile, p, 0, n_paths=2, horizon=4, tail_tol=None),
        }[name]
        with pytest.raises(ValueError, match="strategies must map int trader indices to StrategySpec"):
            call()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("specs", [["with_z"], [StrategySpec.equilibrium(), 3], [StrategySpec.equilibrium(), None]],
                             ids=["str", "int", "None"])
    def test_a_sweep_row_that_is_not_a_spec_is_refused(self, specs, k):
        p = make_params(k=k, dt=0.01)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError, match="every strategy must be a StrategySpec"):
            deviation_sweep(eq, p, 0, specs, n_paths=2, horizon=4)

    def test_a_horizon_above_the_cap_is_refused(self):
        # Each entry point refuses before anything is allocated.
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        h = simulator.HORIZON_CAP + 1
        calls = (
            lambda: simulate(eq, None, p, n_paths=8, horizon=h),
            lambda: simulate_objective(eq, None, p, 0, n_paths=8, horizon=h, tail_tol=None),
            lambda: deviation_sweep(eq, p, 0, [StrategySpec.equilibrium()], n_paths=8, horizon=h),
            lambda: simulate_second_moment(eq, 0, p, [1, h], n_paths=8),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^horizon {h} exceeds the cap of {h - 1} periods; reduce the horizon$"):
                call()


class TestHandRolledRecursion:
    def test_every_series_matches_a_python_loop(self):
        p = make_params(k=2, dt=0.01, gammas=[1.0, 2.0], rhos=[0.05, 0.1], l0=[0.5, -0.25], tax=1e-3)
        eq, _ = solve_taxed(p)
        zeta, z0 = 0.4, 0.8
        specs = {1: StrategySpec.with_z(zeta, z0)}
        n_paths, N, seed = 3, 5, 11
        batch = simulate(eq, specs, p, n_paths=n_paths, horizon=N, seed=seed)

        dt = p.dt
        lam = eq.lam
        for pi in range(n_paths):
            ds_row = normals(seed, pi, 0, N) * (p.sigma_S * math.sqrt(dt))
            dk_row = normals(seed, pi, 1, N) * (p.sigma_K * math.sqrt(dt))
            M = [0.5, -0.25]
            L = [0.5, -0.25 + z0]
            mtm = [0.0, 0.0]
            for n in range(N):
                ds, dk = ds_row[n], dk_row[n]
                dM = [eq.betas[j] * ds - eq.phis[j] * M[j] for j in range(2)]
                dL = [
                    dM[0],
                    eq.betas[1] * ds - eq.phis[1] * M[1] - zeta * (L[1] - M[1]),
                ]
                dY = dk + dL[0] + dL[1]
                padj = lam * dY + eq.mus[0] * M[0] + eq.mus[1] * M[1]
                for j in range(2):
                    w = (1.0 - p.traders[j].rho * dt) ** (n + 1)
                    mtm[j] += L[j] * ds * w
                L = [L[j] + dL[j] for j in range(2)]
                M = [M[j] + dM[j] for j in range(2)]
                for j in range(2):
                    pen = 0.5 * p.traders[j].gamma * dt * L[j] ** 2 + p.tax * dL[j] ** 2
                    pay = dL[j] * (ds - padj) - pen
                    assert batch.penalty[pi, j, n] == pytest.approx(pen, abs=1e-13)
                    assert batch.payoff[pi, j, n] == pytest.approx(pay, abs=1e-13)
                assert batch.dY[pi, n] == pytest.approx(dY, abs=1e-13)
                assert batch.price_adj[pi, n] == pytest.approx(padj, abs=1e-13)
                for j in range(2):
                    assert batch.M[pi, j, n + 1] == pytest.approx(M[j], abs=1e-13)
                    assert batch.L[pi, j, n + 1] == pytest.approx(L[j], abs=1e-13)
                    assert batch.Z[pi, j, n + 1] == pytest.approx(L[j] - M[j], abs=1e-13)
            for j in range(2):
                assert batch.mtm_discounted[pi, j] == pytest.approx(mtm[j], abs=1e-13)

    @staticmethod
    def discounted_objective(p, eq, seed, path, N, i, trade, gaps):
        """Trader i's discounted objective and mark-to-market on one path.

        ``trade(j, ds, M, L)`` is trader j's trade; trader j starts from its
        initial inventory plus gaps[j].
        """
        k, dt, lam = p.k, p.dt, eq.lam
        ds_row = normals(seed, path, 0, N) * (p.sigma_S * math.sqrt(dt))
        dk_row = normals(seed, path, 1, N) * (p.sigma_K * math.sqrt(dt))
        M = list(p.initial_inventories)
        L = [M[j] + gaps[j] for j in range(k)]
        obj = mtm = 0.0
        for n in range(N):
            ds, dk = ds_row[n], dk_row[n]
            dL = [trade(j, ds, M[j], L[j]) for j in range(k)]
            padj = lam * (dk + sum(dL)) + sum(eq.mus[j] * M[j] for j in range(k))
            w = (1.0 - p.traders[i].rho * dt) ** (n + 1)
            mtm += L[i] * ds * w
            M = [M[j] + eq.betas[j] * ds - eq.phis[j] * M[j] for j in range(k)]
            L = [L[j] + dL[j] for j in range(k)]
            pay = dL[i] * (ds - padj) - 0.5 * p.traders[i].gamma * dt * L[i] ** 2 - p.tax * dL[i] ** 2
            obj += w * pay
        return obj, mtm

    def test_sweep_rows_match_a_python_loop(self):
        p = make_params(
            k=3, dt=0.01, gammas=[1.0, 2.0, 0.5], rhos=[0.05, 0.1, 0.2], l0=[0.5, -0.25, 0.75], tax=1e-3
        )
        eq, _ = solve_taxed(p)
        i, n_paths, N, seed = 1, 3, 6, 4
        beta, phi = eq.betas[i], eq.phis[i]
        rows = {
            "equilibrium": (StrategySpec.equilibrium(), lambda ds, M, L: beta * ds - phi * M, 0.0),
            "beta": (StrategySpec.scaled(beta_scale=1.2), lambda ds, M, L: 1.2 * beta * ds - phi * L, 0.0),
            "phi": (StrategySpec.scaled(phi_scale=0.7), lambda ds, M, L: beta * ds - 0.7 * phi * L, 0.0),
            "with_z": (
                StrategySpec.with_z(0.4, 0.8),
                lambda ds, M, L: beta * ds - phi * M - 0.4 * (L - M),
                0.8,
            ),
            "with_z_keep": (StrategySpec.with_z(0.0, 0.3), lambda ds, M, L: beta * ds - phi * M, 0.3),
            "with_z_close": (
                StrategySpec.with_z(1.0, -0.5),
                lambda ds, M, L: beta * ds - phi * M - (L - M),
                -0.5,
            ),
            "beta_phi": (
                StrategySpec.scaled(beta_scale=1.1, phi_scale=0.8),
                lambda ds, M, L: 1.1 * beta * ds - 0.8 * phi * L,
                0.0,
            ),
        }
        result = deviation_sweep(eq, p, i, [spec for spec, *_ in rows.values()], n_paths=n_paths, horizon=N, seed=seed)
        objs = {}
        for name, (_, own, z0) in rows.items():

            def trade(j, ds, M, L):
                return own(ds, M, L) if j == i else eq.betas[j] * ds - eq.phis[j] * M

            gaps = [z0 if j == i else 0.0 for j in range(p.k)]
            objs[name] = np.array(
                [self.discounted_objective(p, eq, seed, path, N, i, trade, gaps)[0] for path in range(n_paths)]
            )
        for name, row in zip(rows, result.rows):
            assert row.objective.mean == pytest.approx(objs[name].mean(), rel=1e-12), name
            if row.difference is not None:
                diff = objs[name] - objs["equilibrium"]
                assert row.difference.mean == pytest.approx(diff.mean(), rel=1e-12), name

    def test_objective_with_a_deviating_other_matches_a_python_loop(self):
        # Trader 2 deviates, so trader 1's price carries trader 2's own flow.
        p = make_params(
            k=3, dt=0.01, gammas=[1.0, 2.0, 0.5], rhos=[0.05, 0.1, 0.2], l0=[0.5, -0.25, 0.75], tax=1e-3
        )
        eq, _ = solve_taxed(p)
        zeta, z0 = 0.3, -0.6
        n_paths, N, seed = 3, 6, 9
        res = simulate_objective(
            eq, {2: StrategySpec.with_z(zeta, z0)}, p, 1, n_paths=n_paths, horizon=N, seed=seed, tail_tol=None
        )

        def trade(j, ds, M, L):
            move = eq.betas[j] * ds - eq.phis[j] * M
            return move - zeta * (L - M) if j == 2 else move

        objs, mtms = zip(
            *(self.discounted_objective(p, eq, seed, path, N, 1, trade, [0.0, 0.0, z0]) for path in range(n_paths))
        )
        assert res.objective.mean == pytest.approx(np.mean(objs), rel=1e-12)
        assert res.mark_to_market.mean == pytest.approx(np.mean(mtms), rel=1e-12)


class TestEquilibriumPath:
    def test_actual_inventory_equals_prediction(self):
        p = make_params(k=3, dt=0.01, gammas=[0.5, 1.0, 2.0], l0=[1.0, 0.0, -1.0])
        eq, _ = solve_equilibrium(p)
        batch = simulate(eq, None, p, n_paths=8, horizon=40, seed=3)
        assert np.all(batch.Z == 0.0)
        assert np.array_equal(batch.L, batch.M)
        assert np.array_equal(batch.L[:, :, 0], np.tile([1.0, 0.0, -1.0], (8, 1)))

    def test_reduced_form_identity(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        batch = simulate(eq, None, p, n_paths=16, horizon=50, seed=2)
        assert reduced_form_gap(batch) < 1e-12

    def test_reduced_form_identity_with_deviator(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = {0: StrategySpec.scaled(beta_scale=1.3, phi_scale=0.7)}
        batch = simulate(eq, specs, p, n_paths=16, horizon=50, seed=2)
        assert reduced_form_gap(batch) < 1e-12

    def test_workdown_gap_decays_geometrically(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        zeta, z0 = 0.25, 2.0
        specs = {1: StrategySpec.with_z(zeta, z0)}
        batch = simulate(eq, specs, p, n_paths=4, horizon=30, seed=0)
        for n in range(31):
            want = z0 * (1.0 - zeta) ** n
            assert np.allclose(batch.Z[:, 1, n], want, rtol=0, atol=1e-12)
        assert np.all(batch.Z[:, 0, :] == 0.0)

    def test_effective_flow_is_noise_plus_aggregate_signal(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        batch = simulate(eq, None, p, n_paths=10, horizon=25, seed=4)
        x = effective_flow(batch)
        want = batch.dK + eq.beta_sigma * batch.dS
        assert np.allclose(x, want, rtol=0, atol=1e-12)


class TestObjective:
    def test_matches_manual_discounted_sum(self):
        p = make_params(k=2, dt=0.01, rhos=[0.05, 0.2])
        eq, _ = solve_equilibrium(p)
        batch = simulate(eq, None, p, n_paths=32, horizon=64, seed=9)
        for i in range(2):
            per_path = discounted_payoffs(batch, i)
            est = simulate_objective(eq, None, p, i, n_paths=32, horizon=64, seed=9, tail_tol=None).objective
            assert est.mean == pytest.approx(float(per_path.mean()), rel=1e-14)
            assert est.std_error == pytest.approx(
                float(per_path.std(ddof=1) / math.sqrt(32)), rel=1e-14
            )
            assert est.n_samples == 32

    def test_tail_guard(self):
        p = make_params(k=1, dt=0.01, rho=0.05)
        eq, _ = solve_equilibrium(p)
        kw = dict(n_paths=4, horizon=50, seed=0)
        with pytest.raises(HorizonTooShort):
            simulate_objective(eq, None, p, 0, **kw)
        est = simulate_objective(eq, None, p, 0, **kw, tail_tol=None).objective
        assert math.isfinite(est.mean)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, "1e-6", True, [1e-6], 1e-6j])
    def test_bad_tail_tol_is_refused_before_the_walk(self, monkeypatch, bad):
        # tail 0.9975 after 5 periods: a NaN would otherwise skip the check,
        # and no horizon meets a negative tolerance
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(simulator, "_walk", walk)
        p = make_params(k=1, dt=0.01, rho=0.05)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError, match="tail_tol must be None or a real number"):
            simulate_objective(eq, None, p, 0, n_paths=4, horizon=5, tail_tol=bad)

    def test_streaming_equals_batch_reduction(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = {1: StrategySpec.scaled(beta_scale=0.9)}
        batch = simulate(eq, specs, p, n_paths=64, horizon=80, seed=13)
        for i in range(2):
            res = simulate_objective(
                eq, specs, p, i, n_paths=64, horizon=80, seed=13, tail_tol=None
            )
            want = sample_estimate(discounted_payoffs(batch, i))
            assert res.objective.mean == pytest.approx(want.mean, rel=1e-13)
            assert res.objective.std_error == pytest.approx(want.std_error, rel=1e-12)
            assert res.mark_to_market.mean == pytest.approx(
                float(batch.mtm_discounted[:, i].mean()), rel=1e-13
            )
            assert res.horizon == 80 and res.n_paths == 64 and res.trader_index == i

    def test_streaming_equals_batch_reduction_across_coefficient_tiles(self):
        # 300 periods span three tiles of STREAM_PATHS; simulate builds its own
        # discount factors, so it witnesses the tiled pricing of a gap row
        p = make_params(k=2, dt=0.01, l0=[0.5, -0.3])
        eq, _ = solve_equilibrium(p)
        specs = {0: StrategySpec.with_z(0.05, 1.0)}
        batch = simulate(eq, specs, p, n_paths=64, horizon=300, seed=13)
        res = simulate_objective(eq, specs, p, 0, n_paths=64, horizon=300, seed=13, tail_tol=None)
        want = sample_estimate(discounted_payoffs(batch, 0))
        assert res.objective.mean == pytest.approx(want.mean, rel=1e-13)
        assert res.objective.std_error == pytest.approx(want.std_error, rel=1e-12)
        assert res.mark_to_market.mean == pytest.approx(float(batch.mtm_discounted[:, 0].mean()), rel=1e-13)

    def test_mark_to_market_is_centered(self):
        p = make_params(k=1, dt=0.1)
        eq, _ = solve_equilibrium(p)
        res = simulate_objective(eq, None, p, 0, n_paths=2000, seed=21)
        assert abs(res.mark_to_market.mean) <= 4.5 * res.mark_to_market.std_error


class TestHorizon:
    def test_default_horizon_formula(self):
        p = make_params(k=2, dt=0.01, rhos=[0.5, 0.05])
        per = 1.0 - 0.05 * 0.01
        want = math.ceil(math.log(1e-6) / math.log(per))
        assert default_horizon(p) == want

    def test_cap_and_bad_inputs(self):
        p = make_params(k=1, dt=1e-6, rho=0.05)
        with pytest.raises(HorizonTooShort):
            default_horizon(p, cap=10_000)
        with pytest.raises(ValueError):
            default_horizon(make_params(dt=0.0))

    def test_tail_passes_at_the_default_horizon(self):
        # With 1 - rho dt = 10^(-6/n), log(1e-6) / log(1 - rho dt) is n up to
        # rounding, and its ceiling can leave the tail a few ulps above 1e-6
        # (at rho dt = 0.99 the tail after 3 periods is 1.0000000000000027e-06).
        for n in range(1, 121):
            for dt in (1.0, 0.1):
                rho0 = (1.0 - 10.0 ** (-6.0 / n)) / dt
                for rho in (rho0 + j * math.ulp(rho0) for j in range(-2, 3)):
                    horizon = default_horizon(make_params(dt=dt, rho=rho))
                    simulator._check_tail(rho, dt, horizon, DEFAULT_TAIL_TOL)
                    assert horizon == 1 or (1.0 - rho * dt) ** (horizon - 1) > DEFAULT_TAIL_TOL

    def test_too_short_is_a_solver_error(self):
        assert issubclass(HorizonTooShort, SolverError) and issubclass(HorizonTooShort, RuntimeError)

    def test_discount_factor_rounding_to_one_is_beyond_any_cap(self):
        with pytest.raises(HorizonTooShort):
            default_horizon(make_params(dt=0.1, rho=1e-20), cap=10**30)

    @pytest.mark.parametrize("cap", [math.nan, "10", True, 0, -5, 10.0, None])
    def test_bad_cap_is_refused(self, cap):
        # a NaN fails every comparison, so it would pass as no cap at all, and
        # a string cannot be compared with a count
        with pytest.raises(ValueError, match="cap must be an integer of at least 1"):
            default_horizon(make_params(k=1, dt=0.01, rho=0.05), cap=cap)


class TestAdmissibility:
    def setup_method(self):
        self.p = make_params(k=2, dt=0.01)
        self.eq, _ = solve_equilibrium(self.p)

    def test_scaled_decay_bounds(self):
        phi = self.eq.phis[0]
        with pytest.raises(InadmissibleStrategy):
            simulate(self.eq, {0: StrategySpec.scaled(phi_scale=2.0 / phi)}, self.p, n_paths=2, horizon=4)
        with pytest.raises(InadmissibleStrategy):
            simulate(self.eq, {0: StrategySpec.scaled(phi_scale=0.0)}, self.p, n_paths=2, horizon=4)
        with pytest.raises(InadmissibleStrategy):
            simulate(self.eq, {0: StrategySpec.scaled(beta_scale=math.inf)}, self.p, n_paths=2, horizon=4)

    @pytest.mark.parametrize("z0", [math.inf, -math.inf, math.nan])
    def test_a_gap_that_is_not_finite_is_refused(self, z0):
        with pytest.raises(InadmissibleStrategy, match="trader 1: z0 must be finite"):
            simulate(self.eq, {1: StrategySpec.with_z(0.5, z0)}, self.p, n_paths=2, horizon=4)

    def test_workdown_bounds(self):
        with pytest.raises(InadmissibleStrategy):
            simulate(self.eq, {0: StrategySpec.with_z(2.0, 1.0)}, self.p, n_paths=2, horizon=4)
        with pytest.raises(InadmissibleStrategy):
            simulate(self.eq, {0: StrategySpec.with_z(-0.1, 1.0)}, self.p, n_paths=2, horizon=4)
        simulate(self.eq, {0: StrategySpec.with_z(0.0, 1.0)}, self.p, n_paths=2, horizon=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            simulate(self.eq, {0: StrategySpec(kind="martingale")}, self.p, n_paths=2, horizon=4)

    def test_strategy_normalization(self):
        with pytest.raises(ValueError):
            simulate(self.eq, {5: StrategySpec.equilibrium()}, self.p, n_paths=2, horizon=4)
        # a profile is None or {trader: spec}; a sequence is refused at any length
        for specs in ((StrategySpec.equilibrium(),), [StrategySpec.equilibrium()] * 2):
            with pytest.raises(ValueError, match="strategies must be None or a dict"):
                simulate(self.eq, specs, self.p, n_paths=2, horizon=4)

    def test_memory_guard(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_FLOATS", 10)
        with pytest.raises(ValueError, match="max_floats"):
            simulate(self.eq, None, self.p, n_paths=2, horizon=4)

    def test_memory_guard_counts_every_stored_double(self, monkeypatch):
        p = make_params(k=3, dt=0.01)
        eq, _ = solve_equilibrium(p)
        batch = simulate(eq, None, p, n_paths=2, horizon=4)
        fields = ("dS", "dK", "dY", "price_adj", "M", "L", "payoff", "penalty", "mtm_discounted")
        stored = sum(getattr(batch, f).size for f in fields)
        monkeypatch.setattr(simulator, "MAX_FLOATS", stored)
        simulate(eq, None, p, n_paths=2, horizon=4)
        monkeypatch.setattr(simulator, "MAX_FLOATS", stored - 1)
        with pytest.raises(ValueError, match=f"batch needs {stored} doubles, above max_floats={stored - 1}"):
            simulate(eq, None, p, n_paths=2, horizon=4)


def eq_with(phi, beta=0.9):
    """A one-trader equilibrium stub with the given decay rate and loading."""
    return Equilibrium(betas=(beta,), beta_sigma=beta, lam=0.45, phis=(phi,), mus=(0.0,))


class TestMoments:
    def test_closed_form_matches_geometric_sum(self):
        beta, sigma, dt, M0 = 0.8, 1.2, 0.01, 1.5
        p = make_params(sigma_S=sigma, dt=dt)
        drive = beta**2 * sigma**2 * dt
        for phi in (0.3, 1.0, 1.7):
            a2 = (1.0 - phi) ** 2
            for n in (0, 1, 2, 7):
                want = a2**n * M0**2 + drive * sum(a2**j for j in range(n))
                got = inventory_second_moment(eq_with(phi, beta), 0, p, n, M0)
                assert got == pytest.approx(want, rel=1e-13)

    def test_unit_contraction_branch(self):
        # phi = 0 and phi = 2 both give |1 - phi| = 1: linear growth in n
        p = make_params(dt=0.01)
        for phi in (0.0, 2.0):
            got = inventory_second_moment(eq_with(phi, 1.0), 0, p, 50, M0=0.5)
            assert got == pytest.approx(0.25 + 50 * 0.01, rel=1e-13)

    @pytest.mark.parametrize("phi", [1e-4, 1e-7, 1e-9, 1e-11])
    def test_small_decay_matches_exact_arithmetic(self, phi):
        p = make_params(sigma_S=1.2, dt=0.01)
        beta, M0 = 0.8, 1.5
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            a2 = (1 - Decimal(phi)) ** 2
            drive = Decimal(beta) ** 2 * Decimal(p.sigma_S) ** 2 * Decimal(p.dt)
            for n in (10, 10**3, 10**6):
                want = a2**n * Decimal(M0) ** 2 + drive * (1 - a2**n) / (1 - a2)
                got = inventory_second_moment(eq_with(phi, beta), 0, p, n, M0)
                assert abs(Decimal(got) - want) <= Decimal(1e-14) * want, n

    def test_near_unit_contraction_is_stable(self):
        got = inventory_second_moment(eq_with(2.0 - 1e-9, 1.0), 0, make_params(dt=0.01), 10)
        assert got == pytest.approx(10 * 0.01, rel=1e-6)

    @pytest.mark.parametrize("phi", [-0.5, 2.5])
    @pytest.mark.parametrize("M0", [0.0, 0.5])
    def test_moment_beyond_the_float_range_is_inf(self, phi, M0):
        # (1 - phi)^2000 overflows; this used to raise a bare OverflowError
        p = make_params(dt=0.01)
        assert inventory_second_moment(eq_with(phi), 0, p, 1000, M0) == math.inf
        # with no loading and no start the moment stays 0, not inf * 0 = nan
        still = inventory_second_moment(eq_with(phi, 0.0), 0, p, 1000, M0)
        assert still == (math.inf if M0 else 0.0)

    def test_a_huge_initial_inventory_squares_without_overflow(self):
        # M0**2 raised a bare OverflowError above |M0| of about 1.3e154
        p = make_params(k=1, dt=0.1)
        eq, _ = solve_equilibrium(p)
        assert inventory_second_moment(eq, 0, p, 5, M0=1e200) == math.inf
        # (1 - phi)^2000 underflows to 0, which forgets M0: not 0 * inf = nan
        p = make_params(dt=0.01)
        forgotten = inventory_second_moment(eq_with(0.9), 0, p, 1000, M0=1e200)
        assert forgotten == inventory_second_moment(eq_with(0.9), 0, p, 1000, M0=0.0) > 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            inventory_second_moment(eq_with(0.5, 1.0), 0, make_params(dt=0.01), -1)

    def test_non_integer_n_rejected(self):
        # n = 2.5 used to answer as if the moment were defined between periods
        with pytest.raises(ValueError, match="nonnegative integer"):
            inventory_second_moment(eq_with(0.5, 1.0), 0, make_params(dt=0.01), 2.5)

    def test_monte_carlo_matches_closed_form(self):
        p = make_params(k=1, dt=0.1)
        eq, _ = solve_equilibrium(p)
        ests = simulate_second_moment(eq, 0, p, [1, 5, 20], n_paths=20000, seed=2)
        for n, est in ests.items():
            want = inventory_second_moment(eq, 0, p, n)
            assert abs(est.mean - want) <= 4.0 * est.std_error, n

    def test_monte_carlo_paths_line_up_with_simulate(self):
        p = make_params(k=1, dt=0.1)
        eq, _ = solve_equilibrium(p)
        batch = simulate(eq, None, p, n_paths=50, horizon=6, seed=8)
        ests = simulate_second_moment(eq, 0, p, [6], n_paths=50, seed=8)
        want = float((batch.M[:, 0, 6] ** 2).mean())
        assert ests[6].mean == pytest.approx(want, rel=1e-12)

    def test_checkpoint_validation(self):
        p = make_params(k=1, dt=0.1)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError):
            simulate_second_moment(eq, 0, p, [], n_paths=10)
        with pytest.raises(ValueError):
            simulate_second_moment(eq, 0, p, [0, 3], n_paths=10)
        # non-integer periods used to be truncated, estimated and keyed as 2 and 10
        with pytest.raises(ValueError, match="positive integer periods"):
            simulate_second_moment(eq, 0, p, [2.7, 10.9], n_paths=10)


class TestDealer:
    def test_effective_flow_does_not_depend_on_the_column(self):
        # A BLAS matrix-vector product rounds some columns differently by
        # their position; a path's effective flow must not depend on where
        # it sits in its block.
        rng = np.random.default_rng(5)
        eq = Equilibrium(
            betas=(0.7, 0.4, 0.9), beta_sigma=2.0, lam=0.45, phis=(0.013, 0.37, 0.0021), mus=(0.1, 0.2, 0.3)
        )
        ds, dy, M = rng.normal(size=64), rng.normal(size=64), rng.normal(size=(3, 64))
        for col in range(64):
            sums = []
            for width in (2, 64):
                pick = np.zeros(width, dtype=bool)
                pick[col % width] = True
                blk = [np.zeros(width), np.zeros(width), np.zeros((3, width))]
                for a, src in zip(blk, (ds, dy, M)):
                    a[..., pick] = src[..., [col]]
                stats = simulator._GameStats(eq)
                stats.period(blk[0], blk[1], blk[1], blk[2])
                stats.fold(*stats.end_blocks())
                sums.append((stats.sxx, stats.sxr, stats.srr))
            assert sums[0] == sums[1], col

    def make_batch(self, n_paths=400, horizon=300, seed=6):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        return p, eq, simulate(eq, None, p, n_paths=n_paths, horizon=horizon, seed=seed)

    def test_flow_variance(self):
        p, eq, batch = self.make_batch()
        x = effective_flow(batch).ravel()
        want = (p.sigma_K**2 + eq.beta_sigma**2 * p.sigma_S**2) * p.dt
        var = float(x.var(ddof=1))
        se = want * math.sqrt(2.0 / (x.size - 1))
        assert abs(var - want) <= 4.0 * se

    def test_zero_profit_and_slope(self):
        _, eq, batch = self.make_batch()
        check = dealer_profit_check(batch)
        assert check.lambda_scale == 1.0
        assert abs(check.profit.mean) <= 4.0 * check.profit.std_error
        assert abs(check.slope - eq.lam) <= 4.0 * check.slope_se

    @pytest.mark.parametrize("lambda_scale", [1.0, 1.1])
    def test_streaming_sums_match_direct_least_squares(self, lambda_scale):
        p, eq, batch = self.make_batch()
        check = dealer_profit_check(batch, lambda_scale)
        padj = batch.price_adj + (lambda_scale - 1.0) * eq.lam * batch.dY
        per_path = ((padj - batch.dS) * batch.dY).mean(axis=1)
        x, y = effective_flow(batch).ravel(), batch.dS.ravel()
        slope = (x @ y) / (x @ x)
        resid = y - slope * x
        slope_se = math.sqrt((resid @ resid) / (x.size - 1) / (x @ x))
        assert check.profit.mean == pytest.approx(per_path.mean(), rel=1e-10)
        assert check.profit.std_error == pytest.approx(per_path.std(ddof=1) / math.sqrt(per_path.size), rel=1e-10)
        assert check.slope == pytest.approx(slope, rel=1e-12)
        assert check.slope_se == pytest.approx(slope_se, rel=1e-10)

    def test_mispriced_profit_sums_the_moment_recursion(self):
        # the closed form against E[M M'] propagated period by period
        p = make_params(k=2, dt=0.01, gammas=[0.5, 2.0], l0=[0.3, -0.6])
        eq, _ = solve_equilibrium(p)
        phi, beta = np.array(eq.phis), np.array(eq.betas)
        var_x = (p.sigma_K**2 + eq.beta_sigma**2 * p.sigma_S**2) * p.dt
        cov, total = np.outer(p.initial_inventories, p.initial_inventories), 0.0
        for _ in range(300):
            total += var_x + phi @ cov @ phi
            cov = np.outer(1.0 - phi, 1.0 - phi) * cov + np.outer(beta, beta) * p.sigma_S**2 * p.dt
        assert mispriced_profit(p, eq, 300, 1.1) == pytest.approx(0.1 * eq.lam * total / 300, rel=1e-12)

    def test_mispriced_flow_is_detected(self):
        p, eq, batch = self.make_batch()
        check = dealer_profit_check(batch, lambda_scale=1.1)
        want = mispriced_profit(p, eq, batch.horizon, 1.1)
        assert check.profit.mean > 4.0 * check.profit.std_error
        assert abs(check.profit.mean - want) <= 4.0 * check.profit.std_error


class TestDeviationSweep:
    def test_reference_dominates_and_is_best(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = [
            StrategySpec.equilibrium(),
            StrategySpec.scaled(beta_scale=0.7),
            StrategySpec.scaled(phi_scale=1.3),
            StrategySpec.with_z(0.5, 1.0),
        ]
        result = deviation_sweep(eq, p, 0, specs, n_paths=4000, horizon=60, seed=17)
        assert isinstance(result, DeviationSweepResult)
        assert result.reference_index == 0
        assert result.reference_dominates(slack=2.0)
        assert result.rows[0].difference is None
        assert result.rows[1].difference.mean < 0.0
        assert result.trader_index == 0 and result.horizon == 60

    @pytest.mark.parametrize(
        "mean, std_error, dominates",
        [(3.9, 1.0, True), (0.0, 0.0, True), (-1.0, 0.0, True), (4.1, 1.0, False), (1e-300, 0.0, False),
         (math.inf, math.inf, False), (math.nan, 1.0, False), (-1.0, math.nan, False), (math.nan, 0.0, False)],
    )
    def test_reference_dominates_by_the_paired_z(self, mean, std_error, dominates):
        # a difference that overflowed to inf or NaN must not pass as dominated
        ref = Estimate(0.0, 1.0, 8)
        deviation = SweepRow(StrategySpec.scaled(1.1), ref, Estimate(mean, std_error, 8))
        rows = (SweepRow(StrategySpec(), ref, None), deviation)
        assert DeviationSweepResult(rows, 0, 0, 16).reference_dominates(slack=4.0) == dominates

    def test_reference_dominates_defaults_to_four_paired_standard_errors(self):
        # a row that tops the reference by 3 paired standard errors is within
        # the default gate, the 4 sigma that every caller holds a sweep to
        ref = Estimate(0.0, 1.0, 8)
        rows = (SweepRow(StrategySpec(), ref, None), SweepRow(StrategySpec.scaled(1.1), ref, Estimate(3.0, 1.0, 8)))
        assert DeviationSweepResult(rows, 0, 0, 16).reference_dominates()

    def test_paired_design_shrinks_errors(self):
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = [StrategySpec.equilibrium(), StrategySpec.scaled(beta_scale=0.99)]
        result = deviation_sweep(eq, p, 0, specs, n_paths=2000, horizon=50, seed=3)
        row = result.rows[1]
        assert row.difference.std_error < row.objective.std_error / 5.0

    def test_reference_row_matches_streaming_estimator(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = [StrategySpec.equilibrium(), StrategySpec.scaled(beta_scale=0.9)]
        result = deviation_sweep(eq, p, 1, specs, n_paths=500, horizon=40, seed=5)
        res = simulate_objective(eq, None, p, 1, n_paths=500, horizon=40, seed=5, tail_tol=None)
        assert result.rows[0].objective.mean == pytest.approx(res.objective.mean, rel=1e-12)

    @pytest.mark.parametrize("tax", [0.0, 1e-3])
    def test_every_row_matches_streaming_estimator(self, tax):
        p = make_params(k=2, dt=0.01, gammas=[1.0, 2.0], rhos=[0.05, 0.1], l0=[0.5, -0.25], tax=tax)
        eq, _ = solve_equilibrium(p)
        specs = [
            StrategySpec.scaled(beta_scale=1.2),
            StrategySpec.equilibrium(),
            StrategySpec.scaled(phi_scale=0.7),
            StrategySpec.scaled(beta_scale=0.9, phi_scale=1.3),
            StrategySpec.with_z(0.4, 0.8),
            StrategySpec.with_z(0.0, -0.5),
        ]
        result = deviation_sweep(eq, p, 1, specs, n_paths=300, horizon=40, seed=5)
        assert result.reference_index == 1
        for spec, row in zip(specs, result.rows):
            res = simulate_objective(
                eq, {1: spec}, p, 1, n_paths=300, horizon=40, seed=5, tail_tol=None
            )
            assert row.objective.mean == pytest.approx(res.objective.mean, rel=1e-12), spec
            assert row.objective.std_error == pytest.approx(res.objective.std_error, rel=1e-9), spec

    @pytest.mark.parametrize("tax", [0.0, 1e-3])
    def test_one_pass_matches_the_public_estimators(self, tax):
        # With every other trader on equilibrium, row 0 is the game that
        # simulate plays; the pass reduces it as dealer_profit_check and the
        # batch's mark-to-market samples do.
        p = make_params(k=2, dt=0.01, gammas=[1.0, 2.0], rhos=[0.05, 0.1], l0=[0.5, -0.25], tax=tax)
        eq, _ = solve_equilibrium(p)
        specs = [
            StrategySpec.equilibrium(),
            StrategySpec.scaled(beta_scale=1.15),
            StrategySpec.scaled(beta_scale=0.85),
            StrategySpec.with_z(0.5, 1.0),
        ]
        kw = dict(n_paths=2500, horizon=64, seed=9)
        stats = simulator._GameStats(eq)
        sweep, mtm = simulator._sweep(eq, p, 0, specs, stats=stats, **kw)
        batch = simulate(eq, None, p, **kw)
        got, want = stats.check(), dealer_profit_check(batch)
        for name in ("mean", "std_error"):
            assert getattr(got.profit, name) == pytest.approx(getattr(want.profit, name), rel=1e-9)
        assert got.slope == pytest.approx(want.slope, rel=1e-9)
        assert got.slope_se == pytest.approx(want.slope_se, rel=1e-9)
        want_mtm = sample_estimate(batch.mtm_discounted[:, 0])
        assert mtm.mean == pytest.approx(want_mtm.mean, rel=1e-9)
        assert mtm.std_error == pytest.approx(want_mtm.std_error, rel=1e-9)
        ref = deviation_sweep(eq, p, 0, specs, **kw)
        for row, want_row in zip(sweep.rows, ref.rows):
            for est, want_est in ((row.objective, want_row.objective), (row.difference, want_row.difference)):
                if want_est is None:
                    assert est is None
                    continue
                assert est.mean == pytest.approx(want_est.mean, rel=1e-9)
                assert est.std_error == pytest.approx(want_est.std_error, rel=1e-9)

    def test_chunk_size_does_not_change_estimates(self, monkeypatch):
        p = make_params(k=2, dt=0.01, l0=[0.3, -0.6])
        eq, _ = solve_equilibrium(p)
        specs = [
            StrategySpec.equilibrium(),
            StrategySpec.scaled(phi_scale=1.2),
            StrategySpec.with_z(0.3, 1.0),
        ]
        sweeps, objectives = [], []
        for chunk in (3, 64, BLOCK_PATHS):
            monkeypatch.setattr(simulator, "BLOCK_PATHS", chunk)
            sweeps.append(deviation_sweep(eq, p, 0, specs, n_paths=203, horizon=30, seed=2))
            objectives.append(
                simulate_objective(
                    eq, {0: specs[2]}, p, 0, n_paths=203, horizon=30, seed=2, tail_tol=None
                )
            )
        for sweep in sweeps[:2]:
            for row, want in zip(sweep.rows, sweeps[2].rows):
                assert row.objective.mean == pytest.approx(want.objective.mean, rel=1e-12)
                assert row.objective.std_error == pytest.approx(want.objective.std_error, rel=1e-9)
                if want.difference is not None:
                    assert row.difference.mean == pytest.approx(want.difference.mean, rel=1e-12)
        # the streaming estimator pools per-block moments, so only the
        # summation order changes with the block size
        for res in objectives[:2]:
            for got, want in ((res.objective, objectives[2].objective),
                              (res.mark_to_market, objectives[2].mark_to_market)):
                assert got.mean == pytest.approx(want.mean, rel=1e-12)
                assert got.std_error == pytest.approx(want.std_error, rel=1e-12)
                assert got.n_samples == want.n_samples
        want = objectives[2].objective.mean
        assert sweeps[2].rows[2].objective.mean == pytest.approx(want, rel=1e-12)

    def test_memory_does_not_grow_with_paths(self):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = [
            StrategySpec.equilibrium(),
            StrategySpec.scaled(beta_scale=0.9),
            StrategySpec.with_z(0.5, 1.0),
        ]
        deviation_sweep(eq, p, 0, specs, n_paths=2, horizon=16, seed=1)  # one-time set-up
        peaks = {}
        for n_paths in (5000, 40000):
            tracemalloc.start()
            try:
                deviation_sweep(eq, p, 0, specs, n_paths=n_paths, horizon=16, seed=1)
                peaks[n_paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40000] <= 1.5 * peaks[5000], peaks

    def test_duplicate_reference_row_differs_by_exactly_zero(self, monkeypatch):
        # Blocks of 3, 3 and 1 paths: identical coefficient rows must give
        # identical bits in every block, the one-path block included.
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 3)
        p = make_params(k=3, dt=0.01, l0=[0.4, -0.2, 0.1], tax=1e-3)
        eq, _ = solve_taxed(p)
        specs = [
            StrategySpec.scaled(beta_scale=0.9),
            StrategySpec.equilibrium(),
            StrategySpec.with_z(0.5, 1.0),
            StrategySpec.equilibrium(),
        ]
        result = deviation_sweep(eq, p, 1, specs, n_paths=7, horizon=40, seed=8)
        assert result.reference_index == 1
        dup = result.rows[3]
        assert dup.difference.mean == 0.0 and dup.difference.std_error == 0.0
        assert dup.objective == result.rows[1].objective

    def test_closed_form_rows_match_recursed_neighbours(self):
        # phi_scale = 1 prices the row from the prediction M in closed form;
        # a decay rate 1e-9 away makes the row a series of its own.
        p = make_params(k=2, dt=0.01, gammas=[1.0, 2.0], rhos=[0.05, 0.1], l0=[0.6, -0.3], tax=1e-3)
        eq, _ = solve_taxed(p)
        specs = [StrategySpec.equilibrium()]
        for beta_scale in (0.8, 1.2):
            specs += [StrategySpec.scaled(beta_scale, phi) for phi in (1.0, 1.0 - 1e-9, 1.0 + 1e-9)]
        specs.append(StrategySpec.equilibrium())
        result = deviation_sweep(eq, p, 0, specs, n_paths=600, horizon=80, seed=12)
        for closed in (1, 4):
            want = result.rows[closed]
            for row in result.rows[closed + 1 : closed + 3]:
                assert row.objective.mean == pytest.approx(want.objective.mean, rel=1e-6)
                assert row.difference.mean == pytest.approx(want.difference.mean, rel=1e-6)
        dup = result.rows[-1]
        assert dup.difference.mean == 0.0 and dup.difference.std_error == 0.0

    def test_requires_reference_row(self):
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError, match="reference"):
            deviation_sweep(eq, p, 0, [StrategySpec.scaled(beta_scale=0.9)], n_paths=10, horizon=5)

    def test_input_validation(self):
        p = make_params(k=1, dt=0.01)
        eq, _ = solve_equilibrium(p)
        ref = [StrategySpec.equilibrium()]
        with pytest.raises(ValueError):
            deviation_sweep(eq, p, 1, ref, n_paths=10, horizon=5)
        with pytest.raises(ValueError):
            deviation_sweep(eq, p, 0, ref, n_paths=10, horizon=0)
        with pytest.raises(ValueError):
            deviation_sweep(eq, p, 0, [], n_paths=10, horizon=5)
        with pytest.raises(InadmissibleStrategy):
            deviation_sweep(
                eq, p, 0, ref + [StrategySpec.with_z(2.5, 1.0)], n_paths=10, horizon=5
            )


def group_widths(monkeypatch):
    """Record the width of every group of paths the walk advances, in this process."""
    seen, normal_blocks = [], simulator._normal_blocks

    def recording(*args):
        for start, b, tiles in normal_blocks(*args):
            seen.append(b)
            yield start, b, tiles

    monkeypatch.setattr(simulator, "_normal_blocks", recording)
    return seen


class TestGroups:
    """Consecutive blocks of a range advance as one array; every pooled
    estimate equals that of the walk one block at a time, bit for bit."""

    @pytest.fixture(autouse=True)
    def serial(self, monkeypatch):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)

    def both(self, monkeypatch, call, block=32):
        """call() with one block per group, then with the default groups."""
        monkeypatch.setattr(simulator, "BLOCK_PATHS", block)
        widths, results = group_widths(monkeypatch), []
        for group_blocks in (1, simulator.GROUP_BLOCKS):
            monkeypatch.setattr(simulator, "GROUP_BLOCKS", group_blocks)
            del widths[:]
            results.append(call())
            assert (max(widths) > block) == (group_blocks > 1), widths
        return results

    @pytest.mark.parametrize("n_paths", [32 * 9 + 7, 32 * 9 + 1])
    def test_sweep_with_a_partial_or_one_path_last_block(self, monkeypatch, n_paths):
        p = make_params(k=2, dt=0.01, gammas=[1.0, 2.0], rhos=[0.05, 0.1], l0=[0.4, -0.3], tax=1e-3)
        eq, _ = solve_taxed(p)
        specs = [
            StrategySpec.scaled(beta_scale=0.9),
            StrategySpec.equilibrium(),
            StrategySpec.scaled(phi_scale=1.1),
            StrategySpec.with_z(0.3, 1.0),
        ]
        single, grouped = self.both(
            monkeypatch, lambda: deviation_sweep(eq, p, 1, specs, n_paths=n_paths, horizon=40, seed=3)
        )
        assert grouped == single

    def test_sweep_at_full_blocks(self, monkeypatch):
        # two blocks of 1024 and a one-path block advance as one array
        p = make_params(k=3, dt=0.01, l0=[0.2, 0.0, -0.1])
        eq, _ = solve_equilibrium(p)
        specs = [StrategySpec.equilibrium(), StrategySpec.with_z(0.5, 1.0), StrategySpec.scaled(0.8, 1.2)]
        single, grouped = self.both(
            monkeypatch, lambda: deviation_sweep(eq, p, 0, specs, n_paths=2049, horizon=12, seed=9), BLOCK_PATHS
        )
        assert grouped == single

    def test_sweep_with_dealer_statistics(self, monkeypatch):
        p = make_params(k=2, dt=0.01, l0=[0.5, -0.2])
        eq, _ = solve_equilibrium(p)
        specs = [StrategySpec.with_z(0.4, 0.5), StrategySpec.equilibrium(), StrategySpec.scaled(1.1)]

        def call():
            stats = simulator._GameStats(eq)
            sweep, mtm = simulator._sweep(eq, p, 0, specs, n_paths=32 * 9 + 1, horizon=30, seed=4, stats=stats)
            return sweep, stats.check(), mtm, stats.n

        single, grouped = self.both(monkeypatch, call)
        assert grouped == single

    def test_objective(self, monkeypatch):
        p = make_params(k=2, dt=0.1, rho=0.5, l0=[0.2, 0.0])
        eq, _ = solve_equilibrium(p)
        single, grouped = self.both(
            monkeypatch,
            lambda: simulate_objective(
                eq, {1: StrategySpec.with_z(0.4, 0.5)}, p, 1, n_paths=32 * 9 + 7, seed=4
            ),
        )
        assert grouped == single

    def test_second_moment(self, monkeypatch):
        p = make_params(k=1, dt=0.01, l0=[0.5])
        eq, _ = solve_equilibrium(p)
        single, grouped = self.both(
            monkeypatch, lambda: simulate_second_moment(eq, 0, p, [1, 7, 30], n_paths=32 * 9 + 1, seed=6)
        )
        assert grouped == single

    def test_verification_report(self, monkeypatch):
        # rho dt = 0.05: the objective check runs too, over 270 periods
        p = make_params(k=3, dt=0.1, rho=0.5, gammas=[1.0, 2.0, 0.5], l0=[0.3, 0.0, -0.2])
        single, grouped = self.both(monkeypatch, lambda: run_verification(p, paths=32 * 9 + 7, seed=8, mc_horizon=40))
        assert "objective_value_mc" in {r.name for r in single.results}
        assert repr(grouped) == repr(single)

    def test_simulate_discounts_the_mark_to_market_by_the_cumprod_factors(self, monkeypatch):
        # blocks of 3 paths in groups of GROUP_BLOCKS = 4: 20 paths span two
        # groups, and each group starts its running product of discount
        # factors again, bit for bit the cumprod factors
        monkeypatch.setattr(simulator, "BLOCK_PATHS", 3)
        p = make_params(k=2, dt=0.1, rhos=[0.5, 2.0], l0=[0.4, -0.3])
        eq, _ = solve_equilibrium(p)
        widths = group_widths(monkeypatch)
        batch = simulate(eq, {1: StrategySpec.with_z(0.3, 0.6)}, p, n_paths=20, horizon=30, seed=2)
        assert widths == [12, 8], widths
        per = np.array([1.0 - t.rho * p.dt for t in p.traders])
        w = np.cumprod(np.tile(per[:, None], (1, 30)), axis=1)
        want = np.zeros((20, 2))
        for n in range(30):
            want += batch.L[:, :, n] * batch.dS[:, n, None] * w[:, n]
        assert np.array_equal(batch.mtm_discounted, want)

    @pytest.mark.parametrize("workers, widest", [(1, 4), (2, 2), (3, 1), (4, 1)])
    def test_walk_shares_group_blocks_over_its_processes(self, monkeypatch, workers, widest):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: workers)
        p = make_params(k=1, dt=0.01, l0=[0.5])
        eq, _ = solve_equilibrium(p)
        widths = group_widths(monkeypatch)
        simulate_second_moment(eq, 0, p, [16], n_paths=16 * BLOCK_PATHS, seed=6)
        assert max(widths) == widest * BLOCK_PATHS, widths

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_memory_does_not_grow_with_paths_for_any_worker_count(self, monkeypatch, workers):
        # the walk holds at most GROUP_BLOCKS blocks at once over its
        # processes, so this process's share is full at 5000 paths already
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: workers)
        TestDeviationSweep().test_memory_does_not_grow_with_paths()

    @pytest.mark.parametrize("case", ["sweep", "with a _GameStats", "14 rows with gaps"])
    def test_memory_does_not_grow_with_the_horizon(self, monkeypatch, case):
        # four blocks walked serially as one group at both horizons, which
        # hold their increments a tile of STREAM_PATHS periods at a time; a
        # _GameStats, verify's dealer pass, keeps per-path sums, not
        # per-period. On two paths, criterion 06's 14 rows, nine with a gap
        # at l0 = 0.5, show the per-period coefficients, which _discounted
        # builds a tile at a time too.
        p = make_params(k=2, dt=0.01)
        specs = [
            StrategySpec.equilibrium(),
            StrategySpec.scaled(beta_scale=0.9),
            StrategySpec.scaled(phi_scale=1.1),
            StrategySpec.with_z(0.5, 1.0),
        ]
        n_paths, horizons, slack = 4 * BLOCK_PATHS, (256, 4096), 2**20
        if case == "14 rows with gaps":
            p = make_params(k=2, dt=0.01, l0=[0.5, 0.0])
            specs = [StrategySpec.equilibrium()]
            specs += [StrategySpec.scaled(beta_scale=s) for s in (0.8, 0.9, 1.1, 1.2)]
            specs += [StrategySpec.scaled(phi_scale=s) for s in (0.8, 0.9, 1.1, 1.2)]
            specs += [StrategySpec.with_z(z, 1.0) for z in (0.0, 0.05, 0.1, 0.2, 1.0)]
            n_paths, horizons, slack = 2, (500, 5000), 2**19
        eq, _ = solve_equilibrium(p)
        widths = group_widths(monkeypatch)
        deviation_sweep(eq, p, 0, specs, n_paths=2, horizon=16, seed=1)  # one-time set-up
        peaks = {}
        for horizon in horizons:
            tracemalloc.start()
            try:
                stats = simulator._GameStats(eq) if case == "with a _GameStats" else None
                simulator._sweep(eq, p, 0, specs, n_paths=n_paths, horizon=horizon, seed=1, stats=stats)
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert widths[1:] == [n_paths] * 2, widths
        assert peaks[horizons[1]] <= peaks[horizons[0]] + slack, peaks

    @pytest.mark.parametrize("horizon", [64, 600])
    def test_memory_holds_one_group(self, horizon):
        # four blocks walked serially as one group: the peak stays at the
        # group's buffers for one tile of at most STREAM_PATHS periods
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        specs = [StrategySpec.equilibrium(), StrategySpec.scaled(beta_scale=0.9)]
        deviation_sweep(eq, p, 0, specs, n_paths=2, horizon=16, seed=1)  # one-time set-up
        normals = 2 * 8 * min(horizon, STREAM_PATHS) * BLOCK_PATHS * 4
        tracemalloc.start()
        try:
            deviation_sweep(eq, p, 0, specs, n_paths=4 * BLOCK_PATHS, horizon=horizon, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert normals <= peak <= normals + 2 * 2**20, (peak, normals)



class WorkerFault(Exception):
    """Raised on purpose in one process of a parallel walk."""


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Walk with up to 3 workers and blocks of 32 paths; the list of forked pids."""
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(simulator, "BLOCK_PATHS", 32)
    if simulator._worker_count(3) < 3:
        pytest.skip("the walk stays serial here: no os.fork, or forking would warn")
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


class TestParallelWalk:
    """Forked workers walk contiguous ranges of blocks; every estimate equals
    the serial walk's bit for bit, and no worker outlives its call. At 167
    and 230 paths, blocks of 32, every worker's range holds several blocks."""

    def walks(self, monkeypatch, forks, call):
        """call() on the serial walk one block at a time, then in groups of
        two blocks per process on the serial walk and with 2 and with 3
        workers (GROUP_BLOCKS is shared out over a walk's processes)."""
        results = []
        for workers, group in ((1, 1), (1, 2), (2, 4), (3, 6)):
            monkeypatch.setattr(simulator, "_usable_cpus", lambda n=workers: n)
            monkeypatch.setattr(simulator, "GROUP_BLOCKS", group)
            before = len(forks)
            results.append(call())
            assert (len(forks) > before) == (workers > 1)
            assert_no_children()
        return results

    def test_sweep_with_a_partial_last_block(self, monkeypatch, forks):
        p = make_params(k=2, dt=0.01, gammas=[1.0, 2.0], rhos=[0.05, 0.1], l0=[0.4, -0.3])
        eq, _ = solve_equilibrium(p)
        specs = [
            StrategySpec.equilibrium(),
            StrategySpec.scaled(beta_scale=0.9),
            StrategySpec.scaled(phi_scale=1.1),
            StrategySpec.with_z(0.3, 1.0),
        ]
        # 5 full blocks of 32 and one of 7
        serial, *parallel = self.walks(
            monkeypatch, forks, lambda: deviation_sweep(eq, p, 0, specs, n_paths=167, horizon=40, seed=3)
        )
        assert all(result == serial for result in parallel)

    def test_objective(self, monkeypatch, forks):
        p = make_params(k=2, dt=0.1, rho=0.5, l0=[0.2, 0.0])
        eq, _ = solve_equilibrium(p)
        serial, *parallel = self.walks(
            monkeypatch,
            forks,
            lambda: simulate_objective(eq, {1: StrategySpec.with_z(0.4, 0.5)}, p, 1, n_paths=230, seed=4),
        )
        assert all(result == serial for result in parallel)

    def test_second_moment(self, monkeypatch, forks):
        p = make_params(k=1, dt=0.01, l0=[0.5])
        eq, _ = solve_equilibrium(p)
        serial, *parallel = self.walks(
            monkeypatch, forks, lambda: simulate_second_moment(eq, 0, p, [1, 7, 30], n_paths=230, seed=6)
        )
        assert all(result == serial for result in parallel)

    def test_verification_report(self, monkeypatch, forks):
        # rho dt = 0.05: the objective check runs too, over 270 periods
        p = make_params(k=3, dt=0.1, rho=0.5, gammas=[1.0, 2.0, 0.5], l0=[0.3, 0.0, -0.2])
        serial, *parallel = self.walks(
            monkeypatch, forks, lambda: run_verification(p, paths=230, seed=8, mc_horizon=40)
        )
        assert "objective_value_mc" in {r.name for r in serial.results}
        assert all(repr(report) == repr(serial) for report in parallel)

    def test_worker_exception_reaches_the_caller(self, monkeypatch, forks):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        parent, game = os.getpid(), simulator._game

        def faulty(*args, **kwargs):
            if os.getpid() != parent:
                raise WorkerFault("in a worker")
            return game(*args, **kwargs)

        monkeypatch.setattr(simulator, "_game", faulty)
        with pytest.raises(WorkerFault, match="in a worker"):
            deviation_sweep(eq, p, 0, [StrategySpec.equilibrium()], n_paths=100, horizon=20, seed=1)
        assert len(forks) == 2
        assert_no_children()

    def test_workers_are_reaped_when_the_caller_stops(self, monkeypatch, forks):
        p = make_params(k=2, dt=0.01)
        eq, _ = solve_equilibrium(p)
        parent, game = os.getpid(), simulator._game

        def interrupted(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return game(*args, **kwargs)

        monkeypatch.setattr(simulator, "_game", interrupted)
        with pytest.raises(KeyboardInterrupt):
            deviation_sweep(eq, p, 0, [StrategySpec.equilibrium()], n_paths=100, horizon=20, seed=1)
        assert len(forks) == 2
        assert_no_children()
        # a walk abandoned after its first record
        walk = simulator._walk(lambda first, n, group: iter(range(first, first + n, 32)), 100)
        assert next(walk) == 0
        walk.close()
        assert len(forks) == 4
        assert_no_children()

    def test_worker_count_rule(self, monkeypatch):
        monkeypatch.setattr(simulator, "_FORK_WARNS", False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [simulator._worker_count(n) for n in (1, 2, 3, 10)] == [1, 2, 3, 3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert simulator._worker_count(10) == 1
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 4)
        assert simulator._worker_count(10) == 4
        # CPython 3.12+ warns when a process with several OS threads forks
        monkeypatch.setattr(simulator, "_FORK_WARNS", True)
        for threads, want in ((1, 4), (2, 1), (None, 1)):
            monkeypatch.setattr(simulator, "_os_threads", lambda: threads)
            assert simulator._worker_count(10) == want, threads
        monkeypatch.setattr(simulator, "_FORK_WARNS", False)
        monkeypatch.delattr(os, "fork")
        assert simulator._worker_count(10) == 1
