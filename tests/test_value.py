"""Value function coefficients and the dynamic programming check.

The frozen chain below was produced by solving the defining linear
relations in 50-digit arithmetic from the frozen equilibrium of the unit
monopoly at dt = 0.004, then rounding to double.
"""
import dataclasses
import itertools
import math
import pickle
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hftequil import (
    Equilibrium,
    SolverError,
    dpe_argmax_gap,
    dpe_residual,
    nash_expansions,
    run_verification,
    solve_equilibrium,
    stationary_inventory_std,
    value_coefficients,
)
from hftequil.model import load_config
from hftequil.value import ValueCoefficients, _default_dpe_grid, _dpe_argmax, _dpe_rhs, _evaluate_value, _grouped
from helpers import _log_uniform, fuzz_market, make_params

# unit monopoly, dt = 0.004
CHAIN = {
    "A": 0.0204154575740418,
    "B": 0.976479009922532,
    "C": 0.0659907066298219,
    "D": 9.76283714120547,
    "E": 0.0611426559035037,
    "zeta": 0.0612159416486017,
    "F": 0.0426916184622178,
    "G": -0.0446423800062261,
}


def coeffs_for(params, trader=0):
    eq, _ = solve_equilibrium(params)
    return eq, value_coefficients(eq, trader, params)


class TestCoefficients:
    def test_frozen_chain(self):
        _, cs = coeffs_for(make_params(dt=0.004))
        for key, want in CHAIN.items():
            assert getattr(cs, key) == pytest.approx(want, rel=1e-11), key

    def test_defining_relations(self):
        p = make_params(k=2, dt=0.01, gammas=[0.5, 2.0])
        for i in range(2):
            eq, cs = coeffs_for(p, trader=i)
            t = p.traders[i]
            disc = 1.0 - t.rho * p.dt
            gdt = t.gamma * p.dt
            beta, phi, lam = eq.betas[i], eq.phis[i], eq.lam
            den = 1.0 - disc * (1.0 - phi) ** 2
            assert cs.A == pytest.approx(disc * (1 - phi) ** 2 * gdt / den, rel=1e-14)
            assert cs.B == pytest.approx(
                disc * beta * (2 * cs.eta - beta * (cs.A + gdt)), rel=1e-14
            )
            assert cs.C == pytest.approx(
                disc * (beta * (1 - phi) * (cs.A + gdt) + phi * cs.eta), rel=1e-14
            )
            # two equivalent forms of the constant's fixed point
            assert cs.D == pytest.approx(disc * cs.B * p.sigma_S**2 / (2 * t.rho), rel=1e-14)
            assert cs.D == pytest.approx(
                disc * (cs.D + 0.5 * cs.B * p.sigma_S**2 * p.dt), rel=1e-12
            )
            # E is the positive root of its quadratic
            pp = gdt + 2 * lam * t.rho * p.dt
            qq = 2 * lam * gdt * disc
            assert cs.E**2 + pp * cs.E - qq == pytest.approx(0.0, abs=1e-15)
            # workdown rate and its two link identities
            assert cs.zeta == pytest.approx((cs.E + gdt) / (cs.E + gdt + 2 * lam), rel=1e-14)
            assert cs.E == pytest.approx(2 * lam * cs.zeta * disc, rel=1e-12)
            assert cs.F + gdt == pytest.approx(lam * phi / (1 - phi), rel=1e-11)

    def test_sign_pattern(self):
        for p in (
            make_params(dt=0.004),
            make_params(k=2, dt=0.01),
            make_params(k=4, dt=0.002, gammas=[0.5, 1.0, 2.0, 4.0]),
        ):
            for i in range(p.k):
                _, cs = coeffs_for(p, trader=i)
                assert cs.A > 0 and cs.B > 0 and cs.C > 0 and cs.D > 0
                assert cs.E > 0 and cs.F > 0 and cs.G < 0
                assert 0.0 < cs.zeta < 1.0
                assert 0.0 < cs.eta < 1.0

    def test_G_is_negative_over_the_market_fuzz(self):
        """lambda beta_i - eta = -r phi_i/(r + beta_sigma^2) < 0 and F + gamma dt
        = lambda phi/(1 - phi) > 0 with 0 < zeta < 1, so both terms of G are
        negative on every untaxed market at dt > 0."""
        rng = random.Random(1)
        checked = 0
        for _ in range(400):
            p = fuzz_market(rng)
            if p.tax != 0.0:
                continue
            try:
                eq, _ = solve_equilibrium(p)
            except SolverError:
                continue
            for i in range(p.k):
                try:
                    cs = value_coefficients(eq, i, p)
                except SolverError:
                    continue
                assert cs.G < 0.0, (p, i, cs)
                checked += 1
        assert checked > 200

    def test_rejects_dt_zero_and_tax(self):
        p0 = make_params(dt=0.0)
        eq0, _ = solve_equilibrium(p0)
        with pytest.raises(ValueError):
            value_coefficients(eq0, 0, p0)
        pt = make_params(dt=0.004, tax=1e-3)
        from hftequil import solve_taxed

        eqt, _ = solve_taxed(pt)
        with pytest.raises(ValueError):
            value_coefficients(eqt, 0, pt)

    def test_rejects_bad_trader_index(self):
        p = make_params(dt=0.004)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(ValueError):
            value_coefficients(eq, 1, p)
        with pytest.raises(ValueError):
            value_coefficients(eq, -1, p)

    def test_overflowing_coefficient_is_a_solver_error(self):
        # ValidatedParams accepts rho = 1e-310, but D = (1 - rho dt) B sigma_S^2/(2 rho) overflows
        p = make_params(dt=0.004, rho=1e-310)
        eq, _ = solve_equilibrium(p)
        with pytest.raises(SolverError, match="value_finite"):
            value_coefficients(eq, 0, p)

    def test_to_dict_round_trip(self):
        _, cs = coeffs_for(make_params(dt=0.004))
        d = cs.to_dict()
        assert set(d) == {"A", "B", "C", "D", "E", "zeta", "F", "G", "eta"}
        assert ValueCoefficients(**d) == cs


class TestDynamicProgramming:
    @pytest.mark.parametrize(
        "params",
        [
            make_params(dt=0.004),
            make_params(k=2, dt=0.004),
            make_params(k=4, dt=0.01),
            make_params(k=2, dt=0.1, gammas=[0.5, 2.0]),
        ],
        ids=["mono", "duo", "k4", "hetero"],
    )
    def test_residual_and_argmax(self, params):
        for i in range(params.k):
            eq, cs = coeffs_for(params, trader=i)
            residual = dpe_residual(cs, eq, i, params)
            argmax_gap = dpe_argmax_gap(cs, eq, i, params)
            assert residual <= 1e-9
            assert argmax_gap <= 1e-12
            # the array evaluation against a point-by-point loop over the grid, in the groups
            disc = 1.0 - params.traders[i].rho * params.dt
            gs = _grouped(cs, params)
            worst_residual = worst_argmax = 0.0
            for M, dS, Z in itertools.product(*_default_dpe_grid(eq, i, params)):
                v = _evaluate_value(gs, M, dS, Z)
                rhs = _dpe_rhs(gs, eq, i, params, M, dS, Z, -gs.zeta * Z)
                worst_residual = max(worst_residual, abs(v / disc - rhs) / (1.0 + abs(v)))
                star = _dpe_argmax(gs, eq, i, params, M, dS, Z)
                worst_argmax = max(worst_argmax, abs(star + gs.zeta * Z) / (1.0 + abs(Z)))
            assert residual == pytest.approx(worst_residual, abs=1e-16)
            assert argmax_gap == pytest.approx(worst_argmax, abs=1e-16)

    def test_broadcast_grid_matches_the_meshgrid_bit_for_bit(self):
        p = make_params(k=2, dt=0.1, gammas=[0.5, 2.0])
        for i in range(p.k):
            eq, cs = coeffs_for(p, trader=i)
            gs = _grouped(cs, p)
            M, dS, Z = np.meshgrid(*_default_dpe_grid(eq, i, p), indexing="ij")
            disc = 1.0 - p.traders[i].rho * p.dt
            v = _evaluate_value(gs, M, dS, Z)
            rhs = _dpe_rhs(gs, eq, i, p, M, dS, Z, -gs.zeta * Z)
            residual = np.max(np.abs(v / disc - rhs) / (1.0 + np.abs(v)))
            assert dpe_residual(cs, eq, i, p) == float(residual)
            star = _dpe_argmax(gs, eq, i, p, M, dS, Z)
            argmax_gap = np.max(np.abs(star - (-gs.zeta * Z)) / (1.0 + np.abs(Z)))
            assert dpe_argmax_gap(cs, eq, i, p) == float(argmax_gap)

    def test_nan_anywhere_on_the_grid_fails_the_check(self):
        p = make_params(dt=0.004)
        eq, cs = coeffs_for(p)
        assert math.isnan(dpe_residual(replace(cs, A=math.nan), eq, 0, p))
        assert math.isnan(dpe_argmax_gap(replace(cs, E=math.nan), eq, 0, p))

    def test_argmax_is_a_maximum(self):
        p = make_params(dt=0.004)
        eq, cs = coeffs_for(p)
        M, dS, Z = 0.3, -0.05, 0.8
        star = _dpe_argmax(cs, eq, 0, p, M, dS, Z)
        assert star == pytest.approx(-cs.zeta * Z, abs=1e-13)
        at_star = _dpe_rhs(cs, eq, 0, p, M, dS, Z, star)
        for eps in (1e-3, -1e-3):
            assert _dpe_rhs(cs, eq, 0, p, M, dS, Z, star + eps) < at_star

    def test_on_path_value_matches_rhs_without_deviation(self):
        # in the groups: v/(sigma_S sigma_K dt) at M in units of sigma_K sqrt(dt) and dS in sigma_S sqrt(dt)
        p = make_params(k=2, dt=0.01)
        eq, cs = coeffs_for(p, trader=1)
        cs = _grouped(cs, p)
        disc = 1.0 - p.traders[1].rho * p.dt
        for M, dS in ((0.0, 0.0), (0.5, 0.02), (-1.0, -0.03)):
            v = _evaluate_value(cs, M, dS, 0.0)
            rhs = _dpe_rhs(cs, eq, 1, p, M, dS, 0.0, 0.0)
            assert v / disc == pytest.approx(rhs, abs=1e-12 * (1 + abs(v)))

    def test_evaluate_value_by_hand(self):
        cs = ValueCoefficients(A=2.0, B=4.0, C=1.0, D=7.0, E=6.0, zeta=0.5, F=3.0, G=2.0, eta=0.9)
        v = _evaluate_value(cs, M=1.0, dS=2.0, Z=-1.0)
        expected = -1.0 + 8.0 - 2.0 + 7.0 - 3.0 + 3.0 - 4.0
        assert v == pytest.approx(expected, rel=1e-15)

    def test_evaluate_value_broadcasts(self):
        _, cs = coeffs_for(make_params(dt=0.004))
        M = np.linspace(-1, 1, 4)
        v = _evaluate_value(cs, M, 0.0, 0.0)
        assert v.shape == (4,)
        assert v[0] == pytest.approx(_evaluate_value(cs, -1.0, 0.0, 0.0), rel=1e-15)

    def test_default_grid_shape_and_scale(self):
        # the unit grid: M in units of sigma_K sqrt(dt), dS in units of sigma_S sqrt(dt)
        p = make_params(dt=0.004, sigma_S=2.0, sigma_K=5.0)
        eq, _ = solve_equilibrium(p)
        Ms, dSs, Zs = _default_dpe_grid(eq, 0, p)
        assert len(Ms) == len(dSs) == len(Zs) == 5
        sd = stationary_inventory_std(eq, 0, p)
        assert Ms[-1] == pytest.approx(3.0 * sd / (5.0 * math.sqrt(0.004)), rel=1e-12)
        assert dSs[0] == -3.0 and dSs[-1] == 3.0
        assert Zs[0] == -1.0 and Zs[-1] == 1.0

    def test_default_grid_is_linspace_bit_for_bit(self):
        """The grid computes linspace's points itself; every bit, the sign
        of a zero included, is linspace's, at scales from 1e-150 to 1e150."""
        rng = random.Random(36)
        for _ in range(200):
            sigma_S = _log_uniform(rng, 1e-150, 1e150)
            p = make_params(k=rng.randint(1, 3), dt=_log_uniform(rng, 1e-8, 0.5), gamma=_log_uniform(rng, 0.1, 10.0),
                            sigma_S=sigma_S, sigma_K=sigma_S * _log_uniform(rng, 1e-3, 1e3))
            eq, _ = solve_equilibrium(p)
            for i in range(p.k):
                Ms, dSs, Zs = _default_dpe_grid(eq, i, p)
                phi = eq.phis[i]
                x = 3.0 * (eq.betas[i] / (p.sigma_K / p.sigma_S) / math.sqrt(phi * (2.0 - phi)))
                assert x == pytest.approx(3.0 * stationary_inventory_std(eq, i, p) / (p.sigma_K * math.sqrt(p.dt)))
                assert Ms.tobytes() == np.linspace(-x, x, 5).tobytes()
                assert dSs.tobytes() == np.linspace(-3.0, 3.0, 5).tobytes()
                assert Zs.tobytes() == np.array([-1.0, -0.5, 0.0, 0.5, 1.0]).tobytes()
        # beta/m underflows, so the M axis spans [-0.0, 0.0]: linspace's points are all +0.0
        p = make_params(sigma_K=10.0)
        flat = replace(solve_equilibrium(p)[0], betas=(5e-324,))
        assert _default_dpe_grid(flat, 0, p)[0].tobytes() == np.linspace(-0.0, 0.0, 5).tobytes()


def _reference_dpe(cs, eq, i, p):
    """dpe_residual and dpe_argmax_gap written out in the groups, with
    linspace axes and one expression per formula, each term a new array:
    the reference that the in-place evaluation must match bit for bit."""
    m = p.sigma_K / p.sigma_S
    beta, phi = eq.betas[i] / m, eq.phis[i]
    y, lam, gdt = eq.beta_sigma / m * beta, eq.lam * m, p.traders[i].gamma * p.dt * m
    A, B, C, D = cs.A * m, cs.B / m, cs.C, cs.D / (p.sigma_S * p.sigma_K * p.dt)
    E, F, G = cs.E * m, cs.F * m, cs.G
    x = 3.0 * (beta / math.sqrt(phi * (2.0 - phi)))
    M = np.linspace(-x, x, 5)[:, None, None]
    dS = np.linspace(-3.0, 3.0, 5)[None, :, None]
    Z = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])[None, None, :]
    v = (-0.5 * A * M**2 + 0.5 * B * dS**2 - C * M * dS + D
         - 0.5 * E * Z**2 - F * M * Z + G * dS * Z)
    dZ = -cs.zeta * Z
    m_next = beta * dS + y * M
    z_next = Z + dZ
    flow = (cs.eta * dS - lam * dZ) * (beta * dS - phi * M + dZ) - 0.5 * gdt * (m_next + z_next) ** 2
    expected = (-0.5 * A * m_next**2 + 0.5 * B + D
                - 0.5 * E * z_next**2 - F * m_next * z_next)
    disc = 1.0 - p.traders[i].rho * p.dt
    residual = np.max(np.abs(v / disc - (flow + expected)) / (1.0 + np.abs(v)))
    grad = (-lam * (beta * dS - phi * M) + cs.eta * dS - gdt * (m_next + Z) - E * Z - F * m_next)
    star = grad / (2.0 * lam + gdt + E)
    gap = np.max(np.abs(star - (-cs.zeta * Z)) / (1.0 + np.abs(Z)))
    return float(residual), float(gap)


def test_dpe_checks_match_the_reference_expressions_bit_for_bit():
    """dpe_residual and dpe_argmax_gap accumulate in place on hand-built
    axes; over the seeded 200-draw market fuzz each result is the
    reference's, bit for bit (NaN matching NaN)."""
    rng = random.Random(0)
    compared = 0
    for _ in range(200):
        p = fuzz_market(rng)
        if p.tax != 0.0:
            continue
        try:
            eq, _ = solve_equilibrium(p)
        except SolverError:
            continue
        for i in range(p.k):
            try:
                cs = value_coefficients(eq, i, p)
            except SolverError:
                continue
            with np.errstate(all="ignore"):
                want = _reference_dpe(cs, eq, i, p)
                got = (dpe_residual(cs, eq, i, p), dpe_argmax_gap(cs, eq, i, p))
            assert [x.hex() for x in got] == [x.hex() for x in want]
            compared += 1
    assert compared > 200


class TestStationaryStd:
    def test_formula(self):
        p = make_params(dt=0.01)
        eq, _ = solve_equilibrium(p)
        beta, phi = eq.betas[0], eq.phis[0]
        want = math.sqrt(beta**2 * 0.01 / (1.0 - (1.0 - phi) ** 2))
        assert stationary_inventory_std(eq, 0, p) == pytest.approx(want, rel=1e-14)

    def test_requires_contraction(self):
        p = make_params(dt=0.01)
        fake = Equilibrium(betas=(0.9,), beta_sigma=0.9, lam=0.4, phis=(0.0,), mus=(0.0,), tax=0.0)
        with pytest.raises(ValueError):
            stationary_inventory_std(fake, 0, p)
        fake2 = Equilibrium(betas=(0.9,), beta_sigma=0.9, lam=0.4, phis=(2.5,), mus=(1.0,), tax=0.0)
        with pytest.raises(ValueError):
            stationary_inventory_std(fake2, 0, p)


TRADER_INDEXED = {
    "value_coefficients": lambda eq, cs, i, p: value_coefficients(eq, i, p),
    "stationary_inventory_std": lambda eq, cs, i, p: stationary_inventory_std(eq, i, p),
    "default_dpe_grid": lambda eq, cs, i, p: _default_dpe_grid(eq, i, p),
    "dpe_rhs": lambda eq, cs, i, p: _dpe_rhs(cs, eq, i, p, 0.0, 0.0, 0.0, 0.0),
    "dpe_argmax": lambda eq, cs, i, p: _dpe_argmax(cs, eq, i, p, 0.0, 0.0, 0.0),
    "dpe_residual": lambda eq, cs, i, p: dpe_residual(cs, eq, i, p),
    "dpe_argmax_gap": lambda eq, cs, i, p: dpe_argmax_gap(cs, eq, i, p),
}


@pytest.mark.parametrize("index", [-1, 2, True, 1.0, "1"])
@pytest.mark.parametrize("name", sorted(TRADER_INDEXED))
def test_trader_index_out_of_range(name, index):
    """-1 must not answer for the last trader, nor k raise a bare IndexError,
    nor True pass for trader 1 or 1.0 and "1" raise a bare TypeError."""
    p = make_params(k=2, dt=0.01, gammas=[1.0, 3.0])
    eq, cs = coeffs_for(p)
    if type(index) is int:
        message = f"trader index {index} out of range for k=2"
    else:
        message = re.escape(f"trader index must be an int, got {index!r}")
    with pytest.raises(ValueError, match=message):
        TRADER_INDEXED[name](eq, cs, index, p)


def _records():
    p = make_params(k=2, dt=0.004, gammas=[0.5, 2.0])
    eq, diag = solve_equilibrium(p)
    table = nash_expansions(p)
    loaded = load_config({"sigma_S": 1.0, "sigma_K": 1.3, "dt": 0.004, "traders": [
        {"gamma": 0.5, "rho": 0.05}, {"gamma": 2.0, "rho": 0.1, "initial_inventory": 0.5}]})
    converted = make_params(gamma=2, rho=0.05).traders[0]
    return [eq, diag, value_coefficients(eq, 1, p), table["B"][1], table["beta_sigma"],
            loaded.traders[1], loaded, loaded.with_dt(0.002), converted]


@pytest.mark.parametrize(
    "record",
    _records(),
    ids=["Equilibrium", "SolveDiagnostics", "ValueCoefficients", "Expansion", "scalar Expansion",
         "loaded TraderParams", "loaded ValidatedParams", "with_dt ValidatedParams", "converted TraderParams"],
)
def test_result_records_match_init_built_twins(record):
    """solve_equilibrium, value_coefficients, nash_expansions, load_config,
    with_dt and the parameter checker build their records without the
    generated __init__; nothing a caller can do tells them apart."""
    fields = [f for f in dataclasses.fields(record) if f.init]
    twin = type(record)(**{f.name: getattr(record, f.name) for f in fields})
    assert record == twin and twin == record
    assert hash(record) == hash(twin)
    assert repr(record) == repr(twin)
    assert dataclasses.asdict(record) == dataclasses.asdict(twin)
    assert list(vars(record)) == list(vars(twin))
    assert pickle.loads(pickle.dumps(record)) == twin
    first = fields[0].name
    assert replace(record, **{first: 2.5}) == replace(twin, **{first: 2.5})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, first)


@given(
    gamma=st.floats(0.2, 5.0),
    dt=st.sampled_from([0.002, 0.01, 0.1]),
    k=st.integers(1, 3),
    sigma_K=st.floats(0.5, 2.0),
)
def test_value_chain_invariants(gamma, dt, k, sigma_K):
    p = make_params(k=k, dt=dt, gamma=gamma, sigma_K=sigma_K)
    eq, _ = solve_equilibrium(p)
    cs = value_coefficients(eq, 0, p)
    assert 0.0 < cs.zeta < 1.0
    assert cs.E > 0.0
    assert dpe_argmax_gap(cs, eq, 0, p) <= 1e-11
    assert dpe_residual(cs, eq, 0, p) <= 1e-9


TINY_VOL_CASES = [(1e-3, 1e-6), (1e-3, 1e-5), (1e-4, 1e-7), (1e-6, 1e-3)]


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("sigma_K, dt", TINY_VOL_CASES)
def test_value_layer_at_tiny_volatility_ratio(sigma_K, dt, gamma):
    # phi = 1 - P beta / r cancels here; the decay-rate form keeps the
    # F + gamma dt = lambda phi / (1 - phi) invariant within its tolerance.
    p = make_params(dt=dt, gamma=gamma, rho=0.05, sigma_S=1.0, sigma_K=sigma_K)
    eq, _ = solve_equilibrium(p)
    cs = value_coefficients(eq, 0, p)
    assert dpe_residual(cs, eq, 0, p) <= 1e-9


def test_verification_passes_the_value_layer_at_tiny_volatility_ratio():
    p = make_params(dt=0.004, gamma=1.0, rho=0.05, sigma_S=1.0, sigma_K=1e-6)
    report = run_verification(p, paths=0)
    passed = {r.name for r in report.results if r.passed}
    assert {
        "value_fixed_point",
        "value_link_identity",
        "dpe_residual",
        "dpe_argmax",
        "sign_pattern",
        "pricing_identities",
    } <= passed


def test_verification_passes_at_vanishing_dt():
    # phi is about sqrt(gamma dt) = 1e-150: 1 - (1 - phi)^2 must not cancel to 0
    report = run_verification(make_params(dt=1e-300), paths=0)
    assert report.passed, report.failures
