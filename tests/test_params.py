"""Parameter validation, config round-trips, and error reporting."""
import dataclasses
import io
import json
import math
import numbers
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hftequil import (
    ConfigError,
    InvalidParamsError,
    TraderParams,
    ValidatedParams,
    load_config,
    params_to_config,
)
from helpers import make_params


def refusal(sigma_S=1.0, sigma_K=1.0, dt=0.004, tax=0.0, traders=None) -> InvalidParamsError | None:
    """The error ``ValidatedParams(...)`` raises for these fields, None if it accepts them."""
    if traders is None:
        traders = (TraderParams(gamma=1.0, rho=0.05),)
    try:
        ValidatedParams(sigma_S=sigma_S, sigma_K=sigma_K, dt=dt, traders=traders, tax=tax)
    except InvalidParamsError as exc:
        return exc
    return None


class TestCheckParams:
    def test_valid_params_have_no_violations(self):
        assert refusal() is None

    def test_zero_dt_is_valid(self):
        assert refusal(dt=0.0) is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_sigma_s(self, bad):
        codes = refusal(sigma_S=bad).codes
        assert codes == ["NonPositiveVolatility"]

    @pytest.mark.parametrize("bad", [0.0, -2.5])
    def test_nonpositive_sigma_k(self, bad):
        codes = refusal(sigma_K=bad).codes
        assert codes == ["NonPositiveVolatility"]

    @pytest.mark.parametrize(
        "sigma_S, sigma_K, named",
        [
            (1.0, 1e200, ["sigma_K", "sigma_K/sigma_S"]),
            (1e200, 1e200, ["sigma_S", "sigma_K"]),
            (1e-200, 1e-200, ["sigma_S", "sigma_K"]),
            (1.0, 1e-170, ["sigma_K", "sigma_K/sigma_S"]),
            (1e-161, 1e-161, ["sigma_S", "sigma_K"]),
            (1e-100, 1e100, ["sigma_K/sigma_S"]),
        ],
    )
    def test_volatility_squares_must_be_normal_floats(self, sigma_S, sigma_K, named):
        violations = refusal(sigma_S=sigma_S, sigma_K=sigma_K).violations
        assert [v.code for v in violations] == ["VolatilityOutOfRange"] * len(named)
        assert [v.message.split(" = ")[0] for v in violations] == named

    @pytest.mark.parametrize("refused, accepted", [(1.49e-154, 1.5e-154), (1.35e154, 1.34e154)])
    def test_volatility_squares_at_the_float_range_edges(self, refused, accepted):
        # the square roots of the smallest normal and the largest float are
        # 1.4917e-154 and 1.3408e154
        codes = refusal(sigma_S=refused, sigma_K=refused).codes
        assert codes == ["VolatilityOutOfRange"] * 2
        assert refusal(sigma_S=accepted, sigma_K=accepted) is None

    def test_negative_dt(self):
        codes = refusal(dt=-0.01).codes
        assert codes == ["DiscountOutOfRange"]

    def test_negative_tax(self):
        codes = refusal(tax=-1e-4).codes
        assert codes == ["NegativeTax"]

    def test_empty_trader_list(self):
        codes = refusal(traders=()).codes
        assert codes == ["EmptyTraderList"]

    def test_nonpositive_gamma(self):
        traders = (TraderParams(gamma=0.0, rho=0.05),)
        codes = refusal(traders=traders).codes
        assert codes == ["NonPositiveGamma"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_initial_inventory(self, bad):
        traders = (TraderParams(gamma=1.0, rho=0.05, initial_inventory=bad),)
        codes = refusal(traders=traders).codes
        assert codes == ["NonFiniteInventory"]

    def test_rho_dt_must_stay_below_one(self):
        traders = (TraderParams(gamma=1.0, rho=300.0),)
        codes = refusal(dt=0.004, traders=traders).codes
        assert codes == ["DiscountOutOfRange"]

    def test_large_rho_allowed_when_dt_is_zero(self):
        traders = (TraderParams(gamma=1.0, rho=300.0),)
        assert refusal(dt=0.0, traders=traders) is None

    def test_bool_fields_are_rejected(self):
        codes = refusal(sigma_S=True).codes
        assert codes == ["NonPositiveVolatility"]

    def test_all_violations_are_collected(self):
        traders = (TraderParams(gamma=-1.0, rho=-0.05),)
        codes = sorted(refusal(sigma_S=-1.0, sigma_K=0.0, dt=-1.0, tax=-1.0, traders=traders).codes)
        assert codes == [
            "DiscountOutOfRange",
            "DiscountOutOfRange",
            "NegativeTax",
            "NonPositiveGamma",
            "NonPositiveVolatility",
            "NonPositiveVolatility",
        ]


class TestRealTypes:
    """Any real number but a bool is accepted, and stored as a Python float."""

    def test_numpy_and_integer_scalars_are_accepted_as_floats(self):
        traders = (TraderParams(np.int64(2), np.float32(0.25), 1),)
        p = ValidatedParams(np.float32(1.5), 2, np.float64(0.01), traders, tax=np.int32(0))
        fields = (p.sigma_S, p.sigma_K, p.dt, p.tax, *dataclasses.astuple(p.traders[0]))
        assert fields == (1.5, 2.0, 0.01, 0.0, 2.0, 0.25, 1.0)
        assert all(type(x) is float for x in fields)
        config = params_to_config(p)
        assert load_config(json.loads(json.dumps(config))) == p

    def test_float_params_are_kept_as_given(self):
        p = make_params(k=2)
        again = ValidatedParams(p.sigma_S, p.sigma_K, p.dt, p.traders, p.tax)
        assert all(a is b for a, b in zip(again.traders, p.traders))

    @pytest.mark.parametrize(
        "field, code",
        [("sigma_S", "NonPositiveVolatility"), ("dt", "DiscountOutOfRange"), ("tax", "NegativeTax")],
    )
    @pytest.mark.parametrize("bad", [True, "1.0", float("nan"), float("inf")])
    def test_bool_str_and_non_finite_keep_their_codes(self, field, code, bad):
        codes = refusal(**{field: bad}).codes
        assert codes == [code]

    def test_reals_outside_the_float_range_are_refused_with_their_codes(self):
        from fractions import Fraction

        traders = (TraderParams(gamma=Fraction(1, 10**400), rho=-(10**400)),)
        codes = refusal(sigma_S=10**400, dt=Fraction(10**400, 3), traders=traders).codes
        assert codes == ["NonPositiveVolatility", "DiscountOutOfRange", "NonPositiveGamma", "DiscountOutOfRange"]
        cfg = {"sigma_S": 10**400, "sigma_K": 1.0, "dt": 0.01, "traders": [{"gamma": 1.0, "rho": 0.05}]}
        with pytest.raises(InvalidParamsError) as exc:
            load_config(cfg)
        assert exc.value.codes == ["NonPositiveVolatility"]

    def test_numpy_non_finite_and_bool_keep_their_codes(self):
        traders = (TraderParams(np.float32("nan"), np.bool_(True), np.float64("inf")),)
        codes = refusal(sigma_S=np.float32("inf"), traders=traders).codes
        assert codes == ["NonPositiveVolatility", "NonPositiveGamma", "DiscountOutOfRange", "NonFiniteInventory"]


class TestValidate:
    def test_validate_returns_frozen_container(self):
        p = ValidatedParams(1.0, 1.0, 0.004, (TraderParams(gamma=1.0, rho=0.05),))
        assert isinstance(p, ValidatedParams)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.sigma_S = 2.0

    def test_invalid_raises_with_codes(self):
        with pytest.raises(InvalidParamsError) as exc:
            ValidatedParams(-1.0, 1.0, 0.004, (TraderParams(gamma=1.0, rho=0.05),))
        assert exc.value.codes == ["NonPositiveVolatility"]
        assert "sigma_S" in str(exc.value)

    def test_direct_construction_also_validates(self):
        with pytest.raises(InvalidParamsError):
            ValidatedParams(
                sigma_S=1.0,
                sigma_K=-1.0,
                dt=0.01,
                traders=(TraderParams(1.0, 0.05),),
            )

    def test_accessors(self):
        p = make_params(k=3, gammas=[0.5, 1.0, 2.0], rhos=[0.05], l0=[1.0, 0.0, -2.0])
        assert p.k == 3
        assert p.gammas == (0.5, 1.0, 2.0)
        assert p.rhos == (0.05, 0.05, 0.05)
        assert p.initial_inventories == (1.0, 0.0, -2.0)

    @pytest.mark.parametrize(
        "traders, message",
        [
            (({"gamma": 1, "rho": 0.05},), "trader 0 must be a TraderParams, got dict"),
            ((TraderParams(1.0, 0.05), (1.0, 0.05)), "trader 1 must be a TraderParams, got tuple"),
            (5, "traders must be an iterable of TraderParams, got int"),
            (None, "traders must be an iterable of TraderParams, got NoneType"),
        ],
    )
    def test_trader_of_the_wrong_type_is_a_type_error(self, traders, message):
        with pytest.raises(TypeError) as exc:
            ValidatedParams(1.0, 1.0, 0.01, traders)
        assert str(exc.value) == message

    def test_signed_zeros_are_stored_as_positive_zero(self):
        cfg = {"sigma_S": 1.0, "sigma_K": 1.0, "dt": -0.0, "tax": -0.0,
               "traders": [{"gamma": 1.0, "rho": 0.05, "initial_inventory": -0.0}]}
        made = [
            load_config(cfg),
            ValidatedParams(1.0, 1.0, -0.0, (TraderParams(1.0, 0.05, -0.0),), -0.0),
            ValidatedParams(1.0, 1.0, np.float64(-0.0), (TraderParams(1.0, 0.05, np.float32(-0.0)),), np.float64(-0.0)),
            make_params(dt=0.01).with_dt(-0.0).with_tax(-0.0),
        ]
        for p in made:
            zeros = (p.dt, p.tax, *p.initial_inventories)
            assert [math.copysign(1.0, z) for z in zeros] == [1.0] * len(zeros)
            assert "-0.0" not in json.dumps(params_to_config(p))

    def test_with_dt_and_with_tax(self):
        p = make_params(dt=0.01)
        q = p.with_dt(0.002)
        assert q.dt == 0.002 and q.sigma_S == p.sigma_S and q.traders == p.traders
        t = p.with_tax(1e-3)
        assert t.tax == 1e-3 and t.dt == p.dt
        with pytest.raises(InvalidParamsError):
            p.with_dt(-1.0)
        with pytest.raises(InvalidParamsError):
            p.with_tax(-1e-6)


class TestConfig:
    def config_dict(self):
        return {
            "sigma_S": 1.0,
            "sigma_K": 2.0,
            "dt": 0.004,
            "tax": 0.001,
            "traders": [
                {"gamma": 0.5, "rho": 0.05, "initial_inventory": 1.5},
                {"gamma": 2.0, "rho": 0.1},
            ],
        }

    def test_load_from_dict(self):
        p = load_config(self.config_dict())
        assert p.sigma_K == 2.0
        assert p.tax == 0.001
        assert p.traders[0].initial_inventory == 1.5
        assert p.traders[1].initial_inventory == 0.0

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(self.config_dict()))
        assert load_config(path) == load_config(self.config_dict())

    def test_load_from_file_object(self, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(self.config_dict()))
        with open(path) as fh:
            p = load_config(fh)
        assert p.k == 2

    def test_round_trip(self):
        p = load_config(self.config_dict())
        assert load_config(params_to_config(p)) == p

    def test_unknown_top_level_key(self):
        cfg = self.config_dict()
        cfg["volatility"] = 1.0
        with pytest.raises(ConfigError, match="volatility"):
            load_config(cfg)

    def test_unknown_trader_key(self):
        cfg = self.config_dict()
        cfg["traders"][0]["impatience"] = 1.0
        with pytest.raises(ConfigError, match="impatience"):
            load_config(cfg)

    def test_missing_required_key(self):
        cfg = self.config_dict()
        del cfg["sigma_S"]
        with pytest.raises(ConfigError, match="sigma_S"):
            load_config(cfg)

    def test_missing_traders(self):
        cfg = self.config_dict()
        del cfg["traders"]
        with pytest.raises(ConfigError, match="traders"):
            load_config(cfg)

    def test_non_numeric_value(self):
        cfg = self.config_dict()
        cfg["dt"] = "0.004"
        with pytest.raises(ConfigError, match="dt"):
            load_config(cfg)

    def test_bool_is_not_a_number(self):
        cfg = self.config_dict()
        cfg["tax"] = True
        with pytest.raises(ConfigError, match="tax"):
            load_config(cfg)

    def test_traders_must_be_list_of_objects(self):
        cfg = self.config_dict()
        cfg["traders"] = {"gamma": 1.0}
        with pytest.raises(ConfigError, match="list"):
            load_config(cfg)
        cfg["traders"] = [1.0]
        with pytest.raises(ConfigError, match="traders\\[0\\]"):
            load_config(cfg)

    def test_invalid_values_raise_params_error_not_config_error(self):
        cfg = self.config_dict()
        cfg["sigma_S"] = -1.0
        with pytest.raises(InvalidParamsError):
            load_config(cfg)

    def test_unsupported_source(self):
        with pytest.raises(ConfigError):
            load_config(42)


@given(
    sigma_S=st.floats(0.1, 10.0),
    sigma_K=st.floats(0.1, 10.0),
    dt=st.floats(0.0, 0.5),
    tax=st.floats(0.0, 0.01),
    gammas=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5),
    rho=st.floats(0.001, 1.0),
)
def test_valid_params_round_trip_through_config(sigma_S, sigma_K, dt, tax, gammas, rho):
    traders = tuple(TraderParams(g, rho) for g in gammas)
    p = ValidatedParams(sigma_S, sigma_K, dt, traders, tax)
    assert load_config(params_to_config(p)) == p
    assert p.k == len(gammas)


class TestConfigErrorMessages:
    """load_config's ConfigError messages, pinned word for word."""

    @staticmethod
    def cfg(**top):
        base = {
            "sigma_S": 1.0,
            "sigma_K": 2.0,
            "dt": 0.004,
            "traders": [{"gamma": 0.5, "rho": 0.05}, {"gamma": 2.0, "rho": 0.1, "initial_inventory": 1.0}],
        }
        base.update(top)
        return base

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.update(zeta=1, alpha=2, dt=0.1), "unknown config keys: alpha, zeta"),
            (lambda c: c.update(Sigma_S=1), "unknown config keys: Sigma_S"),
            (lambda c: c["traders"][1].update(wait=1, beta=0), "config: traders[1] unknown keys: beta, wait"),
            (lambda c: c.pop("sigma_S"), "config: missing required key 'sigma_S'"),
            (lambda c: c.pop("dt"), "config: missing required key 'dt'"),
            (lambda c: c.pop("traders"), "config: missing required key 'traders'"),
            (lambda c: c["traders"][0].pop("gamma"), "traders[0]: missing required key 'gamma'"),
            (lambda c: c["traders"][1].pop("rho"), "traders[1]: missing required key 'rho'"),
            (lambda c: c.update(dt="0.004"), "config: key 'dt' must be a number, got str"),
            (lambda c: c.update(tax=True), "config: key 'tax' must be a number, got bool"),
            (lambda c: c.update(sigma_K=None), "config: key 'sigma_K' must be a number, got NoneType"),
            (lambda c: c["traders"][0].update(gamma=False), "traders[0]: key 'gamma' must be a number, got bool"),
            (
                lambda c: c["traders"][1].update(initial_inventory=[1.0]),
                "traders[1]: key 'initial_inventory' must be a number, got list",
            ),
            (lambda c: c.update(traders={"gamma": 1.0}), "config: 'traders' must be a list"),
            (lambda c: c.update(traders=({"gamma": 1.0, "rho": 0.05},)), "config: 'traders' must be a list"),
            (lambda c: c["traders"].append(1.0), "config: traders[2] must be an object"),
            # the first fault in reading order wins: root keys, root numbers, then each trader
            (lambda c: (c.update(bad=1), c.pop("dt")), "unknown config keys: bad"),
            (lambda c: (c.pop("sigma_S"), c["traders"][0].update(x=1)), "config: missing required key 'sigma_S'"),
            (lambda c: (c["traders"][0].pop("rho"), c["traders"][0].update(x=1)), "config: traders[0] unknown keys: x"),
        ],
    )
    def test_message(self, edit, message):
        cfg = self.cfg()
        edit(cfg)
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "source, message",
        [(io.StringIO("[1.0]"), "config root must be a JSON object"), (42, "unsupported config source int")],
    )
    def test_source_message(self, source, message):
        with pytest.raises(ConfigError) as exc:
            load_config(source)
        assert str(exc.value) == message


# Equivalence of the construction paths: load_config(dict), ValidatedParams(...),
# with_dt and with_tax must store the same record, bit for bit, or refuse with
# the same violations in the same order.

_BIG = 10**400
_MISSING = object()


def _reals(lo, hi, specials):
    plain = st.floats(lo, hi)
    return st.one_of(
        plain,
        plain,
        plain.map(np.float64),
        plain.map(np.float32),
        st.integers(max(1, math.ceil(lo)), max(1, math.floor(hi))).flatmap(lambda n: st.sampled_from([n, np.int64(n)])),
        st.sampled_from(
            [0.0, -0.0, 0, -1.0, -2, math.nan, math.inf, -math.inf, True, False, _BIG, -_BIG,
             np.float64("nan"), np.float32("inf"), np.bool_(True), 1e-200, 1e200, *specials]
        ),
    )


_SIGMAS = _reals(0.1, 10.0, [1.4e-154, 1.35e154])
_DTS = _reals(0.0, 0.5, [0.5, 0.25, 1.0, 5e-324])
_TAXES = st.one_of(st.just(_MISSING), _reals(0.0, 0.01, [1e-300]))
_TRADERS = st.lists(
    st.tuples(
        _reals(0.01, 10.0, []),
        _reals(1e-3, 4.0, [2.0, 4.0]),
        st.one_of(st.just(_MISSING), _reals(-5.0, 5.0, [])),
    ),
    max_size=4,
)


def _real(x):
    """The float that load_config reads a JSON number as."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _bits(p) -> list:
    """Every stored field of a record, in storage order, each float as float.hex()."""
    out = []
    for name, v in vars(p).items():
        if name == "traders":
            assert type(v) is tuple
            for t in v:
                assert type(t) is TraderParams
                assert all(type(x) is float for x in vars(t).values())
                out.append((name, [(n, x.hex()) for n, x in vars(t).items()]))
        else:
            assert type(v) is float, (name, v)
            out.append((name, v.hex()))
    return out


def _outcome(build):
    try:
        return "record", build()
    except InvalidParamsError as exc:
        return "invalid", [(v.code, v.message) for v in exc.violations]


def _assert_same(a, b):
    """Two outcomes agree: equal violations, or records alike in every respect."""
    assert a[0] == b[0]
    if a[0] == "invalid":
        assert a[1] == b[1]
        return
    p, q = a[1], b[1]
    assert _bits(p) == _bits(q)
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    for r in (p, q):
        assert _bits(pickle.loads(pickle.dumps(r))) == _bits(q)
        assert _bits(dataclasses.replace(r)) == _bits(q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.dt = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.tax


def _trader(gamma, rho, inv, conv=lambda x: x):
    if inv is _MISSING:
        return TraderParams(conv(gamma), conv(rho))
    return TraderParams(conv(gamma), conv(rho), conv(inv))


def _config_error(cfg) -> str | None:
    """The ConfigError message load_config must raise for cfg, if any."""
    for key in ("sigma_S", "sigma_K", "dt", "tax"):
        if key in cfg and not _is_number(cfg[key]):
            return f"config: key {key!r} must be a number, got {type(cfg[key]).__name__}"
    for i, entry in enumerate(cfg["traders"]):
        for key, v in entry.items():
            if not _is_number(v):
                return f"traders[{i}]: key {key!r} must be a number, got {type(v).__name__}"
    return None


@settings(max_examples=300)
@given(sigma_S=_SIGMAS, sigma_K=_SIGMAS, dt=_DTS, tax=_TAXES, traders=_TRADERS)
def test_load_config_and_direct_construction_agree(sigma_S, sigma_K, dt, tax, traders):
    cfg = {"sigma_S": sigma_S, "sigma_K": sigma_K, "dt": dt, "traders": []}
    if tax is not _MISSING:
        cfg["tax"] = tax
    for gamma, rho, inv in traders:
        entry = {"gamma": gamma, "rho": rho}
        if inv is not _MISSING:
            entry["initial_inventory"] = inv
        cfg["traders"].append(entry)
    c = 0.0 if tax is _MISSING else tax

    raw_traders = tuple(_trader(*t) for t in traders)
    direct = _outcome(lambda: ValidatedParams(sigma_S, sigma_K, dt, raw_traders, c))

    message = _config_error(cfg)
    if message is not None:
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert str(exc.value) == message
        return
    as_floats = _outcome(
        lambda: ValidatedParams(
            _real(sigma_S), _real(sigma_K), _real(dt), tuple(_trader(*t, conv=_real) for t in traders), _real(c)
        )
    )
    _assert_same(_outcome(lambda: load_config(cfg)), as_floats)
    if direct[0] == "record":
        _assert_same(direct, as_floats)
    else:
        assert [code for code, _ in direct[1]] == [code for code, _ in as_floats[1]]


_VALID = st.builds(
    lambda s, k, dt, c, ts: ValidatedParams(s, k, dt, tuple(TraderParams(g, r, l) for g, r, l in ts), c),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.0, 0.2),
    st.floats(0.0, 0.01),
    st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(1e-3, 4.0), st.floats(-5.0, 5.0)), min_size=1, max_size=4),
)


@settings(max_examples=200)
@given(base=_VALID, dt=_DTS, tax=_reals(0.0, 0.01, [1e-300]))
def test_with_dt_and_with_tax_agree_with_direct_construction(base, dt, tax):
    s, k, ts, c = base.sigma_S, base.sigma_K, base.traders, base.tax
    _assert_same(_outcome(lambda: base.with_dt(dt)), _outcome(lambda: ValidatedParams(s, k, dt, ts, c)))
    _assert_same(_outcome(lambda: base.with_tax(tax)), _outcome(lambda: ValidatedParams(s, k, base.dt, ts, tax)))
