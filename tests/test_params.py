"""Parameter validation, config round-trips, and error reporting."""
import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hftequil import (
    ConfigError,
    InvalidParamsError,
    MarketParams,
    TraderParams,
    ValidatedParams,
    check_params,
    load_config,
    params_to_config,
    validate,
)
from helpers import make_params


def raw(sigma_S=1.0, sigma_K=1.0, dt=0.004, tax=0.0, traders=None):
    if traders is None:
        traders = (TraderParams(gamma=1.0, rho=0.05),)
    return MarketParams(sigma_S=sigma_S, sigma_K=sigma_K, dt=dt, traders=traders, tax=tax)


class TestCheckParams:
    def test_valid_params_have_no_violations(self):
        assert check_params(raw()) == []

    def test_zero_dt_is_valid(self):
        assert check_params(raw(dt=0.0)) == []

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_sigma_s(self, bad):
        codes = [v.code for v in check_params(raw(sigma_S=bad))]
        assert codes == ["NonPositiveVolatility"]

    @pytest.mark.parametrize("bad", [0.0, -2.5])
    def test_nonpositive_sigma_k(self, bad):
        codes = [v.code for v in check_params(raw(sigma_K=bad))]
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
        violations = check_params(raw(sigma_S=sigma_S, sigma_K=sigma_K))
        assert [v.code for v in violations] == ["VolatilityOutOfRange"] * len(named)
        assert [v.message.split(" = ")[0] for v in violations] == named

    @pytest.mark.parametrize("refused, accepted", [(1.49e-154, 1.5e-154), (1.35e154, 1.34e154)])
    def test_volatility_squares_at_the_float_range_edges(self, refused, accepted):
        # the square roots of the smallest normal and the largest float are
        # 1.4917e-154 and 1.3408e154
        codes = [v.code for v in check_params(raw(sigma_S=refused, sigma_K=refused))]
        assert codes == ["VolatilityOutOfRange"] * 2
        assert check_params(raw(sigma_S=accepted, sigma_K=accepted)) == []

    def test_negative_dt(self):
        codes = [v.code for v in check_params(raw(dt=-0.01))]
        assert codes == ["DiscountOutOfRange"]

    def test_negative_tax(self):
        codes = [v.code for v in check_params(raw(tax=-1e-4))]
        assert codes == ["NegativeTax"]

    def test_empty_trader_list(self):
        codes = [v.code for v in check_params(raw(traders=()))]
        assert codes == ["EmptyTraderList"]

    def test_nonpositive_gamma(self):
        traders = (TraderParams(gamma=0.0, rho=0.05),)
        codes = [v.code for v in check_params(raw(traders=traders))]
        assert codes == ["NonPositiveGamma"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_initial_inventory(self, bad):
        traders = (TraderParams(gamma=1.0, rho=0.05, initial_inventory=bad),)
        codes = [v.code for v in check_params(raw(traders=traders))]
        assert codes == ["NonFiniteInventory"]

    def test_rho_dt_must_stay_below_one(self):
        traders = (TraderParams(gamma=1.0, rho=300.0),)
        codes = [v.code for v in check_params(raw(dt=0.004, traders=traders))]
        assert codes == ["DiscountOutOfRange"]

    def test_large_rho_allowed_when_dt_is_zero(self):
        traders = (TraderParams(gamma=1.0, rho=300.0),)
        assert check_params(raw(dt=0.0, traders=traders)) == []

    def test_bool_fields_are_rejected(self):
        codes = [v.code for v in check_params(raw(sigma_S=True))]
        assert codes == ["NonPositiveVolatility"]

    def test_all_violations_are_collected(self):
        traders = (TraderParams(gamma=-1.0, rho=-0.05),)
        bad = raw(sigma_S=-1.0, sigma_K=0.0, dt=-1.0, tax=-1.0, traders=traders)
        codes = sorted(v.code for v in check_params(bad))
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
        np = pytest.importorskip("numpy")
        traders = (TraderParams(np.int64(2), np.float32(0.25), 1),)
        p = validate(MarketParams(np.float32(1.5), 2, np.float64(0.01), traders, tax=np.int32(0)))
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
        codes = [v.code for v in check_params(raw(**{field: bad}))]
        assert codes == [code]

    def test_reals_outside_the_float_range_are_refused_with_their_codes(self):
        from fractions import Fraction

        traders = (TraderParams(gamma=Fraction(1, 10**400), rho=-(10**400)),)
        codes = [v.code for v in check_params(raw(sigma_S=10**400, dt=Fraction(10**400, 3), traders=traders))]
        assert codes == ["NonPositiveVolatility", "DiscountOutOfRange", "NonPositiveGamma", "DiscountOutOfRange"]
        cfg = {"sigma_S": 10**400, "sigma_K": 1.0, "dt": 0.01, "traders": [{"gamma": 1.0, "rho": 0.05}]}
        with pytest.raises(InvalidParamsError) as exc:
            load_config(cfg)
        assert exc.value.codes == ["NonPositiveVolatility"]

    def test_numpy_non_finite_and_bool_keep_their_codes(self):
        np = pytest.importorskip("numpy")
        traders = (TraderParams(np.float32("nan"), np.bool_(True), np.float64("inf")),)
        codes = [v.code for v in check_params(raw(sigma_S=np.float32("inf"), traders=traders))]
        assert codes == ["NonPositiveVolatility", "NonPositiveGamma", "DiscountOutOfRange", "NonFiniteInventory"]


class TestValidate:
    def test_validate_returns_frozen_container(self):
        p = validate(raw())
        assert isinstance(p, ValidatedParams)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.sigma_S = 2.0

    def test_invalid_raises_with_codes(self):
        with pytest.raises(InvalidParamsError) as exc:
            validate(raw(sigma_S=-1.0))
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

    def test_vol_ratio_sq(self):
        p = make_params(sigma_S=2.0, sigma_K=3.0)
        assert p.vol_ratio_sq == pytest.approx((3.0 / 2.0) ** 2, rel=1e-15)

    def test_accessors(self):
        p = make_params(k=3, gammas=[0.5, 1.0, 2.0], rhos=[0.05], l0=[1.0, 0.0, -2.0])
        assert p.k == 3
        assert p.gammas == (0.5, 1.0, 2.0)
        assert p.rhos == (0.05, 0.05, 0.05)
        assert p.initial_inventories == (1.0, 0.0, -2.0)

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
    p = validate(MarketParams(sigma_S, sigma_K, dt, traders, tax))
    assert load_config(params_to_config(p)) == p
    assert p.k == len(gammas)
