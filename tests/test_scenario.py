import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from zoneinvest.ridership import equilibrium_ridership
from zoneinvest.scenario import (ScenarioError, derive_cost_thresholds,
                                 generate_synthetic_scenario, load_scenario,
                                 save_scenario)

from conftest import make_scenario


def write_config(tmp_path, n=4, **overrides):
    subzones = ["a1", "a2", "b1", "b2"][:n]
    demand = [[10.0 * (i + j + 1) for j in range(n)] for i in range(n)]
    (tmp_path / "demand.csv").write_text(
        ",".join(subzones) + "\n"
        + "\n".join(",".join(str(v) for v in row) for row in demand) + "\n")
    cfg = {
        "zones": ["A", "B"],
        "subzone_to_zone": {"a1": "A", "a2": "A", "b1": "B", "b2": "B"},
        "base_demand": "demand.csv",
        "trip_price": 2.42,
        "in_vehicle_time": 12.0,
        "zone_volatility": {"A": 0.2, "B": 0.3},
        "within_zone_cost": 5.0,
        "interzone_cost": 3.0,
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_load_round_trips_declared_fields(tmp_path):
    scen = load_scenario(write_config(tmp_path))
    assert scen.zones == ("A", "B")
    assert scen.n_subzones == 4
    assert scen.base_demand[0, 1] == 20.0
    assert scen.within_zone_cost == 5.0


def test_missing_discount_rate_defaults_to_two_percent(tmp_path):
    scen = load_scenario(write_config(tmp_path))
    assert scen.discount_rate == 0.02
    assert scen.gamma == 0.005
    assert scen.alpha_wait == 2.1
    assert scen.alpha_iv == 1.0
    assert scen.value_of_time == 0.293
    assert scen.speed == 19.31
    assert scen.horizon_steps == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_dimension_mismatch_reported(tmp_path):
    path = write_config(tmp_path)
    (tmp_path / "demand.csv").write_text(
        "a1,a2,b1,b2\n1,2,3,4\n5,6,7,8\n9,10,11,12\n")
    with pytest.raises(ScenarioError, match="shape"):
        load_scenario(path)


def test_invariant_violations_name_the_field(tmp_path):
    with pytest.raises(ScenarioError, match="zone_volatility"):
        load_scenario(write_config(tmp_path, zone_volatility={"A": 0.2}))
    with pytest.raises(ScenarioError, match="gamma"):
        load_scenario(write_config(tmp_path, gamma=1.5))
    with pytest.raises(ScenarioError, match="horizon"):
        load_scenario(write_config(tmp_path, horizon_steps=[1, 1, 2]))


@pytest.mark.parametrize("field", ["value_of_time", "alpha_wait", "alpha_iv",
                                   "gamma", "speed", "drift", "discount_rate",
                                   "within_zone_cost", "interzone_cost"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_scalar_rejected(two_zone, field, bad):
    with pytest.raises(ScenarioError, match=f"{field} must be finite"):
        replace(two_zone, **{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_volatility_and_horizon_rejected(two_zone, bad):
    with pytest.raises(ScenarioError, match="zone_volatility"):
        replace(two_zone, zone_volatility={"A": 0.2, "B": bad})
    with pytest.raises(ScenarioError, match="horizon_steps must be finite"):
        replace(two_zone, horizon_steps=(1.0, 2.0, bad))
    with pytest.raises(ScenarioError, match="horizon_steps must be finite"):
        replace(two_zone, horizon_steps=(bad, 2.0))


def test_nan_in_config_rejected(tmp_path):
    # JSON parses NaN, so a config can carry one into every field.
    for key in ("discount_rate", "drift", "within_zone_cost"):
        with pytest.raises(ScenarioError, match=key):
            load_scenario(write_config(tmp_path, **{key: math.nan}))
    with pytest.raises(ScenarioError, match="horizon"):
        load_scenario(write_config(tmp_path, horizon_steps=[1, math.nan]))


@pytest.mark.parametrize("override, field", [
    ({"within_zone_cost": "auto"}, "within_zone_cost"),
    ({"interzone_cost": [3.0]}, "interzone_cost"),
    ({"gamma": "x"}, "gamma"),
    ({"speed": "fast"}, "speed"),
    ({"discount_rate": None}, "discount_rate"),
    ({"zone_volatility": {"A": 0.2, "B": "hi"}}, "zone_volatility"),
    ({"horizon_steps": [1, "two"]}, "horizon_steps"),
    ({"horizon_steps": "135"}, "horizon_steps"),   # not read as (1, 3, 5)
    ({"horizon_steps": 5}, "horizon_steps"),
])
def test_non_numeric_config_value_names_the_field(tmp_path, override, field):
    with pytest.raises(ScenarioError, match=field):
        load_scenario(write_config(tmp_path, **override))


FOUR = np.ones((4, 4))


@pytest.mark.parametrize("override, field", [
    ({"zones": ()}, "zones is empty"),
    ({"zones": ("A", "B", "A")}, "zones has duplicate ids"),
    ({"subzone_to_zone": {"a1": "A", "a2": "A", "b1": "B", "b2": "C"}},
     r"subzone_to_zone maps to unknown zones: \['C'\]"),
    ({"zones": ("A", "B", "C"),
      "zone_volatility": {"A": 0.2, "B": 0.3, "C": 0.1}},
     r"zones without sub-zones: \['C'\]"),
    ({"base_demand": np.ones((4, 3))}, r"base_demand has shape \(4, 3\)"),
    ({"trip_price": -FOUR}, "trip_price must be finite and >= 0"),
    ({"in_vehicle_time": np.where(np.eye(4), np.inf, FOUR)},
     "in_vehicle_time must be finite and >= 0"),
    ({"base_demand": np.where(np.eye(4), np.nan, FOUR)},
     "base_demand must be finite and >= 0"),
    ({"discount_rate": -1.0}, "discount_rate must be > -1"),
    ({"speed": 0.0}, "speed must be positive"),
    ({"horizon_steps": (0.0, 1.0)}, "horizon_steps must start after t0"),
    ({"zones": ("A", "B", "C,D")}, "zone id 'C,D'"),
    ({"zones": ("A", "B", "")}, "zone id ''"),
    ({"zones": ("A", "B", "C ")}, "zone id 'C '"),
    ({"zones": ("A", "B", 3)}, "zone id 3"),
    ({"subzone_to_zone": {"a1": "A", "a,2": "A", "b1": "B", "b2": "B"}},
     "sub-zone id 'a,2'"),
    ({"subzone_to_zone": {"a1": "A", "a2": "A", "\tb1": "B", "b2": "B"}},
     r"sub-zone id '\\tb1'"),
    ({"subzone_to_zone": {"a1": "A", "a2": "A", "b\u2028b1": "B", "b2": "B"}},
     r"sub-zone id 'b\\u2028b1'"),
], ids=["no-zones", "duplicate-zones", "unknown-zone", "empty-zone",
        "matrix-shape", "negative-matrix", "infinite-matrix", "nan-matrix",
        "discount", "speed", "horizon-start", "comma-zone-id", "empty-zone-id",
        "padded-zone-id", "non-string-zone-id", "comma-subzone-id",
        "padded-subzone-id", "line-break-subzone-id"])
def test_scenario_rejects_broken_invariant(two_zone, override, field):
    with pytest.raises(ScenarioError, match=field):
        replace(two_zone, **override)


def _csv_for(key, text):
    """Point config ``key`` at a new CSV file holding ``text``."""
    def mutate(doc, folder):
        (folder / "bad.csv").write_text(text)
        doc[key] = "bad.csv"
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (lambda doc, folder: doc.pop("zones"), "missing required key 'zones'"),
    (lambda doc, folder: doc.pop("zone_volatility"),
     "missing required key 'zone_volatility'"),
    (lambda doc, folder: doc.pop("trip_price"), "missing 'trip_price'"),
    (lambda doc, folder: doc.pop("in_vehicle_time"),
     "'in_vehicle_time' or 'subzone_coordinates'"),
    (_csv_for("base_demand", "\n"), r"base_demand \(.*bad.csv\): empty matrix"),
    (_csv_for("base_demand", "a1,a2,b1,x9\n" + "1,1,1,1\n" * 4),
     r"base_demand \(.*bad.csv\): header"),
    (_csv_for("base_demand",
              "a1,a2,b1,b2\n" + "1,1,1,1\n" * 3 + "1,1,many,1\n"),
     r"base_demand \(.*bad.csv\): non-numeric value"),
    (_csv_for("trip_price", "\n"), r"trip_price \(.*bad.csv\): empty matrix"),
    (lambda doc, folder: doc.update(zones=5), "zones must be a list"),
    (lambda doc, folder: doc.update(zones={"A": 1, "B": 2}),
     "zones must be a list"),
    (lambda doc, folder: doc.update(zones=["A", 2]), "zones must be a list"),
    (lambda doc, folder: doc.update(
        subzone_to_zone=[["a1", "A"], ["a2", "A"], ["b1", "B"], ["b2", "B"]]),
     "subzone_to_zone must be an object"),
    (lambda doc, folder: doc["subzone_to_zone"].update(b2=None),
     "subzone_to_zone must be an object"),
    (lambda doc, folder: doc.update(zones=["A", "B,C"]), "zone id 'B,C'"),
], ids=["zones", "volatility", "trip-price", "travel-time", "empty-csv",
        "header", "non-numeric", "csv-names-its-key", "zones-number",
        "zones-object", "zones-non-string", "subzones-list",
        "subzones-non-string", "comma-zone-id"])
def test_load_scenario_rejects_config_naming_the_field(tmp_path, mutate,
                                                       field):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    mutate(doc, tmp_path)
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)


def test_inline_matrix_accepted(tmp_path):
    demand = [[10.0, 1.0, 2.0, 3.0], [4.0, 20.0, 5.0, 6.0],
              [7.0, 8.0, 30.0, 9.0], [1.5, 2.5, 3.5, 40.0]]
    scen = load_scenario(write_config(tmp_path, base_demand=demand))
    assert np.array_equal(scen.base_demand, demand)


def test_given_cost_kept_when_the_other_is_derived(tmp_path):
    scen = load_scenario(write_config(tmp_path, interzone_cost="derive"))
    assert scen.within_zone_cost == 5.0
    assert scen.interzone_cost == derive_cost_thresholds(scen)[1]


def test_save_load_round_trip(tmp_path):
    scen = load_scenario(write_config(tmp_path))
    save_scenario(scen, tmp_path / "copy" / "scenario.json")
    again = load_scenario(tmp_path / "copy" / "scenario.json")
    assert again == scen


def test_tiv_derived_from_coordinates(tmp_path):
    cfg = write_config(tmp_path)
    doc = json.loads(cfg.read_text())
    del doc["in_vehicle_time"]
    doc["subzone_coordinates"] = {"a1": [0, 0], "a2": [0, 1],
                                  "b1": [1, 0], "b2": [1, 1]}
    cfg.write_text(json.dumps(doc))
    scen = load_scenario(cfg)
    # 1 km at 19.31 km/hr is ~3.107 minutes
    assert scen.in_vehicle_time[0, 1] == pytest.approx(60.0 / 19.31)
    assert scen.in_vehicle_time[0, 0] == 0.0


class TestCostThresholds:
    def test_all_zero_demand_warns_and_returns_zero(self):
        scen = make_scenario(np.zeros((2, 2)), {"a1": "A", "b1": "B"},
                             {"A": 0.1, "B": 0.1})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert derive_cost_thresholds(scen) == (0.0, 0.0)
        assert [w.category for w in caught] == [UserWarning]

    def test_single_zone_has_no_interzone_pairs(self):
        scen = make_scenario([[50.0, 10.0], [20.0, 40.0]],
                             {"a1": "A", "a2": "A"}, {"A": 0.1})
        within, inter = derive_cost_thresholds(scen)
        assert inter == 0.0
        assert within > 0.0

    def test_matches_hand_computation_on_two_zones(self, two_zone):
        lam = equilibrium_ridership(two_zone.base_demand, two_zone).od_ridership
        within = 0.5 * (lam[:2, :2].sum() + lam[2:, 2:].sum())
        inter = 0.5 * (lam[:2, 2:].sum() + lam[2:, :2].sum())
        assert derive_cost_thresholds(two_zone) == pytest.approx(
            (0.4 * within, inter), rel=1e-12)

    def test_invariant_under_subzone_relabeling(self, two_zone):
        perm = [2, 0, 3, 1]
        names = [two_zone.subzones[i] for i in perm]
        mapping = {s: two_zone.subzone_to_zone[s] for s in names}
        shuffled = make_scenario(
            two_zone.base_demand[np.ix_(perm, perm)], mapping,
            two_zone.zone_volatility, cwz=two_zone.within_zone_cost,
            ciz=two_zone.interzone_cost)
        assert derive_cost_thresholds(shuffled) == pytest.approx(
            derive_cost_thresholds(two_zone), rel=1e-9)


class TestSynthetic:
    def test_shapes(self):
        scen = generate_synthetic_scenario(1, 7, 3, 100.0)
        assert len(scen.zones) == 7
        assert scen.n_subzones == 21
        scen.validate()

    def test_deterministic(self):
        assert generate_synthetic_scenario(3, 4, 2, 50.0) == \
            generate_synthetic_scenario(3, 4, 2, 50.0)

    def test_thresholds_of_loaded_equal_generated(self, tmp_path):
        scen = generate_synthetic_scenario(1, 4, 2, 100.0)
        save_scenario(scen, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["within_zone_cost"] = "derive"
        del doc["interzone_cost"]
        (tmp_path / "s.json").write_text(json.dumps(doc))
        loaded = load_scenario(tmp_path / "s.json")
        assert (loaded.within_zone_cost, loaded.interzone_cost) == \
            derive_cost_thresholds(scen) == \
            (scen.within_zone_cost, scen.interzone_cost)

    def test_zero_demand_degenerate(self):
        scen = generate_synthetic_scenario(2, 1, 1, 0.0)
        assert scen.base_demand.sum() == 0.0
        assert scen.within_zone_cost == 0.0
        scen.validate()

    def test_volatilities_from_standard_grid(self):
        scen = generate_synthetic_scenario(5, 8, 2, 10.0)
        assert set(scen.zone_volatility.values()) <= {
            0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}

    def test_negative_demand_scale_rejected(self):
        with pytest.raises(ValueError, match="demand_scale must be >= 0"):
            generate_synthetic_scenario(1, 3, 2, -1.0)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_scenario(1, 0, 3, 10.0)
        with pytest.raises(ValueError):
            generate_synthetic_scenario(1, 3, 0, 10.0)
