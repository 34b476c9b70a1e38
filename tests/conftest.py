from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import zoneinvest.policy
from zoneinvest.scenario import DEFAULTS, Scenario, generate_synthetic_scenario

# Settings of every property test: a fixed example set, no example database.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Zone ids the text formats carry: one non-empty line, no comma, no
# surrounding whitespace (the rule ``Scenario.validate`` enforces).
ZONE_IDS = st.text(min_size=1, max_size=6).filter(
    lambda z: z.splitlines() == [z] and "," not in z and z == z.strip())

# Finite floats, always with the edge values a round trip must keep.
FINITE = (st.sampled_from([-0.0, 5e-324, -1e300, 1e300])
          | st.floats(allow_nan=False, allow_infinity=False))


def make_scenario(demand, subzone_to_zone, volatility, *, cwz=0.0, ciz=0.0,
                  gamma=DEFAULTS["gamma"], drift=0.0, price=2.42, tiv=10.0,
                  horizon=DEFAULTS["horizon_steps"],
                  discount=DEFAULTS["discount_rate"]):
    """Hand-built scenario around an explicit demand matrix."""
    n = len(subzone_to_zone)
    demand = np.asarray(demand, dtype=float)
    zones = tuple(dict.fromkeys(subzone_to_zone.values()))
    return Scenario(
        zones=zones,
        subzone_to_zone=dict(subzone_to_zone),
        base_demand=demand,
        trip_price=np.full((n, n), float(price)),
        in_vehicle_time=np.full((n, n), float(tiv)),
        value_of_time=DEFAULTS["value_of_time"],
        alpha_wait=DEFAULTS["alpha_wait"],
        alpha_iv=DEFAULTS["alpha_iv"],
        gamma=gamma,
        speed=DEFAULTS["speed"],
        within_zone_cost=cwz,
        interzone_cost=ciz,
        zone_volatility=dict(volatility),
        drift=drift,
        discount_rate=discount,
        horizon_steps=horizon,
    )


def region_scenario(scenario, region):
    """``scenario`` cut down to the zones of ``region``: every matrix is its
    hand-extracted sub-matrix over the region's sub-zones."""
    idx = scenario.subzone_indices(region)
    ix = np.ix_(idx, idx)
    subzones = [scenario.subzones[i] for i in idx]
    return replace(
        scenario, zones=tuple(z for z in scenario.zones if z in region),
        subzone_to_zone={s: scenario.subzone_to_zone[s] for s in subzones},
        base_demand=scenario.base_demand[ix],
        trip_price=scenario.trip_price[ix],
        in_vehicle_time=scenario.in_vehicle_time[ix],
        zone_volatility={z: scenario.zone_volatility[z] for z in region})


def single_od_scenario(q0, *, sigma=0.3, strike=100.0, gamma=0.0, drift=0.0):
    """One zone, one sub-zone: with gamma=0 the state is the raw GBM demand
    and the payoff is demand - strike."""
    return make_scenario([[q0]], {"a1": "A"}, {"A": sigma}, cwz=strike,
                         gamma=gamma, drift=drift)


@pytest.fixture(scope="session")
def synth7():
    return generate_synthetic_scenario(1, 7, 3, 100.0)


@pytest.fixture(scope="session")
def two_zone():
    demand = [[40.0, 25.0, 10.0, 5.0],
              [20.0, 50.0, 8.0, 12.0],
              [9.0, 6.0, 45.0, 30.0],
              [4.0, 11.0, 22.0, 35.0]]
    mapping = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
    return make_scenario(demand, mapping, {"A": 0.2, "B": 0.3},
                         cwz=10.0, ciz=4.0)


@pytest.fixture()
def pool_sizes(monkeypatch):
    """``max_workers`` of every process pool the library builds, in order."""
    built = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(zoneinvest.policy, "ProcessPoolExecutor", CountedPool)
    return built
