from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zoneinvest.scenario import generate_synthetic_scenario
from zoneinvest.stochastic import (_path_states, dump_paths, load_paths,
                                   simulate_paths)

from conftest import PROPERTY, make_scenario, single_od_scenario
from oracles import per_path_gbm

# Seeds on and across the 32-bit word boundaries of SeedSequence's entropy,
# including more than the four words its pool holds, and numpy integers.
SEEDS = st.one_of(
    st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 128 - 1, 2 ** 128,
                     2 ** 200 + 11]),
    st.integers(0, 2 ** 32 - 1).map(np.uint32),
    st.integers(0, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 2 ** 320),
)


def test_zero_volatility_zero_drift_is_constant():
    scen = single_od_scenario(80.0, sigma=0.0)
    paths = simulate_paths(scen, 20, seed=1)
    assert np.allclose(paths.values, 80.0)


def test_zero_initial_demand_is_absorbing():
    scen = make_scenario([[0.0, 30.0], [25.0, 40.0]],
                         {"a1": "A", "b1": "B"}, {"A": 0.3, "B": 0.2})
    paths = simulate_paths(scen, 50, seed=3)
    assert np.all(paths.values[:, :, 0, 0] == 0.0)
    assert np.all(paths.values[:, :, 0, 1] > 0.0)


def test_moments_match_gbm_formulas():
    q0, sigma, t_end = 100.0, 0.3, 5.0
    scen = single_od_scenario(q0, sigma=sigma)
    paths = simulate_paths(scen, 100_000, seed=11)
    terminal = paths.values[:, -1, 0, 0]
    assert terminal.mean() == pytest.approx(q0, rel=0.01)
    log_growth = np.log(terminal / q0)
    assert log_growth.var() == pytest.approx(sigma ** 2 * t_end, rel=0.02)


def test_martingale_error_shrinks_with_paths():
    scen = single_od_scenario(100.0, sigma=0.25)
    errs = []
    for n in (2000, 32_000):
        paths = simulate_paths(scen, n, seed=5)
        errs.append(abs(paths.values[:, -1, 0, 0].mean() - 100.0))
    assert errs[1] < errs[0]
    assert errs[1] < 100.0 * 0.25 * np.sqrt(5) * 3 / np.sqrt(32_000)


def test_log_increments_uncorrelated():
    scen = single_od_scenario(100.0, sigma=0.3)
    paths = simulate_paths(scen, 50_000, seed=9)
    q = paths.values[:, :, 0, 0]
    inc = np.diff(np.log(q), axis=1)
    corr = np.corrcoef(inc[:, 0], inc[:, 3])[0, 1]
    assert abs(corr) < 0.02


def test_origin_zone_volatility_applies_per_row(two_zone):
    paths = simulate_paths(two_zone, 40_000, seed=13)
    q = paths.values[:, -1]
    log_var_a = np.log(q[:, 0, 2] / two_zone.base_demand[0, 2]).var()
    log_var_b = np.log(q[:, 2, 0] / two_zone.base_demand[2, 0]).var()
    assert log_var_a == pytest.approx(0.2 ** 2 * 5, rel=0.03)  # origin zone A
    assert log_var_b == pytest.approx(0.3 ** 2 * 5, rel=0.03)  # origin zone B


def test_seed_changes_values_and_prefix_paths_are_stable(two_zone):
    a = simulate_paths(two_zone, 10, seed=1)
    b = simulate_paths(two_zone, 10, seed=2)
    assert not np.array_equal(a.values, b.values)
    more = simulate_paths(two_zone, 15, seed=1)
    assert np.array_equal(more.values[:10], a.values)


def test_values_nonnegative_and_deterministic(two_zone):
    a = simulate_paths(two_zone, 25, seed=4)
    b = simulate_paths(two_zone, 25, seed=4)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values >= 0.0)


@pytest.mark.parametrize("n_zones,drift", [(5, 0.0), (7, 0.0), (7, 0.03)])
def test_stacked_pass_equals_per_path_loop(n_zones, drift):
    scen = replace(generate_synthetic_scenario(n_zones, n_zones, 3, 100.0),
                   drift=drift)
    assert np.array_equal(simulate_paths(scen, 40, seed=7).values,
                          per_path_gbm(scen, 40, 7))


@PROPERTY
@given(seed=SEEDS, n_paths=st.integers(1, 50))
def test_derived_states_equal_seed_sequence(seed, n_paths):
    states = _path_states(seed, n_paths)
    assert len(states) == n_paths
    for p, (state, inc) in enumerate(states):
        want = np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(p,))).state["state"]
        assert (state, inc) == (want["state"], want["inc"])


SMALL = generate_synthetic_scenario(3, 2, 2, 100.0)


@PROPERTY
@given(seed=SEEDS, n_paths=st.integers(1, 50))
def test_paths_equal_per_path_loop_for_any_seed(seed, n_paths):
    assert np.array_equal(simulate_paths(SMALL, n_paths, seed).values,
                          per_path_gbm(SMALL, n_paths, seed))


@pytest.mark.parametrize("seed", [-1, np.int64(-1)])
def test_negative_seed_named_in_error(two_zone, seed):
    with pytest.raises(ValueError,
                       match="seed must be a non-negative integer, got -1"):
        simulate_paths(two_zone, 3, seed)


@pytest.mark.parametrize("seed", [1.5, "3", None])
def test_non_integer_seed_rejected(two_zone, seed):
    with pytest.raises(TypeError, match="seed must be a non-negative integer"):
        simulate_paths(two_zone, 3, seed)


def test_n_paths_validated(two_zone):
    with pytest.raises(ValueError):
        simulate_paths(two_zone, 0, seed=1)


def test_dump_and_load_round_trip(tmp_path, two_zone):
    paths = simulate_paths(two_zone, 6, seed=8)
    f = tmp_path / "paths.csv"
    dump_paths(paths, f)
    again = load_paths(f)
    assert np.array_equal(again, paths.values)
    header = f.read_text().splitlines()[0]
    assert header == "6,5,4"
