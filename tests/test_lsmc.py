import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermevander

from zoneinvest.lsmc import (DEFER, INVEST, NEVER, continuation_fit,
                             valuate_sequence, valuate_sequences)
from zoneinvest.ridership import (RidershipCache, cumulative_ridership,
                                  payoff_threshold)
from zoneinvest.scenario import generate_synthetic_scenario
from zoneinvest.sequences import Sequence
from zoneinvest.stochastic import simulate_paths

from conftest import PROPERTY, make_scenario, single_od_scenario
from oracles import (binomial_option_value, compound_schedule_optimum,
                     polyfit_normal_equations)


class TestContinuationFit:
    def test_constant_targets_fit_exactly(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=200)
        basis, fitted = continuation_fit(states, np.full(200, 3.25))
        assert np.allclose(fitted, 3.25, atol=1e-10)
        assert basis.coefficients[0] == pytest.approx(3.25, abs=1e-10)
        assert np.allclose(basis.coefficients[1:], 0.0, atol=1e-10)

    def test_linear_targets_contained_in_basis(self):
        rng = np.random.default_rng(1)
        states = rng.normal(10.0, 4.0, size=300)
        targets = 2.0 * states - 7.0
        _, fitted = continuation_fit(states, targets)
        assert np.allclose(fitted, targets, atol=1e-9)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        states = rng.normal(50.0, 9.0, size=300)
        targets = rng.normal(size=300)
        basis, fitted = continuation_fit(states, targets)
        z = (states - states.mean()) / states.std()
        design = hermevander(z, 2)
        beta = polyfit_normal_equations(design, targets)
        assert np.allclose(fitted, design @ beta, atol=1e-6)
        assert not basis.rank_deficient

    def test_constant_state_degenerates_to_mean(self):
        targets = np.arange(10.0)
        basis, fitted = continuation_fit(np.full(10, 7.0), targets)
        assert basis.state_std == 0.0
        assert np.allclose(fitted, targets.mean())

    def test_rank_deficiency_flagged(self):
        states = np.tile([0.0, 1.0], 50)
        targets = np.arange(100.0)
        basis, _ = continuation_fit(states, targets)
        assert basis.rank_deficient

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError):
            continuation_fit(np.ones(2), np.ones(2))


def deterministic_scenario():
    # growth below the discount rate: interior optimal stopping, staggered
    # across chain positions by the interzone cost
    demand = np.array([[30.0, 6.0, 3.0],
                       [5.0, 22.0, 4.0],
                       [2.0, 7.0, 14.0]])
    mapping = {"a1": "A", "b1": "B", "c1": "C"}
    vol = {"A": 0.0, "B": 0.0, "C": 0.0}
    return make_scenario(demand, mapping, vol, cwz=24.0, ciz=3.0,
                         gamma=0.0, drift=0.10, discount=0.30)


class TestWorthlessOption:
    def test_huge_thresholds_value_zero_all_defer(self, two_zone):
        scen = make_scenario(two_zone.base_demand, two_zone.subzone_to_zone,
                             two_zone.zone_volatility, cwz=1e9, ciz=1e9)
        paths = simulate_paths(scen, 60, seed=2)
        val = valuate_sequence(Sequence(("A", "B")), paths, scen)
        assert val.policy_value == 0.0
        assert val.decisions_t0 == (DEFER, DEFER)
        assert np.all(val.stopping_times == NEVER)
        assert np.all(val.per_zone_value_t0 == 0.0)


class TestDeterministicDP:
    def test_sigma_zero_matches_schedule_enumeration(self):
        scen = deterministic_scenario()
        paths = simulate_paths(scen, 4, seed=1)
        times = scen.horizon_steps
        growth = np.exp(scen.drift * np.asarray(times))
        order = ("A", "B", "C")
        idx_of = {"A": 0, "B": 1, "C": 2}

        def region_sum(zones):
            ids = [idx_of[z] for z in zones]
            return scen.base_demand[np.ix_(ids, ids)].sum()

        payoff = []
        for h in range(3):
            marginal0 = region_sum(order[:h + 1]) - region_sum(order[:h])
            thr = payoff_threshold(h + 1, scen)
            # column 0 is t0, then the five horizon steps
            payoff.append([marginal0 - thr]
                          + [marginal0 * g - thr for g in growth])
        expected = compound_schedule_optimum(payoff, times, scen.discount_rate)

        val = valuate_sequence(Sequence(order), paths, scen)
        assert val.policy_value == pytest.approx(expected, abs=1e-9)
        # timing is non-trivial in this instance: nothing worth buying at t0
        assert expected > max(0.0, sum(p[0] for p in payoff))

    def test_all_orderings_match_oracle(self):
        scen = deterministic_scenario()
        paths = simulate_paths(scen, 3, seed=1)
        times = scen.horizon_steps
        growth = np.exp(scen.drift * np.asarray(times))
        idx_of = {"A": 0, "B": 1, "C": 2}
        for order in itertools.permutations(("A", "B", "C")):
            payoff = []
            for h in range(3):
                ids_cur = [idx_of[z] for z in order[:h + 1]]
                ids_prev = [idx_of[z] for z in order[:h]]
                marg = (scen.base_demand[np.ix_(ids_cur, ids_cur)].sum()
                        - scen.base_demand[np.ix_(ids_prev, ids_prev)].sum())
                thr = payoff_threshold(h + 1, scen)
                payoff.append([marg - thr] + [marg * g - thr for g in growth])
            expected = compound_schedule_optimum(payoff, times,
                                                 scen.discount_rate)
            val = valuate_sequence(Sequence(order), paths, scen)
            assert val.policy_value == pytest.approx(expected, abs=1e-9), order

    @PROPERTY
    @given(st.data())
    def test_sigma_zero_equals_schedule_dp(self, data):
        """On random small zero-volatility scenarios, with or without a
        covered zone, every ordering's LSMC value is the schedule optimum
        of its deterministic per-position payoffs."""
        draw = data.draw
        n_covered = draw(st.integers(0, 1))
        n_zones = draw(st.integers(2, 3)) + n_covered
        zones = [chr(ord("A") + i) for i in range(n_zones)]
        covered, candidates = zones[:n_covered], zones[n_covered:]
        mapping = {f"{z.lower()}1": z for z in zones}
        demand = draw(st.lists(st.floats(0.0, 60.0, allow_subnormal=False),
                               min_size=n_zones ** 2, max_size=n_zones ** 2))
        cost = st.floats(0.0, 40.0, allow_subnormal=False)
        scen = make_scenario(np.reshape(demand, (n_zones, n_zones)), mapping,
                             {z: 0.0 for z in zones}, cwz=draw(cost),
                             ciz=draw(cost), drift=draw(st.floats(-0.1, 0.2)),
                             discount=draw(st.floats(0.0, 0.3)))
        paths = simulate_paths(scen, 4, seed=draw(st.integers(0, 2**16)))
        steps = [scen.base_demand] + list(paths.values[0])
        for order in itertools.permutations(candidates):
            prev = [cumulative_ridership((), d, scen, covered) for d in steps]
            payoff = []
            for h in range(1, len(order) + 1):
                cur = [cumulative_ridership(order[:h], d, scen, covered)
                       for d in steps]
                thr = payoff_threshold(h, scen, len(covered))
                payoff.append([c - p - thr for c, p in zip(cur, prev)])
                prev = cur
            expected = compound_schedule_optimum(payoff, scen.horizon_steps,
                                                 scen.discount_rate)
            got = valuate_sequence(Sequence(order), paths, scen,
                                   covered=covered).policy_value
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), order

    def test_sigma_zero_value_dominates_invest_all_npv(self):
        from zoneinvest.policy import deterministic_npv
        scen = deterministic_scenario()
        paths = simulate_paths(scen, 3, seed=1)
        val = valuate_sequence(Sequence(("A", "B", "C")), paths, scen)
        assert val.policy_value >= deterministic_npv(("A", "B", "C"), scen)


class TestSingleOptionLattice:
    @pytest.mark.parametrize("sigma", [0.1, 0.3])
    def test_matches_binomial_oracle(self, sigma):
        scen = single_od_scenario(100.0, sigma=sigma, strike=100.0)
        paths = simulate_paths(scen, 10_000, seed=14)
        val = valuate_sequence(Sequence(("A",)), paths, scen)
        lattice = binomial_option_value(100.0, 100.0, sigma, drift=0.0,
                                        discount_rate=0.02, t_end=5.0,
                                        n_steps=1000)
        assert val.policy_value == pytest.approx(lattice, rel=0.02)

    def test_value_monotone_in_volatility_with_common_randoms(self):
        values = []
        for sigma in (0.05, 0.2, 0.4):
            scen = single_od_scenario(100.0, sigma=sigma, strike=110.0)
            paths = simulate_paths(scen, 20_000, seed=33)
            values.append(valuate_sequence(Sequence(("A",)), paths,
                                           scen).policy_value)
        assert values[0] <= values[1] * 1.01
        assert values[1] <= values[2] * 1.01


@pytest.fixture(scope="module")
def setup():
    scen = generate_synthetic_scenario(4, 3, 2, 80.0)
    paths = simulate_paths(scen, 200, seed=6)
    val = valuate_sequence(Sequence(scen.zones), paths, scen)
    return scen, paths, val


class TestValuationStructure:

    def test_policy_value_nonnegative(self, setup):
        _, _, val = setup
        assert val.policy_value >= 0.0

    def test_stopping_times_monotone_along_chain(self, setup):
        _, _, val = setup
        tau = val.stopping_times
        for h in range(tau.shape[0] - 1):
            both = (tau[h] != NEVER) & (tau[h + 1] != NEVER)
            assert np.all(tau[h + 1, both] >= tau[h, both])
            # an unexercised option gates the whole remaining chain
            assert np.all(tau[h + 1, tau[h] == NEVER] == NEVER)

    def test_defer_cascade_in_t0_decisions(self, setup):
        _, _, val = setup
        decs = val.decisions_t0
        if DEFER in decs:
            first = decs.index(DEFER)
            assert all(d == DEFER for d in decs[first:])

    def test_reproducible_and_cache_invariant(self, setup):
        scen, paths, val = setup
        again = valuate_sequence(Sequence(scen.zones), paths, scen)
        shared = RidershipCache(scen, paths)
        cached = valuate_sequences([Sequence(scen.zones)], shared)[0]
        for other in (again, cached):
            assert other.policy_value == val.policy_value
            assert np.array_equal(other.stopping_times, val.stopping_times)
            assert np.array_equal(other.per_zone_value_t0,
                                  val.per_zone_value_t0)
            assert other.decisions_t0 == val.decisions_t0

    def test_empty_sequence_is_worth_zero(self, setup):
        scen, paths, _ = setup
        val = valuate_sequence(Sequence(()), paths, scen)
        assert val.policy_value == 0.0

    def test_covered_overlap_rejected(self, setup):
        scen, paths, _ = setup
        with pytest.raises(ValueError, match="covered"):
            valuate_sequence(Sequence(scen.zones), paths, scen,
                             covered=(scen.zones[0],))

    def test_value_at_least_own_t0_exercise(self, setup):
        scen, paths, val = setup
        from zoneinvest.policy import deterministic_npv
        invested = [z for z, d in zip(scen.zones, val.decisions_t0)
                    if d == INVEST]
        if invested:
            npv = deterministic_npv(tuple(invested), scen)
            assert val.policy_value >= npv - 1e-9
