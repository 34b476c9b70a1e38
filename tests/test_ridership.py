import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zoneinvest import ridership
from zoneinvest._chunks import chunk_slices
from zoneinvest.ridership import (ConvergenceError, RidershipCache,
                                  _cost_factor, cumulative_ridership,
                                  equilibrium_ridership, payoff_threshold,
                                  zone_payoff)
from zoneinvest.scenario import generate_synthetic_scenario
from zoneinvest.stochastic import simulate_paths

from conftest import (PROPERTY, make_scenario, region_scenario,
                      single_od_scenario)
from oracles import (bisect_ridership_root, gathered_region_totals,
                     masked_iterate_wait, region_cost_factor)


def test_all_zero_demand_is_the_zero_fixed_point(two_zone):
    res = equilibrium_ridership(np.zeros((4, 4)), two_zone)
    assert res.total == 0.0
    assert res.wait_time == 0.0
    assert res.iterations == 1


def test_single_od_matches_bisection():
    scen = single_od_scenario(100.0, gamma=0.005)
    res = equilibrium_ridership(np.array([[100.0]]), scen)
    root = bisect_ridership_root(100.0, 2.42, 10.0, scen)
    assert abs(res.total - root) < 1e-3


def test_randomized_parameters_match_bisection():
    rng = np.random.default_rng(42)
    for _ in range(20):
        q = rng.uniform(5.0, 400.0)
        price = rng.uniform(1.0, 5.0)
        tiv = rng.uniform(2.0, 45.0)
        scen = make_scenario([[q]], {"a1": "A"}, {"A": 0.1},
                             gamma=0.005, price=price, tiv=tiv)
        res = equilibrium_ridership(np.array([[q]]), scen)
        root = bisect_ridership_root(q, price, tiv, scen)
        assert abs(res.total - root) < 1e-3


def test_gamma_zero_returns_demand_exactly(two_zone):
    scen = make_scenario(two_zone.base_demand, two_zone.subzone_to_zone,
                         two_zone.zone_volatility, gamma=0.0)
    res = equilibrium_ridership(scen.base_demand, scen)
    assert np.array_equal(res.od_ridership, scen.base_demand)


def test_ridership_bounded_by_demand(two_zone):
    res = equilibrium_ridership(two_zone.base_demand, two_zone)
    assert np.all(res.od_ridership <= two_zone.base_demand)
    assert np.all(res.od_ridership >= 0.0)
    assert res.total == pytest.approx(res.od_ridership.sum(), rel=1e-12)


def test_scaling_demand_up_never_decreases_total(two_zone):
    totals = [equilibrium_ridership(s * two_zone.base_demand, two_zone).total
              for s in (0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_nonconvergence_raises_with_gap(two_zone, monkeypatch):
    monkeypatch.setattr(ridership, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as err:
        equilibrium_ridership(two_zone.base_demand, two_zone)
    assert err.value.gap > 0
    assert err.value.iterations == 1


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([0.0, 1e-300, 0.3, 7.0, 1e3, 5e5]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=40),
       st.sampled_from([0.0, 0.005, 0.05, 0.5]), st.sampled_from([2, 5, 1000]))
def test_wait_iteration_equals_the_masked_recursion(slices, gamma, cap):
    """Slices of many sizes stop in different rounds; each one's results are
    those of the masked recursion, bit for bit, and so is a non-convergence."""
    scen = make_scenario([[1.0]], {"a1": "A"}, {"A": 0.1}, gamma=gamma)
    raw = np.array([q for q, _ in slices])
    attracted = raw * np.array([f for _, f in slices])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ridership, "MAX_ITERATIONS", cap)
        try:
            want = masked_iterate_wait(attracted, raw, scen, cap)
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError) as got:
                ridership._iterate_wait(attracted, raw, scen)
            assert (got.value.gap, got.value.iterations) == (err.gap,
                                                             err.iterations)
            return
        got = ridership._iterate_wait(attracted, raw, scen)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("demand, message", [
    (np.zeros((0, 0)), r"shape \(0, 0\) does not end in \(4, 4\)"),
    (np.ones((4, 3)), r"shape \(4, 3\) does not end in \(4, 4\)"),
    (np.ones((2, 4, 4)), r"one matrix, got shape \(2, 4, 4\)"),
    (np.ones((3, 3)), r"shape \(3, 3\) does not end in \(4, 4\)"),
    (-np.ones((4, 4)), ">= 0"),
    (np.full((4, 4), np.nan), "NaN"),
], ids=["empty", "non-square", "3-d", "wrong-size", "negative", "nan"])
def test_equilibrium_rejects_bad_demand(two_zone, demand, message):
    with pytest.raises(ValueError, match=message):
        equilibrium_ridership(demand, two_zone)


class TestCumulative:
    def test_empty_region_is_zero(self, two_zone):
        assert cumulative_ridership((), two_zone.base_demand, two_zone) == 0.0

    def test_set_semantics(self, two_zone):
        d = two_zone.base_demand
        assert cumulative_ridership(("A", "B"), d, two_zone) == \
            cumulative_ridership(("B", "A"), d, two_zone)

    def test_matches_hand_extracted_submatrix(self, two_zone):
        zone_a = region_scenario(two_zone, ("A",))
        direct = equilibrium_ridership(zone_a.base_demand, zone_a).total
        assert cumulative_ridership(("A",), two_zone.base_demand,
                                    two_zone) == direct

    def test_covered_join_region(self, two_zone):
        d = two_zone.base_demand
        both = cumulative_ridership(("A", "B"), d, two_zone)
        with_cov = cumulative_ridership(("A",), d, two_zone, covered=("B",))
        assert with_cov == both

    def test_unknown_zone_rejected(self, two_zone):
        with pytest.raises(Exception, match="unknown zone"):
            cumulative_ridership(("C",), two_zone.base_demand, two_zone)

    def test_overlap_with_covered_rejected(self, two_zone):
        with pytest.raises(ValueError, match="overlaps"):
            cumulative_ridership(("A",), two_zone.base_demand, two_zone,
                                 covered=("A",))


class TestZonePayoff:
    def test_third_zone_opens_four_links(self, two_zone):
        # cost at position 3 is C_wz + 4*C_iz
        expected = two_zone.within_zone_cost + 4 * two_zone.interzone_cost
        assert zone_payoff(3, 0.0, two_zone) == -expected

    def test_first_zone(self, two_zone):
        x0 = 37.5
        assert zone_payoff(1, x0, two_zone) == x0 - two_zone.within_zone_cost

    def test_second_position_arithmetic(self):
        scen = make_scenario([[1.0]], {"a1": "A"}, {"A": 0.1},
                             cwz=49.0, ciz=68.0)
        assert zone_payoff(2, 300.0, scen) == 300.0 - (49.0 + 136.0)

    def test_affine_decreasing_in_position(self, two_zone):
        pays = [zone_payoff(h, 100.0, two_zone) for h in range(1, 6)]
        diffs = np.diff(pays)
        assert np.allclose(diffs, -2.0 * two_zone.interzone_cost)

    def test_covered_zones_shift_position(self, two_zone):
        assert zone_payoff(1, 50.0, two_zone, n_covered=2) == \
            zone_payoff(3, 50.0, two_zone, n_covered=0)

    def test_validation(self, two_zone):
        with pytest.raises(ValueError):
            payoff_threshold(0, two_zone)
        with pytest.raises(ValueError):
            payoff_threshold(1, two_zone, n_covered=-1)


def test_cache_matches_direct_cumulative(two_zone):
    paths = simulate_paths(two_zone, 30, seed=21)
    cache = RidershipCache(two_zone, paths)
    totals, t0 = cache.cumulative(("A",))
    assert t0 == pytest.approx(
        cumulative_ridership(("A",), two_zone.base_demand, two_zone), abs=1e-9)
    for (t, p) in [(0, 0), (2, 7), (4, 29)]:
        direct = cumulative_ridership(("A",), paths.values[p, t], two_zone)
        assert totals[t, p] == pytest.approx(direct, abs=1e-9)
    assert cache.misses == 1
    cache.cumulative(("A",))
    assert cache.hits == 1


class TestStacked:
    """cumulative_ridership over a [P, T, N, N] stack of demand matrices."""

    @pytest.fixture(scope="class")
    def paths(self, two_zone):
        return simulate_paths(two_zone, 12, seed=5)

    @pytest.mark.parametrize("prefix,covered", [
        (("A",), ()), (("B",), ()), (("A", "B"), ()), (("A",), ("B",))])
    def test_shape_and_cache_agreement(self, two_zone, paths, prefix, covered):
        totals = cumulative_ridership(prefix, paths.values, two_zone, covered)
        assert totals.shape == (paths.n_paths, paths.n_steps)
        cache = RidershipCache(two_zone, paths, covered)
        assert np.array_equal(totals, cache.cumulative(prefix)[0].T)

    def test_each_slice_solves_its_own_matrix(self, two_zone, paths):
        totals = cumulative_ridership(("A", "B"), paths.values, two_zone)
        for p, t in [(0, 0), (5, 3), (11, 4)]:
            direct = cumulative_ridership(("A", "B"), paths.values[p, t],
                                          two_zone)
            assert totals[p, t] == pytest.approx(direct, rel=1e-12)

    def test_empty_region_gives_zeros_of_stack_shape(self, two_zone, paths):
        totals = cumulative_ridership((), paths.values, two_zone)
        assert totals.shape == (paths.n_paths, paths.n_steps)
        assert not totals.any()

    def test_single_matrix_gives_float(self, two_zone):
        assert isinstance(
            cumulative_ridership(("A",), two_zone.base_demand, two_zone), float)

    def test_overlap_and_unknown_zone_rejected(self, two_zone, paths):
        with pytest.raises(ValueError, match="overlaps"):
            cumulative_ridership(("A",), paths.values, two_zone, covered=("A",))
        with pytest.raises(Exception, match="unknown zone"):
            cumulative_ridership(("C",), paths.values, two_zone)

    def test_negative_entry_rejected(self, two_zone, paths):
        bad = paths.values.copy()
        bad[3, 2, 0, 1] = -1.0
        with pytest.raises(ValueError, match=">= 0"):
            cumulative_ridership(("A",), bad, two_zone)

    def test_cache_on_negative_paths_rejected(self, two_zone, paths):
        bad = paths.values.copy()
        bad[3, 2, 2, 3] = -1.0  # outside zone A, so only a full check sees it
        with pytest.raises(ValueError, match=">= 0"):
            RidershipCache(two_zone, replace(paths, values=bad))

    def test_nan_demand_rejected(self, two_zone, paths):
        bad = paths.values.copy()
        bad[3, 2, 2, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            cumulative_ridership(("B",), bad, two_zone)
        bad[:] = np.nan  # all NaN: a NaN-skipping minimum would see no entry
        with pytest.raises(ValueError, match="NaN"):
            RidershipCache(two_zone, replace(paths, values=bad))
        with pytest.raises(ValueError, match="NaN"):
            equilibrium_ridership(bad[0, 0], two_zone)

    @pytest.mark.parametrize("shape", [(12, 5, 6, 6), (12, 5, 3, 3), (6, 6),
                                       (3, 3), (16,)],
                             ids=["larger", "smaller", "larger-single",
                                  "smaller-single", "1-d"])
    def test_demand_of_another_subzone_count_rejected(self, two_zone, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"demand shape {shape} does not end in (4, 4)")):
            cumulative_ridership(("A", "B"), np.ones(shape), two_zone)

    @pytest.mark.parametrize("n_zones", [2, 4], ids=["smaller", "larger"])
    def test_cache_rejects_paths_of_another_subzone_count(self, n_zones):
        scen = generate_synthetic_scenario(1, 3, 2, 100.0)
        paths = simulate_paths(generate_synthetic_scenario(1, n_zones, 2, 100.0),
                               4, seed=0)
        with pytest.raises(ValueError, match=re.escape(
                f"demand shape {paths.values.shape} does not end in (6, 6)")):
            RidershipCache(scen, paths)

    def test_cache_rejects_paths_off_the_horizon(self, two_zone, paths):
        short = replace(paths, values=paths.values[:, :-1])
        with pytest.raises(ValueError, match="horizon has 5"):
            RidershipCache(two_zone, short)


@PROPERTY
@given(st.integers(0, 40), st.integers(2, 9))
def test_chunk_slices_cover_in_order_without_single_tail(n, size):
    parts = chunk_slices(n, size)
    assert [i for part in parts for i in range(n)[part]] == list(range(n))
    lengths = [part.stop - part.start for part in parts]
    assert all(2 <= k <= size + 1 for k in lengths) or lengths == [1]
    assert all(k == size for k in lengths[:-1])


class TestChunkedRegion:
    """The region gather runs over ``REGION_CHUNK`` matrices at a time and
    gives the totals of one gather of the whole stack, bit for bit."""

    @pytest.fixture(scope="class")
    def stack(self, synth7):
        return simulate_paths(synth7, 7, seed=3).values  # [7, 5, 21, 21]

    @pytest.mark.parametrize("chunk,count", [(2, 1), (2, 2), (2, 3), (2, 6),
                                             (3, 2), (3, 4), (3, 9), (3, 10)])
    def test_stack_of_count_matrices(self, synth7, stack, monkeypatch, chunk,
                                     count):
        monkeypatch.setattr(ridership, "REGION_CHUNK", chunk)
        demand = stack.reshape(-1, *stack.shape[-2:])[:count]
        for zones, covered in [(synth7.zones, ()),
                               (synth7.zones[:3], synth7.zones[4:6])]:
            got = cumulative_ridership(zones, demand, synth7, covered)
            want = gathered_region_totals(zones, demand, synth7, covered)
            assert got.shape == (count,)
            assert np.array_equal(got, want)

    def test_single_matrix(self, synth7, stack, monkeypatch):
        monkeypatch.setattr(ridership, "REGION_CHUNK", 2)
        for demand in (synth7.base_demand, stack[4, 2]):
            got = cumulative_ridership(synth7.zones[1:5], demand, synth7,
                                       synth7.zones[:1])
            assert got == gathered_region_totals(
                synth7.zones[1:5], demand, synth7, synth7.zones[:1])

    @PROPERTY
    @given(st.integers(1, 7), st.integers(1, 5), st.booleans(),
           st.sampled_from([2, 3, 5]), st.data())
    def test_any_stack_order_and_region(self, synth7, stack, n_paths,
                                        n_steps, steps_first, chunk, data):
        demand = stack[:n_paths, :n_steps]
        if steps_first:  # [T, P] order, as the cache's tables are laid out
            demand = demand.transpose(1, 0, 2, 3)
        zones = data.draw(st.lists(st.sampled_from(synth7.zones), min_size=1,
                                   unique=True))
        rest = [z for z in synth7.zones if z not in zones]
        covered = data.draw(st.lists(st.sampled_from(rest), unique=True)
                            if rest else st.just([]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ridership, "REGION_CHUNK", chunk)
            got = cumulative_ridership(zones, demand, synth7, covered)
        assert np.array_equal(
            got, gathered_region_totals(zones, demand, synth7, covered))


def test_cache_fill_memory_is_bounded(synth7):
    """A full-region miss at H = 7, P = 300 holds chunks of the gathered
    [P, T, k, k] stack, not all of it (one whole gather peaked at 10.7 MB)."""
    cache = RidershipCache(synth7, simulate_paths(synth7, 300, seed=11))
    tracemalloc.start()
    try:
        cache.cumulative(synth7.zones)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_cost_factor_gathered_from_the_full_matrix(synth7):
    """The cost factor is computed once over all pairs and each region's
    gathered from it, equal to computing it on the region's sub-matrices."""
    full = _cost_factor(synth7)
    for r in range(1, len(synth7.zones) + 1):
        for zones in itertools.combinations(synth7.zones, r):
            idx = synth7.subzone_indices(frozenset(zones))
            assert np.array_equal(full[idx[:, None], idx],
                                  region_cost_factor(synth7, idx))


class TestGroupedFill:
    """Lookups fill the memo one region at a time; however they are grouped
    and ordered, each region's totals are those of solving it alone, bit
    for bit."""

    @pytest.fixture(scope="class")
    def paths(self, synth7):
        return simulate_paths(synth7, 6, seed=4)

    @PROPERTY
    @given(st.data())
    def test_any_grouping_equals_solving_alone(self, synth7, paths, data):
        covered = data.draw(st.lists(st.sampled_from(synth7.zones),
                                     max_size=3, unique=True))
        rest = [z for z in synth7.zones if z not in covered]
        # repeats, any zone order within a region and any order of regions
        regions = data.draw(st.lists(
            st.lists(st.sampled_from(rest), unique=True), min_size=1,
            max_size=12))
        cache = RidershipCache(synth7, paths, covered)
        for region in regions:
            cache.cumulative(region)
        distinct = set(map(frozenset, regions))
        assert (cache.misses, cache.hits) == (len(distinct),
                                              len(regions) - len(distinct))
        for region in data.draw(st.permutations(sorted(distinct, key=sorted))):
            totals, t0 = cache.cumulative(region)
            assert totals.shape == (paths.n_steps, paths.n_paths)
            assert np.array_equal(totals, cumulative_ridership(
                region, paths.values, synth7, covered).T)
            assert t0 == cumulative_ridership(region, synth7.base_demand,
                                              synth7, covered)
        assert cache.misses == len(distinct)

    def test_counts_regions_solved_and_lookups_served(self, synth7, paths):
        cache = RidershipCache(synth7, paths)
        for region in [("z01",), ("z02",), ("z01",), (), ("z02",)]:
            cache.cumulative(region)
        assert (cache.misses, cache.hits) == (3, 2)
        cache.cumulative(("z01", "z02"))
        cache.cumulative(("z02", "z01"))
        assert (cache.misses, cache.hits) == (4, 3)

    def test_rejects_a_region_overlapping_covered(self, synth7, paths):
        cache = RidershipCache(synth7, paths, covered=("z01",))
        cache.cumulative(("z02",))
        with pytest.raises(ValueError, match="overlaps"):
            cache.cumulative(("z01", "z03"))
        assert (cache.misses, cache.hits) == (1, 0)


def test_grouped_fill_memory_is_bounded(synth7):
    """Looking up all 2^7 regions at H = 7, P = 300 holds the memo and one
    region's wait-time solve at a time."""
    cache = RidershipCache(synth7, simulate_paths(synth7, 300, seed=11))
    regions = [c for r in range(len(synth7.zones) + 1)
               for c in itertools.combinations(synth7.zones, r)]
    tracemalloc.start()
    try:
        for region in regions:
            cache.cumulative(region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.misses == 128
    assert peak < 5e6


@PROPERTY
@given(st.integers(0, 2 ** 16), st.integers(1, 5), st.integers(1, 4),
       st.sampled_from([0.0, 1.0, 100.0, 5e3]), st.booleans())
def test_one_solve_behind_every_entry_point(seed, n_zones, per_zone, scale,
                                            empty):
    """The full region's total at t0 is the same number from the
    single-matrix solver, the region function and the cache, and so are
    its totals over a stack of paths from the region function and the
    cache's one miss.  The empty region is solved the same way, to +0.0."""
    scen = generate_synthetic_scenario(seed, n_zones, per_zone, scale)
    paths = simulate_paths(scen, 3, seed=seed)
    zones = () if empty else scen.zones
    single = 0.0 if empty else equilibrium_ridership(scen.base_demand,
                                                      scen).total
    region = cumulative_ridership(zones, scen.base_demand, scen)
    stacked = cumulative_ridership(zones, paths.values, scen)
    cache = RidershipCache(scen, paths)
    steps, cached = cache.cumulative(zones)
    assert single == region == cached
    assert np.array_equal(stacked.T, steps)
    assert cache.misses == 1
    assert not np.signbit([region, cached, *stacked.ravel(),
                           *steps.ravel()]).any()
    assert not (empty and stacked.any())
