"""Batched LSMC against the per-ordering reference recursion.

``valuate_sequences`` must give, bit for bit, what valuing each ordering on
its own gives: the same policy values, stopping times, t0 decisions,
per-zone values and rank-deficient fit counts, whatever the batch it shares
a call with.  The fit factorizes each distinct design once and shares it
between rows; that must equal fitting the same designs stacked row by row.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.polynomial.hermite_e import hermevander

from zoneinvest import policy
from zoneinvest.lsmc import (BASIS_SIZE, DEFER, NEVER, _blend,
                             _discount_at, _fit_rows, continuation_fit,
                             valuate_sequence, valuate_sequences)
from zoneinvest.ridership import RidershipCache
from zoneinvest.scenario import generate_synthetic_scenario
from zoneinvest.sequences import Sequence
from zoneinvest.stochastic import DemandPaths, simulate_paths

from conftest import PROPERTY, make_scenario
from oracles import per_sequence_lsmc

J = BASIS_SIZE


# Raw float64 bit patterns numpy's select must carry through unchanged:
# +-0.0, +-inf, quiet and signalling NaNs with payloads, subnormals and the
# extremes, as the int64 words that hold them.
SPECIAL_BITS = [int(np.array(x).view(np.int64)) for x in (
    0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
    np.finfo(float).max, -np.finfo(float).tiny)] + [
    0x7FF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0001,
    -0x0007000000000001, -0x0000000000000001, NEVER]


def doubled(paths):
    """``paths`` with every path taken twice: states then take at most as
    many distinct values as there were paths."""
    return DemandPaths(np.concatenate([paths.values, paths.values]))


@st.composite
def problems(draw, volatility=None, worthless=False, n_zones=None):
    """A small scenario, its paths, a covered set and every ordering of the
    remaining zones.  ``volatility`` fixes every zone's volatility;
    ``worthless`` puts every threshold far above any ridership; ``n_zones``
    fixes the zone count and covers none of them.  When two paths are
    drawn, each is taken twice: non-constant designs then have rank 2 and
    are flagged rank-deficient."""
    fixed = n_zones is not None
    n_zones = n_zones if fixed else draw(st.integers(1, 3))
    zones = [chr(ord("A") + i) for i in range(n_zones)]
    per_zone = draw(st.lists(st.integers(1, 2), min_size=n_zones,
                             max_size=n_zones))
    mapping = {f"{z.lower()}{k}": z
               for z, count in zip(zones, per_zone) for k in range(count)}
    n = len(mapping)
    demand = draw(st.lists(st.floats(0.0, 60.0, allow_subnormal=False),
                           min_size=n * n, max_size=n * n))
    vol = {z: draw(st.floats(0.0, 0.5)) if volatility is None else volatility
           for z in zones}
    cost = st.floats(0.0, 40.0, allow_subnormal=False)
    scen = make_scenario(np.reshape(demand, (n, n)), mapping, vol,
                         cwz=1e9 if worthless else draw(cost),
                         ciz=draw(cost),
                         gamma=draw(st.floats(0.0, 0.3)),
                         drift=draw(st.floats(-0.1, 0.2)),
                         discount=draw(st.floats(0.0, 0.3)))
    n_paths = draw(st.sampled_from([2, J, J + 1, 50]))
    paths = simulate_paths(scen, n_paths, seed=draw(st.integers(0, 2**16)))
    if n_paths < J:
        paths = doubled(paths)
    covered = frozenset() if fixed else frozenset(draw(st.sets(
        st.sampled_from(zones), max_size=n_zones - 1)))
    seqs = [Sequence(p) for p in
            itertools.permutations(sorted(set(zones) - covered))]
    return scen, paths, covered, seqs


@st.composite
def selects(draw):
    """``(mask, a, b)`` for one select: ``a`` and ``b`` are float64 or int64
    arrays built from raw bit patterns, or ``a`` an integer scalar."""
    n = draw(st.integers(0, 40))
    words = st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                               st.sampled_from(SPECIAL_BITS)),
                     min_size=n, max_size=n)
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=bool)
    b = np.array(draw(words), dtype=np.int64).view(dtype)
    if dtype is np.int64 and draw(st.booleans()):
        a = draw(st.integers(-2**63, 2**63 - 1))
    else:
        a = np.array(draw(words), dtype=np.int64).view(dtype)
    return mask, a, b


@PROPERTY
@given(selects())
def test_blend_equals_where_bit_for_bit(select):
    mask, a, b = select
    expected = np.where(mask, a, b)
    assert expected.dtype == b.dtype
    fill = np.negative(mask, dtype=np.int64)
    _blend(fill, a, b, b, np.empty_like(b))    # in place, as the recursion does
    assert b.tobytes() == expected.tobytes()


@pytest.mark.parametrize("times, rho", [
    ((1.0, 2.0, 3.0, 4.0, 5.0), 0.05), ((0.5, 1.5, 4.0), 0.137),
    ((2.0,), 0.0), ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), 1e-9)])
def test_discount_table_equals_per_element_power(times, rho):
    times = np.asarray(times)
    every = np.arange(NEVER, len(times))      # NEVER, then steps 0..T-1
    tau = np.random.default_rng(len(times)).choice(every, size=(4, 6, 30))
    tau.flat[:len(every)] = every
    expected = np.where(tau != NEVER,
                        (1.0 + rho) ** (-times[np.maximum(tau, 0)]), 0.0)
    got = _discount_at(tau, times, rho)
    assert got.shape == tau.shape
    assert got.tobytes() == expected.tobytes()


def assert_same(val, other):
    assert val.sequence == other.sequence
    assert val.policy_value == other.policy_value
    assert np.array_equal(val.stopping_times, other.stopping_times)
    assert val.decisions_t0 == other.decisions_t0
    assert np.array_equal(val.per_zone_value_t0, other.per_zone_value_t0)
    assert val.rank_deficient_fits == other.rank_deficient_fits


def assert_matches_oracle(problem):
    scen, paths, covered, seqs = problem
    vals = valuate_sequences(seqs, RidershipCache(scen, paths, covered))
    assert len(vals) == len(seqs)
    for seq, val in zip(seqs, vals):
        value, tau, decisions, per_zone, deficient = per_sequence_lsmc(
            seq.order, paths, scen, covered)
        assert val.sequence == seq
        assert val.policy_value == value
        assert np.array_equal(val.stopping_times, tau)
        assert val.decisions_t0 == decisions
        assert np.array_equal(val.per_zone_value_t0, per_zone)
        assert val.rank_deficient_fits == deficient
    return vals


@PROPERTY
@given(problems())
def test_batch_equals_per_ordering_oracle(problem):
    assert_matches_oracle(problem)


@PROPERTY
@given(problems(), st.data())
def test_repeated_orderings_equal_oracle(problem, data):
    scen, paths, covered, seqs = problem
    repeated = data.draw(st.lists(st.sampled_from(seqs), min_size=2,
                                  max_size=8))
    assert_matches_oracle((scen, paths, covered, repeated))


@settings(PROPERTY, max_examples=25)
@given(problems(n_zones=4))
def test_four_zones_equal_oracle(problem):
    # 24 orderings: (prefix set, zone) keys repeat across positions and
    # orderings, and one batch shares each design among them.
    assert len(problem[3]) == 24
    assert_matches_oracle(problem)


def test_doubled_paths_flag_rank_deficient_fits():
    scen = generate_synthetic_scenario(2, 3, 2, 80.0)
    paths = doubled(simulate_paths(scen, 2, seed=4))
    seqs = [Sequence(p) for p in itertools.permutations(scen.zones)]
    vals = assert_matches_oracle((scen, paths, frozenset(), seqs))
    # Two distinct states per design: every non-constant fit is deficient.
    assert all(v.rank_deficient_fits > 0 for v in vals)


@PROPERTY
@given(problems(volatility=0.0))
def test_zero_volatility_equals_oracle(problem):
    assert_matches_oracle(problem)


@PROPERTY
@given(problems(worthless=True))
def test_all_negative_payoffs_value_zero_and_defer(problem):
    for val in assert_matches_oracle(problem):
        assert val.policy_value == 0.0
        assert set(val.decisions_t0) <= {DEFER}
        assert np.all(val.stopping_times == NEVER)


@PROPERTY
@given(problems(), st.data())
def test_batch_size_invariance(problem, data):
    scen, paths, covered, seqs = problem
    whole = valuate_sequences(seqs, RidershipCache(scen, paths, covered))
    cut = data.draw(st.integers(0, len(seqs)))
    shared = RidershipCache(scen, paths, covered)
    split = (valuate_sequences(seqs[:cut], shared)
             + valuate_sequences(seqs[cut:], shared))
    for i, seq in enumerate(seqs):
        alone = valuate_sequence(seq, paths, scen, covered)
        assert_same(alone, whole[i])
        assert_same(alone, split[i])


@st.composite
def keyed_fits(draw):
    """Designs [K, P] of three kinds, a row -> design index and targets
    [R, P].  Integer states make constant and two-valued (rank-deficient)
    designs exact."""
    p = draw(st.sampled_from([J, J + 1, 50]))
    kinds = draw(st.lists(st.sampled_from(["constant", "two-valued",
                                           "general"]), min_size=1,
                          max_size=6))
    states = []
    for kind in kinds:
        if kind == "constant":
            states.append([draw(st.integers(0, 20))] * p)
        elif kind == "two-valued":
            pair = draw(st.lists(st.integers(0, 20), min_size=2, max_size=2,
                                 unique=True))
            states.append([pair[i % 2] for i in range(p)])
        else:
            states.append(draw(st.lists(
                st.floats(-1e3, 1e3, allow_subnormal=False),
                min_size=p, max_size=p)))
    design_of = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1,
                              max_size=12))
    targets = draw(st.lists(st.lists(
        st.floats(-100.0, 100.0, allow_subnormal=False), min_size=p,
        max_size=p), min_size=len(design_of), max_size=len(design_of)))
    return (np.array(kinds), np.array(states, dtype=float),
            np.array(design_of), np.array(targets, dtype=float))


@PROPERTY
@given(keyed_fits())
def test_keyed_fit_equals_row_stacked_fit(data):
    kinds, states, design_of, targets = data
    coef, mean, std, deficient, fitted = _fit_rows(states, targets,
                                                   design_of)
    row_coef, row_mean, row_std, row_deficient, row_fitted = _fit_rows(
        states[design_of], targets, np.arange(len(targets)))
    assert np.array_equal(coef, row_coef)
    assert np.array_equal(fitted, row_fitted)
    assert np.array_equal(mean[design_of], row_mean)
    assert np.array_equal(std[design_of], row_std)
    assert np.array_equal(deficient[design_of], row_deficient)
    assert np.all(deficient[kinds == "two-valued"])
    assert not np.any(deficient[kinds == "constant"])


@PROPERTY
@given(st.sampled_from([J, J + 1, 50]).flatmap(lambda p: st.tuples(
    st.lists(st.integers(0, 20), min_size=p, max_size=p),
    st.lists(st.floats(-100.0, 100.0, allow_subnormal=False),
             min_size=p, max_size=p))))
def test_fit_matches_lstsq(data):
    # Integer states give exactly rank-deficient and constant designs but no
    # near-collinear ones, on which two solvers' fits differ beyond rounding.
    states, targets = (np.array(x, dtype=float) for x in data)
    basis, fitted = continuation_fit(states, targets)
    if basis.state_std == 0.0:
        assert np.all(fitted == targets.mean())
        return
    design = hermevander((states - basis.state_mean) / basis.state_std, J - 1)
    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    assert basis.rank_deficient == (rank < J)
    scale = 1.0 + np.abs(targets).max()
    assert np.allclose(fitted, design @ coef, rtol=0.0, atol=1e-9 * scale)


def test_policy_batch_size_invariance(monkeypatch):
    scen = generate_synthetic_scenario(4, 4, 2, 80.0)
    paths = simulate_paths(scen, 60, seed=6)
    full = policy.cr_policy(scen, paths)
    monkeypatch.setattr(policy, "BATCH_SIZE", 5)  # 24 orderings: 4 x 5 + 4
    uneven = policy.cr_policy(scen, paths)
    monkeypatch.setattr(policy, "BATCH_SIZE", 1)
    single = policy.cr_policy(scen, paths)
    assert full == uneven == single
    assert full.tables == uneven.tables == single.tables


class TestEdgeCases:
    @pytest.fixture(scope="class")
    def setup(self, two_zone):
        return two_zone, simulate_paths(two_zone, 20, seed=3)

    def test_no_orderings(self, setup):
        scen, paths = setup
        assert valuate_sequences([], RidershipCache(scen, paths)) == []

    def test_mixed_lengths_rejected(self, setup):
        scen, paths = setup
        with pytest.raises(ValueError, match="length"):
            valuate_sequences([("A",), ("A", "B")], RidershipCache(scen, paths))

    def test_covered_overlap_rejected(self, setup):
        scen, paths = setup
        with pytest.raises(ValueError, match="covered"):
            valuate_sequences([("B",), ("A",)],
                              RidershipCache(scen, paths, covered=("A",)))

    def test_plain_tuples_accepted(self, setup):
        scen, paths = setup
        vals = valuate_sequences([("A", "B"), ("B", "A")],
                                 RidershipCache(scen, paths))
        assert [v.sequence for v in vals] == [Sequence(("A", "B")),
                                              Sequence(("B", "A"))]
