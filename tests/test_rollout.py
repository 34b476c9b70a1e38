import math
from dataclasses import replace

import numpy as np
import pytest

from zoneinvest.lsmc import BASIS_SIZE
from zoneinvest.policy import CR, CR_RNN
from zoneinvest.ridership import cumulative_ridership, payoff_threshold
from zoneinvest.rollout import (INVEST_ALL, compare_rollouts, paired_t_test,
                                rollout_report, run_rollout, t_critical)
from zoneinvest.scenario import generate_synthetic_scenario
from zoneinvest.stochastic import simulate_paths

from conftest import make_scenario
from oracles import paired_t_by_hand, realized_totals


class TestPairedTTest:
    def test_identical_samples_not_significant(self):
        out = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out["mean_diff"] == 0.0
        assert out["t"] == 0.0
        assert not out["significant"]

    def test_constant_positive_difference_is_infinite_t(self):
        a = np.arange(10.0)
        out = paired_t_test(a + 1.0, a)
        assert out["t"] == math.inf
        assert out["significant"]
        assert out["ci"] == (1.0, 1.0)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(30)
        a = rng.normal(1.0, 0.5, size=10)
        b = rng.normal(0.0, 0.5, size=10)
        out = paired_t_test(a, b)
        assert out["t"] == pytest.approx(paired_t_by_hand(a, b), abs=1e-9)
        assert out["df"] == 9

    def test_confidence_interval_uses_five_percent_critical(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        out = paired_t_test(a, b)
        d = a - b
        se = d.std(ddof=1) / math.sqrt(12)
        half = t_critical(11) * se
        assert out["ci"][0] == pytest.approx(d.mean() - half)
        assert out["ci"][1] == pytest.approx(d.mean() + half)

    @pytest.mark.parametrize("a, b", [([1.0], [0.0]), ([1.0, 2.0], [0.0])],
                             ids=["size-1", "unequal"])
    def test_samples_below_two_or_unequal_rejected(self, a, b):
        with pytest.raises(ValueError, match="equal-length samples of size >= 2"):
            paired_t_test(a, b)

    def test_alpha_not_accepted(self):
        with pytest.raises(TypeError):
            paired_t_test([1.0, 2.0], [0.0, 1.0], alpha=0.01)

    def test_critical_table_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 5, 10, 23, 30):
            exact = scipy_stats.t.ppf(0.975, df)
            assert t_critical(df) == pytest.approx(exact, abs=2e-3)
        assert t_critical(200) == pytest.approx(scipy_stats.norm.ppf(0.975),
                                                abs=2e-3)


def flat_two_zone(discount=0.0):
    demand = np.array([[60.0, 20.0], [25.0, 45.0]])
    return make_scenario(demand, {"a1": "A", "b1": "B"},
                         {"A": 0.0, "B": 0.0}, cwz=10.0, ciz=2.0,
                         discount=discount)


class TestRollout:
    def test_invest_all_flat_demand_undiscounted_npv(self):
        scen = flat_two_zone(discount=0.0)
        res = run_rollout(scen, n_paths=2, n_epochs=4, seed=1,
                          policy_kind=INVEST_ALL)
        per_epoch = res.records[0].payoff
        assert res.npv_per_path[0] == pytest.approx(4 * per_epoch, rel=1e-12)
        assert all(r.covered == ("A", "B") for r in res.records)
        assert res.records[1].invested == ()  # epoch 2 adds nothing

    def test_coverage_monotone_and_disjoint(self):
        scen = generate_synthetic_scenario(6, 4, 2, 90.0)
        res = run_rollout(scen, n_paths=2, n_epochs=3, seed=4,
                          policy_kind=CR, inner_paths=40)
        for p in range(2):
            recs = [r for r in res.records if r.path == p]
            seen = set()
            prev = ()
            for r in recs:
                assert set(prev) <= set(r.covered)
                assert not (set(r.invested) & seen)
                seen |= set(r.invested)
                assert r.covered == prev + r.invested
                prev = r.covered

    def test_exhausted_candidates_leave_coverage_constant(self):
        scen = flat_two_zone()
        res = run_rollout(scen, n_paths=1, n_epochs=5, seed=2,
                          policy_kind=INVEST_ALL)
        covs = [r.covered for r in res.records]
        assert covs == [covs[0]] * 5

    def test_initial_covered_zones_keep_first_positions(self):
        scen = flat_two_zone()
        res = run_rollout(scen, n_paths=1, n_epochs=2, seed=3,
                          policy_kind=INVEST_ALL, initial_covered=("B",))
        assert res.records[0].covered[0] == "B"

    def test_zero_demand_profitability_is_zero(self):
        scen = make_scenario(np.zeros((2, 2)), {"a1": "A", "b1": "B"},
                             {"A": 0.1, "B": 0.2})
        res = run_rollout(scen, n_paths=1, n_epochs=3, seed=5,
                          policy_kind=INVEST_ALL)
        assert res.pv_profit == 0.0

    def test_cr_and_cr_rnn_identical_under_fallback(self):
        scen = generate_synthetic_scenario(9, 3, 2, 100.0)
        kw = dict(n_paths=2, n_epochs=2, seed=6, inner_paths=50)
        cr = run_rollout(scen, policy_kind=CR, **kw)
        rnn = run_rollout(scen, policy_kind=CR_RNN,
                          inner={"frac_seq": 0.5, "pnr_max": 0.05, "k": 5},
                          **kw)
        assert np.array_equal(cr.npv_per_path, rnn.npv_per_path)
        assert cr.records == rnn.records[:len(cr.records)] or \
            cr.records == rnn.records

    def test_deterministic_per_seed(self):
        scen = generate_synthetic_scenario(7, 3, 2, 80.0)
        kw = dict(n_paths=2, n_epochs=2, seed=8, policy_kind=CR,
                  inner_paths=40)
        a = run_rollout(scen, **kw)
        b = run_rollout(scen, **kw)
        assert np.array_equal(a.npv_per_path, b.npv_per_path)
        assert a.records == b.records

    def test_compare_attaches_diff_stats(self):
        scen = flat_two_zone()
        a = run_rollout(scen, n_paths=3, n_epochs=2, seed=9,
                        policy_kind=INVEST_ALL)
        b = run_rollout(scen, n_paths=3, n_epochs=2, seed=9,
                        policy_kind=INVEST_ALL)
        out = compare_rollouts(a, b)
        assert out.diff_stats["mean_diff"] == 0.0
        assert out.diff_stats["benchmark"] == INVEST_ALL
        assert out.diff_stats["alpha"] == 0.05
        with pytest.raises(TypeError):
            compare_rollouts(a, b, alpha=0.01)

    def test_workers_do_not_change_the_result(self, pool_sizes):
        """Same results at any worker count; a one-path rollout runs in the
        calling process."""
        scen = generate_synthetic_scenario(6, 4, 2, 90.0)
        for kind, n_paths in [(CR, 2), (INVEST_ALL, 2), (CR, 1)]:
            kw = dict(n_paths=n_paths, n_epochs=2, seed=4, policy_kind=kind,
                      inner_paths=40)
            one = run_rollout(scen, workers=1, **kw)
            pool_sizes.clear()
            two = run_rollout(scen, workers=2, **kw)
            assert pool_sizes == ([2] if n_paths > 1 else [])
            assert two.records == one.records
            assert np.array_equal(two.npv_per_path, one.npv_per_path)
            assert np.array_equal(two.pv_profit_per_path,
                                  one.pv_profit_per_path)
            assert two.pv_profit == one.pv_profit

    def test_one_process_pool_per_rollout(self, pool_sizes):
        """Outer paths share one pool; the policy calls inside run serially
        instead of starting a pool per epoch."""
        res = run_rollout(generate_synthetic_scenario(6, 4, 2, 90.0),
                          n_paths=2, n_epochs=2, seed=4, policy_kind=CR,
                          inner_paths=40, workers=2)
        assert len(res.records) == 4
        assert pool_sizes == [2]

    @pytest.mark.parametrize("kind", [INVEST_ALL, CR])
    def test_one_ridership_solve_per_epoch(self, kind, monkeypatch):
        """Each epoch's payoff and ridership come from one solve of its
        covered region; the rollout never prices a deterministic NPV."""
        import zoneinvest.policy
        import zoneinvest.rollout

        def no_npv(*args, **kwargs):
            raise AssertionError("the rollout priced a deterministic NPV")

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return cumulative_ridership(*args, **kwargs)

        monkeypatch.setattr(zoneinvest.rollout, "cumulative_ridership",
                            counted)
        if kind == INVEST_ALL:  # no policy runs, so every NPV is the rollout's
            monkeypatch.setattr(zoneinvest.policy, "cumulative_ridership",
                                counted)
            monkeypatch.setattr(zoneinvest.policy, "deterministic_npv",
                                no_npv)
        res = run_rollout(generate_synthetic_scenario(6, 4, 2, 90.0),
                          n_paths=2, n_epochs=3, seed=4, policy_kind=kind,
                          inner_paths=40, initial_covered=("z01",))
        assert len(calls) == len(res.records)

    def test_validation(self):
        scen = flat_two_zone()
        with pytest.raises(ValueError):
            run_rollout(scen, n_paths=0, n_epochs=1, seed=1,
                        policy_kind=INVEST_ALL)
        with pytest.raises(ValueError):
            run_rollout(scen, n_paths=1, n_epochs=1, seed=1,
                        policy_kind="other")

    @pytest.mark.parametrize("kind", [INVEST_ALL, CR, CR_RNN])
    def test_workers_below_one_rejected_before_simulating(self, kind,
                                                          monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting workers")

        monkeypatch.setattr("zoneinvest.rollout.simulate_paths", no_simulation)
        with pytest.raises(ValueError, match="workers must be >= 1, got -3"):
            run_rollout(flat_two_zone(), n_paths=1, n_epochs=1, seed=1,
                        policy_kind=kind, workers=-3)

    @pytest.mark.parametrize("kind", [INVEST_ALL, CR, CR_RNN])
    @pytest.mark.parametrize("setting, error, message", [
        ({"pnr_max": -1.0}, ValueError, r"pnr_max must be in \(0, 1\]"),
        ({"thr_fact": 2.0}, ValueError, r"thr_fact must be in \[0, 1\]"),
        ({"frac_seq": 0.0}, ValueError, r"fraction must be in \(0, 1\]"),
        ({"k": 0}, ValueError, "k must be >= 1"),
        ({"validation_fraction": 1.0}, ValueError, "validation_fraction"),
        ({"epochs": 5}, TypeError, "epochs"),
    ], ids=["pnr_max", "thr_fact", "frac_seq", "k", "validation", "unknown"])
    def test_bad_inner_settings_rejected_before_simulating(
            self, kind, setting, error, message, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting inner settings")

        monkeypatch.setattr("zoneinvest.rollout.simulate_paths", no_simulation)
        inner = {"frac_seq": 0.5, "pnr_max": 0.05, "k": 5, **setting}
        with pytest.raises(error, match=message):
            run_rollout(flat_two_zone(), n_paths=1, n_epochs=1, seed=1,
                        policy_kind=kind, inner=inner)

    @pytest.mark.parametrize("kind", [INVEST_ALL, CR, CR_RNN])
    def test_inner_seed_rejected_before_simulating(self, kind, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting inner seed")

        monkeypatch.setattr("zoneinvest.rollout.simulate_paths", no_simulation)
        inner = {"frac_seq": 0.5, "pnr_max": 0.05, "k": 5, "seed": 3}
        with pytest.raises(ValueError, match="inner must not set seed"):
            run_rollout(flat_two_zone(), n_paths=1, n_epochs=1, seed=1,
                        policy_kind=kind, inner=inner)

    def test_policy_failure_names_path_and_epoch(self, monkeypatch):
        def failing_policy(*args, **kwargs):
            raise ValueError("no ordering valued")

        monkeypatch.setattr("zoneinvest.rollout.cr_policy", failing_policy)
        with pytest.raises(RuntimeError, match=(
                f"^{CR} policy failed at path 0, epoch 1: no ordering valued$")):
            run_rollout(flat_two_zone(), n_paths=1, n_epochs=2, seed=1,
                        policy_kind=CR, inner_paths=BASIS_SIZE)

    @pytest.mark.parametrize("kind", [INVEST_ALL, CR, CR_RNN])
    @pytest.mark.parametrize("inner_paths", [-5, 0, 2])
    def test_inner_paths_below_basis_size_rejected_before_simulating(
            self, kind, inner_paths, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting inner_paths")

        monkeypatch.setattr("zoneinvest.rollout.simulate_paths", no_simulation)
        inner = {"frac_seq": 0.5, "pnr_max": 0.05, "k": 5}
        with pytest.raises(ValueError, match=(
                f"^inner_paths must be >= {BASIS_SIZE}, got {inner_paths}$")):
            run_rollout(flat_two_zone(), n_paths=1, n_epochs=1, seed=1,
                        policy_kind=kind, inner=inner, inner_paths=inner_paths)

    def test_inner_paths_of_basis_size_runs(self):
        res = run_rollout(flat_two_zone(), n_paths=1, n_epochs=2, seed=1,
                          policy_kind=CR, inner_paths=BASIS_SIZE)
        assert len(res.records) == 2

    def test_cr_rnn_without_inner_settings_rejected_before_simulating(
            self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting inner settings")

        monkeypatch.setattr("zoneinvest.rollout.simulate_paths", no_simulation)
        with pytest.raises(TypeError, match="frac_seq"):
            run_rollout(flat_two_zone(), n_paths=1, n_epochs=1, seed=1,
                        policy_kind=CR_RNN)

    @pytest.mark.parametrize("kind", [INVEST_ALL, CR, CR_RNN])
    @pytest.mark.parametrize("covered, message", [
        (("A", "A"), "sequence repeats zones"),
        (("A", "Z"), r"unknown zone ids: \['Z'\]"),
    ], ids=["repeated", "unknown"])
    def test_bad_initial_covered_rejected_before_simulating(
            self, kind, covered, message, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting initial_covered")

        monkeypatch.setattr("zoneinvest.rollout.simulate_paths", no_simulation)
        with pytest.raises(ValueError, match=message):
            run_rollout(flat_two_zone(), n_paths=1, n_epochs=1, seed=1,
                        policy_kind=kind, initial_covered=covered)


@pytest.mark.parametrize("scen, kw", [
    (generate_synthetic_scenario(6, 4, 2, 90.0),
     dict(n_paths=3, n_epochs=3, seed=4, policy_kind=CR, inner_paths=40)),
    (generate_synthetic_scenario(9, 3, 2, 100.0),
     dict(n_paths=2, n_epochs=3, seed=7, policy_kind=INVEST_ALL,
          initial_covered=("z02",))),
    (make_scenario(np.zeros((2, 2)), {"a1": "A", "b1": "B"},
                   {"A": 0.1, "B": 0.2}),
     dict(n_paths=1, n_epochs=3, seed=5, policy_kind=INVEST_ALL)),
], ids=["cr", "invest-all-covered", "zero-demand"])
def test_epoch_totals_match_the_prefix_walk(scen, kw):
    res = run_rollout(scen, **kw)
    outer = simulate_paths(
        replace(scen, horizon_steps=tuple(
            float(e) for e in range(1, kw["n_epochs"] + 1))),
        kw["n_paths"], kw["seed"])
    assert len(res.records) == kw["n_paths"] * kw["n_epochs"]
    for r in res.records:
        demand = outer.values[r.path, r.epoch - 1]
        payoff, ridership = realized_totals(r.covered, demand, scen)
        # The closed form sums in another order than the walk: the payoffs
        # agree to one ulp of the ridership per covered zone (at most 1 ulp
        # measured here, with two zones covered).
        assert abs(r.payoff - payoff) <= len(r.covered) * math.ulp(r.ridership)
        assert r.payoff == r.ridership - sum(
            payoff_threshold(h, scen) for h in range(1, len(r.covered) + 1))
        assert r.ridership == cumulative_ridership(r.covered, demand, scen)
        assert abs(r.ridership - ridership) <= 2 * math.ulp(ridership)


def test_report_round_trip_shape(tmp_path):
    scen = flat_two_zone()
    res = run_rollout(scen, n_paths=2, n_epochs=2, seed=10,
                      policy_kind=INVEST_ALL)
    res = compare_rollouts(res, res)
    out = rollout_report(res, tmp_path / "roll.json", config={"seed": 10})
    import json
    doc = json.loads(out.read_text())
    assert doc["policy_kind"] == INVEST_ALL
    assert len(doc["records"]) == 4
    assert doc["diff_stats"]["t"] == 0.0
    csv_rows = (tmp_path / "roll.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 1 + 4
