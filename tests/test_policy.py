import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from zoneinvest.lsmc import (continuation_fit, valuate_sequence,
                             valuate_sequences)
from zoneinvest import neural, policy
from zoneinvest.policy import (CR, CR_RNN, _finish, cr_policy, cr_rnn_policy,
                               deterministic_npv, evaluate_retrieval,
                               load_report, report)
from zoneinvest.ridership import RidershipCache, payoff_threshold
from zoneinvest.scenario import generate_synthetic_scenario
from zoneinvest.sequences import Sequence, enumerate_sequences
from zoneinvest.stochastic import simulate_paths

from conftest import make_scenario
from oracles import compound_schedule_optimum
from test_lsmc import deterministic_scenario


@pytest.fixture(scope="module")
def small():
    scen = generate_synthetic_scenario(8, 3, 2, 90.0)
    paths = simulate_paths(scen, 120, seed=2)
    return scen, paths


def test_argmax_breaks_ties_lexicographically():
    scen = make_scenario([[10.0, 1.0], [1.0, 10.0]], {"a1": "a", "b1": "b"},
                         {"a": 0.2, "b": 0.2})
    a, b = Sequence(("a", "b")), Sequence(("b", "a"))
    defer, invest = ("defer", "defer"), ("invest", "defer")
    cache = RidershipCache(scen, simulate_paths(scen, 3, seed=0))

    def best(rows):
        res = _finish(CR, {"all": rows}, cache, 0.0)
        return (res.best_sequence, res.best_value,
                tuple(res.decisions[z] for z in res.best_sequence.order))

    assert best([(b, 1.0, defer), (a, 1.0, invest)]) == (a, 1.0, invest)
    assert best([(b, 2.0, defer), (a, 1.0, invest)]) == (b, 2.0, defer)


def test_single_zone_policy_reduces_to_exercise_test():
    scen = make_scenario([[120.0]], {"a1": "A"}, {"A": 0.2}, cwz=90.0)
    paths = simulate_paths(scen, 200, seed=3)
    res = cr_policy(scen, paths)
    assert res.evaluated_count == 1
    assert res.best_sequence == Sequence(("A",))
    val = valuate_sequence(Sequence(("A",)), paths, scen)
    assert res.best_value == val.policy_value
    assert res.decisions == {"A": val.decisions_t0[0]}


def test_cr_matches_brute_force_argmax_when_deterministic():
    scen = deterministic_scenario()
    paths = simulate_paths(scen, 3, seed=1)
    res = cr_policy(scen, paths)
    times = scen.horizon_steps
    growth = np.exp(scen.drift * np.asarray(times))
    idx_of = {z: i for i, z in enumerate(scen.zones)}
    best_val, best_seq = -np.inf, None
    for order in itertools.permutations(scen.zones):
        payoff = []
        for h in range(3):
            cur = [idx_of[z] for z in order[:h + 1]]
            prev = [idx_of[z] for z in order[:h]]
            marg = (scen.base_demand[np.ix_(cur, cur)].sum()
                    - scen.base_demand[np.ix_(prev, prev)].sum())
            thr = payoff_threshold(h + 1, scen)
            payoff.append([marg - thr] + [marg * g - thr for g in growth])
        val = compound_schedule_optimum(payoff, times, scen.discount_rate)
        if val > best_val or (val == best_val and order < best_seq):
            best_val, best_seq = val, order
    assert res.best_sequence.order == best_seq
    assert res.best_value == pytest.approx(best_val, abs=1e-9)


def test_best_value_dominates_table(small):
    scen, paths = small
    res = cr_policy(scen, paths)
    assert res.evaluated_count == 6
    values = dict(res.tables["all"])
    assert len(values) == 6
    assert all(res.best_value >= v for v in values.values())
    assert res.best_value == values[str(res.best_sequence)]
    assert res.option_premium == pytest.approx(
        res.best_value - res.npv_deterministic)


def test_workers_do_not_change_results(small):
    scen, paths = small
    seq_values = cr_policy(scen, paths, workers=2).tables["all"]
    base = cr_policy(scen, paths, workers=1).tables["all"]
    assert seq_values == base


def test_pool_parent_solves_every_prefix_region(small):
    scen, paths = small
    a, b, c = scen.zones
    seqs = [Sequence((b, a, c)), Sequence((a, b, c))]
    cache = RidershipCache(scen, paths)
    rows = policy._value_all(seqs, cache, 2)
    # {}, {a}, {b}, {a, b} and {a, b, c}, each solved once, in the parent
    assert cache.misses == 5
    assert rows == policy._value_all(seqs, RidershipCache(scen, paths), 1)


@pytest.mark.parametrize("workers", [0, -5])
def test_workers_below_one_rejected(small, workers):
    scen, paths = small
    with pytest.raises(ValueError,
                       match=f"workers must be >= 1, got {workers}"):
        cr_policy(scen, paths, workers=workers)


def test_orderings_valued_in_zone_order_returned_in_input_order(
        small, monkeypatch):
    scen, paths = small
    monkeypatch.setattr(policy, "BATCH_SIZE", 2)
    batches = []

    def recording(batch, *args):
        batches.append([s.order for s in batch])
        return valuate_sequences(batch, *args)

    monkeypatch.setattr(policy, "valuate_sequences", recording)
    seqs = enumerate_sequences(scen.zones)
    shuffled = [seqs[i] for i in (4, 1, 5, 0, 3, 2)]
    rows = policy._value_all(shuffled, RidershipCache(scen, paths), 1)
    assert batches == [[s.order for s in seqs[i:i + 2]] for i in (0, 2, 4)]
    assert [s for s, _, _ in rows] == shuffled
    values = dict(cr_policy(scen, paths).tables["all"])
    assert [v for _, v, _ in rows] == [values[str(s)] for s in shuffled]


def test_decisions_consistent_with_best_valuation(small):
    scen, paths = small
    res = cr_policy(scen, paths)
    val = valuate_sequence(res.best_sequence, paths, scen)
    assert res.decisions == dict(zip(res.best_sequence.order, val.decisions_t0))


def test_small_candidate_sets_fall_back_to_cr(small):
    scen, paths = small
    rnn = cr_rnn_policy(scen, paths, frac_seq=0.5, pnr_max=0.05, k=2, seed=0)
    assert rnn.mode == CR
    assert rnn == cr_policy(scen, paths)


def test_full_sample_reproduces_cr_argmax(small, monkeypatch):
    monkeypatch.setattr(policy, "SMALL_H_FALLBACK", 2)
    scen, paths = small
    rnn = cr_rnn_policy(scen, paths, frac_seq=1.0, pnr_max=0.05, k=2, seed=0)
    cr = cr_policy(scen, paths)
    assert rnn.mode == CR_RNN
    assert rnn.best_sequence == cr.best_sequence
    assert rnn.best_value == cr.best_value
    assert rnn.evaluated_count == 6
    assert "top_k" not in rnn.tables
    assert rnn.validation_positives is None  # nothing left to rank: no training


@pytest.mark.parametrize("option", [{"head_kind": "relu-regressor"},
                                    {"max_epoch": 5}])
def test_cr_rnn_rejects_settings_train_would_reject(small, option):
    scen, paths = small  # small enough to fall back to CR without training
    with pytest.raises(TypeError):
        cr_rnn_policy(scen, paths, frac_seq=0.5, pnr_max=0.05, k=2, **option)


@pytest.mark.parametrize("n_zones", [5, 7])
@pytest.mark.parametrize("setting, message", [
    ({"frac_seq": 5.0}, r"^fraction must be in \(0, 1\], got 5.0"),
    ({"pnr_max": -1.0}, r"pnr_max must be in \(0, 1\], got -1.0"),
    ({"thr_fact": 7.0}, r"thr_fact must be in \[0, 1\], got 7.0"),
    ({"validation_fraction": 1.5},
     r"validation_fraction must be in \[0, 1\), got 1.5"),
])
def test_cr_rnn_rejects_bad_settings_before_valuing(n_zones, setting, message,
                                                    monkeypatch):
    # 5 candidates fall back to CR; 7 would sample, label and train.
    scen = generate_synthetic_scenario(5, n_zones, 2, 100.0)
    paths = simulate_paths(scen, 10, seed=0)

    def no_valuation(*args):
        raise AssertionError("valued before rejecting a setting")

    monkeypatch.setattr(policy, "_value_all", no_valuation)
    settings = dict(frac_seq=0.06, pnr_max=0.05, k=5, thr_fact=0.1) | setting
    with pytest.raises(ValueError, match=message):
        cr_rnn_policy(scen, paths, **settings)


@pytest.mark.parametrize("option, error", [({"max_epoch": 5}, TypeError),
                                           ({"validation_fraction": 1.5},
                                            ValueError)])
def test_settings_checked_through_a_wrapped_train(small, option, error,
                                                  monkeypatch):
    # A timer that wraps train without copying its signature.
    def timed(*args, **kwargs):
        return neural_train(*args, **kwargs)

    neural_train = neural.train
    monkeypatch.setattr(neural, "train", timed)
    monkeypatch.setattr(policy, "train", timed)
    with pytest.raises(error):
        cr_rnn_policy(*small, frac_seq=0.5, pnr_max=0.05, k=2, **option)


@pytest.mark.parametrize("call", [
    lambda scen, paths: cr_policy(scen, paths, j=3),
    lambda scen, paths: cr_rnn_policy(scen, paths, frac_seq=0.5,
                                      pnr_max=0.05, k=2, j=3),
    lambda scen, paths: valuate_sequences(
        enumerate_sequences(scen.zones), RidershipCache(scen, paths), j=3),
    lambda scen, paths: valuate_sequence(Sequence(scen.zones), paths, scen,
                                         j=3),
    lambda scen, paths: continuation_fit(np.arange(5.0), np.ones(5), j=3),
], ids=["cr_policy", "cr_rnn_policy", "valuate_sequences", "valuate_sequence",
        "continuation_fit"])
def test_no_call_takes_a_basis_size(small, call):
    with pytest.raises(TypeError, match="'j'"):
        call(*small)


@pytest.fixture(scope="module")
def run():
    scen = generate_synthetic_scenario(1, 7, 3, 100.0)
    paths = simulate_paths(scen, 40, seed=5)
    res = cr_rnn_policy(scen, paths, frac_seq=0.02, pnr_max=0.05, k=20,
                        seed=3, max_epochs=40)
    return scen, paths, res


class TestCrRnnPipeline:

    def test_counts(self, run):
        _, _, res = run
        assert res.mode == CR_RNN
        assert res.evaluated_count == round(0.02 * 5040) + 20
        assert len(res.tables["sampled"]) == round(0.02 * 5040)
        assert len(res.tables["top_k"]) == 20
        assert 1.0 - res.evaluated_count / 5040 > 0.9

    def test_argmax_over_valued_dictionary(self, run):
        _, _, res = run
        everything = dict(res.tables["sampled"]) | dict(res.tables["top_k"])
        assert res.best_value == max(everything.values())

    def test_model_and_dataset_attached(self, run):
        _, _, res = run
        assert res.model is not None
        assert res.dataset is not None
        assert res.dataset.n_positive >= 1

    def test_deterministic_rerun(self, run):
        scen, paths, res = run
        again = cr_rnn_policy(scen, paths, frac_seq=0.02, pnr_max=0.05, k=20,
                              seed=3, max_epochs=40)
        assert again == res


def test_evaluate_retrieval_reports_gap_and_auc(small, monkeypatch):
    monkeypatch.setattr(policy, "SMALL_H_FALLBACK", 2)
    scen, paths = small
    res = cr_policy(scen, paths)
    table = {Sequence.parse(s).order: v for s, v in res.tables["all"]}
    rnn = cr_rnn_policy(scen, paths, frac_seq=0.5, pnr_max=0.5, k=2, seed=0)
    train_orders = [s.order for s in rnn.dataset.sequences]
    metrics = evaluate_retrieval(rnn.model, table, train_orders, k=2,
                                 eta_bin=rnn.dataset.eta_bin)
    test_orders = [o for o in table if o not in set(train_orders)]
    assert metrics["eta_true"] == max(table[o] for o in test_orders)
    assert 0.0 <= metrics["gap_at_k"] <= 100.0
    assert metrics["eta_pred"] <= metrics["eta_true"]


def test_npv_uses_best_sequence_order(small):
    scen, paths = small
    res = cr_policy(scen, paths)
    assert res.npv_deterministic == pytest.approx(
        deterministic_npv(res.best_sequence.order, scen))


def test_report_round_trip(tmp_path, small):
    scen, paths = small
    res = cr_policy(scen, paths)
    out = report(res, tmp_path / "cr.json", config={"seed": 2})
    assert load_report(out) == res
    pol = json.loads(out.read_text())["policy"]
    assert sorted(pol) == [
        "best_sequence", "best_value", "decisions", "degenerate_labeling",
        "evaluated_count", "mode", "npv_deterministic", "option_premium",
        "validation_positives", "wall_time"]
    assert pol["validation_positives"] is None
    rows = (tmp_path / "cr.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 6  # header + H! sequences


def test_cr_rnn_report_row_count(tmp_path):
    scen = generate_synthetic_scenario(1, 7, 3, 100.0)
    paths = simulate_paths(scen, 30, seed=5)
    res = cr_rnn_policy(scen, paths, frac_seq=0.02, pnr_max=0.05, k=10,
                        seed=3, max_epochs=10)
    report(res, tmp_path / "rnn.json")
    rows = (tmp_path / "rnn.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + round(0.02 * 5040) + 10
    assert load_report(tmp_path / "rnn.json") == res


def test_report_without_validation_positives_loads(tmp_path):
    # Reports written before the field existed lack the key: it loads as
    # None, "unknown", and every other field as written.
    scen = generate_synthetic_scenario(1, 7, 3, 100.0)
    paths = simulate_paths(scen, 30, seed=5)
    res = cr_rnn_policy(scen, paths, frac_seq=0.02, pnr_max=0.05, k=10,
                        seed=3, max_epochs=10)
    assert res.validation_positives is not None
    out = report(res, tmp_path / "rnn.json")
    doc = json.loads(out.read_text())
    del doc["policy"]["validation_positives"]
    out.write_text(json.dumps(doc))
    assert load_report(out) == replace(res, validation_positives=None)


def test_forced_positive_run_reports_no_validation_positives(tmp_path):
    # The north-star CR-RNN run: the ratio rule admits no sampled ordering,
    # so the top-1 is forced positive and lands in the training split.
    scen = generate_synthetic_scenario(1, 7, 3, 100.0)
    paths = simulate_paths(scen, 300, seed=11)
    res = cr_rnn_policy(scen, paths, frac_seq=0.06, pnr_max=0.01, k=50, seed=0)
    assert res.dataset.forced_positive
    assert res.degenerate_labeling
    assert res.validation_positives == 0
    assert res.validation_positives == \
        res.model.training_meta["validation_positives"]
    out = report(res, tmp_path / "rnn.json")
    assert json.loads(out.read_text())["policy"]["validation_positives"] == 0
    assert load_report(out) == res
