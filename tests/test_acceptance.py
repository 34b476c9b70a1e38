"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Shared fixtures keep the expensive pieces (the full H=7 enumeration run and
the rolling-horizon runs) to one computation each.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from zoneinvest.lsmc import DEFER, NEVER, valuate_sequence
from zoneinvest.neural import auc, loss_and_gradients, scores, train
from zoneinvest.policy import CR, CR_RNN, cr_policy, cr_rnn_policy, report
from zoneinvest.ridership import equilibrium_ridership, payoff_threshold
from zoneinvest.rollout import INVEST_ALL, compare_rollouts, run_rollout
from zoneinvest.scenario import generate_synthetic_scenario
from zoneinvest.sequences import Sequence, enumerate_sequences
from zoneinvest.stochastic import simulate_paths

from conftest import make_scenario, region_scenario, single_od_scenario
from oracles import (binomial_option_value, bisect_ridership_root,
                     compound_schedule_optimum, finite_difference_grads,
                     paired_t_by_hand)
from test_neural import make_labeled, training_loss


def record(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def scen7():
    return generate_synthetic_scenario(1, 7, 3, 100.0)


@pytest.fixture(scope="module")
def paths300(scen7):
    return simulate_paths(scen7, 300, seed=11)


@pytest.fixture(scope="module")
def cr_full(scen7, paths300):
    return cr_policy(scen7, paths300)


def gap_against_table(result, table):
    """Gap@K of one CR-RNN run against the full enumeration's value table."""
    sampled = {s for s, _ in result.tables["sampled"]}
    test_values = {s: v for s, v in table.items() if s not in sampled}
    eta_true = max(test_values.values())
    eta_pred = max(v for _, v in result.tables["top_k"])
    return (eta_true - eta_pred) / eta_true * 100.0


@pytest.fixture(scope="module")
def rnn_runs(scen7, paths300, cr_full):
    """CR-RNN runs for frac_seq x seed, with their Gap@50 values."""
    table = dict(cr_full.tables["all"])
    runs = {}
    for frac in (0.01, 0.03, 0.06, 0.10):
        for seed in (0, 1, 2):
            res = cr_rnn_policy(scen7, paths300, frac_seq=frac, pnr_max=0.01,
                                k=50, seed=seed)
            runs[(frac, seed)] = (res, gap_against_table(res, table))
    return runs


def test_01_enumeration_counts():
    start = time.perf_counter()
    n7 = len(enumerate_sequences([f"z{i}" for i in range(7)]))
    n8 = len(enumerate_sequences([f"z{i}" for i in range(8)]))
    elapsed = time.perf_counter() - start
    record(1, n7 == 5040 and n8 == 40320 and elapsed < 1.0,
           f"7! = {n7}, 8! = {n8} in {elapsed:.2f}s")


def test_02_lsmc_single_option_lattice_oracle():
    # the estimate over 3 seeds (their mean) must sit within 2% of the
    # lattice value, per volatility level
    start = time.perf_counter()
    worst = 0.0
    details = []
    for sigma in (0.1, 0.3):
        lattice = binomial_option_value(100.0, 100.0, sigma, drift=0.0,
                                        discount_rate=0.02, t_end=5.0,
                                        n_steps=1000)
        scen = single_od_scenario(100.0, sigma=sigma, strike=100.0)
        values = []
        for seed in (1, 2, 3):
            paths = simulate_paths(scen, 10_000, seed=seed)
            values.append(valuate_sequence(Sequence(("A",)), paths,
                                           scen).policy_value)
        err = abs(np.mean(values) - lattice) / lattice
        worst = max(worst, err)
        details.append(f"sigma={sigma}: {np.mean(values):.3f} vs "
                       f"lattice {lattice:.3f} ({100 * err:.2f}%)")
    elapsed = time.perf_counter() - start
    record(2, worst < 0.02 and elapsed < 30.0,
           "; ".join(details) + f" in {elapsed:.1f}s")


def test_03_deterministic_dp_equivalence():
    start = time.perf_counter()
    base = generate_synthetic_scenario(2, 3, 2, 80.0)
    scen = replace(base, zone_volatility={z: 0.0 for z in base.zones},
                   drift=0.10, discount_rate=0.30)
    paths = simulate_paths(scen, 5, seed=1)
    worst = 0.0
    for order in itertools.permutations(scen.zones):
        payoff = []
        prev_region = []
        prev_tot = [0.0] + [0.0] * paths.n_steps
        for h, zone in enumerate(order):
            region = prev_region + [zone]
            idx = scen.subzone_indices(region)
            sub = region_scenario(scen, region)
            tot0 = equilibrium_ridership(sub.base_demand, sub).total
            tots = [equilibrium_ridership(
                paths.values[0, n][np.ix_(idx, idx)], sub).total
                for n in range(paths.n_steps)]
            thr = payoff_threshold(h + 1, scen)
            payoff.append([tot0 - prev_tot[0] - thr]
                          + [t - p - thr
                             for t, p in zip(tots, prev_tot[1:])])
            prev_region, prev_tot = region, [tot0] + tots
        expected = compound_schedule_optimum(payoff, scen.horizon_steps,
                                             scen.discount_rate)
        got = valuate_sequence(Sequence(order), paths, scen).policy_value
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    record(3, worst < 1e-9 and elapsed < 5.0,
           f"max |LSMC - schedule DP| = {worst:.2e} over 6 orderings "
           f"in {elapsed:.1f}s")


def test_04_worthless_option_zero():
    start = time.perf_counter()
    base = generate_synthetic_scenario(3, 3, 2, 80.0)
    scen = replace(base, within_zone_cost=1e12, interzone_cost=1e12)
    paths = simulate_paths(scen, 100, seed=4)
    ok = True
    for seq in enumerate_sequences(scen.zones):
        val = valuate_sequence(seq, paths, scen)
        ok &= (val.policy_value == 0.0
               and all(d == DEFER for d in val.decisions_t0)
               and bool(np.all(val.stopping_times == NEVER)))
    elapsed = time.perf_counter() - start
    record(4, ok and elapsed < 5.0,
           f"all 6 sequences exactly 0 / all-defer / never in {elapsed:.1f}s")


def test_05_fixed_point_vs_bisection():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(5.0, 400.0)
        price = rng.uniform(1.0, 5.0)
        tiv = rng.uniform(2.0, 45.0)
        scen = make_scenario([[q]], {"a1": "A"}, {"A": 0.1},
                             gamma=0.005, price=price, tiv=tiv)
        got = equilibrium_ridership(np.array([[q]]), scen).total
        worst = max(worst, abs(got - bisect_ridership_root(q, price, tiv, scen)))
    elapsed = time.perf_counter() - start
    record(5, worst < 1e-3 and elapsed < 1.0,
           f"max |fixed point - bisection| = {worst:.2e} over 20 draws "
           f"in {elapsed:.2f}s")


def test_06_gradient_check():
    from zoneinvest.neural import _batch_loss, init_model
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    idx = np.array([[0, 1, 2], [2, 1, 3], [3, 0, 1], [1, 2, 0], [0, 3, 2]])
    worst = 0.0
    for head, targets in (("sigmoid-classifier",
                           np.array([1.0, 0.0, 1.0, 0.0, 1.0])),
                          ("relu-regressor", rng.normal(size=5))):
        model = init_model(tuple("abcd"), 4, head, seed=3)
        _, analytic = loss_and_gradients(model.params, idx, targets, head)
        numeric = finite_difference_grads(
            lambda p: _batch_loss(p, idx, targets, head), model.params)
        for name in model.params:
            scale = max(np.abs(numeric[name]).max(), 1e-8)
            worst = max(worst,
                        np.abs(analytic[name] - numeric[name]).max() / scale)
    elapsed = time.perf_counter() - start
    record(6, worst < 1e-4 and elapsed < 10.0,
           f"max relative gradient error {worst:.2e} across all parameter "
           f"groups in {elapsed:.1f}s")


def test_07_overfit_sanity():
    start = time.perf_counter()
    seqs = enumerate_sequences(tuple("abcde"))[::6][:20]
    labels = [1 if s.order[0] == "a" else 0 for s in seqs]
    ds = make_labeled(seqs, labels)
    model, _ = train(ds, emb_size=16, lr=1e-3, batch_size=4,
                     max_epochs=300, seed=1, validation_fraction=0.0)
    bce = training_loss(model, ds)
    train_auc = auc(scores(model, ds.sequences), ds.labels)
    epochs = model.training_meta["epochs_run"]
    elapsed = time.perf_counter() - start
    record(7, train_auc == 1.0 and bce < 0.05 and epochs <= 300
           and elapsed < 30.0,
           f"training AUC {train_auc}, BCE {bce:.4f} after {epochs} epochs "
           f"in {elapsed:.1f}s")


def test_08_cr_rnn_quality_at_desk_scale(rnn_runs, cr_full):
    gaps = [rnn_runs[(0.06, seed)][1] for seed in (0, 1, 2)]
    mean_gap = float(np.mean(gaps))
    subset_ok = all(rnn_runs[(0.06, s)][0].best_value <= cr_full.best_value
                    for s in (0, 1, 2))
    record(8, mean_gap <= 2.0 and subset_ok,
           f"mean Gap@50 over 3 splits = {mean_gap:.3f}% "
           f"(per-split {[round(g, 3) for g in gaps]}; subset argmax "
           f"bounded by CR: {subset_ok})")


def test_09_skip_fraction(rnn_runs):
    res, _ = rnn_runs[(0.06, 0)]
    skipped = 1.0 - res.evaluated_count / 5040.0
    record(9, res.evaluated_count == 352 and skipped >= 0.93,
           f"evaluated {res.evaluated_count} of 5040 sequences "
           f"({100 * skipped:.1f}% skipped)")


def test_10_speedup_direction(cr_full, rnn_runs):
    rnn_time = rnn_runs[(0.06, 0)][0].wall_time
    ratio = rnn_time / cr_full.wall_time
    record(10, rnn_time < 0.5 * cr_full.wall_time,
           f"CR-RNN {rnn_time:.1f}s vs CR {cr_full.wall_time:.1f}s "
           f"({1 / ratio:.1f}x faster)")


def test_11_monotone_learning_trend(rnn_runs):
    fracs = (0.01, 0.03, 0.06, 0.10)
    means, ses = [], []
    for frac in fracs:
        gaps = [rnn_runs[(frac, seed)][1] for seed in (0, 1, 2)]
        means.append(float(np.mean(gaps)))
        ses.append(float(np.std(gaps, ddof=1) / math.sqrt(len(gaps))))
    ok = all(means[i + 1] <= means[i] + math.hypot(ses[i], ses[i + 1]) + 1e-12
             for i in range(len(fracs) - 1))
    detail = ", ".join(f"{f}: {m:.3f}%+-{s:.3f}"
                       for f, m, s in zip(fracs, means, ses))
    record(11, ok, f"mean Gap@50 by training fraction: {detail}")


@pytest.fixture(scope="module")
def scen5():
    return generate_synthetic_scenario(5, 5, 3, 100.0)


@pytest.fixture(scope="module")
def rollouts(scen5):
    kw = dict(n_paths=5, n_epochs=5, seed=21, inner_paths=300)
    inner = dict(frac_seq=0.06, pnr_max=0.01, k=50)
    rnn = run_rollout(scen5, policy_kind=CR_RNN, inner=inner, **kw)
    cr = run_rollout(scen5, policy_kind=CR, **kw)
    bench = run_rollout(scen5, policy_kind=INVEST_ALL, **kw)
    return rnn, cr, bench


def test_12_rollout_consistency(rollouts):
    start = time.perf_counter()
    rnn, cr, bench = rollouts
    npv_gap = abs(rnn.npv_per_path.mean() - cr.npv_per_path.mean()) \
        / abs(cr.npv_per_path.mean())
    compared = compare_rollouts(rnn, bench)
    t_hand = paired_t_by_hand(rnn.pv_profit_per_path, bench.pv_profit_per_path)
    t_ok = (compared.diff_stats["t"] == pytest.approx(t_hand, abs=1e-9)
            if math.isfinite(t_hand) else compared.diff_stats["t"] == t_hand)
    ok = (npv_gap <= 0.02 and rnn.pv_profit >= bench.pv_profit and t_ok)
    record(12, ok,
           f"CR-RNN vs CR mean-NPV gap {100 * npv_gap:.3f}%, profitability "
           f"{rnn.pv_profit:.4f} vs invest-all {bench.pv_profit:.4f}, "
           f"t = {compared.diff_stats['t']:.3f} (hand {t_hand:.3f})")


def test_13_determinism(scen7, paths300, scen5, rnn_runs, rollouts, tmp_path):
    res0 = rnn_runs[(0.06, 0)][0]
    again = cr_rnn_policy(scen7, paths300, frac_seq=0.06, pnr_max=0.01,
                          k=50, seed=0)
    same_run = again == res0

    workers4 = cr_rnn_policy(scen7, paths300, frac_seq=0.06, pnr_max=0.01,
                             k=50, seed=0, workers=4)
    same_workers = workers4 == res0

    import json
    a = report(res0, tmp_path / "a.json")
    b = report(again, tmp_path / "b.json")

    def normalized(p):
        doc = json.loads(p.read_text())
        doc["run_info"].pop("timestamp")
        doc["policy"].pop("wall_time")
        return json.dumps(doc, sort_keys=True)

    same_report = normalized(a) == normalized(b)

    rnn, _, _ = rollouts
    rnn_again = run_rollout(scen5, policy_kind=CR_RNN,
                            inner=dict(frac_seq=0.06, pnr_max=0.01, k=50),
                            n_paths=5, n_epochs=5, seed=21, inner_paths=300)
    same_rollout = (np.array_equal(rnn.npv_per_path, rnn_again.npv_per_path)
                    and rnn.records == rnn_again.records)
    record(13, same_run and same_workers and same_report and same_rollout,
           f"rerun identical: {same_run}, workers=4 identical: "
           f"{same_workers}, reports identical: {same_report}, rollout "
           f"rerun identical: {same_rollout}")
