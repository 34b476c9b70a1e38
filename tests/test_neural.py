import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zoneinvest import neural
from zoneinvest.labeling import LabeledDataset
from zoneinvest.neural import (CLASSIFIER, REGRESSOR, DivergenceError,
                               _final_hidden, _logits, _steps, auc,
                               gap_at_k, init_model, load_model,
                               loss_and_gradients, save_model, score_and_rank,
                               scores, train)
from zoneinvest.sequences import Sequence, enumerate_sequences, sample_sequences

from oracles import (PER_GATE_BIAS, PER_GATE_INPUT, PER_GATE_RECURRENT,
                     finite_difference_grads, per_gate_forward,
                     per_gate_loss_and_gradients, stack_gates)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def make_labeled(seqs, labels, values=None):
    labels = np.asarray(labels, dtype=int)
    values = np.asarray(values if values is not None else labels, dtype=float)
    return LabeledDataset(
        sequences=tuple(seqs), values=values, labels=labels,
        eta_ub=float(values.max()), eta_thr=float(values.max()),
        eta_bin=float(values[labels == 1].min()) if labels.any() else 0.0,
        pnr_max=1.0, thr_fact=0.0, population_size=len(seqs),
        norm_mean=float(values.mean()), norm_std=float(values.std()),
        forced_positive=False, degenerate_fit=False)


def training_loss(model, ds):
    """``model``'s loss over all of ``ds``, the targets as train forms them."""
    if model.head_kind == CLASSIFIER:
        targets = ds.labels.astype(float)
    else:
        mean, std = model.target_norm
        targets = (ds.values - mean) / std
    return neural._batch_loss(model.params, model.zone_indices(ds.sequences),
                              targets, model.head_kind)


def zero_params(model):
    for name in model.params:
        model.params[name] = np.zeros_like(model.params[name])


class TestForward:
    def test_zero_parameters_classifier_scores_half(self):
        model = init_model(("a", "b", "c"), 4, CLASSIFIER, seed=1)
        zero_params(model)
        for seq in enumerate_sequences(("a", "b", "c"))[:3]:
            assert scores(model, [seq])[0] == 0.5

    def test_zero_parameters_regressor_scores_zero(self):
        model = init_model(("a", "b", "c"), 4, REGRESSOR, seed=1)
        zero_params(model)
        assert scores(model, [Sequence(("b", "a", "c"))])[0] == 0.0

    def test_unknown_zone_rejected(self):
        model = init_model(("a", "b"), 4, CLASSIFIER, seed=1)
        with pytest.raises(ValueError, match="embedding"):
            scores(model, [Sequence(("a", "z"))])

    def test_matches_hand_unrolled_recurrence(self):
        model = init_model(("a", "b"), 2, CLASSIFIER, seed=0)
        p = model.params
        f, i, o, c = slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8)
        p["emb"] = np.array([[0.1, -0.2], [0.3, 0.05]])
        p["W_x"][f] = [[0.2, -0.1], [0.05, 0.3]]
        p["W_h"][f] = [[0.1, 0.0], [-0.2, 0.15]]
        p["b"][f] = [0.05, -0.05]
        p["W_x"][i] = [[-0.3, 0.2], [0.1, 0.1]]
        p["W_h"][i] = [[0.0, 0.25], [0.2, -0.1]]
        p["b"][i] = [0.1, 0.0]
        p["W_x"][o] = [[0.15, 0.15], [-0.1, 0.2]]
        p["W_h"][o] = [[0.3, -0.3], [0.0, 0.1]]
        p["b"][o] = [-0.1, 0.2]
        p["W_x"][c] = [[0.25, 0.1], [-0.15, 0.05]]
        p["W_h"][c] = [[0.05, 0.2], [0.1, -0.25]]
        p["b"][c] = [0.0, 0.1]
        p["W_ff"] = np.array([0.4, -0.5])
        p["b_ff"] = np.array([0.02])

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        def pre(gate, e, d):
            return p["W_x"][gate] @ e + p["W_h"][gate] @ d + p["b"][gate]

        d = np.zeros(2)
        cell = np.zeros(2)
        for zone in ("b", "a"):
            e = p["emb"][{"a": 0, "b": 1}[zone]]
            cell = (sig(pre(f, e, d)) * cell
                    + sig(pre(i, e, d)) * np.tanh(pre(c, e, d)))
            d = sig(pre(o, e, d)) * np.tanh(cell)
        by_hand = sig(p["W_ff"] @ d + p["b_ff"][0])
        assert scores(model, [Sequence(("b", "a"))])[0] == pytest.approx(
            by_hand, abs=1e-10)

    def test_zone_indices_of_many_sequences(self):
        model = init_model(("a", "b", "c"), 4, CLASSIFIER, seed=1)
        idx = model.zone_indices([Sequence(("c", "a")), Sequence(("b", "c"))])
        assert idx.tolist() == [[2, 0], [1, 2]]
        with pytest.raises(ValueError, match="has no embedding"):
            scores(model, [Sequence(("a", "b")), Sequence(("a", "z"))])

    def test_forward_deterministic(self):
        model = init_model(tuple("abcd"), 8, CLASSIFIER, seed=5)
        seq = Sequence(("c", "a", "d", "b"))
        assert scores(model, [seq])[0] == scores(model, [seq])[0]


class TestGradients:
    @pytest.mark.parametrize("head", [CLASSIFIER, REGRESSOR])
    def test_bptt_matches_finite_differences(self, head):
        rng = np.random.default_rng(20)
        model = init_model(tuple("abcd"), 4, head, seed=3)
        idx = np.array([[0, 1, 2], [2, 1, 3], [3, 0, 1], [1, 2, 0], [0, 3, 2]])
        targets = (np.array([1.0, 0.0, 1.0, 0.0, 1.0]) if head == CLASSIFIER
                   else rng.normal(size=5))
        _, analytic = loss_and_gradients(model.params, idx, targets, head)

        def loss_fn(params):
            from zoneinvest.neural import _batch_loss
            return _batch_loss(params, idx, targets, head)

        numeric = finite_difference_grads(loss_fn, model.params, eps=1e-6)
        for name in model.params:
            scale = max(np.abs(numeric[name]).max(), 1e-8)
            err = np.abs(analytic[name] - numeric[name]).max() / scale
            assert err < 1e-4, f"{head} {name}: rel err {err:.2e}"


@st.composite
def per_gate_problems(draw):
    """Random per-gate weights, an index batch and targets for either head."""
    head = draw(st.sampled_from([CLASSIFIER, REGRESSOR]))
    n_vocab, d = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    h_len, batch = draw(st.integers(1, 7)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.1, 0.5, 2.0]))
    params = {"emb": rng.normal(size=(n_vocab, d)),
              "W_ff": rng.normal(size=d), "b_ff": rng.normal(size=1)}
    for name in PER_GATE_INPUT + PER_GATE_RECURRENT:
        params[name] = rng.normal(scale=scale, size=(d, d))
    for name in PER_GATE_BIAS:
        params[name] = rng.normal(size=d)
    idx = rng.integers(0, n_vocab, size=(batch, h_len))
    targets = (rng.integers(0, 2, size=batch).astype(float)
               if head == CLASSIFIER else rng.normal(size=batch))
    return head, params, idx, targets


def assert_rel_close(got, want, what):
    """Max abs difference within 1e-12 of the reference's largest entry."""
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale, what


class TestFusedAgainstPerGate:
    """The stacked-gate kernel against the per-gate reference in oracles."""

    def test_initial_weights_follow_per_gate_draw_order(self):
        d = 3
        model = init_model(tuple("abcd"), d, REGRESSOR, seed=8)
        rng = np.random.default_rng(8)

        def draw(*shape):
            return rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), size=shape)

        per_gate = {"emb": draw(4, d)}
        for w_in, w_rec in zip(PER_GATE_INPUT, PER_GATE_RECURRENT):
            per_gate[w_in], per_gate[w_rec] = draw(d, d), draw(d, d)
        per_gate["W_ff"] = draw(d)
        per_gate.update({name: np.zeros(d) for name in PER_GATE_BIAS})
        per_gate["b_f"] = np.ones(d)
        per_gate["b_ff"] = np.array([0.1])
        want = stack_gates(per_gate)
        assert model.params.keys() == want.keys()
        for name, arr in want.items():
            assert np.array_equal(model.params[name], arr), name

    @PROPERTY
    @given(per_gate_problems())
    def test_logits(self, problem):
        _, per_gate, idx, _ = problem
        want, _, _ = per_gate_forward(per_gate, idx)
        assert_rel_close(_logits(stack_gates(per_gate), idx), want, "logits")

    @PROPERTY
    @given(per_gate_problems())
    def test_loss_and_every_gradient(self, problem):
        head, per_gate, idx, targets = problem
        want_loss, want = per_gate_loss_and_gradients(per_gate, idx, targets,
                                                      head)
        loss, grads = loss_and_gradients(stack_gates(per_gate), idx, targets,
                                         head)
        assert_rel_close(loss, want_loss, "loss")
        want = stack_gates(want)
        assert grads.keys() == want.keys()
        for name in want:
            assert grads[name].shape == want[name].shape, name
            assert_rel_close(grads[name], want[name], name)

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2 ** 16),
           st.data())
    def test_scores_independent_of_split(self, h_len, d, seed, data):
        vocab = tuple("abcdef")
        model = init_model(vocab, d, data.draw(
            st.sampled_from([CLASSIFIER, REGRESSOR])), seed=seed)
        rng = np.random.default_rng(seed)
        cands = [Sequence(tuple(rng.permutation(vocab)[:h_len]))
                 for _ in range(data.draw(st.integers(1, 60)))]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(cands)),
                                         max_size=4)))
        parts = [cands[a:b] for a, b in zip([0] + cuts, cuts + [len(cands)])]
        split = np.concatenate([scores(model, part) for part in parts if part])
        # To rounding only: BLAS takes a matrix-vector path for one row, and
        # its matrix-vector kernel blocks rows by batch size.
        assert_rel_close(split, scores(model, cands), "split scores")

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2 ** 16),
           st.sampled_from([2, 3]), st.data())
    def test_chunked_scores_equal_one_pass(self, h_len, d, seed, chunk, data):
        vocab = tuple("abcdef")
        model = init_model(vocab, d, data.draw(
            st.sampled_from([CLASSIFIER, REGRESSOR])), seed=seed)
        rng = np.random.default_rng(seed)
        cands = [Sequence(tuple(rng.permutation(vocab)[:h_len]))
                 for _ in range(data.draw(st.integers(1, 41)))]
        idx = model.zone_indices(cands)
        for *_, hidden in _steps(model.params, idx):
            pass
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "SCORE_CHUNK", len(cands) + 1)
            one_pass = scores(model, cands)
            mp.setattr(neural, "SCORE_CHUNK", chunk)
            chunked = scores(model, cands)
            # Scores can hide a last-bit change in a hidden state; compare
            # the states too.
            assert np.array_equal(_final_hidden(model.params, idx), hidden)
        assert np.array_equal(chunked, one_pass)


def separable_dataset():
    seqs = enumerate_sequences(tuple("abcde"))[::6][:20]
    labels = [1 if s.order[0] == "a" else 0 for s in seqs]
    return make_labeled(seqs, labels)


class TestTraining:
    def test_overfits_separable_sequences(self):
        ds = separable_dataset()
        model, _ = train(ds, emb_size=16, lr=1e-3, batch_size=4,
                         max_epochs=300, seed=1, validation_fraction=0.0)
        assert training_loss(model, ds) < 0.05
        assert auc(scores(model, ds.sequences), ds.labels) == 1.0

    def test_loss_decreases_on_first_epoch(self):
        ds = separable_dataset()
        kw = dict(emb_size=8, lr=1e-3, batch_size=4, seed=2,
                  validation_fraction=0.0)
        initial, _ = train(ds, max_epochs=0, **kw)
        model, history = train(ds, max_epochs=1, **kw)
        assert history == [(0, None), (1, None)]
        assert training_loss(model, ds) < training_loss(initial, ds)

    def test_zero_learning_rate_is_a_noop(self):
        ds = separable_dataset()
        model, history = train(ds, emb_size=8, lr=0.0, batch_size=4,
                               max_epochs=3, seed=3)
        fresh = init_model(model.vocab, 8, CLASSIFIER,
                           seed=np.random.default_rng(3).integers(2 ** 31))
        for name in fresh.params:
            assert np.array_equal(model.params[name], fresh.params[name])
        losses = [val_loss for _, val_loss in history]
        assert len(losses) == 4
        assert max(losses) - min(losses) == 0.0

    def test_single_class_rejected(self):
        seqs = enumerate_sequences(("a", "b", "c"))
        with pytest.raises(ValueError, match="class"):
            train(make_labeled(seqs, [1] * 6), validation_fraction=0.0)

    def test_deterministic_per_seed(self):
        ds = separable_dataset()
        m1, h1 = train(ds, emb_size=8, batch_size=8, max_epochs=5, seed=9)
        m2, h2 = train(ds, emb_size=8, batch_size=8, max_epochs=5, seed=9)
        assert h1 == h2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_last_state(self):
        ds = separable_dataset()
        # The later two diverge at epochs 13 and 5.  The carried model is
        # the last finite epoch's: had the diverging steps overwritten it in
        # place, its parameters, or else its loss, would not be finite.
        for lr, seed, max_epochs in ((1e308, 4, 5), (3e307, 0, 20),
                                     (1e307, 3, 20)):
            with pytest.raises(DivergenceError) as err:
                train(ds, emb_size=8, lr=lr, batch_size=4,
                      max_epochs=max_epochs, seed=seed,
                      validation_fraction=0.0)
            model = err.value.model
            assert all(np.all(np.isfinite(a)) for a in model.params.values())
            assert np.isfinite(training_loss(model, ds))

    def test_permutation_sensitivity_after_training(self):
        ds = separable_dataset()
        model, _ = train(ds, emb_size=16, lr=1e-3, batch_size=4,
                         max_epochs=120, seed=1, validation_fraction=0.0)
        a = scores(model, [Sequence(("a", "b", "c", "d", "e"))])[0]
        b = scores(model, [Sequence(("b", "a", "c", "d", "e"))])[0]
        assert a != b

    @pytest.mark.parametrize("n_positive, fraction, expected", [
        # 0.2 of two positives rounds to none held out
        pytest.param(2, 0.2, 0, id="2-0"),
        pytest.param(5, 0.2, 1, id="5-1"),
        pytest.param(5, 0.0, None, id="no-split")])
    def test_validation_positives_reported(self, n_positive, fraction,
                                           expected):
        seqs = enumerate_sequences(tuple("abcd"))[:20]
        ds = make_labeled(seqs, [1] * n_positive + [0] * (20 - n_positive))
        model, _ = train(ds, emb_size=4, batch_size=8, max_epochs=2, seed=6,
                         validation_fraction=fraction)
        assert model.training_meta["validation_positives"] == expected

    @pytest.mark.parametrize("fraction", [-0.2, 1.0, 1.5, float("nan")])
    def test_validation_fraction_outside_unit_interval_rejected(self,
                                                                fraction):
        with pytest.raises(ValueError, match=f"got {fraction}"):
            train(separable_dataset(), emb_size=4, max_epochs=1,
                  validation_fraction=fraction)

    def test_regressor_trains_on_normalized_values(self):
        seqs = enumerate_sequences(tuple("abcd"))[:16]
        values = np.linspace(10.0, 40.0, 16)
        ds = make_labeled(seqs, [0] * 15 + [1], values=values)
        kw = dict(emb_size=8, batch_size=8, seed=5, validation_fraction=0.0,
                  head_kind=REGRESSOR)
        initial, _ = train(ds, max_epochs=0, **kw)
        model, _ = train(ds, max_epochs=40, **kw)
        assert model.target_norm == (ds.norm_mean, ds.norm_std)
        assert training_loss(model, ds) < training_loss(initial, ds)
        assert model.training_meta["validation_positives"] is None


class TestRanking:
    def test_full_ordering(self):
        model = init_model(tuple("abc"), 4, CLASSIFIER, seed=7)
        cands = enumerate_sequences(("a", "b", "c"))
        ranked = score_and_rank(model, cands, k=6)
        assert len(ranked) == 6
        vals = [v for _, v in ranked]
        assert vals == sorted(vals, reverse=True)

    def test_zero_model_ties_break_lexicographically(self):
        model = init_model(tuple("abc"), 4, CLASSIFIER, seed=7)
        zero_params(model)
        cands = enumerate_sequences(("a", "b", "c"))
        ranked = score_and_rank(model, cands, k=3)
        assert [s.order for s, _ in ranked] == [
            ("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c")]

    def test_trained_model_retrieves_all_positives(self):
        ds = separable_dataset()
        model, _ = train(ds, emb_size=16, lr=1e-3, batch_size=4,
                         max_epochs=300, seed=1, validation_fraction=0.0)
        n_pos = int(ds.labels.sum())
        top = score_and_rank(model, list(ds.sequences), k=n_pos)
        want = {s.order for s, y in zip(ds.sequences, ds.labels) if y == 1}
        assert {s.order for s, _ in top} == want

    def test_k_bounded(self):
        model = init_model(tuple("ab"), 4, CLASSIFIER, seed=7)
        with pytest.raises(ValueError):
            score_and_rank(model, enumerate_sequences(("a", "b")), k=3)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        # ranked[:k] would silently keep all but |k| candidates.
        model = init_model(tuple("abc"), 4, CLASSIFIER, seed=7)
        with pytest.raises(ValueError, match="k must be >= 1"):
            score_and_rank(model, enumerate_sequences(("a", "b", "c")), k=k)


def test_scoring_memory_is_bounded(synth7):
    """Ranking cr_rnn_h7's 4738 unsampled orderings at d = 50 holds chunks of
    gate arrays, not [4738, 200] ones (one unchunked pass peaked at 25.0 MB)."""
    model = init_model(synth7.zones, 50)
    _, remaining = sample_sequences(synth7.zones, 0.06, 0)
    assert len(remaining) == 4738
    tracemalloc.start()
    try:
        scores(model, remaining)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


class TestMetrics:
    def test_gap_trivial_cases(self):
        assert gap_at_k(100.0, 100.0) == 0.0
        assert gap_at_k(100.0, 99.0) == pytest.approx(1.0)
        assert gap_at_k(100.0, 0.0) == 100.0

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            gap_at_k(0.0, 0.0)
        with pytest.raises(ValueError):
            gap_at_k(10.0, 11.0)

    def test_auc_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_auc_hand_case(self):
        assert auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == 0.75

    def test_auc_ties_count_half(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_auc_random_scores_near_half(self):
        rng = np.random.default_rng(21)
        s = rng.uniform(size=20_000)
        y = rng.integers(0, 2, size=20_000)
        assert auc(s, y) == pytest.approx(0.5, abs=0.02)

    def test_auc_matches_pair_count_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            s = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            pos, neg = s[y == 1, None], s[y == 0]
            pairs = (pos > neg).sum() + 0.5 * (pos == neg).sum()
            assert auc(s, y) == pairs / (len(pos) * len(neg))

    def test_auc_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])


def test_checkpoint_round_trip(tmp_path):
    ds = separable_dataset()
    model, _ = train(ds, emb_size=8, batch_size=8, max_epochs=5, seed=11)
    save_model(model, tmp_path / "model.json")
    again = load_model(tmp_path / "model.json")
    assert again.vocab == model.vocab
    assert again.head_kind == model.head_kind
    assert again.target_norm == model.target_norm
    assert again.training_meta == model.training_meta
    assert again.training_meta["validation_positives"] == 1
    for name in model.params:
        assert np.array_equal(again.params[name], model.params[name])
    for seq in ds.sequences[:5]:
        assert scores(again, [seq])[0] == scores(model, [seq])[0]


def test_checkpoint_without_validation_positives_loads(tmp_path):
    ds = separable_dataset()
    model, _ = train(ds, emb_size=4, batch_size=8, max_epochs=1, seed=11)
    save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    del doc["training_meta"]["validation_positives"]
    (tmp_path / "old.json").write_text(json.dumps(doc))
    again = load_model(tmp_path / "old.json")
    assert "validation_positives" not in again.training_meta
    assert again.training_meta["best_epoch"] == model.training_meta["best_epoch"]


def test_per_gate_checkpoint_rejected_naming_both_formats(tmp_path):
    ds = separable_dataset()
    model, _ = train(ds, emb_size=4, batch_size=8, max_epochs=1, seed=11)
    save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["format"] = "zoneinvest-lstm-v1"
    doc["params"] = {name: [0.0] * 16 for name in PER_GATE_INPUT
                     + PER_GATE_RECURRENT} | {"emb": doc["params"]["emb"]}
    (tmp_path / "v1.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="zoneinvest-lstm-v1") as err:
        load_model(tmp_path / "v1.json")
    assert "zoneinvest-lstm-v2" in str(err.value)


def test_unknown_head_kind_checkpoint_rejected(tmp_path):
    ds = separable_dataset()
    model, _ = train(ds, emb_size=4, batch_size=8, max_epochs=1, seed=11)
    save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["head_kind"] = "softmax-classifier"
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="head kind"):
        load_model(tmp_path / "bad.json")


def test_unsupported_checkpoint_rejected(tmp_path):
    (tmp_path / "bad.json").write_text('{"format": "other"}')
    with pytest.raises(ValueError, match="format"):
        load_model(tmp_path / "bad.json")
