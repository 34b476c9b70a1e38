"""Inside the sequence classifier: labeling, training, AUC and ranking.

Sampled orderings are labeled positive when their value clears a threshold
derived from a Weibull fit of the sample (the estimated median of the best
value among all orderings), capped by a positive-to-negative ratio.  The
from-scratch LSTM then learns which zone orderings look promising.
"""

import numpy as np

from zoneinvest import (auc, generate_synthetic_scenario, label_dataset,
                        label_with_cutoff, score_and_rank, simulate_paths,
                        train, valuate_sequences)
from zoneinvest.neural import scores
from zoneinvest.ridership import RidershipCache
from zoneinvest.sequences import sample_sequences

scen = generate_synthetic_scenario(seed=4, n_zones=6, subzones_per_zone=3,
                                   demand_scale=90.0)
paths = simulate_paths(scen, n_paths=200, seed=9)
cache = RidershipCache(scen, paths)

sampled, remaining = sample_sequences(scen.zones, fraction=0.15, seed=1)
vals = [(v.sequence, v.policy_value)
        for v in valuate_sequences(sampled, cache)]
print(f"valued a {len(sampled)}-sequence sample out of {720}")

ds = label_dataset(vals, population_size=720, thr_fact=0.1, pnr_max=0.05)
print(f"estimated population best {ds.eta_ub:.1f}, threshold {ds.eta_thr:.1f}"
      f" -> {ds.n_positive} positives / {ds.n_negative} negatives "
      f"(cutoff {ds.eta_bin:.1f})")

model, _ = train(ds, emb_size=32, seed=0)
print(f"trained {model.training_meta['epochs_run']} epochs, "
      f"best validation at epoch {model.training_meta['best_epoch']}")

# ground-truth the unseen pool to measure retrieval quality
truth = {v.sequence.order: v.policy_value
         for v in valuate_sequences(remaining, cache)}
test_labels = label_with_cutoff(np.array([truth[s.order] for s in remaining]),
                                ds.eta_bin)
test_auc = auc(scores(model, remaining), test_labels)
print(f"test AUC on {len(remaining)} unseen orderings: {test_auc:.3f}")

top = score_and_rank(model, remaining, k=20)
eta_true = max(truth.values())
eta_pred = max(truth[s.order] for s, _ in top)
print(f"Gap@20: {(eta_true - eta_pred) / eta_true * 100:.2f}% "
      f"(true best {eta_true:.1f}, best retrieved {eta_pred:.1f})")
