"""CR and CR-RNN investment policies.

CR values every ordering of the candidate zones by LSMC and keeps the one
with the highest initial option value.  CR-RNN values only a sampled
fraction, labels it, trains the LSTM classifier on the labels, lets the
model retrieve the top-K most promising unseen orderings, values those, and
takes the argmax over everything it actually valued — so only M + K of the
H! sequences are ever priced.  Small candidate sets skip the model and fall
back to plain CR, mirroring how the method is used in rolling-horizon runs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from ._report import write_report
from .labeling import (LabeledDataset, check_cutoff_settings, label_dataset,
                       label_with_cutoff)
# valuate_sequence is not called here; it stays bound as policy.valuate_sequence,
# a name outside callers look up (e.g. to wrap it with a timer).
from .lsmc import valuate_sequence, valuate_sequences  # noqa: F401
from .neural import (CLASSIFIER, LstmModel, auc, check_train_settings,
                     gap_at_k, score_and_rank, scores, train)
from .ridership import RidershipCache, cumulative_ridership, payoff_threshold
from .scenario import Scenario
from .sequences import (Sequence, check_fraction, enumerate_sequences,
                        sample_sequences)
from .stochastic import DemandPaths

CR = "CR"
CR_RNN = "CR-RNN"

SMALL_H_FALLBACK = 6  # candidate counts at or below this use plain CR

# Orderings per LSMC recursion.  A batch holds [H, batch, P] work arrays,
# states per distinct (prefix set, zone) and the stacked fit's temporaries,
# so peak memory grows with it.  Neighbouring orderings share designs, so
# larger batches fit fewer per ordering.
BATCH_SIZE = 16


@dataclass(frozen=True)
class PolicyResult:
    mode: str
    best_sequence: Sequence
    best_value: float
    decisions: dict[str, str]              # zone -> invest/defer
    npv_deterministic: float
    option_premium: float
    evaluated_count: int
    wall_time: float = field(compare=False)
    tables: dict[str, tuple[tuple[str, float], ...]] = field(default_factory=dict)
    degenerate_labeling: bool = False
    # Positives in the trained model's validation split; 0 means early
    # stopping picked its epoch on negatives alone.  None when nothing
    # trained or training had no split.
    validation_positives: int | None = None
    model: LstmModel | None = field(default=None, compare=False, repr=False)
    dataset: LabeledDataset | None = field(default=None, compare=False, repr=False)


# The report's "policy" block: every field but the value tables and the
# in-memory model and dataset.
_POLICY_FIELDS = tuple(f.name for f in fields(PolicyResult)
                       if f.name not in ("tables", "model", "dataset"))


# -- worker pool ---------------------------------------------------------------

_pool_call = None  # in a pool worker: the bound function ``_fan_out`` maps


def _init_pool(fn):
    global _pool_call
    _pool_call = fn


def _call_in_pool(part):
    return _pool_call(part)


def _fan_out(fn, parts, workers) -> list:
    """The lists ``fn(part)`` of all ``parts``, concatenated in order; in one
    process pool, one task per part, when two or more workers and parts
    allow, and then each worker process receives ``fn`` (a picklable bound
    callable, such as a ``functools.partial``) once."""
    if workers < 2 or len(parts) < 2:
        return [x for part in parts for x in fn(part)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_pool,
                             initargs=(fn,)) as pool:
        return [x for out in pool.map(_call_in_pool, parts) for x in out]


def _value_batch(cache, batch) -> list:
    # Only the t0 decisions ride along: stopping times would hold [H, P] per
    # ordering, and the decisions are all the winner needs.  No name holds
    # the valuations, so they are freed before the next batch is valued.
    return [(v.sequence, v.policy_value, v.decisions_t0)
            for v in valuate_sequences(batch, cache)]


def _value_all(seqs, cache, workers) -> list:
    """``(sequence, policy value, t0 decisions)`` for ``seqs``, in order;
    identical for any worker count.

    Orderings are valued in zone order, in batches of ``BATCH_SIZE``, so a
    batch's neighbours share (prefix set, zone) designs; a value does not
    depend on its batch.  The batches are the parts ``_fan_out`` maps, and
    with more than one worker the parent first looks up every prefix
    region, so each worker receives the cache with a complete memo.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ordered = sorted(seqs, key=lambda s: s.order)
    if workers > 1:
        for prefix in dict.fromkeys(s.order[:h] for s in ordered
                                    for h in range(len(s.order) + 1)):
            cache.cumulative(prefix)
    batches = [ordered[i:i + BATCH_SIZE]
               for i in range(0, len(ordered), BATCH_SIZE)]
    row_of = {row[0]: row for row in
              _fan_out(partial(_value_batch, cache), batches, workers)}
    return [row_of[s] for s in seqs]


def deterministic_npv(order, scenario: Scenario, covered=()) -> float:
    """Total t0 payoff of investing every zone of ``order`` immediately.

    The per-zone payoffs telescope: the ridership increments of an
    ordering's prefixes sum to R(covered | order) - R(covered), so the NPV
    is that difference less every position's threshold, and it depends
    only on the zone set.  An empty covered region solves to +0.0.
    """
    covered = frozenset(covered)
    base = cumulative_ridership((), scenario.base_demand, scenario, covered)
    total = cumulative_ridership(order, scenario.base_demand, scenario,
                                 covered)
    return total - base - sum(payoff_threshold(h, scenario, len(covered))
                              for h in range(1, len(order) + 1))


def _finish(mode, tables, cache, t_start, dataset=None, model=None):
    """The result over every valued ``(sequence, value, decisions)`` row of
    ``tables``: the highest value wins, ties to the first zone order."""
    best_seq, best_value, best_decisions = min(
        (row for rows in tables.values() for row in rows),
        key=lambda row: (-row[1], row[0].order))
    npv = deterministic_npv(best_seq.order, cache.scenario, cache.covered)
    return PolicyResult(
        mode=mode,
        best_sequence=best_seq,
        best_value=best_value,
        decisions={z: d for z, d in zip(best_seq.order, best_decisions)},
        npv_deterministic=npv,
        option_premium=best_value - npv,
        evaluated_count=sum(len(rows) for rows in tables.values()),
        wall_time=time.perf_counter() - t_start,
        tables={name: tuple((str(s), v) for s, v, _ in rows)
                for name, rows in tables.items()},
        degenerate_labeling=dataset is not None and (
            dataset.forced_positive or dataset.degenerate_fit),
        validation_positives=None if model is None
        else model.training_meta["validation_positives"],
        model=model,
        dataset=dataset,
    )


def cr_policy(scenario: Scenario, paths: DemandPaths, covered=(), *,
              workers: int = 1) -> PolicyResult:
    """Full-enumeration policy: value all H! sequences, keep the argmax."""
    t0 = time.perf_counter()
    covered = frozenset(covered)
    candidates = sorted(set(scenario.zones) - covered)
    if not candidates:
        raise ValueError("no candidate zones outside the covered set")
    seqs = enumerate_sequences(candidates)
    cache = RidershipCache(scenario, paths, covered)
    tables = {"all": _value_all(seqs, cache, workers)}
    return _finish(CR, tables, cache, t0)


def check_rnn_settings(*, frac_seq: float, pnr_max: float, k: int,
                       thr_fact: float = 0.1, **train_options) -> None:
    """Raise for :func:`cr_rnn_policy` settings what its sampling,
    labelling and training stages would raise, before any of them runs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_train_settings(head_kind=CLASSIFIER, **train_options)
    check_fraction(frac_seq)
    check_cutoff_settings(thr_fact, pnr_max)


def cr_rnn_policy(scenario: Scenario, paths: DemandPaths, covered=(), *,
                  frac_seq: float, pnr_max: float, k: int,
                  thr_fact: float = 0.1, seed: int = 0, workers: int = 1,
                  **train_options) -> PolicyResult:
    """Classifier-guided policy: sample, value, label, train, retrieve top-K,
    value those, argmax over the valued dictionary.

    ``train_options`` go to :func:`~zoneinvest.neural.train`, which owns
    their defaults.  The master ``seed`` fans out into fixed sub-seeds for
    sampling and training so each stage is reproducible in isolation.
    """
    # Every setting is checked before anything is valued, also on the paths
    # that never sample, label or train.
    check_rnn_settings(frac_seq=frac_seq, pnr_max=pnr_max, k=k,
                       thr_fact=thr_fact, **train_options)
    t0 = time.perf_counter()
    covered = frozenset(covered)
    candidates = sorted(set(scenario.zones) - covered)
    if len(candidates) <= SMALL_H_FALLBACK:
        return cr_policy(scenario, paths, covered, workers=workers)

    root = np.random.SeedSequence(seed)
    sample_seed, train_seed = (int(s.generate_state(1)[0])
                               for s in root.spawn(2))
    sampled, remaining = sample_sequences(candidates, frac_seq, sample_seed)
    cache = RidershipCache(scenario, paths, covered)
    tables = {"sampled": _value_all(sampled, cache, workers)}
    dataset = label_dataset([(s, v) for s, v, _ in tables["sampled"]],
                            len(sampled) + len(remaining), thr_fact, pnr_max)
    if not remaining:
        return _finish(CR_RNN, tables, cache, t0, dataset)

    try:
        model, _ = train(dataset, seed=train_seed, head_kind=CLASSIFIER,
                         **train_options)
    except Exception as exc:
        raise RuntimeError(
            f"CR-RNN classifier training failed on {len(sampled)} sampled "
            f"sequences: {exc}") from exc
    top = score_and_rank(model, remaining, min(k, len(remaining)))
    tables["top_k"] = _value_all([s for s, _ in top], cache, workers)
    return _finish(CR_RNN, tables, cache, t0, dataset, model)


# -- retrieval evaluation ------------------------------------------------------

def evaluate_retrieval(model: LstmModel, value_by_order: dict, train_orders,
                       k: int, eta_bin: float) -> dict:
    """Gap@K and AUC of a trained model against a ground-truth value table.

    ``value_by_order`` maps zone-order tuples to policy values for the whole
    population; the test pool is everything outside ``train_orders``.  Test
    labels reuse the training cutoff ``eta_bin``.
    """
    train_set = {tuple(o) for o in train_orders}
    test = sorted(o for o in value_by_order if tuple(o) not in train_set)
    if not test:
        raise ValueError("no test sequences outside the training set")
    test_seqs = [Sequence(o) for o in test]
    test_values = np.array([value_by_order[o] for o in test])
    top = score_and_rank(model, test_seqs, min(k, len(test_seqs)))
    eta_pred = max(value_by_order[tuple(s.order)] for s, _ in top)
    eta_true = float(test_values.max())
    labels = label_with_cutoff(test_values, eta_bin)
    out = {"k": k, "eta_true": eta_true, "eta_pred": eta_pred,
           "gap_at_k": gap_at_k(eta_true, eta_pred)}
    if 0 < labels.sum() < len(labels):
        out["auc"] = auc(scores(model, test_seqs), labels)
    else:
        out["auc"] = None
    return out


# -- reports -------------------------------------------------------------------

def report(result: PolicyResult, out, config: dict | None = None) -> Path:
    """Write a JSON report (and a CSV value-table sidecar) for a policy run.

    The JSON re-parses to an equal :class:`PolicyResult` via
    :func:`load_report`; ``run_info`` holds the volatile timestamp and
    ``config`` the caller's resolved parameters.
    """
    pol = {name: getattr(result, name) for name in _POLICY_FIELDS}
    pol["best_sequence"] = str(result.best_sequence)
    doc = {
        "config": config or {},
        "run_info": {"timestamp": datetime.now(timezone.utc).isoformat()},
        "policy": pol,
        "tables": {name: [[s, v] for s, v in rows]
                   for name, rows in result.tables.items()},
    }
    table = [["set", "sequence", "eta"]] + [
        [name, s, repr(float(v))]
        for name, rows in sorted(result.tables.items()) for s, v in rows]
    return write_report(out, doc, table)


def load_report(path) -> PolicyResult:
    doc = json.loads(Path(path).read_text())
    pol = {name: doc["policy"][name] for name in _POLICY_FIELDS
           if name != "validation_positives"}
    # Reports written before the field existed load as "unknown".
    pol["validation_positives"] = doc["policy"].get("validation_positives")
    pol["best_sequence"] = Sequence.parse(pol["best_sequence"])
    return PolicyResult(**pol, tables={name: tuple((s, v) for s, v in rows)
                                       for name, rows in doc["tables"].items()})
