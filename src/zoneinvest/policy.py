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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._report import write_report
from .labeling import LabeledDataset, label_dataset, label_with_cutoff
# valuate_sequence is not called here; it stays bound as policy.valuate_sequence,
# a name outside callers look up (e.g. to wrap it with a timer).
from .lsmc import valuate_sequence, valuate_sequences  # noqa: F401
from .neural import LstmModel, auc, gap_at_k, score_and_rank, scores, train
from .ridership import RidershipCache, cumulative_ridership, zone_payoff
from .scenario import Scenario
from .sequences import Sequence, enumerate_sequences, sample_sequences
from .stochastic import DemandPaths

CR = "CR"
CR_RNN = "CR-RNN"

SMALL_H_FALLBACK = 6  # candidate counts at or below this use plain CR

# Orderings per LSMC recursion.  A batch holds [H, batch, P] work arrays,
# states per distinct (prefix set, zone) and the stacked fit's temporaries,
# so peak memory grows with it.  Neighbouring orderings share designs, so
# larger batches fit fewer per ordering: one H=7, P=300 CR call took ~6.0,
# 4.6, 3.6, 3.2 and 3.6 s at sizes 4, 8, 16, 32 and 64.
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
    model: LstmModel | None = field(default=None, compare=False, repr=False)
    dataset: LabeledDataset | None = field(default=None, compare=False, repr=False)


# -- parallel sequence valuation ----------------------------------------------

_WORKER: dict = {}


def _init_worker(scenario, paths, covered, j):
    _WORKER["args"] = (scenario, paths, covered, j)
    _WORKER["cache"] = RidershipCache(scenario, paths, covered)


def _value_batches(seqs, scenario, paths, covered, j, cache) -> list:
    # Only the t0 decisions ride along: stopping times would hold [H, P] per
    # ordering, and the decisions are all the winner needs.
    valued = []
    for i in range(0, len(seqs), BATCH_SIZE):
        valued.extend((v.policy_value, v.decisions_t0) for v in valuate_sequences(
            seqs[i:i + BATCH_SIZE], paths, scenario, covered, j, cache))
    return valued


def _value_chunk(orders):
    scenario, paths, covered, j = _WORKER["args"]
    return _value_batches(orders, scenario, paths, covered, j, _WORKER["cache"])


def _value_all(seqs, scenario, paths, covered, j, workers, cache) -> list:
    """``(policy value, t0 decisions)`` for ``seqs``, in order; identical for
    any worker count.

    ``cache`` serves the in-process path; each worker builds its own.
    """
    if workers <= 1:
        return _value_batches(seqs, scenario, paths, covered, j, cache)
    orders = [tuple(s.order) for s in seqs]
    chunk = max(1, len(orders) // (workers * 8))
    chunks = [orders[i:i + chunk] for i in range(0, len(orders), chunk)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(scenario, paths, covered, j)) as pool:
        out = []
        for part in pool.map(_value_chunk, chunks):
            out.extend(part)
    return out


def deterministic_npv(order, scenario: Scenario, covered=()) -> float:
    """Total t0 payoff of investing every zone of ``order`` immediately."""
    covered = frozenset(covered)
    prev = cumulative_ridership((), scenario.base_demand, scenario, covered)
    npv = 0.0
    for h, _ in enumerate(order, start=1):
        cur = cumulative_ridership(order[:h], scenario.base_demand, scenario,
                                   covered)
        npv += zone_payoff(h, cur - prev, scenario, len(covered))
        prev = cur
    return npv


def _argmax(seqs, valued):
    """(sequence, value, decisions) with the highest value, ties to the first
    zone order."""
    best = min(range(len(seqs)), key=lambda i: (-valued[i][0], seqs[i].order))
    return (seqs[best], *valued[best])


def _table(seqs, valued):
    return [(seq, value) for seq, (value, _) in zip(seqs, valued)]


def _finish(mode, best, scenario, covered, tables, count, t_start,
            degenerate=False, model=None, dataset=None):
    best_seq, best_value, best_decisions = best
    npv = deterministic_npv(best_seq.order, scenario, covered)
    return PolicyResult(
        mode=mode,
        best_sequence=best_seq,
        best_value=best_value,
        decisions={z: d for z, d in zip(best_seq.order, best_decisions)},
        npv_deterministic=npv,
        option_premium=best_value - npv,
        evaluated_count=count,
        wall_time=time.perf_counter() - t_start,
        tables={name: tuple((str(s), v) for s, v in rows)
                for name, rows in tables.items()},
        degenerate_labeling=degenerate,
        model=model,
        dataset=dataset,
    )


def cr_policy(scenario: Scenario, paths: DemandPaths, covered=(), *,
              j: int = 3, workers: int = 1) -> PolicyResult:
    """Full-enumeration policy: value all H! sequences, keep the argmax."""
    t0 = time.perf_counter()
    covered = frozenset(covered)
    candidates = sorted(set(scenario.zones) - covered)
    if not candidates:
        raise ValueError("no candidate zones outside the covered set")
    seqs = enumerate_sequences(candidates)
    cache = RidershipCache(scenario, paths, covered)
    valued = _value_all(seqs, scenario, paths, covered, j, workers, cache)
    tables = {"all": _table(seqs, valued)}
    return _finish(CR, _argmax(seqs, valued), scenario, covered, tables,
                   len(seqs), t0)


def cr_rnn_policy(scenario: Scenario, paths: DemandPaths, covered=(), *,
                  frac_seq: float, pnr_max: float, k: int,
                  thr_fact: float = 0.1, seed: int = 0, j: int = 3,
                  workers: int = 1, emb_size: int = 50, lr: float = 1e-3,
                  batch_size: int = 32, max_epochs: int = 300,
                  patience: int = 20, validation_fraction: float = 0.2,
                  small_h_threshold: int = SMALL_H_FALLBACK) -> PolicyResult:
    """Classifier-guided policy: sample, value, label, train, retrieve top-K,
    value those, argmax over the valued dictionary.

    The master ``seed`` fans out into fixed sub-seeds for sampling and
    training so each stage is reproducible in isolation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    t0 = time.perf_counter()
    covered = frozenset(covered)
    candidates = sorted(set(scenario.zones) - covered)
    if len(candidates) <= small_h_threshold:
        return cr_policy(scenario, paths, covered, j=j, workers=workers)

    root = np.random.SeedSequence(seed)
    sample_seed, train_seed = (int(s.generate_state(1)[0])
                               for s in root.spawn(2))
    sampled, remaining = sample_sequences(candidates, frac_seq, sample_seed)
    cache = RidershipCache(scenario, paths, covered)
    sampled_valued = _value_all(sampled, scenario, paths, covered, j,
                                workers, cache)
    population = len(sampled) + len(remaining)
    tables = {"sampled": _table(sampled, sampled_valued)}
    dataset = label_dataset(tables["sampled"], population, thr_fact, pnr_max)
    degenerate = dataset.forced_positive or dataset.degenerate_fit

    if not remaining:
        return _finish(CR_RNN, _argmax(sampled, sampled_valued), scenario,
                       covered, tables, len(sampled), t0, degenerate, None,
                       dataset)

    try:
        model, _ = train(dataset, emb_size=emb_size, lr=lr,
                         batch_size=batch_size, max_epochs=max_epochs,
                         seed=train_seed, patience=patience,
                         validation_fraction=validation_fraction)
    except Exception as exc:
        raise RuntimeError(
            f"CR-RNN classifier training failed on {len(sampled)} sampled "
            f"sequences: {exc}") from exc
    top = score_and_rank(model, remaining, min(k, len(remaining)))
    top_seqs = [s for s, _ in top]
    top_valued = _value_all(top_seqs, scenario, paths, covered, j, workers,
                            cache)
    tables["top_k"] = _table(top_seqs, top_valued)
    best = _argmax(sampled + top_seqs, sampled_valued + top_valued)
    return _finish(CR_RNN, best, scenario, covered, tables,
                   len(sampled) + len(top_seqs), t0, degenerate, model, dataset)


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
    doc = {
        "config": config or {},
        "run_info": {"timestamp": datetime.now(timezone.utc).isoformat()},
        "policy": {
            "mode": result.mode,
            "best_sequence": str(result.best_sequence),
            "best_value": result.best_value,
            "decisions": result.decisions,
            "npv_deterministic": result.npv_deterministic,
            "option_premium": result.option_premium,
            "evaluated_count": result.evaluated_count,
            "wall_time": result.wall_time,
            "degenerate_labeling": result.degenerate_labeling,
        },
        "tables": {name: [[s, v] for s, v in rows]
                   for name, rows in result.tables.items()},
    }
    table = [["set", "sequence", "eta"]] + [
        [name, s, repr(float(v))]
        for name, rows in sorted(result.tables.items()) for s, v in rows]
    return write_report(out, doc, table)


def load_report(path) -> PolicyResult:
    doc = json.loads(Path(path).read_text())
    pol = doc["policy"]
    return PolicyResult(
        mode=pol["mode"],
        best_sequence=Sequence.parse(pol["best_sequence"]),
        best_value=pol["best_value"],
        decisions=pol["decisions"],
        npv_deterministic=pol["npv_deterministic"],
        option_premium=pol["option_premium"],
        evaluated_count=pol["evaluated_count"],
        wall_time=pol["wall_time"],
        tables={name: tuple((s, v) for s, v in rows)
                for name, rows in doc["tables"].items()},
        degenerate_labeling=pol["degenerate_labeling"],
    )
