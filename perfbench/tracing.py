"""Span tracing of zoneinvest's public functions, from outside the package.

``Tracer.install()`` replaces module bindings with timing wrappers.  The
package imports by name (``policy`` holds its own ``valuate_sequence``,
``rollout`` its own ``simulate_paths``), so every binding a caller looks up is
patched, not only the defining one.  Each wrapped call appends one span
``(name, start, end, parent, extra)`` to an in-memory list; nothing is
aggregated or written until the traced run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are sequential (one process, one thread), so children never
overlap and the self times of all spans under a root sum to the root's
duration.
"""

from __future__ import annotations

import csv
import gzip
import importlib
from time import perf_counter


def _paths_out(args, out, before):
    return (out.n_paths, out.values.nbytes)


def _rank_deficient(args, out, before):
    return int(out[0].rank_deficient)


def _cache_missed(args, out, before):
    return int(args[0].misses != before)


def _label_stats(args, out, before):
    return (out.n_positive, int(out.forced_positive), int(out.degenerate_fit))


def _epochs_run(args, out, before):
    return out[0].training_meta["epochs_run"]


def _candidates(args, out, before):
    return len(args[1])


def _misses_before(args):
    return args[0].misses


# (span name, bindings as "module:attribute" or "module:Class.method",
#  extra(args, result, before) or None, before(args) or None)
SPANS = (
    ("scenario.generate_synthetic_scenario",
     ("zoneinvest.scenario:generate_synthetic_scenario",), None, None),
    ("stochastic.simulate_paths",
     ("zoneinvest.stochastic:simulate_paths", "zoneinvest.rollout:simulate_paths"),
     _paths_out, None),
    ("sequences.enumerate",
     ("zoneinvest.sequences:enumerate_sequences",
      "zoneinvest.policy:enumerate_sequences"), None, None),
    ("sequences.sample",
     ("zoneinvest.sequences:sample_sequences", "zoneinvest.policy:sample_sequences"),
     None, None),
    ("ridership.cache",
     ("zoneinvest.ridership:RidershipCache.cumulative",), _cache_missed,
     _misses_before),
    ("ridership.cumulative_ridership",
     ("zoneinvest.ridership:cumulative_ridership",
      "zoneinvest.policy:cumulative_ridership",
      "zoneinvest.rollout:cumulative_ridership"), None, None),
    ("lsmc.valuate_sequence",
     ("zoneinvest.lsmc:valuate_sequence", "zoneinvest.policy:valuate_sequence"),
     None, None),
    ("lsmc.continuation_fit",
     ("zoneinvest.lsmc:continuation_fit",), _rank_deficient, None),
    ("labeling.label_dataset",
     ("zoneinvest.labeling:label_dataset", "zoneinvest.policy:label_dataset"),
     _label_stats, None),
    ("neural.train",
     ("zoneinvest.neural:train", "zoneinvest.policy:train"), _epochs_run, None),
    ("neural.score_and_rank",
     ("zoneinvest.neural:score_and_rank", "zoneinvest.policy:score_and_rank"),
     _candidates, None),
    ("policy.deterministic_npv",
     ("zoneinvest.policy:deterministic_npv",), None, None),
    ("policy",
     ("zoneinvest.policy:cr_policy", "zoneinvest.policy:cr_rnn_policy",
      "zoneinvest.rollout:cr_policy", "zoneinvest.rollout:cr_rnn_policy"),
     None, None),
    ("rollout.run_rollout",
     ("zoneinvest.rollout:run_rollout",), None, None),
)


class Tracer:
    """Records spans around the bindings in :data:`SPANS` while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, extra, before):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            pre = before(args) if before else None
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if extra:
                spans[idx] = (name, t0, t1, parent, extra(args, out, pre))
            return out

        return traced

    def install(self):
        for name, bindings, extra, before in SPANS:
            for binding in bindings:
                mod_name, attr = binding.split(":")
                owner = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, extra, before))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write every span as one gzipped CSV row: id, name, start, end,
        parent id (-1 for a root), extra."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "extra"])
            for i, (name, t0, t1, parent, extra) in enumerate(self.spans):
                writer.writerow([i, name, repr(t0), repr(t1), parent,
                                 "" if extra is None else extra])


def summarize(spans, root: int) -> tuple[dict, float]:
    """Per-layer metrics from a finished span list, and the summed self time
    of every span inside the measured call.

    ``root`` indexes the span of the measured call.  Time metrics cover the
    spans inside it; ``stochastic.simulate_paths`` and
    ``scenario.generate_synthetic_scenario`` also count the set-up calls made
    before it, because set-up is where those layers run on most workloads.
    """
    n = len(spans)
    child_sum = [0.0] * n
    inside = [False] * n
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += t1 - t0
        inside[i] = i == root or (parent >= 0 and inside[parent])

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    extras: dict[str, list] = {}
    for i, (name, t0, t1, _, extra) in enumerate(spans):
        if not inside[i] and name not in ("stochastic.simulate_paths",
                                          "scenario.generate_synthetic_scenario"):
            continue
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_sum[i])
        if extra is not None:
            extras.setdefault(name, []).append(extra)

    def c(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def x(name):
        return sum(extras.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    labels = extras.get("labeling.label_dataset", [])
    sims = extras.get("stochastic.simulate_paths", [])
    m = {
        "lsmc.valuate_sequence.calls": c("lsmc.valuate_sequence"),
        "lsmc.valuate_sequence.busy_s": b("lsmc.valuate_sequence"),
        "lsmc.valuate_sequence.self_s": self_s.get("lsmc.valuate_sequence", 0.0),
        "lsmc.continuation_fit.calls": c("lsmc.continuation_fit"),
        "lsmc.continuation_fit.busy_s": b("lsmc.continuation_fit"),
        "lsmc.continuation_fit.rank_deficient": x("lsmc.continuation_fit"),
        "lsmc.fits_per_sequence": ratio(c("lsmc.continuation_fit"),
                                        c("lsmc.valuate_sequence")),
        "neural.train.busy_s": b("neural.train"),
        "neural.train.epochs_run": x("neural.train"),
        "neural.train.s_per_epoch": ratio(b("neural.train"), x("neural.train")),
        "neural.score_and_rank.busy_s": b("neural.score_and_rank"),
        "neural.score_and_rank.candidates": x("neural.score_and_rank"),
        "ridership.cache.lookups": c("ridership.cache"),
        "ridership.cache.misses": x("ridership.cache"),
        "ridership.cache.hit_ratio": ratio(c("ridership.cache") - x("ridership.cache"),
                                           c("ridership.cache")),
        "ridership.cache.busy_s": b("ridership.cache"),
        "ridership.cumulative_ridership.calls": c("ridership.cumulative_ridership"),
        "ridership.cumulative_ridership.busy_s": b("ridership.cumulative_ridership"),
        "stochastic.simulate_paths.calls": c("stochastic.simulate_paths"),
        "stochastic.simulate_paths.busy_s": b("stochastic.simulate_paths"),
        "stochastic.simulate_paths.paths_per_s":
            ratio(sum(x[0] for x in sims), b("stochastic.simulate_paths")),
        "stochastic.simulate_paths.bytes_out": sum(x[1] for x in sims),
        "labeling.label_dataset.busy_s": b("labeling.label_dataset"),
        "labeling.label_dataset.n_positive": sum(x[0] for x in labels),
        "labeling.label_dataset.forced_positive": sum(x[1] for x in labels),
        "labeling.label_dataset.degenerate_fit": sum(x[2] for x in labels),
        "sequences.enumerate.busy_s": b("sequences.enumerate"),
        "sequences.sample.busy_s": b("sequences.sample"),
        "policy.calls": c("policy"),
        "policy.self_s": self_s.get("policy", 0.0),
        "policy.deterministic_npv.busy_s": b("policy.deterministic_npv"),
        "rollout.run_rollout.self_s": self_s.get("rollout.run_rollout", 0.0),
        "scenario.generate_synthetic_scenario.busy_s":
            b("scenario.generate_synthetic_scenario"),
    }
    accounted = sum(t1 - t0 - child_sum[i]
                    for i, (_, t0, t1, _, _) in enumerate(spans) if inside[i])
    return m, accounted
