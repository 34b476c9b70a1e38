"""Turn sampled sequence values into binary training labels.

The cutoff is anchored on an estimate of the best value in the *whole*
population of sequences, obtained without enumerating it: sampled policy
values are fitted to a Weibull distribution, the distribution of the maximum
of L draws is F(x)^L, and its median is the population upper bound eta_ub.
Sequences above eta_thr = eta_ub * (1 - thr_fact) become positives, subject
to a cap on the positive-to-negative ratio; the realized cutoff after the
cap is eta_bin, which is also what test sequences must be labeled with.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._report import write_report
from .sequences import Sequence

MLE_TOL = 1e-10  # residual tolerance for the shape equation
MIN_FIT_SAMPLE = 10


@dataclass(frozen=True)
class LabeledDataset:
    """Sampled sequences with values and binary labels, ordered by
    descending value (ties broken by zone order)."""

    sequences: tuple[Sequence, ...]
    values: np.ndarray
    labels: np.ndarray
    eta_ub: float
    eta_thr: float
    eta_bin: float
    pnr_max: float
    thr_fact: float
    population_size: int
    norm_mean: float       # of values; regression targets use (v - mean)/std
    norm_std: float
    forced_positive: bool  # ratio rule admitted none; top-1 labeled instead
    degenerate_fit: bool   # Weibull fit infeasible; eta_ub fell back to max

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return int(len(self.labels) - self.labels.sum())


def _shape_residual(k: float, y: np.ndarray, log_y: np.ndarray, mean_log: float):
    yk = y ** k
    s = yk.sum()
    s_log = (yk * log_y).sum()
    s_log2 = (yk * log_y ** 2).sum()
    g = s_log / s - 1.0 / k - mean_log
    dg = (s_log2 * s - s_log ** 2) / s ** 2 + 1.0 / k ** 2
    return g, dg


def fit_weibull(values) -> tuple[float, float]:
    """Maximum-likelihood (shape, scale) of a two-parameter Weibull.

    Values must be strictly positive and not all equal.  The shape equation
    is solved by Newton iterations safeguarded by bisection, to a residual
    below 1e-10.
    """
    x = np.asarray(values, dtype=float)
    if x.size < MIN_FIT_SAMPLE:
        raise ValueError(f"need at least {MIN_FIT_SAMPLE} values, got {x.size}")
    if np.any(x <= 0):
        raise ValueError("values must be strictly positive")
    if np.all(x == x[0]):
        raise ValueError("constant sample: Weibull MLE is undefined")
    scale0 = x.max()
    y = x / scale0
    log_y = np.log(y)
    mean_log = log_y.mean()

    k = 1.0 / max(log_y.std(), 1e-12)  # moment-style starting point
    lo, hi = 1e-3, 1e3
    g_lo, _ = _shape_residual(lo, y, log_y, mean_log)
    g_hi, _ = _shape_residual(hi, y, log_y, mean_log)
    if g_lo > 0 or g_hi < 0:
        raise ValueError("Weibull shape equation has no root in [1e-3, 1e3]")
    k = min(max(k, lo), hi)
    for _ in range(200):
        g, dg = _shape_residual(k, y, log_y, mean_log)
        if abs(g) < MLE_TOL:
            break
        if g > 0:
            hi = k
        else:
            lo = k
        step = g / dg
        k_new = k - step
        if not lo < k_new < hi:
            k_new = 0.5 * (lo + hi)
        k = k_new
    else:
        raise RuntimeError("Weibull MLE did not converge")
    lam = scale0 * ((y ** k).mean()) ** (1.0 / k)
    return float(k), float(lam)


def weibull_max_median(shape: float, scale: float, population: int) -> float:
    """Median of the maximum of ``population`` iid Weibull draws:
    F_max(x) = F(x)^L solved at 1/2, i.e. scale*(-ln(1 - 0.5^(1/L)))^(1/shape)."""
    if population < 1:
        raise ValueError("population size must be >= 1")
    return float(scale * (-np.log1p(-0.5 ** (1.0 / population))) ** (1.0 / shape))


def estimate_eta_ub(values, population_size: int) -> float:
    """Estimate the best policy value in a population of ``population_size``
    sequences from a sample of values, via the Weibull fit."""
    k, lam = fit_weibull(values)
    return weibull_max_median(k, lam, population_size)


def check_cutoff_settings(thr_fact: float, pnr_max: float) -> None:
    """Reject a ``thr_fact`` outside [0, 1] or a ``pnr_max`` outside (0, 1]."""
    if not 0.0 < pnr_max <= 1.0:
        raise ValueError(f"pnr_max must be in (0, 1], got {pnr_max}")
    if not 0.0 <= thr_fact <= 1.0:
        raise ValueError(f"thr_fact must be in [0, 1], got {thr_fact}")


def label_dataset(valuations, population_size: int, thr_fact: float,
                  pnr_max: float) -> LabeledDataset:
    """Binarize sampled (sequence, value) pairs against the estimated
    population upper bound.

    Sequences are sorted by descending value (value ties resolved by zone
    order); the longest prefix with values >= eta_thr whose size keeps
    positives/negatives <= pnr_max is labeled 1.  If that admits nothing,
    the single best sequence is labeled positive and the dataset flagged.
    """
    pairs = [(s if isinstance(s, Sequence) else Sequence(tuple(s)), float(v))
             for s, v in valuations]
    if len(pairs) < 2:
        raise ValueError("need at least 2 valuations to label")
    if population_size < len(pairs):
        raise ValueError(f"population_size {population_size} is smaller than "
                         f"the {len(pairs)} sampled values")
    check_cutoff_settings(thr_fact, pnr_max)
    pairs.sort(key=lambda sv: (-sv[1], sv[0].order))
    values = np.array([v for _, v in pairs])
    m = len(pairs)

    degenerate_fit = False
    positive = values[values > 0]
    try:
        eta_ub = estimate_eta_ub(positive, population_size)
    except (ValueError, RuntimeError):
        eta_ub = float(values.max())
        degenerate_fit = True
    eta_thr = eta_ub * (1.0 - thr_fact)

    n_pos = 0
    while n_pos < m - 1:
        nxt = n_pos + 1
        if values[nxt - 1] < eta_thr or nxt / (m - nxt) > pnr_max:
            break
        n_pos = nxt
    # Exact value ties crossing the cut would leave label-0 sequences at
    # eta_bin; shrink past the tied block so eta_bin stays a strict cutoff.
    while 1 < n_pos < m and values[n_pos - 1] == values[n_pos]:
        n_pos -= 1
    forced = n_pos == 0
    if forced:
        n_pos = 1
    labels = np.zeros(m, dtype=int)
    labels[:n_pos] = 1
    return LabeledDataset(
        sequences=tuple(s for s, _ in pairs),
        values=values,
        labels=labels,
        eta_ub=float(eta_ub),
        eta_thr=float(eta_thr),
        eta_bin=float(values[n_pos - 1]),
        pnr_max=pnr_max,
        thr_fact=thr_fact,
        population_size=population_size,
        norm_mean=float(values.mean()),
        norm_std=float(values.std()),
        forced_positive=forced,
        degenerate_fit=degenerate_fit,
    )


def label_with_cutoff(values, eta_bin: float) -> np.ndarray:
    """Labels for held-out sequences, reusing the training cutoff."""
    return (np.asarray(values, dtype=float) >= eta_bin).astype(int)


def save_labeled(dataset: LabeledDataset, csv_path) -> None:
    """CSV of (sequence, eta, label) plus a JSON sidecar with the thresholds
    and normalization that produced the labels."""
    csv_path = Path(csv_path)
    table = [["sequence", "eta", "label"]] + [
        [str(seq), repr(float(v)), int(y)]
        for seq, v, y in zip(dataset.sequences, dataset.values, dataset.labels)]
    sidecar = {f.name: getattr(dataset, f.name) for f in fields(dataset)
               if f.name not in ("sequences", "values", "labels")}
    write_report(csv_path.with_suffix(".json"), sidecar, table, csv_path)


def load_labeled(csv_path) -> LabeledDataset:
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    side = json.loads(csv_path.with_suffix(".json").read_text())
    return LabeledDataset(
        sequences=tuple(Sequence.parse(r[0]) for r in rows),
        values=np.array([float(r[1]) for r in rows]),
        labels=np.array([int(r[2]) for r in rows]),
        **side,
    )
