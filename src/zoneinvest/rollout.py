"""Rolling-horizon sequential region design over realized demand paths.

An outer simulation realizes demand over decision epochs; at each epoch the
chosen policy re-optimizes the remaining candidate zones against a fresh
inner simulation rooted at the realized demand, and invest-decided zones
join the covered set for the rest of that path.  An epoch's ridership is
the covered region's equilibrium total at the realized demand, and its
realized payoff is that ridership less every covered position's threshold
(the deterministic NPV of the covered ordering).  Per-path NPV
discounts the payoffs; the profitability measure divides each epoch's payoff
by its ridership before discounting.
Policies are compared path-by-path with a two-sided paired t-test at the
5 % level, whose critical values come from a built-in table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from ._report import write_report
from .lsmc import BASIS_SIZE, INVEST
from .policy import (CR, CR_RNN, _fan_out, check_rnn_settings, cr_policy,
                     cr_rnn_policy)
from .ridership import cumulative_ridership, payoff_threshold
from .scenario import Scenario
from .sequences import Sequence
from .stochastic import simulate_paths

INVEST_ALL = "invest-all"


@dataclass(frozen=True)
class EpochRecord:
    path: int
    epoch: int
    invested: tuple[str, ...]   # zones added this epoch, in sequence order
    covered: tuple[str, ...]    # full covered set after the epoch, in order
    payoff: float               # realized payoff sum over covered zones
    ridership: float            # realized ridership of the covered region


@dataclass(frozen=True)
class RolloutResult:
    policy_kind: str
    records: tuple[EpochRecord, ...]
    npv_per_path: np.ndarray
    pv_profit_per_path: np.ndarray
    pv_profit: float
    diff_stats: dict | None = None


# Two-sided 5 % critical values, df 1..30 then the normal limit.
_T_CRIT = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
           2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
           2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
           2.048, 2.045, 2.042, 1.960)


def t_critical(df: int) -> float:
    if df < 1:
        raise ValueError("df must be >= 1")
    return _T_CRIT[df - 1] if df <= 30 else _T_CRIT[-1]


def paired_t_test(a, b) -> dict:
    """Two-sided paired t-test of mean(a - b) = 0 at the 5 % level.

    Zero-variance differences give t = +-inf (significant) when the mean is
    nonzero and t = 0 (not significant) when every difference vanishes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    d = a - b
    n = len(d)
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
        ci = (mean, mean)
        significant = mean != 0.0
    else:
        se = sd / math.sqrt(n)
        t = mean / se
        crit = t_critical(df)
        ci = (mean - crit * se, mean + crit * se)
        significant = abs(t) > crit
    return {"mean_diff": mean, "ci": ci, "t": t, "df": df,
            "significant": significant, "alpha": 0.05}


def _epoch_seed(master: int, path: int, epoch: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(path, epoch))
               .generate_state(1)[0])


def run_rollout(scenario: Scenario, *, n_paths: int, n_epochs: int, seed: int,
                policy_kind: str, initial_covered=(), inner_paths: int = 300,
                inner: dict | None = None, workers: int = 1) -> RolloutResult:
    """Simulate ``n_paths`` realized futures over ``n_epochs`` yearly epochs
    under one policy.

    ``initial_covered`` zones are in service from the start (positions 1..).
    ``inner`` carries cr_rnn_policy keyword arguments (frac_seq, pnr_max, k,
    thr_fact, training settings), checked before anything is simulated
    whenever the policy is CR-RNN or ``inner`` is non-empty; so is
    ``inner_paths >= BASIS_SIZE``, for every policy kind.  Each epoch
    re-seeds its inner simulation and policy from (seed, path, epoch), so
    runs reproduce and ``workers`` processes run the independent paths
    with the serial results; an ``inner`` that sets ``seed`` is rejected.
    """
    if policy_kind not in (CR, CR_RNN, INVEST_ALL):
        raise ValueError(f"unknown policy kind {policy_kind!r}")
    if n_epochs < 1 or n_paths < 1:
        raise ValueError("n_paths and n_epochs must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if inner_paths < BASIS_SIZE:  # the inner LSMC fits BASIS_SIZE terms
        raise ValueError(
            f"inner_paths must be >= {BASIS_SIZE}, got {inner_paths}")
    inner = dict(inner or {})
    if "seed" in inner:
        raise ValueError("inner must not set seed: each epoch's policy seed "
                         "is derived from (seed, path, epoch)")
    initial = Sequence(initial_covered).order  # a repeated zone raises
    scenario.subzone_indices(initial)          # so does an unknown one
    if policy_kind == CR_RNN or inner:
        check_rnn_settings(**inner)
    outer_scen = replace(scenario,
                         horizon_steps=tuple(float(e) for e in range(1, n_epochs + 1)))
    outer = simulate_paths(outer_scen, n_paths, seed)
    path = partial(_rollout_path, scenario=scenario, outer=outer.values,
                   seed=seed, policy_kind=policy_kind, initial=initial,
                   inner_paths=inner_paths, inner=inner)
    records = tuple(_fan_out(path, range(n_paths), workers))
    npv, pv_profit = np.zeros(n_paths), np.zeros(n_paths)
    for r in records:
        disc = (1.0 + scenario.discount_rate) ** (-r.epoch)
        npv[r.path] += disc * r.payoff
        pv_profit[r.path] += disc * (r.payoff / r.ridership
                                     if r.ridership > 0 else 0.0)
    return RolloutResult(policy_kind, records, npv, pv_profit,
                         float(pv_profit.mean()))


def _rollout_path(p, *, scenario, outer, seed, policy_kind, initial,
                  inner_paths, inner) -> list[EpochRecord]:
    """The epoch records of outer path ``p`` of the ``outer`` demand; paths
    run in parallel, so each policy call runs at ``workers=1``."""
    records = []
    cov_order = list(initial)
    for e, demand in enumerate(outer[p], start=1):
        remaining = sorted(set(scenario.zones) - set(cov_order))
        invested: tuple[str, ...] = ()
        if remaining:
            if policy_kind == INVEST_ALL:
                if e == 1:
                    invested = tuple(remaining)
            else:
                epoch_seed = _epoch_seed(seed, p, e)
                epoch_scen = replace(scenario, base_demand=demand)
                sim = simulate_paths(epoch_scen, inner_paths, epoch_seed)
                try:
                    if policy_kind == CR:
                        res = cr_policy(epoch_scen, sim, covered=cov_order)
                    else:
                        res = cr_rnn_policy(epoch_scen, sim, covered=cov_order,
                                            seed=epoch_seed, **inner)
                except Exception as exc:
                    raise RuntimeError(
                        f"{policy_kind} policy failed at path {p}, "
                        f"epoch {e}: {exc}") from exc
                invested = tuple(z for z in res.best_sequence.order
                                 if res.decisions[z] == INVEST)
            cov_order.extend(invested)
        ridership = cumulative_ridership(cov_order, demand, scenario)
        payoff = ridership - sum(payoff_threshold(h, scenario)
                                 for h in range(1, len(cov_order) + 1))
        records.append(EpochRecord(p, e, invested, tuple(cov_order),
                                   payoff, ridership))
    return records


def compare_rollouts(result: RolloutResult,
                     benchmark: RolloutResult) -> RolloutResult:
    """Attach paired t-test statistics of per-path profitability differences
    (result minus benchmark) to ``result``."""
    stats = paired_t_test(result.pv_profit_per_path,
                          benchmark.pv_profit_per_path)
    stats["benchmark"] = benchmark.policy_kind
    return replace(result, diff_stats=stats)


def rollout_report(result: RolloutResult, out, config: dict | None = None) -> Path:
    """JSON report (per-epoch decision records, NPV list, profitability,
    t-test block) plus a CSV of the decision table."""
    columns = ["path", "epoch", "invested", "covered", "payoff", "ridership"]
    records = [
        {"path": r.path, "epoch": r.epoch,
         "invested": ",".join(r.invested), "covered": ",".join(r.covered),
         "payoff": r.payoff, "ridership": r.ridership}
        for r in result.records]
    doc = {
        "config": config or {},
        "policy_kind": result.policy_kind,
        "npv_per_path": result.npv_per_path.tolist(),
        "npv_mean": float(result.npv_per_path.mean()),
        "pv_profit_per_path": result.pv_profit_per_path.tolist(),
        "pv_profit": result.pv_profit,
        "diff_stats": result.diff_stats,
        "records": records,
    }
    table = [columns] + [[rec[c] for c in columns] for rec in records]
    return write_report(out, doc, table)
