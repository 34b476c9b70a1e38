"""The benchmark's workloads: inputs made from a seed, the measured call, and
the checks on its output.

One run of a workload measures a series of instances.  Instance ``i`` of seed
``s`` uses the input offset ``s * 1000 + i``, added to every seed the
workload passes to the library.  Offset 0 (seed 0, first instance) gives the
north-star inputs, whose outputs are pinned below; every other offset is a
held-out input checked by invariants only.

Workloads call the library through module attributes (``policy.cr_policy``,
not a name imported here) so that the tracer's patched bindings are seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import zoneinvest.lsmc as lsmc
import zoneinvest.policy as policy
import zoneinvest.rollout as rollout
import zoneinvest.scenario as scenario_mod
import zoneinvest.stochastic as stochastic

OFFSETS_PER_SEED = 1000
REL_TOL = 1e-9  # outputs are deterministic; this only absorbs summation order

N_ZONES = 7
N_PATHS = 300
FRAC_SEQ, PNR_MAX, TOP_K = 0.06, 0.01, 50

# Outputs at offset 0, recorded from the library at the commit that added
# this benchmark (one BLAS thread).
CR_BEST_SEQUENCE = "z01,z03,z04,z02,z06,z05,z07"
CR_BEST_VALUE = 4747.673957345955
CR_RNN_BEST_VALUE = 4746.869255503567
ROLLOUT_PV_PROFIT = 1.2109278431819415


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable       # offset -> instance
    call: Callable        # (instance, offset) -> output
    check: Callable       # (instance, output, offset) -> (problems, info)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _revalue(best_sequence, paths, scenario) -> float:
    """Value one ordering again from scratch, with a fresh ridership cache."""
    return lsmc.valuate_sequence(best_sequence, paths, scenario).policy_value


def _check_table(rows, res, paths, scenario, expected_count) -> list[str]:
    problems = []
    names = [s for s, _ in rows]
    values = [v for _, v in rows]
    if res.evaluated_count != expected_count:
        problems.append(f"evaluated_count {res.evaluated_count} != {expected_count}")
    if len(set(names)) != len(names) or len(names) != res.evaluated_count:
        problems.append("value tables do not hold evaluated_count distinct orderings")
    if not all(math.isfinite(v) for v in values) or not math.isfinite(res.best_value):
        problems.append("non-finite policy value")
        return problems
    if res.best_value != max(values):
        problems.append("best_value is not the table maximum")
    again = _revalue(res.best_sequence, paths, scenario)
    if _rel_err(again, res.best_value) > REL_TOL:
        problems.append(f"best ordering re-values to {again!r}, "
                        f"reported {res.best_value!r}")
    return problems


def _cr_setup(offset):
    scen = scenario_mod.generate_synthetic_scenario(1 + offset, N_ZONES, 3, 100.0)
    paths = stochastic.simulate_paths(scen, N_PATHS, 11 + offset)
    return scen, paths


def _cr_call(inst, offset):
    scen, paths = inst
    return policy.cr_policy(scen, paths, workers=1)


def _cr_check(inst, res, offset):
    scen, paths = inst
    problems = _check_table(res.tables["all"], res, paths, scen,
                            math.factorial(N_ZONES))
    info = {"evaluated_count": res.evaluated_count}
    if offset == 0:
        info["result_rel_err"] = _rel_err(res.best_value, CR_BEST_VALUE)
        if str(res.best_sequence) != CR_BEST_SEQUENCE:
            problems.append(f"best ordering {res.best_sequence} != {CR_BEST_SEQUENCE}")
        if info["result_rel_err"] > REL_TOL:
            problems.append(f"best value {res.best_value!r} != {CR_BEST_VALUE!r}")
    return problems, info


def _cr_rnn_call(inst, offset):
    scen, paths = inst
    return policy.cr_rnn_policy(scen, paths, frac_seq=FRAC_SEQ, pnr_max=PNR_MAX,
                                k=TOP_K, seed=offset, workers=1)


def _cr_rnn_check(inst, res, offset):
    # The CR-RNN best is the maximum over valued orderings, and re-valuing it
    # from scratch ties it to the function CR maximizes over all H!, so
    # "CR-RNN best <= CR best" holds on held-out inputs without running CR.
    scen, paths = inst
    rows = res.tables["sampled"] + res.tables["top_k"]
    expected = round(FRAC_SEQ * math.factorial(N_ZONES)) + TOP_K
    problems = _check_table(rows, res, paths, scen, expected)
    info = {"evaluated_count": res.evaluated_count}
    if offset == 0:
        info["result_rel_err"] = _rel_err(res.best_value, CR_RNN_BEST_VALUE)
        info["gap_pct"] = 100.0 * (CR_BEST_VALUE - res.best_value) / CR_BEST_VALUE
        if info["result_rel_err"] > REL_TOL:
            problems.append(f"best value {res.best_value!r} != {CR_RNN_BEST_VALUE!r}")
        if res.best_value > CR_BEST_VALUE * (1 + REL_TOL):
            problems.append("CR-RNN best exceeds the CR best")
    return problems, info


R_ZONES, R_PATHS, R_EPOCHS = 5, 5, 5


def _rollout_setup(offset):
    return scenario_mod.generate_synthetic_scenario(5 + offset, R_ZONES, 3, 100.0)


def _rollout_call(scen, offset):
    return rollout.run_rollout(scen, policy_kind=policy.CR, n_paths=R_PATHS,
                               n_epochs=R_EPOCHS, seed=21 + offset,
                               inner_paths=N_PATHS, workers=1)


def _rollout_check(scen, res, offset):
    problems = []
    evaluated = 0
    if len(res.records) != R_PATHS * R_EPOCHS:
        problems.append(f"{len(res.records)} epoch records, want {R_PATHS * R_EPOCHS}")
    prior = {}
    for rec in res.records:
        before = prior.get(rec.path, ())
        if set(rec.invested) & set(before) or rec.covered != before + rec.invested:
            problems.append(f"path {rec.path} epoch {rec.epoch}: covered set "
                            "does not grow by the invested zones")
        if not set(rec.covered) <= set(scen.zones):
            problems.append(f"path {rec.path}: unknown zone in covered set")
        remaining = R_ZONES - len(before)
        if remaining:  # CR values every ordering of the remaining zones
            evaluated += math.factorial(remaining)
        if not (math.isfinite(rec.payoff) and math.isfinite(rec.ridership)):
            problems.append(f"path {rec.path} epoch {rec.epoch}: non-finite payoff")
        prior[rec.path] = rec.covered
    if not math.isfinite(res.pv_profit):
        problems.append("non-finite pv_profit")
    elif _rel_err(res.pv_profit, float(res.pv_profit_per_path.mean())) > REL_TOL:
        problems.append("pv_profit is not the mean over paths")
    info = {"evaluated_count": evaluated}
    if offset == 0:
        info["result_rel_err"] = _rel_err(res.pv_profit, ROLLOUT_PV_PROFIT)
        if info["result_rel_err"] > REL_TOL:
            problems.append(f"pv_profit {res.pv_profit!r} != {ROLLOUT_PV_PROFIT!r}")
    return problems, info


WORKLOADS = {w.name: w for w in (
    Workload("cr_h7", _cr_setup, _cr_call, _cr_check),
    Workload("cr_rnn_h7", _cr_setup, _cr_rnn_call, _cr_rnn_check),
    Workload("rollout_h5", _rollout_setup, _rollout_call, _rollout_check),
)}
