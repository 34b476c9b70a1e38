"""Rolling-horizon service-area expansion with one pre-existing zone.

Demand realizes year by year; each year the policy re-optimizes the
remaining candidate zones against fresh simulated futures rooted at the
realized demand, and zones it invests join the service region for good.
The flexible policy is compared with investing everywhere immediately via
per-path profitability and a paired t-test.

The rollout asks for CR-RNN, but with at most ``SMALL_H_FALLBACK`` (6)
candidates an epoch's CR-RNN call runs plain CR, so the four candidates
here are valued by full enumeration and no LSTM is trained.
"""

import numpy as np

from zoneinvest import (compare_rollouts, generate_synthetic_scenario,
                        rollout_report, run_rollout)
from zoneinvest.policy import CR_RNN, SMALL_H_FALLBACK
from zoneinvest.rollout import INVEST_ALL

scen = generate_synthetic_scenario(seed=5, n_zones=5, subzones_per_zone=2,
                                   demand_scale=100.0)
existing = scen.zones[0]
kw = dict(n_paths=5, n_epochs=5, seed=21, inner_paths=150,
          initial_covered=(existing,))

flexible = run_rollout(scen, policy_kind=CR_RNN,
                       inner=dict(frac_seq=0.06, pnr_max=0.01, k=50), **kw)
bench = run_rollout(scen, policy_kind=INVEST_ALL, **kw)
flexible = compare_rollouts(flexible, bench)

print(f"existing service zone: {existing}; candidates: {scen.zones[1:]}")
print(f"policy {CR_RNN}: with at most {SMALL_H_FALLBACK} candidates each "
      f"epoch runs plain CR")
print("\nflexible policy, coverage per realized path:")
for p in range(5):
    recs = [r for r in flexible.records if r.path == p]
    growth = " -> ".join(f"y{r.epoch}:{len(r.covered)}" for r in recs)
    print(f"  path {p}: {growth} zones "
          f"(final: {', '.join(recs[-1].covered)})")

print(f"\nmean NPV: flexible {flexible.npv_per_path.mean():.1f} vs "
      f"invest-all {bench.npv_per_path.mean():.1f}")
print(f"profitability: flexible {flexible.pv_profit:.3f} vs "
      f"invest-all {bench.pv_profit:.3f}")
st = flexible.diff_stats
print(f"paired t-test on per-path profitability: t = {st['t']:.2f} "
      f"(df {st['df']}), significant at 5%: {st['significant']}, "
      f"95% CI [{st['ci'][0]:.3f}, {st['ci'][1]:.3f}]")

out = rollout_report(flexible, "out/demo_rollout/report.json")
print(f"\nreport written to {out} (+ .csv decision table)")
