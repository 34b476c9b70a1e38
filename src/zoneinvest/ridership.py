"""Equilibrium MoD ridership and investment payoffs.

Hourly OD ridership responds to the generalized trip cost

    lambda_ij = Q_ij * exp(-gamma * (c_ij + a_IV * VoT * TIV_ij + a_W * TW))

where the expected wait time couples all pairs through the regional total:

    TW = 0.8 * lambda_u^(1/3) * v^(-2/3),   lambda_u = sum_ij lambda_ij.

The fixed point is found by iterating the two maps from lambda_0 = Q until
the wait time moves by less than ``WAIT_TOL`` minutes.  Because TW is the
only coupling, the iteration reduces to a scalar recursion on TW, which this
module exploits to evaluate a whole stack of demand matrices in one
vectorized sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._chunks import chunk_slices
from .scenario import Scenario

WAIT_TOL = 0.001      # minutes, convergence tolerance on TW
MAX_ITERATIONS = 1000

# Demand matrices per region gather in _region_sums: a chunk's gathered
# sub-matrices are the largest array a cache miss holds.
REGION_CHUNK = 256


class ConvergenceError(RuntimeError):
    """Wait-time iteration failed to converge; carries the last gap."""

    def __init__(self, gap: float, iterations: int):
        super().__init__(
            f"ridership fixed point not converged after {iterations} "
            f"iterations (last wait-time gap {gap:.6g} min)")
        self.gap = gap
        self.iterations = iterations


@dataclass(frozen=True)
class RidershipResult:
    od_ridership: np.ndarray   # lambda_ij, trips/hour
    total: float               # lambda_u
    wait_time: float           # TW, minutes
    iterations: int


def _cost_factor(scenario: Scenario) -> np.ndarray:
    """exp(-gamma * (c + a_IV * VoT * TIV)) over all sub-zone pairs; a
    region's factor is gathered from it."""
    tiv = scenario.in_vehicle_time
    return np.exp(-scenario.gamma * (
        scenario.trip_price + scenario.alpha_iv * scenario.value_of_time * tiv))


def _wait_of(total, speed):
    return 0.8 * np.cbrt(total) * speed ** (-2.0 / 3.0)


def _iterate_wait(attracted_sum, init_total, scenario: Scenario):
    """Scalar wait-time recursion, vectorized over independent demand slices.

    ``attracted_sum[m]`` is sum_ij Q_ij * cost_factor_ij for slice m and
    ``init_total[m]`` the slice's raw demand sum (lambda_0 = Q).  Returns the
    per-slice generalized-cost multiplier exp(-gamma*a_W*TW) entering the
    final ridership, plus totals, wait times and iteration counts.  Each
    slice stops on its own gap, so a slice behaves exactly as if run alone;
    a slice still moving after ``MAX_ITERATIONS`` raises.  Every slice still
    moving has run the same number of rounds, so the loop carries only those
    slices and writes a slice's results out in the round it stops.
    """
    attracted = np.atleast_1d(np.asarray(attracted_sum, dtype=float))
    coeff = scenario.gamma * scenario.alpha_wait
    total = np.array(np.atleast_1d(init_total), dtype=float)
    tw = _wait_of(total, scenario.speed)
    mult = np.ones(len(total))
    iters = np.zeros(len(total), dtype=int)
    moving, wait = np.arange(len(total)), tw.copy()
    rounds = 0
    while len(moving):
        if rounds >= MAX_ITERATIONS:
            gaps = np.abs(_wait_of(attracted * np.exp(-coeff * wait),
                                   scenario.speed) - wait)
            raise ConvergenceError(float(gaps.max()), MAX_ITERATIONS)
        rounds += 1
        mult_a = np.exp(-coeff * wait)
        total_a = attracted * mult_a
        step = _wait_of(total_a, scenario.speed) - wait
        wait += step
        done = np.abs(step) < WAIT_TOL
        if done.any():
            at = moving[done]
            mult[at], total[at], tw[at] = mult_a[done], total_a[done], wait[done]
            iters[at] = rounds
            going = ~done
            moving, attracted, wait = moving[going], attracted[going], wait[going]
    return mult, total, tw, iters


def _check_demand(demand: np.ndarray, n: int) -> None:
    """Reject demand not shaped [..., n, n] over the scenario's n sub-zones,
    or with a negative or NaN entry: a reduction, not ``demand < 0``, so no
    temporary the size of the demand."""
    if demand.shape[-2:] != (n, n):
        raise ValueError(f"demand shape {demand.shape} does not end in ({n}, {n})")
    if demand.size and not demand.min() >= 0:
        raise ValueError("demand entries must be >= 0 and not NaN")


def equilibrium_ridership(demand: np.ndarray, scenario: Scenario
                          ) -> RidershipResult:
    """Fixed-point equilibrium ridership for one demand matrix over the
    scenario's full region.

    Raises
    ------
    ConvergenceError
        If the wait-time gap is still >= ``WAIT_TOL`` after
        ``MAX_ITERATIONS`` iterations.
    """
    demand = np.asarray(demand, dtype=float)
    if demand.ndim != 2:
        raise ValueError(f"demand must be one matrix, got shape {demand.shape}")
    n = scenario.n_subzones
    _check_demand(demand, n)
    factor = _cost_factor(scenario)
    mult, total, tw, iters = _solve_region([demand[None]], np.arange(n),
                                           factor, scenario)
    return RidershipResult(od_ridership=demand * factor * mult[0],
                           total=float(total[0]), wait_time=float(tw[0]),
                           iterations=int(iters[0]))


def cumulative_ridership(zone_set, demand: np.ndarray, scenario: Scenario,
                         covered=()) -> float | np.ndarray:
    """Total equilibrium ridership over the sub-zones of ``covered | zone_set``.

    ``demand`` is one OD matrix or a stack ``[..., N, N]`` of them; every
    matrix is solved independently and the totals come back with shape
    ``demand.shape[:-2]`` (a float for a single matrix).  Depends only on
    the zone set (not on ordering).  An empty region has ridership 0.
    """
    demand = np.asarray(demand, dtype=float)
    _check_demand(demand, scenario.n_subzones)
    idx = _region_index(zone_set, covered, scenario)
    if idx is None:
        totals = np.zeros(demand.shape[:-2])
    else:
        stack = demand.reshape(-1, *demand.shape[-2:])
        _, totals, _, _ = _solve_region([stack], idx, _cost_factor(scenario),
                                        scenario)
        totals = totals.reshape(demand.shape[:-2])
    return float(totals) if totals.ndim == 0 else totals


def _region_index(zone_set, covered, scenario: Scenario) -> np.ndarray | None:
    """Sub-zone indices of ``zone_set | covered``; None for an empty region."""
    zone_set = frozenset(zone_set)
    covered = frozenset(covered)
    overlap = zone_set & covered
    if overlap:
        raise ValueError(f"zone_set overlaps covered zones: {sorted(overlap)}")
    region = zone_set | covered
    return scenario.subzone_indices(region) if region else None


def _region_sums(stack: np.ndarray, idx: np.ndarray, factor: np.ndarray,
                 attracted: np.ndarray, raw: np.ndarray) -> None:
    """Write sum_ij Q_ij * factor_ij and sum_ij Q_ij over region ``idx`` of
    every matrix of ``stack`` [M, N, N] into ``attracted`` and ``raw`` [M].

    The region is gathered ``REGION_CHUNK`` matrices at a time, so the
    working set does not grow with the stack.  A gather from two or more
    matrices puts the k x k axes outermost in memory, so each matrix's terms
    are summed one after another; a lone matrix is contiguous and summed
    pairwise.  Chunks of two or more matrices therefore sum exactly as one
    gather of the whole stack does.
    """
    for part in chunk_slices(len(stack), REGION_CHUNK):
        sub = stack[part, idx[:, None], idx[None, :]]
        raw[part] = sub.sum(axis=(-2, -1))
        sub *= factor
        attracted[part] = sub.sum(axis=(-2, -1))


def _solve_region(stacks, idx: np.ndarray, factor: np.ndarray,
                  scenario: Scenario):
    """Equilibrium of the region ``idx`` in every matrix of ``stacks`` (each
    [M, N, N]), one slice per matrix in stack order.

    ``factor`` is the cost factor over the matrices' N x N pairs; the
    region's is gathered from it.  Returns :func:`_iterate_wait`'s
    (mult, total, wait, iterations) per slice.
    """
    factor = factor[idx[:, None], idx]
    bounds = np.cumsum([0] + [len(stack) for stack in stacks])
    attracted, raw = np.empty(bounds[-1]), np.empty(bounds[-1])
    for stack, lo, hi in zip(stacks, bounds, bounds[1:]):
        _region_sums(stack, idx, factor, attracted[lo:hi], raw[lo:hi])
    return _iterate_wait(attracted, raw, scenario)


def payoff_threshold(position_h: int, scenario: Scenario,
                     n_covered: int = 0) -> float:
    """Ridership cost of the zone at 1-based ``position_h``: its within-zone
    cost plus 2*(h-1+n_covered) interzone connections to zones already in
    service (earlier in the sequence or covered before it starts)."""
    if position_h < 1:
        raise ValueError("position_h is 1-based and must be >= 1")
    if n_covered < 0:
        raise ValueError("n_covered must be >= 0")
    links = 2 * (position_h - 1 + n_covered)
    return float(scenario.within_zone_cost + links * scenario.interzone_cost)


def zone_payoff(position_h: int, zone_ridership: float, scenario: Scenario,
                n_covered: int = 0) -> float:
    """Investment payoff X - (C_wz + 2*(h - 1 + n_covered) * C_iz) of the
    zone at ``position_h``.  May be negative."""
    return float(zone_ridership - payoff_threshold(position_h, scenario, n_covered))


class RidershipCache:
    """Memo of cumulative equilibrium ridership per zone subset.

    Valuing one sequence walks its prefixes; across sequences the prefixes
    repeat as *sets*, so totals for all horizon steps and paths are computed
    once per subset and reused.  ``covered`` zones are part of every region.
    Not thread-safe; use one cache per worker and share read-only inputs.
    The cache is the whole valuation context: paths must span the scenario's
    horizon, and are checked once here (the scenario checks its base
    demand), so a miss solves without re-checking its selection.

    ``misses`` counts the regions solved and ``hits`` the lookups served
    from the memo.
    """

    def __init__(self, scenario: Scenario, demand_paths, covered=()):
        horizon = len(scenario.horizon_steps)
        if demand_paths.n_steps != horizon:
            raise ValueError(f"paths cover {demand_paths.n_steps} steps, "
                             f"scenario horizon has {horizon}")
        _check_demand(demand_paths.values, scenario.n_subzones)
        self.scenario = scenario
        self.paths = demand_paths
        self.covered = frozenset(covered)
        self._memo: dict[frozenset, tuple[np.ndarray, float]] = {}
        self._factor = _cost_factor(scenario)
        self.hits = 0
        self.misses = 0

    def cumulative(self, prefix) -> tuple[np.ndarray, float]:
        """(totals over [steps x paths], total at t0) for covered | prefix."""
        key = frozenset(prefix)
        got = self._memo.get(key)
        if got is None:
            self._solve(key)
            return self._memo[key]
        self.hits += 1
        return got

    def fill(self, prefixes) -> None:
        """Solve the region covered | prefix of every prefix not yet in the
        memo, each region on its own."""
        for key in dict.fromkeys(map(frozenset, prefixes)):
            if key not in self._memo:
                self._solve(key)

    def _solve(self, key) -> None:
        n_steps, n_paths = self.paths.n_steps, self.paths.n_paths
        idx = _region_index(key, self.covered, self.scenario)
        self.misses += 1
        if idx is None:
            self._memo[key] = (np.zeros((n_steps, n_paths)), 0.0)
            return
        # the [P, T] stack's slices, then t0
        stack = self.paths.values.reshape(-1, *self.paths.values.shape[-2:])
        _, totals, _, _ = _solve_region(
            [stack, self.scenario.base_demand[None]], idx, self._factor,
            self.scenario)
        self._memo[key] = (totals[:-1].reshape(n_paths, n_steps).T.copy(),
                           float(totals[-1]))
