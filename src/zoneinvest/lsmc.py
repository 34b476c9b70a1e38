"""Multi-option least-squares Monte Carlo valuation of investment sequences.

A sequence of zones is a chain of compound deferral options: exercising the
h-th zone creates the right to add the (h+1)-th.  Valuation runs a backward
recursion over time with a nested backward recursion over chain positions.
At each (time, position) the value of waiting is estimated by regressing the
discounted next-step option values on Hermite polynomials of the zone's
current ridership, across all simulated paths; each path then exercises when
the immediate payoff plus the next option's value beats that estimate.
Deferring a zone on a path blocks every later zone on that path at that
time, which keeps per-path stopping times non-decreasing along the chain.

The initial (t0) value of each option is the path average of its discounted
value at its stopping time; paths that never exercise contribute zero.  A
final sweep at t0 compares immediate investment against these continuation
values to fix the invest/defer decisions.

Many orderings of one length are valued together: the recursion runs over
``[position, ordering, path]`` arrays, every regression of a time step is one
stacked fit, and the deferral block is a cumulative mask along the chain.
A zone's state depends only on the set of zones before it, so the fit
factorizes each distinct (prefix set, zone) design once per step and shares
it across the positions and orderings that meet it.  Each ordering's
arithmetic is the same as if it were valued alone, so the results do not
depend on which orderings share a call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermevander

from .ridership import RidershipCache, payoff_threshold
from .scenario import Scenario
from .sequences import Sequence
from .stochastic import DemandPaths

NEVER = -1  # stopping-time sentinel: the option is never exercised

# Continuation values regress on He_0..He_2 of the standardized state.
BASIS_SIZE = 3

INVEST = "invest"
DEFER = "defer"


@dataclass(frozen=True)
class RegressionBasis:
    """Hermite least-squares fit of continuation targets on a standardized
    scalar state."""

    coefficients: np.ndarray
    state_mean: float
    state_std: float
    rank_deficient: bool


@dataclass(frozen=True)
class SequenceValuation:
    sequence: Sequence
    policy_value: float
    stopping_times: np.ndarray    # [H, P] indices into horizon_steps, NEVER=-1
    decisions_t0: tuple[str, ...]  # INVEST/DEFER per position
    per_zone_value_t0: np.ndarray  # [H] option values at t0
    rank_deficient_fits: int       # (step, position) fits on a rank-deficient design


def _fit_rows(states: np.ndarray, targets: np.ndarray, design_of: np.ndarray):
    """Row-wise least-squares fits of ``targets`` [R, P] on He_0..He_2 of
    standardized states.

    ``states`` [K, P] holds one state per distinct design; row r regresses on
    design ``design_of[r]``, so a lone fit passes ``[0]``.  Standardizing,
    the Hermite design and its thin SVD run once per design; projections,
    coefficients and fitted values run per row.  Returns
    ``(coef [R, BASIS_SIZE], mean [K], std [K], rank_deficient [K],
    fitted [R, P])``.  The minimum-norm solution drops singular values at or
    below ``lstsq``'s default cutoff ``eps * max(P, BASIS_SIZE) * s_max``.
    Every reduction runs along one design or one row, so a row's fit is the
    same whichever rows and designs are stacked with it.
    """
    p = states.shape[1]
    if p < BASIS_SIZE:
        raise ValueError(f"need at least {BASIS_SIZE} paths, got {p}")
    mean = states.mean(axis=1)
    std = states.std(axis=1)
    constant = ~(np.isfinite(std) & (std > 0.0))
    z = states - mean[:, None]
    z /= np.where(constant, 1.0, std)[:, None]
    z[constant] = 0.0
    design = hermevander(z, BASIS_SIZE - 1)              # [K, P, BASIS_SIZE]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(p, BASIS_SIZE) * sv[:, :1]
    projected = np.stack([(u[design_of, :, k] * targets).sum(axis=1)
                          for k in range(BASIS_SIZE)], axis=1)  # U^T y
    weights = np.divide(projected, sv[design_of],
                        out=np.zeros_like(projected), where=keep[design_of])
    row_vt = vt[design_of]
    coef = row_vt[:, 0, :] * weights[:, :1]
    for k in range(1, BASIS_SIZE):
        coef += row_vt[:, k, :] * weights[:, k:k + 1]
    fitted = design[design_of, :, 0] * coef[:, :1]
    for i in range(1, BASIS_SIZE):
        fitted += design[design_of, :, i] * coef[:, i:i + 1]

    # A constant state carries no information: the fit is the target mean.
    constant_rows = constant[design_of]
    target_mean = targets[constant_rows].mean(axis=1)
    coef[constant_rows] = 0.0
    coef[constant_rows, 0] = target_mean
    fitted[constant_rows] = target_mean[:, None]
    rank_deficient = ~constant & (keep.sum(axis=1) < BASIS_SIZE)
    return coef, mean, np.where(constant, 0.0, std), rank_deficient, fitted


def continuation_fit(states, targets):
    """Least-squares fit of ``targets`` on He_0..He_2 of the standardized
    state, using all paths.

    Returns ``(basis, fitted)``.  A constant state degenerates to the target
    mean; a rank-deficient design falls back to the minimum-norm (lower
    effective degree) solution and is flagged.
    """
    states = np.asarray(states, dtype=float)
    targets = np.asarray(targets, dtype=float)
    coef, mean, std, deficient, fitted = _fit_rows(states[None], targets[None],
                                                   np.zeros(1, dtype=int))
    basis = RegressionBasis(coef[0], float(mean[0]), float(std[0]),
                            bool(deficient[0]))
    return basis, fitted[0]


def _blend(fill, a, b, out, spare):
    """Write ``np.where(fill, a, b)`` into ``out``, bit for bit, as
    ``b ^ ((a ^ b) & fill)`` on int64 views.

    ``fill`` is int64: -1 (every bit set) takes ``a``, 0 keeps ``b``; ``a``
    may be an integer scalar.  numpy's masked selects branch per element and
    mispredict on the near-random exercise masks; this takes no branch.
    ``spare`` receives ``a ^ b``; it may be ``out`` when ``out`` is not ``b``.
    """
    bits = spare.view(np.int64)
    np.bitwise_xor(np.asarray(a).view(np.int64), b.view(np.int64), out=bits)
    bits &= fill
    np.bitwise_xor(b.view(np.int64), bits, out=out.view(np.int64))


def _exercise(payoffs, continuation, deferral, exercise, chained):
    """Walk down the chain as if every earlier position exercised: h
    exercises where its payoff plus h+1's walked value is at least
    ``continuation[h]``, and walks on with that sum there and with
    ``deferral[h]`` elsewhere (into ``chained[h]``).  A deferral at h blocks
    every later position, so ``exercise[h]`` ends true only where positions
    1..h all exercise.  ``payoffs`` is overwritten."""
    tail = 0.0
    for h in range(len(payoffs) - 1, -1, -1):
        now = payoffs[h] + tail
        np.greater_equal(now, continuation[h], out=exercise[h])
        fill = payoffs[h].view(np.int64)
        np.negative(exercise[h], dtype=np.int64, out=fill)
        _blend(fill, now, deferral[h], chained[h], chained[h])
        tail = chained[h]
    for h in range(1, len(payoffs)):
        exercise[h] &= exercise[h - 1]


def _discount_at(tau, times, rho):
    """(1 + rho)^-times[tau], and 0 where ``tau`` is NEVER: a lookup in the
    step discounts with a 0 appended, the entry NEVER (-1) indexes."""
    return np.append((1.0 + rho) ** (-times), 0.0)[tau]


def valuate_sequences(orders, cache: RidershipCache) -> list[SequenceValuation]:
    """Value same-length investment sequences by multi-option LSMC, in one
    backward recursion over all of them.

    ``cache`` is the valuation context: its scenario, demand paths and
    covered zones (already in service: they join every ridership region and
    shift each position's interzone cost), plus the cumulative ridership of
    every prefix set valued so far, which sequences with common prefix sets
    share.  Results are identical to valuing each sequence on its own with a
    fresh cache.  Working memory grows with ``len(orders)``; value long
    lists in batches.
    """
    seqs = [o if isinstance(o, Sequence) else Sequence(tuple(o)) for o in orders]
    if not seqs:
        return []
    scenario, covered = cache.scenario, cache.covered
    h_len = len(seqs[0])
    for seq in seqs:
        if len(seq) != h_len:
            raise ValueError(
                f"sequences must share one length, got {h_len} and {len(seq)}")
    n_paths = cache.paths.n_paths
    if h_len == 0:
        return [SequenceValuation(seq, 0.0, np.empty((0, n_paths), dtype=int),
                                  (), np.empty(0), 0) for seq in seqs]
    times = np.asarray(scenario.horizon_steps)
    n_steps = len(times)
    n_seq = len(seqs)
    shape = (h_len, n_seq, n_paths)

    # The h-th zone's state is cumulative(prefix_h) - cumulative(prefix_{h-1}),
    # so it depends only on the set of earlier zones and the zone itself:
    # key every (position, ordering) by that pair and derive states, and
    # each step's regression design, once per key.
    keys: dict[tuple[frozenset, str], int] = {}
    key_of = np.empty((h_len, n_seq), dtype=int)
    for s, seq in enumerate(seqs):
        for h, zone in enumerate(seq.order):
            key_of[h, s] = keys.setdefault((frozenset(seq.order[:h]), zone),
                                           len(keys))
    # Look up every region (a miss is solved) before allocating the work
    # arrays, so the temporaries of the solves do not stack on them.
    totals = [(cache.cumulative(prefix), cache.cumulative(prefix | {zone}))
              for prefix, zone in keys]
    states = np.empty((n_steps, len(keys), n_paths))      # [T, K, P]
    state0 = np.empty(len(keys))
    for k, (before, after) in enumerate(totals):
        np.subtract(after[0], before[0], out=states[:, k])
        state0[k] = after[1] - before[1]
    thresholds = np.array([payoff_threshold(h + 1, scenario, len(covered))
                           for h in range(h_len)])

    rho = scenario.discount_rate
    value = np.zeros(shape)
    cash = np.zeros(shape)
    tau = np.full(shape, NEVER, dtype=int)
    exercise = np.empty(shape, dtype=bool)
    chained = np.empty(shape)
    deficient = np.zeros(len(keys), dtype=int)  # rank-deficient steps per key
    for n in range(n_steps - 1, -1, -1):
        expiry = n == n_steps - 1
        disc = 1.0 if expiry else (1.0 + rho) ** (-(times[n + 1] - times[n]))
        waiting = disc * value          # deferral value, also the regression target
        if expiry:
            phi = np.zeros(shape)
        else:
            *_, step_deficient, phi = _fit_rows(
                states[n], waiting.reshape(-1, n_paths), key_of.ravel())
            phi = phi.reshape(shape)
            deficient += step_deficient
        payoffs = states[n][key_of] - thresholds[:, None, None]
        _exercise(payoffs, phi, waiting, exercise, chained)
        # A path takes the walked value at h only where positions 1..h all
        # exercise; elsewhere h keeps its next-step state.  The fit and the
        # payoffs are spent, so they hold the blend's mask and spare.
        fill = phi.view(np.int64)
        np.negative(exercise, dtype=np.int64, out=fill)
        for kept, taken in ((waiting, chained), (cash, chained), (tau, n)):
            _blend(fill, taken, kept, kept, payoffs)
        # Free the payoffs and the fit (``fill`` views it), so that the next
        # step's arrays do not stack on them.
        del payoffs, phi, fill
        value = waiting

    # Option value at t0: discounted value at each path's stopping time,
    # zero for paths that never exercise.
    value_t0 = (_discount_at(tau, times, rho) * cash).sum(axis=-1) / n_paths

    # t0 invest/defer sweep: invest when today's payoff plus the next
    # option's t0 value beats waiting; a deferral defers the whole tail.
    invest = np.empty((h_len, n_seq), dtype=bool)
    f0 = np.empty((h_len, n_seq))
    _exercise(state0[key_of] - thresholds[:, None], value_t0, value_t0,
              invest, f0)
    return [SequenceValuation(
        sequence=seq,
        policy_value=float(f0[0, s]),
        stopping_times=tau[:, s].copy(),
        decisions_t0=tuple(INVEST if i else DEFER for i in invest[:, s]),
        per_zone_value_t0=f0[:, s].copy(),
        rank_deficient_fits=int(deficient[key_of[:, s]].sum()),
    ) for s, seq in enumerate(seqs)]


def valuate_sequence(seq, paths: DemandPaths, scenario: Scenario,
                     covered=()) -> SequenceValuation:
    """Value one investment sequence by multi-option LSMC, on a fresh
    ridership cache over ``scenario``, ``paths`` and ``covered``.

    The one-ordering case of :func:`valuate_sequences`.
    """
    return valuate_sequences([seq], RidershipCache(scenario, paths, covered))[0]
