"""Independent oracles the test suite checks library results against.

Everything here is deliberately written from first principles (bisection,
lattices, exhaustive enumeration, quadrature-free closed forms) and stays
free of the library's own solver code paths.  The one exception is
``per_sequence_lsmc``, a reference recursion that reuses the library's
ridership cache and regression fit so that it pins down the batched
recursion alone.  ``per_gate_loss_and_gradients`` is the LSTM's first
form, one weight pair per gate and one matmul per gate and step, kept as the
reference for the fused-gate kernel.  ``gathered_region_totals`` and
``per_path_gbm`` are the unchunked region sum and the per-path simulation
loop, kept as bit-for-bit references for their bounded-memory forms.
``region_cost_factor`` computes a region's cost factor on its own
sub-matrices, where the library gathers it from the full one.
``realized_totals`` is the rollout's first per-epoch prefix walk, summing
per-zone increments, kept as the reference for the rollout's payoff
(ridership less thresholds) and ``deterministic_npv``'s closed form
(payoffs agree to rounding).  ``masked_iterate_wait``
is the wait-time recursion's first form, which masks every array with the
active slices each round, kept as the reference for the compacting loop.
"""

import itertools

import numpy as np


def bisect_ridership_root(q, price, tiv, scenario, tol=1e-10):
    """Root of the single-OD ridership fixed point

        x = q * exp(-gamma * (c + a_IV*VoT*tiv + a_W * 0.8 x^(1/3) v^(-2/3)))

    by plain bisection on [0, q]."""
    g = scenario.gamma

    def f(x):
        tw = 0.8 * x ** (1.0 / 3.0) * scenario.speed ** (-2.0 / 3.0)
        cost = (price + scenario.alpha_iv * scenario.value_of_time * tiv
                + scenario.alpha_wait * tw)
        return x - q * np.exp(-g * cost)

    lo, hi = 0.0, float(q)
    if f(hi) <= 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def binomial_option_value(s0, strike, sigma, drift, discount_rate, t_end,
                          n_steps, exercise_times=None):
    """Binomial-lattice value of the option to claim (S - strike) once.

    The lattice matches a GBM with the given (actual-measure) drift; values
    are discounted at ``discount_rate`` with discrete compounding.  With
    ``exercise_times`` None the option is American (every node); otherwise
    exercise is restricted to nodes whose time is in the set (t = 0
    included automatically when present in the set).
    """
    dt = t_end / n_steps
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    growth = (1.0 + drift) ** dt
    p = (growth - d) / (u - d)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"lattice probability {p} outside [0,1]; refine steps")
    disc = (1.0 + discount_rate) ** (-dt)

    j = np.arange(n_steps + 1)
    s = s0 * u ** j * d ** (n_steps - j)
    v = np.maximum(s - strike, 0.0)
    for step in range(n_steps - 1, -1, -1):
        j = np.arange(step + 1)
        s = s0 * u ** j * d ** (step - j)
        v = disc * (p * v[1:] + (1.0 - p) * v[:step + 1])
        t = step * dt
        if exercise_times is None or any(abs(t - et) < dt / 2
                                         for et in exercise_times):
            v = np.maximum(v, s - strike)
    return float(v[0])


def compound_schedule_optimum(payoff_by_position, times, discount_rate):
    """Exhaustive optimum over non-decreasing exercise schedules.

    ``payoff_by_position[h][n]`` is the (deterministic) payoff of chain
    position h at ``times[n]``; a schedule assigns each position a time from
    {t0=0} + times or NEVER, non-decreasing along the chain, with NEVER
    forcing every later position to NEVER.  Returns the best total
    discounted value.
    """
    h_len = len(payoff_by_position)
    choices = list(range(len(times) + 1)) + [None]  # 0 => t0, i>0 => times[i-1]
    all_times = [0.0] + list(times)

    def ok(schedule):
        last = -1.0
        seen_never = False
        for c in schedule:
            if c is None:
                seen_never = True
                continue
            if seen_never:
                return False
            t = all_times[c]
            if t < last:
                return False
            last = t
        return True

    best = 0.0
    for schedule in itertools.product(choices, repeat=h_len):
        if not ok(schedule):
            continue
        total = 0.0
        for h, c in enumerate(schedule):
            if c is None:
                continue
            t = all_times[c]
            pay = payoff_by_position[h][c]
            total += (1.0 + discount_rate) ** (-t) * pay
        best = max(best, total)
    return best


def finite_difference_grads(loss_fn, params, eps=1e-6):
    """Central finite differences of a scalar loss over a dict of arrays."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_fn(params)
            flat[i] = keep - eps
            down = loss_fn(params)
            flat[i] = keep
            gflat[i] = (up - down) / (2 * eps)
        grads[name] = g
    return grads


def weibull_samples(shape, scale, n, rng):
    """Inverse-transform Weibull draws."""
    u = rng.uniform(size=n)
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


def polyfit_normal_equations(design, targets):
    """Least-squares coefficients via the explicit normal equations."""
    gram = design.T @ design
    return np.linalg.solve(gram, design.T @ targets)


def paired_t_by_hand(a, b):
    """Textbook paired t statistic."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    n = len(d)
    sd = np.sqrt(((d - d.mean()) ** 2).sum() / (n - 1))
    return d.mean() / (sd / np.sqrt(n))


def per_sequence_lsmc(order, paths, scenario, covered=()):
    """Multi-option LSMC of one ordering by a plain per-position recursion.

    One ordering at a time, one regression per (time, position), and a
    deferral copies the next-step state into every later chain position.
    It takes cumulative ridership from the library's ``RidershipCache`` and
    each regression from the library's ``continuation_fit`` (inputs, not the
    code under test), so a comparison isolates the recursion itself; the
    fit is checked against ``np.linalg.lstsq`` on its own.  Returns
    ``(policy_value, stopping_times [H, P], decisions_t0,
    per_zone_value_t0 [H], rank_deficient_fits)`` with stopping times -1 for
    never, decisions "invest"/"defer", and the number of (time, position)
    regressions whose fit was flagged rank-deficient.
    """
    from zoneinvest.lsmc import continuation_fit
    from zoneinvest.ridership import RidershipCache, payoff_threshold

    never = -1
    covered = frozenset(covered)
    h_len = len(order)
    times = np.asarray(scenario.horizon_steps)
    n_steps = len(times)
    n_paths = paths.n_paths
    cache = RidershipCache(scenario, paths, covered)

    states = np.empty((h_len, n_steps, n_paths))
    state0 = np.empty(h_len)
    prev, prev0 = cache.cumulative(())
    for h in range(h_len):
        cur, cur0 = cache.cumulative(order[:h + 1])
        states[h] = cur - prev
        state0[h] = cur0 - prev0
        prev, prev0 = cur, cur0
    thresholds = np.array([payoff_threshold(h + 1, scenario, len(covered))
                           for h in range(h_len)])
    payoffs = states - thresholds[:, None, None]
    payoffs0 = state0 - thresholds

    rho = scenario.discount_rate
    value = np.zeros((h_len + 2, n_paths))
    cash = np.zeros((h_len + 2, n_paths))
    tau = np.full((h_len + 2, n_paths), never, dtype=int)
    rank_deficient_fits = 0
    for n in range(n_steps - 1, -1, -1):
        expiry = n == n_steps - 1
        disc = 1.0 if expiry else (1.0 + rho) ** (-(times[n + 1] - times[n]))
        value_next, cash_next, tau_next = value.copy(), cash.copy(), tau.copy()
        for h in range(h_len, 0, -1):
            if expiry:
                phi = np.zeros(n_paths)
            else:
                basis, phi = continuation_fit(states[h - 1, n],
                                              disc * value_next[h])
                rank_deficient_fits += basis.rank_deficient
            immediate = payoffs[h - 1, n] + value[h + 1]
            ex = immediate >= phi
            value[h, ex] = immediate[ex]
            cash[h, ex] = immediate[ex]
            tau[h, ex] = n
            defer = ~ex
            for m in range(h, h_len + 1):
                value[m, defer] = disc * value_next[m, defer]
                cash[m, defer] = cash_next[m, defer]
                tau[m, defer] = tau_next[m, defer]

    exercised = tau[1:h_len + 1] != never
    disc_at_tau = np.where(exercised,
                           (1.0 + rho) ** (-times[np.maximum(tau[1:h_len + 1], 0)]),
                           0.0)
    value_t0 = (disc_at_tau * cash[1:h_len + 1]).sum(axis=1) / n_paths

    f0 = np.zeros(h_len + 2)
    f0[1:h_len + 1] = value_t0
    decisions = ["defer"] * h_len
    for h in range(h_len, 0, -1):
        if payoffs0[h - 1] + f0[h + 1] >= f0[h]:
            decisions[h - 1] = "invest"
            f0[h] = payoffs0[h - 1] + f0[h + 1]
        else:
            for m in range(h - 1, h_len):
                decisions[m] = "defer"
    return (float(f0[1]), tau[1:h_len + 1].copy(), tuple(decisions),
            f0[1:h_len + 1].copy(), rank_deficient_fits)


PER_GATE_INPUT = ("W_fe", "W_ie", "W_oe", "W_ed")
PER_GATE_RECURRENT = ("W_fd", "W_id", "W_od", "W_dd")
PER_GATE_BIAS = ("b_f", "b_i", "b_o", "b_c")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def stack_gates(per_gate):
    """Per-gate arrays (``W_fe``, ``W_fd``, ``b_f``, ...) stacked into the
    fused layout ``W_x``/``W_h``/``b`` in gate order f, i, o, c."""
    out = {k: per_gate[k] for k in ("emb", "W_ff", "b_ff")}
    out["W_x"] = np.vstack([per_gate[k] for k in PER_GATE_INPUT])
    out["W_h"] = np.vstack([per_gate[k] for k in PER_GATE_RECURRENT])
    out["b"] = np.concatenate([per_gate[k] for k in PER_GATE_BIAS])
    return out


def per_gate_forward(params, idx):
    """LSTM forward with one weight pair per gate over index matrix [B, H];
    returns logits [B], the last hidden state and the per-step cache."""
    b, h_len = idx.shape
    d = params["emb"].shape[1]
    d_t = np.zeros((b, d))
    c_t = np.zeros((b, d))
    cache = []
    for t in range(h_len):
        cols = idx[:, t]
        e = params["emb"][cols]
        f = _sigmoid(e @ params["W_fe"].T + d_t @ params["W_fd"].T + params["b_f"])
        i = _sigmoid(e @ params["W_ie"].T + d_t @ params["W_id"].T + params["b_i"])
        o = _sigmoid(e @ params["W_oe"].T + d_t @ params["W_od"].T + params["b_o"])
        g = np.tanh(e @ params["W_ed"].T + d_t @ params["W_dd"].T + params["b_c"])
        c_new = f * c_t + i * g
        tc = np.tanh(c_new)
        d_new = o * tc
        cache.append((cols, e, d_t, c_t, f, i, o, g, tc))
        d_t, c_t = d_new, c_new
    logits = d_t @ params["W_ff"] + params["b_ff"][0]
    return logits, d_t, cache


def per_gate_loss_and_gradients(params, idx, targets, head_kind):
    """Mean loss (BCE on the logit for ``sigmoid-classifier``, MSE through a
    ReLU otherwise) and its gradients by per-gate backpropagation through
    time, one step and one gate at a time."""
    logits, d_last, cache = per_gate_forward(params, idx)
    b = idx.shape[0]
    if head_kind == "sigmoid-classifier":
        loss = float(np.mean(np.logaddexp(0.0, logits) - targets * logits))
        dlogit = (_sigmoid(logits) - targets) / b
    else:
        pred = np.maximum(logits, 0.0)
        loss = float(np.mean((pred - targets) ** 2))
        dlogit = 2.0 * (pred - targets) * (logits > 0) / b

    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    grads["W_ff"] = dlogit @ d_last
    grads["b_ff"] = np.array([dlogit.sum()])
    grad_d = dlogit[:, None] * params["W_ff"][None, :]
    grad_c = np.zeros_like(grad_d)
    for cols, e, d_prev, c_prev, f, i, o, g, tc in reversed(cache):
        da_o = grad_d * tc * o * (1.0 - o)
        grad_c = grad_c + grad_d * o * (1.0 - tc ** 2)
        da_f = grad_c * c_prev * f * (1.0 - f)
        da_i = grad_c * g * i * (1.0 - i)
        da_c = grad_c * i * (1.0 - g ** 2)
        grads["W_fe"] += da_f.T @ e
        grads["W_fd"] += da_f.T @ d_prev
        grads["b_f"] += da_f.sum(axis=0)
        grads["W_ie"] += da_i.T @ e
        grads["W_id"] += da_i.T @ d_prev
        grads["b_i"] += da_i.sum(axis=0)
        grads["W_oe"] += da_o.T @ e
        grads["W_od"] += da_o.T @ d_prev
        grads["b_o"] += da_o.sum(axis=0)
        grads["W_ed"] += da_c.T @ e
        grads["W_dd"] += da_c.T @ d_prev
        grads["b_c"] += da_c.sum(axis=0)
        de = da_f @ params["W_fe"] + da_i @ params["W_ie"] \
            + da_o @ params["W_oe"] + da_c @ params["W_ed"]
        np.add.at(grads["emb"], cols, de)
        grad_d = da_f @ params["W_fd"] + da_i @ params["W_id"] \
            + da_o @ params["W_od"] + da_c @ params["W_dd"]
        grad_c = grad_c * f
    return loss, grads


def region_cost_factor(scenario, idx):
    """exp(-gamma * (c + a_IV * VoT * TIV)) over the pairs of sub-zones
    ``idx``, computed from the gathered price and in-vehicle time."""
    price = scenario.trip_price[np.ix_(idx, idx)]
    tiv = scenario.in_vehicle_time[np.ix_(idx, idx)]
    return np.exp(-scenario.gamma * (
        price + scenario.alpha_iv * scenario.value_of_time * tiv))


def gathered_region_totals(zone_set, demand, scenario, covered=()):
    """Equilibrium totals of the region ``zone_set | covered`` for every
    matrix of ``demand`` (2-D or ``[..., N, N]``), from one gather of the
    whole stack and ``region_cost_factor``; reuses the library's wait
    recursion."""
    from zoneinvest.ridership import _iterate_wait

    idx = scenario.subzone_indices(frozenset(zone_set) | frozenset(covered))
    sub = demand[..., idx[:, None], idx[None, :]]
    attracted = (sub * region_cost_factor(scenario, idx)).sum(axis=(-2, -1))
    _, totals, _, _ = _iterate_wait(attracted.ravel(),
                                    sub.sum(axis=(-2, -1)).ravel(), scenario)
    return totals.reshape(demand.shape[:-2])


def per_path_gbm(scenario, n_paths, seed):
    """GBM demand paths built one path at a time from each path's own
    generator, seeded by numpy's ``SeedSequence`` with the path index as
    spawn key."""
    sigma = scenario.sigma_by_origin()
    n = scenario.n_subzones
    deltas = np.diff(np.concatenate(([0.0], scenario.horizon_steps)))
    drift = (scenario.drift - 0.5 * sigma[None] ** 2) * deltas[:, None, None]
    vol = sigma[None] * np.sqrt(deltas)[:, None, None]
    out = np.empty((n_paths, len(deltas), n, n))
    for p in range(n_paths):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(p,)))
        z = rng.standard_normal((len(deltas), n, n))
        out[p] = scenario.base_demand[None] * np.exp(
            np.cumsum(drift + vol * z, axis=0))
    return out


def realized_totals(cov_order, demand, scenario):
    """Payoff and ridership sums over the covered zones (in investment
    order) at one realized demand matrix, the ridership telescoped from
    per-zone increments."""
    from zoneinvest.ridership import cumulative_ridership, zone_payoff

    payoff = 0.0
    ridership = 0.0
    prev = 0.0
    for h, _ in enumerate(cov_order, start=1):
        cur = cumulative_ridership(cov_order[:h], demand, scenario)
        x = cur - prev
        payoff += zone_payoff(h, x, scenario)
        ridership += x
        prev = cur
    return payoff, ridership


def masked_iterate_wait(attracted_sum, init_total, scenario, max_iterations):
    """The wait-time recursion over slices, masking every array with the
    slices still active each round; returns (mult, total, wait, iterations)
    or raises ``ConvergenceError`` as the library does."""
    from zoneinvest.ridership import WAIT_TOL, ConvergenceError

    def wait_of(total):
        return 0.8 * np.cbrt(total) * scenario.speed ** (-2.0 / 3.0)

    attracted_sum = np.atleast_1d(np.asarray(attracted_sum, dtype=float))
    m = attracted_sum.shape[0]
    coeff = scenario.gamma * scenario.alpha_wait
    tw = wait_of(np.atleast_1d(np.asarray(init_total, dtype=float)))
    mult = np.ones(m)
    total = np.array(np.atleast_1d(init_total), dtype=float)
    iters = np.zeros(m, dtype=int)
    active = np.ones(m, dtype=bool)
    while active.any():
        if iters[active].min() >= max_iterations:
            gaps = np.abs(wait_of(attracted_sum[active]
                                  * np.exp(-coeff * tw[active])) - tw[active])
            raise ConvergenceError(float(gaps.max()), max_iterations)
        iters[active] += 1
        mult_a = np.exp(-coeff * tw[active])
        total_a = attracted_sum[active] * mult_a
        tw_new = wait_of(total_a)
        gap = np.abs(tw_new - tw[active])
        mult[active] = mult_a
        total[active] = total_a
        tw[active] += tw_new - tw[active]
        done = gap < WAIT_TOL
        idx_active = np.flatnonzero(active)
        active[idx_active[done]] = False
    return mult, total, tw, iters
