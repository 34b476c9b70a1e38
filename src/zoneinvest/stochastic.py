"""Geometric Brownian motion simulation of OD demand.

Each OD pair evolves independently with the volatility of its origin
sub-zone's zone, using the exact log-scheme

    Q_{t+d} = Q_t * exp((mu - sigma^2/2) * d + sigma * sqrt(d) * Z)

so paths are bias-free and stay positive (and an initial demand of zero is
absorbing).  Every path draws from its own counter-derived seed, which makes
generation order-independent: the first P paths are identical no matter how
many more are requested and paths can be produced in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import Scenario


@dataclass(frozen=True)
class DemandPaths:
    """Simulated demand tensor, indexed [path, step, origin, destination]."""

    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


def _path_rng(seed: int, path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path,)))


def simulate_paths(scenario: Scenario, n_paths: int, seed: int) -> DemandPaths:
    """Simulate ``n_paths`` demand paths over the scenario horizon.

    Returns a tensor of shape [n_paths, len(horizon_steps), n_sub, n_sub]
    starting from the first horizon step (t0 demand is the scenario's
    ``base_demand``).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if any(v < 0 for v in scenario.zone_volatility.values()):
        raise ValueError("volatilities must be >= 0")
    sigma = scenario.sigma_by_origin()
    mu = scenario.drift
    n = scenario.n_subzones
    times = np.concatenate(([0.0], np.asarray(scenario.horizon_steps)))
    deltas = np.diff(times)                     # [T]
    t = len(deltas)
    drift_term = (mu - 0.5 * sigma[None, :, :] ** 2) * deltas[:, None, None]
    vol_term = sigma[None, :, :] * np.sqrt(deltas)[:, None, None]

    # Each path's normals go straight into its slot; the log-scheme then
    # runs in place over the whole tensor.
    out = np.empty((n_paths, t, n, n))
    for p in range(n_paths):
        _path_rng(seed, p).standard_normal(out=out[p])
    out *= vol_term
    out += drift_term
    np.cumsum(out, axis=1, out=out)
    np.exp(out, out=out)
    out *= scenario.base_demand
    return DemandPaths(values=out)


def dump_paths(paths: DemandPaths, file) -> None:
    """Write the tensor for audit: a (P, steps, n_sub) header line, then the
    values in row-major order, one origin row per line."""
    p, t, n, _ = paths.values.shape
    Path(file).parent.mkdir(parents=True, exist_ok=True)
    with open(file, "w") as fh:
        fh.write(f"{p},{t},{n}\n")
        for row in paths.values.reshape(p * t * n, n):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_paths(file) -> np.ndarray:
    """Read a tensor written by :func:`dump_paths`."""
    lines = Path(file).read_text().splitlines()
    p, t, n = (int(v) for v in lines[0].split(","))
    vals = np.array([[float(v) for v in ln.split(",")]
                     for ln in lines[1:p * t * n + 1]])
    return vals.reshape(p, t, n, n)
