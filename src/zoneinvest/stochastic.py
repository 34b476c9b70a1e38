"""Geometric Brownian motion simulation of OD demand.

Each OD pair evolves independently with the volatility of its origin
sub-zone's zone, using the exact log-scheme

    Q_{t+d} = Q_t * exp((mu - sigma^2/2) * d + sigma * sqrt(d) * Z)

so paths are bias-free and stay positive (and an initial demand of zero is
absorbing).  Every path draws from its own counter-derived seed, which makes
generation order-independent: the first P paths are identical no matter how
many more are requested and paths can be produced in parallel.  Path p's
stream is numpy's ``default_rng(SeedSequence(seed, spawn_key=(p,)))``; its
PCG64 state is derived for all paths in one vectorized pass instead of one
``SeedSequence`` per path.
"""

from __future__ import annotations

import operator
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


# numpy's SeedSequence hash/mix constants and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, hash_const: int,
             mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of ``uint32`` words; returns the hashed words and
    the advanced hash constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value *= np.uint32(hash_const)
    value ^= value >> 16
    return value, hash_const


def _path_states(seed, n_paths: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of every path p, equal to those of
    ``PCG64(SeedSequence(seed, spawn_key=(p,))).state``.

    ``SeedSequence`` mixes the spawn-key word into its pool last, so the
    public pool of ``SeedSequence(seed)`` is shared by all paths: by then the
    hash constant has advanced 16 times plus 4 per run-entropy word past the
    fourth.  Only the spawn-key word ``p`` differs, and it is mixed in here
    as ``uint32`` array arithmetic over all paths at once.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(
            f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_words = max(1, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(n_words - 4, 0),
                               1 << 32) & _MASK32
    key = np.arange(n_paths, dtype=np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool.tolist():
        hashed, hash_const = _hashmix(key, hash_const, _MULT_A)
        # SeedSequence's mix(pool word, hashed key word)
        mixed = (np.uint32(word * _MIX_MULT_L & _MASK32)
                 - hashed * np.uint32(_MIX_MULT_R))
        mixed ^= mixed >> 16
        pool.append(mixed)

    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # paired low word first into the 64-bit words (s_hi, s_lo, i_hi, i_lo).
    hash_const = _INIT_B
    words = []
    for i in range(8):
        word, hash_const = _hashmix(pool[i % 4], hash_const, _MULT_B)
        words.append(word.astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (
        (words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist()
        for k in range(4))

    # PCG64's set-seed step: inc = 2 * initseq + 1, then two LCG steps with
    # initstate added in between.
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128,
                       inc))
    return states


def simulate_paths(scenario: Scenario, n_paths: int, seed: int) -> DemandPaths:
    """Simulate ``n_paths`` demand paths over the scenario horizon.

    Returns a tensor of shape [n_paths, len(horizon_steps), n_sub, n_sub]
    starting from the first horizon step (t0 demand is the scenario's
    ``base_demand``).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    sigma = scenario.sigma_by_origin()
    mu = scenario.drift
    n = scenario.n_subzones
    times = np.concatenate(([0.0], np.asarray(scenario.horizon_steps)))
    deltas = np.diff(times)                     # [T]
    t = len(deltas)
    drift_term = (mu - 0.5 * sigma[None, :, :] ** 2) * deltas[:, None, None]
    vol_term = sigma[None, :, :] * np.sqrt(deltas)[:, None, None]

    # Each path's normals go straight into its slot from one reused
    # generator set to the path's state; the log-scheme then runs in place
    # over the whole tensor.  The stepwise sum adds in cumsum's order, so it
    # equals cumsum along the strided step axis bit for bit, at less cost.
    out = np.empty((n_paths, t, n, n))
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for p, (state, inc) in enumerate(_path_states(seed, n_paths)):
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=out[p])
    out *= vol_term
    out += drift_term
    for k in range(1, t):
        out[:, k] += out[:, k - 1]
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
