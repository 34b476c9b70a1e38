"""Ordered investment sequences over candidate zones.

A sequence is a permutation of the candidate zones: position h is the h-th
zone added to the service region.  Enumeration is lexicographic so sampling
and tie-breaking are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

ENUMERATION_CAP = 9  # zones; enumeration refuses more than this


@dataclass(frozen=True)
class Sequence:
    """An ordered zone permutation."""

    order: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if len(set(self.order)) != len(self.order):
            raise ValueError(f"sequence repeats zones: {self.order}")

    def __len__(self):
        return len(self.order)

    def __iter__(self):
        return iter(self.order)

    def __str__(self):
        return ",".join(self.order)

    @classmethod
    def parse(cls, text: str) -> "Sequence":
        return cls(tuple(z.strip() for z in text.split(",") if z.strip()))


def enumerate_sequences(zones) -> list[Sequence]:
    """All H! orderings of ``zones``, lexicographically sorted.

    Raises if H exceeds ``ENUMERATION_CAP``; :func:`sample_sequences`
    enumerates too, so the cap bounds both.
    """
    ids = sorted(set(zones))
    if not ids:
        raise ValueError("zones must be nonempty")
    if len(ids) > ENUMERATION_CAP:
        raise ValueError(
            f"{len(ids)} zones exceed the enumeration cap of "
            f"{ENUMERATION_CAP} ({len(ids)}! sequences); the cap also applies "
            f"to sample_sequences, which enumerates them all")
    return [Sequence(p) for p in itertools.permutations(ids)]


def check_fraction(fraction: float) -> None:
    """Reject a sampling fraction outside (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")


def sample_sequences(zones, fraction: float, seed: int):
    """Uniform sample without replacement of round(fraction * H!) sequences.

    Returns ``(sampled, remaining)``; the two lists partition the full
    enumeration and the split is deterministic per seed.
    """
    check_fraction(fraction)
    population = enumerate_sequences(zones)
    m = int(round(fraction * len(population)))
    if m < 1:
        raise ValueError(
            f"fraction {fraction} of {len(population)} sequences rounds to an "
            f"empty sample")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(population), size=m, replace=False)
    chosen = set(picked.tolist())
    sampled = [population[i] for i in picked]
    remaining = [s for i, s in enumerate(population) if i not in chosen]
    return sampled, remaining
