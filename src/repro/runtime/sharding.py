"""Deterministic shard planning for the acquisition engine.

The engine's reproducibility guarantee rests on two facts encoded here:

* the shard plan for a workload depends only on ``(n_items,
  shard_size)`` — never on the worker count — so every run partitions
  the work identically; and
* each shard's random stream is a child of the root
  :class:`numpy.random.SeedSequence` spawned *by shard index*, so a
  shard draws the same numbers whether it runs in the parent process,
  the first worker or the last.

Worker count therefore only changes scheduling, never content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from repro.errors import ConfigurationError

SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a sharded workload."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Items in this shard."""
        return self.stop - self.start

    @property
    def slice(self) -> slice:
        """The shard's rows of the campaign's outputs."""
        return slice(self.start, self.stop)


def plan_shards(n_items: int, shard_size: int) -> List[Shard]:
    """Partition ``n_items`` into contiguous shards of ``shard_size``
    (the last shard may be short).  The plan is a pure function of its
    arguments — worker count plays no role."""
    if n_items <= 0:
        raise ConfigurationError("n_items must be positive")
    if shard_size <= 0:
        raise ConfigurationError("shard_size must be positive")
    return [
        Shard(index=i, start=start, stop=min(start + shard_size, n_items))
        for i, start in enumerate(range(0, n_items, shard_size))
    ]


def root_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize a seed argument into a :class:`numpy.random.SeedSequence`.

    Generators are deliberately rejected: a generator's future output
    depends on how much of it has already been consumed, which would tie
    results to execution order — exactly what sharding must avoid.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        raise ConfigurationError(
            "the acquisition engine needs an integer seed or a "
            "SeedSequence, not a Generator: per-shard streams must be "
            "spawnable independently of execution order"
        )
    return np.random.SeedSequence(seed)


def spawn_shard_sequences(
    seed: SeedLike, n_shards: int
) -> List[np.random.SeedSequence]:
    """Per-shard child seed sequences, one per shard, in shard order."""
    return root_sequence(seed).spawn(n_shards)
