"""Replacement policies for set-associative structures (§6.3.2).

The paper compares three policies for the sparse directory: LRU (best,
hardest to build), random (easiest, surprisingly good), and LRA
(least-recently-allocated, worse than random because an early-allocated
but hot entry keeps getting victimized).

The same policy objects drive the processor caches, so one implementation
is exercised everywhere.  State is kept per (set, way) as integer
timestamps from a monotonic counter — cheap, deterministic, and
sufficient to order accesses/allocations.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Sequence


class ReplacementPolicy(ABC):
    """Victim selection over a ``num_sets`` x ``associativity`` structure."""

    name: str = "base"

    def __init__(self, num_sets: int, associativity: int, *, seed: int = 0) -> None:
        if num_sets < 1 or associativity < 1:
            raise ValueError("num_sets and associativity must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self.rng = random.Random(seed)
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def touch(self, set_index: int, way: int) -> None:
        """Record a (read or write) access to an occupied way."""

    def allocate(self, set_index: int, way: int) -> None:
        """Record that a way was (re)filled with a new tag."""

    @abstractmethod
    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        """Pick the way to evict among the candidate ``ways`` (all valid)."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: evict the way with the oldest access."""

    name = "lru"

    def __init__(self, num_sets: int, associativity: int, *, seed: int = 0) -> None:
        super().__init__(num_sets, associativity, seed=seed)
        self._last_access: List[List[int]] = [
            [0] * associativity for _ in range(num_sets)
        ]

    def touch(self, set_index: int, way: int) -> None:
        self._last_access[set_index][way] = self._tick()

    def allocate(self, set_index: int, way: int) -> None:
        self._last_access[set_index][way] = self._tick()

    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        stamps = self._last_access[set_index]
        return min(ways, key=lambda w: stamps[w])


class LRAPolicy(ReplacementPolicy):
    """Least-recently-allocated: ignores accesses, orders by fill time."""

    name = "lra"

    def __init__(self, num_sets: int, associativity: int, *, seed: int = 0) -> None:
        super().__init__(num_sets, associativity, seed=seed)
        self._alloc_time: List[List[int]] = [
            [0] * associativity for _ in range(num_sets)
        ]

    def allocate(self, set_index: int, way: int) -> None:
        self._alloc_time[set_index][way] = self._tick()

    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        stamps = self._alloc_time[set_index]
        return min(ways, key=lambda w: stamps[w])


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim, from a seeded RNG for reproducibility."""

    name = "random"

    def choose_victim(self, set_index: int, ways: Sequence[int]) -> int:
        return ways[self.rng.randrange(len(ways))]


_POLICIES = {
    "lru": LRUPolicy,
    "lra": LRAPolicy,
    "random": RandomPolicy,
    "rand": RandomPolicy,
}


def make_policy(
    name: str, num_sets: int, associativity: int, *, seed: int = 0
) -> ReplacementPolicy:
    """Build a policy by name (``"lru"``, ``"lra"``, ``"random"``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(set(_POLICIES))}"
        ) from None
    return cls(num_sets, associativity, seed=seed)
