"""Full bit vector directory (``Dir_N``), Section 3.1 of the paper.

One presence bit per node gives the directory full knowledge of who
caches each block: invalidation traffic is the minimum any
invalidation-based protocol can achieve, but presence storage grows as
``num_nodes`` bits per block — O(P^2) for the whole machine when memory
grows with the processor count, which is what motivates the paper.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro.core.base import (
    DirectoryEntry,
    DirectoryScheme,
    bitmask_nodes,
    check_node,
    expand_exclude,
)


class FullBitVectorEntry(DirectoryEntry):
    """Exact sharer set, stored as a Python int used as a bitset."""

    __slots__ = ("num_nodes", "mask")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.mask = 0

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        check_node(node, self.num_nodes)
        self.mask |= 1 << node
        return ()

    def remove_sharer(self, node: int) -> None:
        check_node(node, self.num_nodes)
        self.mask &= ~(1 << node)

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        return expand_exclude(bitmask_nodes(self.mask), exclude)

    def is_exact(self) -> bool:
        return True

    def reset(self) -> None:
        self.mask = 0

    def is_empty(self) -> bool:
        return self.mask == 0

    def might_share(self, node: int) -> bool:
        return bool(self.mask >> node & 1)

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        # Ascending bit-scan over the presence mask; clearing the excluded
        # bits first keeps the loop branch-free.
        mask = self.mask
        for n in exclude:
            mask &= ~(1 << n)
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out


class FullBitVectorScheme(DirectoryScheme):
    """``Dir_N``: the exact baseline every other scheme is measured against."""

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        self.name = f"Dir{num_nodes}"

    def make_entry(self) -> FullBitVectorEntry:
        return FullBitVectorEntry(self.num_nodes)

    def presence_bits(self) -> int:
        return self.num_nodes
