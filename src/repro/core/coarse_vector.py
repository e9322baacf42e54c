"""The coarse vector scheme ``Dir_iCV_r`` — the paper's first proposal (§4.1).

While at most ``i`` nodes share a block the entry behaves exactly like a
limited-pointer directory.  On overflow the same storage is reinterpreted
as a *coarse bit vector*: one bit per region of ``r`` consecutive nodes.
Invalidations go to every node of every marked region — a superset of the
true sharers, but a far tighter one than broadcast (``Dir_iB``) or the
composite pointer (``Dir_iX``), and unlike ``Dir_iNB`` no sharer is ever
evicted early.

With all region bits set, a broadcast is achieved, so ``Dir_iCV_r`` is
never worse than ``Dir_iB`` for the same storage (the paper's key claim).
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterable, Tuple

from repro.core.base import (
    DirectoryScheme,
    PointerListEntry,
    check_node,
    expand_exclude,
    nodes_in_regions,
    pointer_bits,
)


class CoarseVectorEntry(PointerListEntry):
    """``Dir_iCV_r`` entry: pointer list that degrades into region bits."""

    __slots__ = ("region_mask", "coarse")

    def __init__(self, scheme: "CoarseVectorScheme") -> None:
        super().__init__(scheme)
        self.region_mask = 0
        self.coarse = False

    def _pointer_limit(self) -> int:
        return self.scheme.num_pointers

    def _region_of(self, node: int) -> int:
        return node // self.scheme.region_size

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        if self.coarse:
            scheme = self.scheme
            if not 0 <= node < scheme.num_nodes:
                check_node(node, scheme.num_nodes)  # raises the range error
            self.region_mask |= 1 << (node // scheme.region_size)
            return ()
        handled = self._record_pointer(node)
        if handled is not None:
            return handled
        # Pointer overflow: switch representations.  The same storage now
        # holds one bit per region; seed it from the current pointers plus
        # the newcomer, then drop the pointers.
        self.coarse = True
        self.region_mask = 0
        for n in self.pointers:
            self.region_mask |= 1 << self._region_of(n)
        self.region_mask |= 1 << self._region_of(node)
        self.pointers.clear()
        return ()

    def remove_sharer(self, node: int) -> None:
        if not self.coarse:
            self._remove_pointer(node)
            return
        # A region bit covers r nodes; clearing it could lose other
        # sharers in the same region.  Only safe when r == 1 (the coarse
        # vector then *is* a full bit vector over the nodes).
        if self.scheme.region_size == 1:
            self.region_mask &= ~(1 << self._region_of(node))

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        if not self.coarse:
            return expand_exclude(self.pointers, exclude)
        covered = nodes_in_regions(
            self.region_mask, self.scheme.region_size, self.scheme.num_nodes
        )
        return expand_exclude(covered, exclude)

    def is_exact(self) -> bool:
        return not self.coarse or self.scheme.region_size == 1

    def reset(self) -> None:
        self.pointers.clear()
        self.region_mask = 0
        self.coarse = False

    def is_empty(self) -> bool:
        if self.coarse:
            return self.region_mask == 0
        return not self.pointers

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        if not self.coarse:
            return self._pointers_sorted(exclude)
        # Ascending region scan expands each marked region in node order,
        # so the concatenation is already sorted.
        excluded = set(exclude)
        region_size = self.scheme.region_size
        num_nodes = self.scheme.num_nodes
        mask = self.region_mask
        out = []
        while mask:
            low = mask & -mask
            start = (low.bit_length() - 1) * region_size
            for n in range(start, min(start + region_size, num_nodes)):
                if n not in excluded:
                    out.append(n)
            mask ^= low
        return out


class CoarseVectorScheme(DirectoryScheme):
    """``Dir_iCV_r``: ``i`` pointers, overflow to regions of ``r`` nodes."""

    precision = "coarse"  # region bits cover supersets after overflow

    def __init__(
        self,
        num_nodes: int,
        num_pointers: int = 3,
        region_size: int = 2,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        if region_size < 1:
            raise ValueError("region size must be >= 1")
        self.num_pointers = num_pointers
        self.region_size = region_size
        self.num_regions = math.ceil(num_nodes / region_size)
        self.name = f"Dir{num_pointers}CV{region_size}"

    @classmethod
    def for_bit_budget(
        cls, num_nodes: int, budget_bits: int, *, seed: int = 0
    ) -> "CoarseVectorScheme":
        """Pick (i, r) for a presence-bit budget, the way a designer would.

        Uses as many pointers as fit in the budget, then sizes regions so
        the coarse vector also fits in the same storage (§4.1: "the region
        size r is determined by the number of directory memory bits
        available").
        """
        width = pointer_bits(num_nodes)
        num_pointers = max(1, budget_bits // width)
        vector_bits = num_pointers * width
        region_size = max(1, math.ceil(num_nodes / vector_bits))
        return cls(num_nodes, num_pointers, region_size, seed=seed)

    def make_entry(self) -> CoarseVectorEntry:
        return CoarseVectorEntry(self)

    def presence_bits(self) -> int:
        # The two representations share storage; account for the larger,
        # plus one mode bit.
        pointer_storage = self.num_pointers * pointer_bits(self.num_nodes)
        return max(pointer_storage, self.num_regions) + 1
