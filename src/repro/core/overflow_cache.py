"""Wide-entry overflow cache — the §7 "future work" scheme, as an extension.

"As suggested in [Archibald], we can associate small directory entries
with each memory block and allow these to overflow into a small cache of
much wider entries."

Every block gets ``i`` pointers.  When a block's sharer count exceeds
``i``, its sharers move into a shared, fully-associative *overflow cache*
of full-bit-vector entries.  If the overflow cache is itself full, the
least-recently-used wide entry is pushed out and its block falls back to a
broadcast bit in its small entry (coherence stays conservative).

The ablation bench compares this against ``Dir_iCV_r`` for the same
storage budget.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Tuple

from repro.core.base import (
    DirectoryScheme,
    PointerListEntry,
    bitmask_nodes,
    check_node,
    expand_exclude,
    pointer_bits,
)


class _WideStore:
    """Shared LRU cache of full-bit-vector masks, keyed by entry identity."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._masks: "OrderedDict[int, int]" = OrderedDict()

    def get(self, key: int) -> int | None:
        mask = self._masks.get(key)
        if mask is not None:
            self._masks.move_to_end(key)
        return mask

    def put(self, key: int, mask: int) -> Tuple[int, int] | None:
        """Insert/update; returns an evicted (key, mask) pair if any."""
        evicted = None
        if key not in self._masks and len(self._masks) >= self.capacity:
            evicted = self._masks.popitem(last=False)
        self._masks[key] = mask
        self._masks.move_to_end(key)
        return evicted

    def drop(self, key: int) -> None:
        self._masks.pop(key, None)

    def __len__(self) -> int:
        return len(self._masks)


class OverflowCacheEntry(PointerListEntry):
    """Small entry: ``i`` pointers, a wide-mode flag, and a broadcast bit."""

    __slots__ = ("key", "wide", "broadcast")

    def __init__(self, scheme: "OverflowCacheScheme") -> None:
        super().__init__(scheme)
        self.key = scheme._next_key()
        self.wide = False
        self.broadcast = False

    def _pointer_limit(self) -> int:
        return self.scheme.num_pointers

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        check_node(node, self.scheme.num_nodes)
        if self.broadcast:
            return ()
        store = self.scheme.wide_store
        if self.wide:
            mask = store.get(self.key)
            if mask is None:
                # Our wide entry was evicted behind our back; degrade.
                self.wide = False
                self.broadcast = True
                return ()
            store.put(self.key, mask | (1 << node))
            return ()
        handled = self._record_pointer(node)
        if handled is not None:
            return handled
        # Overflow into the wide store.
        mask = 1 << node
        for n in self.pointers:
            mask |= 1 << n
        evicted = store.put(self.key, mask)
        self.wide = True
        self.pointers.clear()
        if evicted is not None:
            evicted_key, _ = evicted
            self.scheme._mark_broadcast(evicted_key)
        return ()

    def remove_sharer(self, node: int) -> None:
        if self.broadcast:
            return
        if self.wide:
            mask = self.scheme.wide_store.get(self.key)
            if mask is not None:
                self.scheme.wide_store.put(self.key, mask & ~(1 << node))
            return
        self._remove_pointer(node)

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        if self.broadcast:
            return expand_exclude(range(self.scheme.num_nodes), exclude)
        if self.wide:
            mask = self.scheme.wide_store.get(self.key)
            if mask is None:  # evicted behind our back
                return expand_exclude(range(self.scheme.num_nodes), exclude)
            return expand_exclude(bitmask_nodes(mask), exclude)
        return expand_exclude(self.pointers, exclude)

    def is_exact(self) -> bool:
        if self.broadcast:
            return False
        if self.wide:
            return self.scheme.wide_store.get(self.key) is not None
        return True

    def reset(self) -> None:
        if self.wide:
            self.scheme.wide_store.drop(self.key)
        self.pointers.clear()
        self.wide = False
        self.broadcast = False

    def is_empty(self) -> bool:
        if self.broadcast:
            return False
        if self.wide:
            mask = self.scheme.wide_store.get(self.key)
            return mask == 0 if mask is not None else False
        return not self.pointers


class OverflowCacheScheme(DirectoryScheme):
    """``Dir_i`` pointers with a shared wide-entry overflow cache."""

    precision = "coarse"  # falls back to broadcast when the cache is full

    def __init__(
        self,
        num_nodes: int,
        num_pointers: int = 3,
        overflow_entries: int = 64,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        if overflow_entries < 1:
            raise ValueError("need at least one overflow entry")
        self.num_pointers = num_pointers
        self.overflow_entries = overflow_entries
        self.wide_store = _WideStore(overflow_entries)
        self.name = f"Dir{num_pointers}OF{overflow_entries}"
        self._key_counter = 0
        self._entries: Dict[int, OverflowCacheEntry] = {}

    def _next_key(self) -> int:
        self._key_counter += 1
        return self._key_counter

    def make_entry(self) -> OverflowCacheEntry:
        entry = OverflowCacheEntry(self)
        self._entries[entry.key] = entry
        return entry

    def _mark_broadcast(self, key: int) -> None:
        entry = self._entries.get(key)
        if entry is not None and entry.wide:
            entry.wide = False
            entry.broadcast = True

    def presence_bits(self) -> int:
        # Per-block cost: i pointers + wide flag + broadcast bit.  The
        # shared wide store is amortized over all blocks; overhead.py
        # accounts for it machine-wide.
        return self.num_pointers * pointer_bits(self.num_nodes) + 2

    def shared_bits(self) -> int:
        """Machine-wide bits of the shared wide-entry cache."""
        # Each wide entry: a full bit vector + a block-address tag
        # (conservatively 32 bits) per entry.
        return self.overflow_entries * (self.num_nodes + 32)
