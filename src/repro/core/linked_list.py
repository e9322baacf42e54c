"""SCI-style cache-based linked-list directory (§3.3) — extension.

The paper compares memory-based directories *qualitatively* against
cache-based linked lists (the nascent Scalable Coherent Interface): each
directory entry is a doubly-linked list threaded through the sharer
caches, with head/tail pointers in memory.  It scales naturally (sharer
storage grows with cache capacity) but invalidations are *serial* — the
list is unraveled cache by cache — and the protocol needs fast cache
memory for the link pointers.

We implement it so the ablation bench ``bench_ablation_linked_list`` can
quantify that serial-invalidation penalty against ``Dir_N``/``Dir_iCV_r``.
Within the common :class:`DirectoryEntry` protocol the sharer set is
exact; the distinguishing feature is the ordered :meth:`invalidation_chain`
plus the ``serial_invalidations`` flag the DASH directory controller
honours when scheduling invalidation messages.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Tuple

from repro.core.base import (
    DirectoryEntry,
    DirectoryScheme,
    check_node,
    expand_exclude,
    pointer_bits,
)


class LinkedListEntry(DirectoryEntry):
    """Exact, ordered sharer list; new sharers attach at the head (SCI)."""

    __slots__ = ("num_nodes", "chain")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.chain: List[int] = []  # head first

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        check_node(node, self.num_nodes)
        if node in self.chain:
            # Re-reading moves the cache to the head of the list in SCI;
            # model that so invalidation order tracks recency.
            self.chain.remove(node)
        self.chain.insert(0, node)
        return ()

    def remove_sharer(self, node: int) -> None:
        # Rollout: a cache replacing the line splices itself out of the
        # list; the linked list supports this exactly (unlike the coarse
        # representations).
        try:
            self.chain.remove(node)
        except ValueError:
            pass

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        return expand_exclude(self.chain, exclude)

    def invalidation_chain(self, exclude: Iterable[int] = ()) -> Tuple[int, ...]:
        """Sharers in unravel order (head first), minus ``exclude``."""
        excluded = set(exclude)
        return tuple(n for n in self.chain if n not in excluded)

    def is_exact(self) -> bool:
        return True

    def reset(self) -> None:
        self.chain.clear()

    def is_empty(self) -> bool:
        return not self.chain


class LinkedListScheme(DirectoryScheme):
    """Cache-based doubly-linked list directory (SCI-flavoured)."""

    #: the directory controller serializes invalidations for this scheme:
    #: each invalidation may only be sent once the previous ack returned.
    serial_invalidations = True

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        self.name = f"DirLL{num_nodes}"

    def make_entry(self) -> LinkedListEntry:
        return LinkedListEntry(self.num_nodes)

    def presence_bits(self) -> int:
        # Memory-side cost only: head + tail pointers.  The forward/back
        # pointers live in (expensive) cache memory; see
        # ``cache_pointer_bits_per_line`` for that side of the ledger.
        return 2 * pointer_bits(self.num_nodes)

    def cache_pointer_bits_per_line(self) -> int:
        """Forward + back pointer each cache line must carry."""
        return 2 * pointer_bits(self.num_nodes)
