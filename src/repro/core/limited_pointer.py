"""Limited pointer schemes ``Dir_iB`` and ``Dir_iNB`` (Sections 3.2.1-3.2.2).

Both keep ``i`` pointers of ``log2(N)`` bits each and differ only in how
they survive pointer overflow:

* ``Dir_iB`` sets a *broadcast bit*; the next write invalidates everybody
  (minus requester/home), which is cheap to represent but floods the
  machine when the sharer count is just above ``i``.
* ``Dir_iNB`` refuses to overflow: it invalidates one existing sharer to
  make room, so *reads* now cause invalidations and widely read-shared
  data (LU's pivot column, DWF's pattern/library arrays) thrashes.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro.core.base import (
    DirectoryScheme,
    PointerListEntry,
    check_node,
    expand_exclude,
    pointer_bits,
)


class BroadcastEntry(PointerListEntry):
    """``Dir_iB`` entry: ``i`` pointers plus a sticky broadcast bit."""

    __slots__ = ("broadcast",)

    def __init__(self, scheme: "LimitedPointerBroadcastScheme") -> None:
        super().__init__(scheme)
        self.broadcast = False

    def _pointer_limit(self) -> int:
        return self.scheme.num_pointers

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        if self.broadcast:
            check_node(node, self.scheme.num_nodes)
            return ()
        handled = self._record_pointer(node)
        if handled is None:
            # Pointer overflow: fall back to broadcast.  The pointers are
            # now meaningless — any node may be a sharer.
            self.broadcast = True
            self.pointers.clear()
            return ()
        return handled

    def remove_sharer(self, node: int) -> None:
        if not self.broadcast:
            self._remove_pointer(node)
        # In broadcast mode individual removals are unrepresentable; the
        # broadcast bit stays conservative.

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        if self.broadcast:
            return expand_exclude(range(self.scheme.num_nodes), exclude)
        return expand_exclude(self.pointers, exclude)

    def is_exact(self) -> bool:
        return not self.broadcast

    def reset(self) -> None:
        self.pointers.clear()
        self.broadcast = False

    def is_empty(self) -> bool:
        return not self.broadcast and not self.pointers

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        if not self.broadcast:
            return self._pointers_sorted(exclude)
        excluded = set(exclude)
        return [
            n for n in range(self.scheme.num_nodes) if n not in excluded
        ]


class LimitedPointerBroadcastScheme(DirectoryScheme):
    """``Dir_iB`` from Agarwal et al. [1], the paper's main strawman."""

    precision = "coarse"  # the broadcast bit covers everyone

    def __init__(self, num_nodes: int, num_pointers: int = 3, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        self.num_pointers = num_pointers
        self.name = f"Dir{num_pointers}B"

    def make_entry(self) -> BroadcastEntry:
        return BroadcastEntry(self)

    def presence_bits(self) -> int:
        # i pointers plus the broadcast bit.
        return self.num_pointers * pointer_bits(self.num_nodes) + 1


class NoBroadcastEntry(PointerListEntry):
    """``Dir_iNB`` entry: always exact, never more than ``i`` sharers."""

    __slots__ = ()

    def _pointer_limit(self) -> int:
        return self.scheme.num_pointers

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        handled = self._record_pointer(node)
        if handled is not None:
            return handled
        # Overflow: invalidate one current sharer to make room.  The paper
        # leaves victim choice unspecified; we pick uniformly at random
        # from the scheme's seeded RNG so runs stay deterministic.
        victim_index = self.scheme.rng.randrange(len(self.pointers))
        victim = self.pointers[victim_index]
        self.pointers[victim_index] = node
        return (victim,)

    def remove_sharer(self, node: int) -> None:
        self._remove_pointer(node)

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        return expand_exclude(self.pointers, exclude)

    def is_exact(self) -> bool:
        return True

    def reset(self) -> None:
        self.pointers.clear()

    def is_empty(self) -> bool:
        return not self.pointers

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        return self._pointers_sorted(exclude)


class LimitedPointerNoBroadcastScheme(DirectoryScheme):
    """``Dir_iNB`` from Agarwal et al. [1]: overflow evicts a sharer."""

    def __init__(self, num_nodes: int, num_pointers: int = 3, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        self.num_pointers = num_pointers
        self.name = f"Dir{num_pointers}NB"

    def make_entry(self) -> NoBroadcastEntry:
        return NoBroadcastEntry(self)

    def presence_bits(self) -> int:
        return self.num_pointers * pointer_bits(self.num_nodes)
