"""Abstract directory-entry protocol shared by all schemes.

A *directory entry* records which nodes (clusters in DASH terminology) may
hold a cached copy of one memory block.  Every scheme in the paper differs
only in how it represents that set:

* exactly (full bit vector),
* as a handful of pointers (limited pointer schemes),
* as a handful of pointers that degrade into a coarse region vector
  (the paper's coarse vector proposal), or
* as a composite ternary pointer (the superset scheme).

The contract is deliberately *conservative*: ``invalidation_targets`` may
return a superset of the true sharers (extraneous invalidations are the
price the cheap representations pay) but must never return a proper
subset, because missing an invalidation would break coherence.  The single
exception is ``Dir_iNB``, which avoids supersets by forcibly evicting
sharers at *record* time: ``record_sharer`` returns the nodes that must be
invalidated immediately to keep the representation exact.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, Optional, Tuple


class DirectoryEntry(ABC):
    """Presence bookkeeping for a single memory block.

    Entries are mutable value objects; the machinery above them (the
    :class:`~repro.core.sparse.DirectoryStore` implementations and the DASH
    directory controller) owns dirty/owner state transitions and decides
    *when* to consult the entry.
    """

    __slots__ = ()

    @abstractmethod
    def record_sharer(self, node: int) -> Tuple[int, ...]:
        """Note that ``node`` now caches the block.

        Returns a (possibly empty) tuple of nodes that must be invalidated
        *now* to make room.  Only ``Dir_iNB`` ever returns a non-empty
        tuple; every other scheme absorbs the new sharer by widening its
        representation.
        """

    @abstractmethod
    def remove_sharer(self, node: int) -> None:
        """Best-effort removal (replacement hint / writeback).

        Coarse representations may be unable to remove a single node (a
        region bit covers ``r`` nodes); they must stay conservative and
        keep the node covered rather than drop other possible sharers.
        """

    @abstractmethod
    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        """Every node that must receive an invalidation, minus ``exclude``.

        Guaranteed to be a superset of the true sharers (minus
        ``exclude``); equality holds only while the representation is
        exact.
        """

    @abstractmethod
    def is_exact(self) -> bool:
        """True while the representation still identifies sharers exactly."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all sharers (after an invalidation round completes)."""

    # -- conveniences shared by all implementations ---------------------

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        """``sorted(invalidation_targets(exclude))``, the hot-path form.

        The directory controller walks invalidation targets in ascending
        node order; schemes with bitmask representations override this
        with a bit-scan that yields the identical list without building
        the intermediate frozenset.
        """
        return sorted(self.invalidation_targets(exclude))

    def is_empty(self) -> bool:
        """True when no node is (conservatively) recorded as a sharer."""
        return not self.invalidation_targets()

    def might_share(self, node: int) -> bool:
        """Conservatively: could ``node`` hold a copy?"""
        return node in self.invalidation_targets()


class DirectoryScheme(ABC):
    """Factory plus metadata for one directory organization.

    ``num_nodes`` is the number of coherence participants the directory
    tracks — *clusters* in DASH.  Schemes that make randomized choices
    (victim selection in ``Dir_iNB``) draw from ``self.rng`` so whole
    simulations stay deterministic under a fixed seed.
    """

    #: short identifier, e.g. ``"Dir32"`` or ``"Dir3CV2"``
    name: str

    #: The scheme's representation contract, consumed by the runtime
    #: invariant checker (:mod:`repro.machine.invariants`):
    #:
    #: * ``"exact"`` — every entry identifies its sharers exactly at all
    #:   times (full bit vector, Dir_iNB, the SCI linked list); an entry
    #:   of such a scheme reporting ``is_exact() == False`` is a
    #:   representation bug, not a legal degradation;
    #: * ``"coarse"`` — entries may degrade to a conservative *superset*
    #:   on pointer overflow (Dir_iB's broadcast bit, Dir_iCV_r's region
    #:   vector, Dir_iX's composite pointer, the overflow cache).
    #:
    #: Either way ``invalidation_targets`` must cover the true sharers —
    #: the checker verifies coverage for all schemes and exactness only
    #: for ``"exact"`` ones.
    precision: str = "exact"

    def __init__(self, num_nodes: int, *, seed: int = 0) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self.rng = random.Random(seed)

    @abstractmethod
    def make_entry(self) -> DirectoryEntry:
        """A fresh, empty entry."""

    @abstractmethod
    def presence_bits(self) -> int:
        """Bits of directory memory one entry spends on sharer bookkeeping.

        Excludes the dirty bit and any sparse-directory tag/valid bits;
        :mod:`repro.core.overhead` composes those.
        """

    def entry_bits(self, *, tag_bits: int = 0) -> int:
        """Total bits per entry: presence + 1 dirty bit + optional tag."""
        return self.presence_bits() + 1 + tag_bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} nodes={self.num_nodes}>"


def pointer_bits(num_nodes: int) -> int:
    """Bits needed for one node pointer: ``ceil(log2(num_nodes))``."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    return max(1, (num_nodes - 1).bit_length())


def expand_exclude(
    targets: Iterable[int], exclude: Iterable[int]
) -> FrozenSet[int]:
    """Frozen target set minus the excluded nodes."""
    excluded = set(exclude)
    return frozenset(t for t in targets if t not in excluded)


def check_node(node: int, num_nodes: int) -> None:
    """Raise ValueError unless ``0 <= node < num_nodes``."""
    if not 0 <= node < num_nodes:
        raise ValueError(f"node {node} out of range [0, {num_nodes})")


class PointerListEntry(DirectoryEntry):
    """Shared plumbing for schemes that start life as a pointer list.

    Subclasses define what happens on pointer overflow by overriding
    :meth:`_overflow`.
    """

    __slots__ = ("scheme", "pointers")

    def __init__(self, scheme: "DirectoryScheme") -> None:
        self.scheme = scheme
        self.pointers: list[int] = []

    # subclasses may switch representations; this helper keeps pointer
    # handling uniform while the entry is still in pointer mode.
    def _record_pointer(self, node: int) -> Optional[Tuple[int, ...]]:
        """Add to the pointer list if possible.

        Returns the eviction tuple (usually empty) when the add was
        handled in pointer mode, or ``None`` when the list is full and the
        subclass must handle overflow.
        """
        num_nodes = self.scheme.num_nodes
        if not 0 <= node < num_nodes:
            check_node(node, num_nodes)  # raises the range error
        pointers = self.pointers
        if node in pointers:
            return ()
        if len(pointers) < self._pointer_limit():
            pointers.append(node)
            return ()
        return None

    def _pointer_limit(self) -> int:
        raise NotImplementedError

    def _remove_pointer(self, node: int) -> None:
        try:
            self.pointers.remove(node)
        except ValueError:
            pass

    def _pointers_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        """Pointer-mode fast path for :meth:`targets_sorted`."""
        pointers = self.pointers
        if not pointers:  # the common write miss: no sharers to invalidate
            return []
        excluded = set(exclude)
        return sorted(p for p in pointers if p not in excluded)


def nodes_in_regions(region_mask: int, region_size: int, num_nodes: int) -> FrozenSet[int]:
    """Expand a coarse region bitmask into the node ids it covers."""
    covered = []
    mask = region_mask
    region = 0
    while mask:
        if mask & 1:
            start = region * region_size
            covered.extend(range(start, min(start + region_size, num_nodes)))
        mask >>= 1
        region += 1
    return frozenset(covered)


def popcount(value: int) -> int:
    """Number of set bits (kept as a named helper for readability)."""
    return value.bit_count()


def bitmask_nodes(mask: int) -> FrozenSet[int]:
    """Node ids with their bit set in ``mask``."""
    out = []
    node = 0
    while mask:
        if mask & 1:
            out.append(node)
        mask >>= 1
        node += 1
    return frozenset(out)
