"""Processor caches: set-associative levels with DASH's 3-state protocol.

States are per-line: INVALID (absent), SHARED (clean, possibly replicated
machine-wide), DIRTY (modified, exclusive machine-wide at cluster
granularity).  The hierarchy follows the DASH prototype: a write-through
primary cache that only filters hits, and a write-back secondary cache
that is the coherence point (inclusion is enforced — invalidating or
evicting an L2 line purges the L1 copy).

Each set is a plain insertion-ordered ``dict`` tag->state used as an LRU
stack: lookups re-insert lines at the MRU end; victims pop from the LRU
end (the first key in insertion order).  Dirty evictions park the block
in a *writeback buffer* until the home directory has processed the
writeback, so a forwarded request racing the writeback still finds the
data — exactly the role of DASH's writeback buffers.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import NULL_TRACER


class LineState(IntEnum):
    """Cache-line coherence state; absence from the cache means INVALID."""

    SHARED = 1
    DIRTY = 2


# The members as plain module constants: loading an enum member through
# its class costs several times a global load on the per-fill paths.
SHARED = LineState.SHARED
DIRTY = LineState.DIRTY


class CacheLevel:
    """One set-associative cache level (tags only; no data is simulated)."""

    __slots__ = ("num_sets", "assoc", "_sets")

    def __init__(self, capacity_bytes: int, block_bytes: int, assoc: int) -> None:
        capacity_blocks = max(1, capacity_bytes // block_bytes)
        assoc = min(assoc, capacity_blocks)
        self.assoc = assoc
        self.num_sets = max(1, capacity_blocks // assoc)
        self._sets: List[Dict[int, LineState]] = [
            {} for _ in range(self.num_sets)
        ]

    def lookup(self, block: int) -> Optional[LineState]:
        """State of ``block`` if present; refreshes LRU position."""
        s = self._sets[block % self.num_sets]
        state = s.pop(block, None)
        if state is not None:
            s[block] = state  # re-insert at the MRU end
        return state

    def peek(self, block: int) -> Optional[LineState]:
        """State without touching LRU (for snoops and invariant checks)."""
        return self._sets[block % self.num_sets].get(block)

    def install(
        self, block: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        """Fill ``block``; returns the evicted ``(block, state)`` if any."""
        s = self._sets[block % self.num_sets]
        if s.pop(block, None) is not None:
            s[block] = state  # refresh state and LRU position
            return None
        victim = None
        if len(s) >= self.assoc:
            vblock = next(iter(s))  # LRU end: oldest insertion
            victim = (vblock, s.pop(vblock))
        s[block] = state
        return victim

    def set_state(self, block: int, state: LineState) -> None:
        """Change an existing line's state (no LRU side effects)."""
        s = self._sets[block % self.num_sets]
        if block in s:
            s[block] = state

    def invalidate(self, block: int) -> Optional[LineState]:
        """Drop ``block``; returns its state if it was present."""
        return self._sets[block % self.num_sets].pop(block, None)

    def blocks(self) -> Iterator[Tuple[int, LineState]]:
        """Iterate over all (block, state) pairs currently cached."""
        for s in self._sets:
            yield from s.items()

    def occupancy(self) -> int:
        """Number of valid lines held."""
        return sum(len(s) for s in self._sets)


class ProcessorCache:
    """Two-level hierarchy for one processor; L2 is the coherence point."""

    __slots__ = ("l1", "l2", "wb_buffer", "tracer", "tid")

    def __init__(
        self,
        block_bytes: int,
        l1_bytes: int,
        l1_assoc: int,
        l2_bytes: int,
        l2_assoc: int,
        tracer=NULL_TRACER,
        tid: int = 0,
    ) -> None:
        self.l1 = CacheLevel(l1_bytes, block_bytes, l1_assoc)
        self.l2 = CacheLevel(l2_bytes, block_bytes, l2_assoc)
        #: dirty blocks evicted but not yet acknowledged by their home
        self.wb_buffer: set[int] = set()
        #: observability sink (machine-global processor id in ``tid``)
        self.tracer = tracer
        self.tid = tid

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # canonical checkpoint bytes: see DirectoryController.__getstate__
        state = {name: getattr(self, name) for name in self.__slots__}
        state["wb_buffer"] = set(sorted(self.wb_buffer))
        return None, state

    # -- probes (no state change beyond LRU refresh) -----------------------

    def probe_read(self, block: int) -> Optional[str]:
        """``"l1"`` / ``"l2"`` on a read hit, else ``None``.

        The probes run once per shared reference; both inline
        :meth:`CacheLevel.lookup` (pop + re-insert at the MRU end) to
        skip the per-level call overhead on the hot path.
        """
        l1 = self.l1
        s1 = l1._sets[block % l1.num_sets]
        state = s1.pop(block, None)
        l2 = self.l2
        s2 = l2._sets[block % l2.num_sets]
        state2 = s2.pop(block, None)
        if state2 is not None:
            s2[block] = state2  # refresh L2 LRU (inclusion backing line)
        if state is not None:
            s1[block] = state
            return "l1"
        if state2 is not None:
            return "l2"
        return None

    def probe_write(self, block: int) -> Optional[str]:
        """``"hit"`` if writable (L2 DIRTY), ``"upgrade"`` if L2 SHARED."""
        l2 = self.l2
        s2 = l2._sets[block % l2.num_sets]
        state = s2.pop(block, None)
        if state is not None:
            s2[block] = state
        if state is DIRTY:
            self.l1.lookup(block)
            return "hit"
        if state is SHARED:
            return "upgrade"
        return None

    def state(self, block: int) -> Optional[LineState]:
        """Coherence state (L2), no LRU side effects."""
        return self.l2.peek(block)

    def has_copy(self, block: int) -> bool:
        """A live (L2) copy exists, any state."""
        return self.l2.peek(block) is not None

    def holds_dirty(self, block: int) -> bool:
        """Dirty either in L2 or parked in the writeback buffer."""
        return self.l2.peek(block) is DIRTY or block in self.wb_buffer

    # -- state transitions -------------------------------------------------

    def install(
        self, block: int, state: LineState
    ) -> Tuple[Tuple[int, bool], ...]:
        """Fill both levels; returns the evicted ``(block, was_dirty)`` pairs.

        DIRTY victims are parked in the writeback buffer (the caller must
        issue the writeback); clean victims are reported so the caller
        can send a replacement hint when that option is enabled.  Runs
        once per fill, so both levels' :meth:`CacheLevel.install` are
        inlined (L2 first, then the write-through L1, which is always
        clean and whose victims need no action).
        """
        evictions: Tuple[Tuple[int, bool], ...] = ()
        l1 = self.l1
        l2 = self.l2
        s2 = l2._sets[block % l2.num_sets]
        if s2.pop(block, None) is None and len(s2) >= l2.assoc:
            vblock = next(iter(s2))  # LRU end: oldest insertion
            dirty = s2.pop(vblock) is DIRTY
            l1._sets[vblock % l1.num_sets].pop(vblock, None)  # inclusion
            if dirty:
                self.wb_buffer.add(vblock)
            evictions = ((vblock, dirty),)
            if self.tracer.enabled:
                self.tracer.emit_now(
                    "cache.evict", comp="cache", tid=self.tid,
                    args={"block": vblock, "dirty": dirty},
                )
        s2[block] = state
        s1 = l1._sets[block % l1.num_sets]
        if s1.pop(block, None) is None and len(s1) >= l1.assoc:
            del s1[next(iter(s1))]
        s1[block] = SHARED  # L1 is write-through/clean
        return evictions

    def upgrade(self, block: int) -> None:
        """SHARED -> DIRTY after an ownership grant."""
        self.l2.set_state(block, DIRTY)

    def downgrade(self, block: int) -> bool:
        """DIRTY -> SHARED (read forwarded to this owner).

        Returns True if the line (or its writeback-buffer ghost) was here.
        """
        if self.l2.peek(block) is DIRTY:
            self.l2.set_state(block, SHARED)
            return True
        if block in self.wb_buffer:
            # The forward caught our writeback in flight; the buffer
            # supplies the data and the line is simply gone from here.
            return True
        return False

    def invalidate(self, block: int, txn_id: Optional[int] = None) -> bool:
        """Drop the block everywhere; returns True if a copy existed."""
        had = self.l2.invalidate(block) is not None
        self.l1.invalidate(block)
        had_wb = block in self.wb_buffer
        self.wb_buffer.discard(block)
        if (had or had_wb) and self.tracer.enabled:
            args: Dict[str, object] = {"block": block}
            if txn_id is not None:
                args["txn_id"] = txn_id
            self.tracer.emit_now(
                "cache.inval", comp="cache", tid=self.tid, args=args,
            )
        return had or had_wb

    def writeback_done(self, block: int) -> None:
        """Home has processed our writeback; release the buffer slot."""
        self.wb_buffer.discard(block)

    # -- auditing ----------------------------------------------------------

    def check_inclusion(self) -> List[int]:
        """Blocks violating the inclusion invariant (L1 without L2 backing).

        The L2 is the coherence point: an L1 line the L2 does not back
        would survive invalidations addressed to the L2.  Returns the
        offending blocks (empty when the hierarchy is consistent); the
        runtime invariant checker audits this on every machine scan.
        """
        return [
            block
            for block, _state in self.l1.blocks()
            if self.l2.peek(block) is None
        ]
