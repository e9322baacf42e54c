"""Superset / composite-pointer scheme ``Dir_iX`` (Section 3.2.3).

Keeps ``i`` pointers; on overflow they are merged into a single composite
pointer whose bits take values 0, 1, or X ("both").  Invalidations expand
every X into both values, producing a superset of the true sharers.  The
paper (Figure 2b) shows this is only marginally better than broadcast:
after a few merges most bits are X.

Representation: ``(value, x_mask)`` where bit ``b`` of the composite is X
when ``x_mask`` has bit ``b`` set, else equals bit ``b`` of ``value``.
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


def expand_composite(value: int, x_mask: int, width: int, num_nodes: int) -> FrozenSet[int]:
    """All node ids matched by the ternary pattern, clipped to the machine."""
    free_bits = [b for b in range(width) if x_mask >> b & 1]
    base = value & ~x_mask
    matches = []
    for combo in range(1 << len(free_bits)):
        node = base
        for i, b in enumerate(free_bits):
            if combo >> i & 1:
                node |= 1 << b
        if node < num_nodes:
            matches.append(node)
    return frozenset(matches)


class SupersetEntry(PointerListEntry):
    """``Dir_iX`` entry: pointer list degrading into a ternary composite."""

    __slots__ = ("composite",)

    def __init__(self, scheme: "SupersetScheme") -> None:
        super().__init__(scheme)
        self.composite: Tuple[int, int] | None = None  # (value, x_mask)

    def _pointer_limit(self) -> int:
        return self.scheme.num_pointers

    def record_sharer(self, node: int) -> Tuple[int, ...]:
        if self.composite is not None:
            check_node(node, self.scheme.num_nodes)
            value, x_mask = self.composite
            # Flip every disagreeing, not-yet-X bit to X.
            x_mask |= (value ^ node) & ~x_mask
            self.composite = (value, x_mask)
            return ()
        handled = self._record_pointer(node)
        if handled is not None:
            return handled
        # Overflow: merge all pointers plus the newcomer into one composite.
        nodes = self.pointers + [node]
        value = nodes[0]
        x_mask = 0
        for n in nodes[1:]:
            x_mask |= value ^ n
        self.composite = (value, x_mask)
        self.pointers.clear()
        return ()

    def remove_sharer(self, node: int) -> None:
        if self.composite is None:
            self._remove_pointer(node)
        # A composite cannot drop one node without risking under-coverage.

    def invalidation_targets(self, exclude: Iterable[int] = ()) -> FrozenSet[int]:
        if self.composite is None:
            return expand_exclude(self.pointers, exclude)
        value, x_mask = self.composite
        targets = expand_composite(
            value, x_mask, self.scheme.pointer_width, self.scheme.num_nodes
        )
        return expand_exclude(targets, exclude)

    def is_exact(self) -> bool:
        return self.composite is None

    def reset(self) -> None:
        self.pointers.clear()
        self.composite = None

    def is_empty(self) -> bool:
        return self.composite is None and not self.pointers

    def targets_sorted(self, exclude: Iterable[int] = ()) -> "list[int]":
        if self.composite is None:
            return self._pointers_sorted(exclude)
        excluded = set(exclude)
        value, x_mask = self.composite
        targets = expand_composite(
            value, x_mask, self.scheme.pointer_width, self.scheme.num_nodes
        )
        return sorted(t for t in targets if t not in excluded)


class SupersetScheme(DirectoryScheme):
    """``Dir_iX`` (the paper's terminology for the scheme suggested in [1])."""

    precision = "coarse"  # the composite pointer covers a superset

    def __init__(self, num_nodes: int, num_pointers: int = 2, *, seed: int = 0) -> None:
        super().__init__(num_nodes, seed=seed)
        if num_pointers < 1:
            raise ValueError("need at least one pointer")
        self.num_pointers = num_pointers
        self.pointer_width = pointer_bits(num_nodes)
        self.name = f"Dir{num_pointers}X"

    def make_entry(self) -> SupersetEntry:
        return SupersetEntry(self)

    def presence_bits(self) -> int:
        # Each composite bit needs 2 physical bits to encode {0, 1, X};
        # pointer mode reuses the same storage, plus a mode bit.
        return self.num_pointers * self.pointer_width + 1
