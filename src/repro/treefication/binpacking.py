"""Bin Packing: instances, exact solver, first-fit-decreasing heuristic.

Bin Packing is the NP-complete problem Theorem 4.2 reduces *from*: given items
with positive integer sizes, a bin capacity ``B`` and a bin count ``K``, decide
whether the items can be partitioned into at most ``K`` bins whose contents
each sum to at most ``B``.

The exact solver is a depth-first search with standard symmetry breaking
(items placed in non-increasing size order, empty bins interchangeable); it is
exponential in the worst case but comfortable for the instance sizes used to
validate the reduction.  The first-fit-decreasing heuristic provides the
polynomial-time companion used by the treefication planner example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..exceptions import SearchBudgetExceeded, TreeficationError

__all__ = [
    "BinPackingInstance",
    "BinPackingSolution",
    "solve_bin_packing_exact",
    "first_fit_decreasing",
]


@dataclass(frozen=True)
class BinPackingInstance:
    """A Bin Packing decision instance: item sizes, bin capacity, bin count."""

    sizes: Tuple[int, ...]
    bin_capacity: int
    bin_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if any(size <= 0 for size in self.sizes):
            raise TreeficationError("item sizes must be positive integers")
        if self.bin_capacity <= 0:
            raise TreeficationError("the bin capacity must be positive")
        if self.bin_count <= 0:
            raise TreeficationError("the bin count must be positive")

    @property
    def item_count(self) -> int:
        """Number of items."""
        return len(self.sizes)

    def is_trivially_infeasible(self) -> bool:
        """Cheap necessary conditions: no oversized item, enough total capacity."""
        if any(size > self.bin_capacity for size in self.sizes):
            return True
        return sum(self.sizes) > self.bin_capacity * self.bin_count


@dataclass(frozen=True)
class BinPackingSolution:
    """A satisfying assignment: ``bins[j]`` lists the item indices in bin ``j``."""

    instance: BinPackingInstance
    bins: Tuple[Tuple[int, ...], ...]

    def is_valid(self) -> bool:
        """Re-check that the assignment is a partition respecting the capacity."""
        assigned = [index for bin_content in self.bins for index in bin_content]
        if sorted(assigned) != list(range(self.instance.item_count)):
            return False
        if len(self.bins) > self.instance.bin_count:
            return False
        return all(
            sum(self.instance.sizes[index] for index in bin_content)
            <= self.instance.bin_capacity
            for bin_content in self.bins
        )

    def bin_loads(self) -> Tuple[int, ...]:
        """Total size placed in each bin."""
        return tuple(
            sum(self.instance.sizes[index] for index in bin_content)
            for bin_content in self.bins
        )


def solve_bin_packing_exact(
    instance: BinPackingInstance, *, budget: int = 2_000_000
) -> Optional[BinPackingSolution]:
    """Exact decision + witness by branch-and-bound search.

    Returns a :class:`BinPackingSolution` or ``None`` when the instance is
    infeasible.  ``budget`` bounds the number of search nodes.
    """
    if instance.is_trivially_infeasible():
        return None
    order = sorted(
        range(instance.item_count), key=lambda index: -instance.sizes[index]
    )
    loads = [0] * instance.bin_count
    assignment: List[List[int]] = [[] for _ in range(instance.bin_count)]
    nodes = 0

    def place(position: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"bin packing search exceeded budget of {budget} nodes"
            )
        if position == len(order):
            return True
        item = order[position]
        size = instance.sizes[item]
        tried_empty = False
        for bin_index in range(instance.bin_count):
            if loads[bin_index] == 0:
                if tried_empty:
                    continue  # all empty bins are interchangeable
                tried_empty = True
            if loads[bin_index] + size > instance.bin_capacity:
                continue
            loads[bin_index] += size
            assignment[bin_index].append(item)
            if place(position + 1):
                return True
            loads[bin_index] -= size
            assignment[bin_index].pop()
        return False

    if not place(0):
        return None
    bins = tuple(tuple(bin_content) for bin_content in assignment if bin_content)
    return BinPackingSolution(instance=instance, bins=bins)


def first_fit_decreasing(instance: BinPackingInstance) -> Optional[BinPackingSolution]:
    """The first-fit-decreasing heuristic.

    Returns a solution using at most ``bin_count`` bins when the heuristic
    finds one, otherwise ``None`` (which does **not** prove infeasibility).
    """
    if any(size > instance.bin_capacity for size in instance.sizes):
        return None
    order = sorted(
        range(instance.item_count), key=lambda index: -instance.sizes[index]
    )
    loads: List[int] = []
    bins: List[List[int]] = []
    for item in order:
        size = instance.sizes[item]
        for bin_index, load in enumerate(loads):
            if load + size <= instance.bin_capacity:
                loads[bin_index] += size
                bins[bin_index].append(item)
                break
        else:
            loads.append(size)
            bins.append([item])
    if len(bins) > instance.bin_count:
        return None
    return BinPackingSolution(
        instance=instance, bins=tuple(tuple(bin_content) for bin_content in bins)
    )
