"""Reducible and immured blocks of a covering, reducts and exclusions.

A block is reducible when it equals a union of other blocks, and immured
when it is strictly contained in another block.  ``reduct`` removes every
block that is reducible in the original covering, and ``exclusion`` every
block that is immured in it, each in one pass: the result is the covering
less one block bitmask (``SetFamily.without``), so the kept blocks keep
their order and names.  Both results still cover the universe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .universe import Covering, as_covering


def reducible_block_indices(covering: Covering) -> tuple[int, ...]:
    reducible = []
    for i, block in enumerate(covering.blocks):
        union = 0
        for j, other in enumerate(covering.blocks):
            if j != i and other.mask & ~block.mask == 0:
                union |= other.mask
        if union == block.mask:
            reducible.append(i)
    return tuple(reducible)


def immured_block_indices(covering: Covering) -> tuple[int, ...]:
    return tuple(
        i
        for i, block in enumerate(covering.blocks)
        if any(block < other for j, other in enumerate(covering.blocks) if j != i)
    )


def reduct(covering: Covering) -> Covering:
    """The covering less every block that is reducible in it.

    Removing reducible blocks one at a time until none is left, as Zhu and
    Wang (2003) define the reduct, ends in the same covering: removing one
    reducible block K leaves every other block's reducibility unchanged, so
    the blocks removed are exactly those reducible at the start.  A block
    reducible without K is reducible with it.  Conversely, let K' be the
    union of other blocks, K among them, so K ⊆ K'.  The blocks that build
    K are proper subsets of K, since a covering has no duplicate blocks, so
    none of them is K'; put them in K's place and K' is a union of blocks
    other than K and K'.
    """
    return as_covering(covering.without(sum(1 << i for i in reducible_block_indices(covering))))


def exclusion(covering: Covering) -> Covering:
    """The covering less every block strictly contained in another block."""
    return as_covering(covering.without(sum(1 << i for i in immured_block_indices(covering))))


@dataclass(frozen=True)
class ReductionReport:
    """Block diagnostics for one covering; indices refer to the original
    block order."""

    reducible_blocks: tuple[int, ...]
    immured_blocks: tuple[int, ...]


def reduction_report(covering: Covering) -> ReductionReport:
    return ReductionReport(reducible_block_indices(covering), immured_block_indices(covering))
