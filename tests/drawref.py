"""A brute-force reference for the two draws of `pencil.iter_block_pairs`.

Every block is enumerated with itertools, each mask with each multiplicity
vector, and the blocks of one degree are paired in `itertools.combinations`
order.  The rules are applied pair by pair: coprime contents and the
multinet screen for the search; primitive blocks, concurrency and the
base-point gcd for the sweep.  That gcd reads h_X at every point X that
meets both blocks with n_X(a) != n_X(b), and at the equal-count points whose
lines all lie in a u b.  Both point rules read only line arrangements.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Iterator

from curvepencils.arrangement import Arrangement
from curvepencils.pencil import _Block, _SearchTables


def blocks_by_degree(arr: Arrangement, cap: int) -> dict[int, list[_Block]]:
    """Every block up to the cap, by degree, then by mask and multiplicities."""
    out: dict[int, list[_Block]] = {}
    for mask in range(1, 1 << arr.size):
        members = tuple(j for j in range(arr.size) if mask >> j & 1)
        for mults in itertools.product(range(1, cap + 1), repeat=len(members)):
            degree = sum(arr.degrees[j] * m for j, m in zip(members, mults))
            out.setdefault(degree, []).append(_Block(mask, members, mults, gcd(*mults)))
    return out


def combination_pairs(arr: Arrangement, cap: int) -> list[tuple[_Block, _Block]]:
    """The disjoint pairs of `itertools.combinations` over each degree's blocks."""
    return [
        (a, b)
        for _, blocks in sorted(blocks_by_degree(arr, cap).items())
        for a, b in itertools.combinations(blocks, 2)
        if not a.mask & b.mask
    ]


def disjoint_pairs(arr: Arrangement, cap: int):
    """`combination_pairs` without visiting the overlapping pairs.

    The blocks of one mask sit together in each degree's list, so the
    combinations of a block a that are disjoint from it are the blocks of
    the later disjoint masks, in order.
    """
    for _, blocks in sorted(blocks_by_degree(arr, cap).items()):
        by_mask: dict[int, list[_Block]] = {}
        for block in blocks:
            by_mask.setdefault(block.mask, []).append(block)
        masks = list(by_mask)
        for i, first in enumerate(masks):
            later = [by_mask[m] for m in masks[i + 1 :] if not first & m]
            for a in by_mask[first]:
                for bucket in later:
                    for b in bucket:
                        yield a, b


class Reference:
    """The pairwise rules over one table.

    The point counts are kept per block, and per support pair the points
    that meet both supports, with whether a line outside the pair passes
    through each, and the concurrency of the pair.
    """

    def __init__(self, tables: _SearchTables) -> None:
        self.tables = tables
        self.lines = tables.arr.is_line_arrangement()
        self.masks = [mp.mask for mp in tables.points]
        self._counts: dict[_Block, list[tuple[int, int]]] = {}
        self._meeting: dict[tuple[int, int], list[tuple[int, bool]]] = {}
        self._concurrent: dict[int, bool] = {}

    def counts(self, block: _Block) -> list[tuple[int, int]]:
        """Per multiple point X: n_X(block) and the gcd of the block's
        multiplicities on X (0 when no line of the block passes)."""
        found = self._counts.get(block)
        if found is None:
            found = self._counts[block] = [
                (sum(ms), gcd(*ms))
                for ms in (
                    [m for j, m in zip(block.indices, block.mults) if mask >> j & 1]
                    for mask in self.masks
                )
            ]
        return found

    def meeting(self, a: _Block, b: _Block) -> list[tuple[int, bool]]:
        """(i, free) for the points X_i that meet both blocks; free when a
        line outside a and b passes through X_i."""
        key = a.mask, b.mask
        found = self._meeting.get(key)
        if found is None:
            union = a.mask | b.mask
            found = self._meeting[key] = [
                (i, mask | union != union)
                for i, mask in enumerate(self.masks)
                if mask & a.mask and mask & b.mask
            ]
        return found

    def multinet_screen(self, a: _Block, b: _Block) -> bool:
        """n_X(a) = n_X(b) and a line outside a and b at every X meeting both."""
        counts_a, counts_b = self.counts(a), self.counts(b)
        return all(free and counts_a[i][0] == counts_b[i][0] for i, free in self.meeting(a, b))

    def heights(self, a: _Block, b: _Block) -> Iterator[tuple[int, bool, bool]]:
        """(h_X, free, equal) for the points X that meet both blocks: equal
        when n_X(a) = n_X(b), and h_X is then that count, else the gcd of the
        lower block's multiplicities at X."""
        counts_a, counts_b = self.counts(a), self.counts(b)
        for i, free in self.meeting(a, b):
            (na, ga), (nb, gb) = counts_a[i], counts_b[i]
            yield na if na == nb else ga if na < nb else gb, free, na == nb

    def base_point_gcd(self, a: _Block, b: _Block) -> int:
        """The gcd of h_X over the points X that meet both blocks where the
        counts differ or every line of X lies in a u b, up to its first
        partial value of 1; 0 when there is no such X."""
        g = 0
        for h, free, equal in self.heights(a, b):
            if not (equal and free):
                g = gcd(g, h)
                if g == 1:
                    break
        return g

    def product_bound(self, a: _Block, b: _Block) -> int:
        """The gcd of n_X(a)*n_X(b) over the points that meet both blocks
        and whose lines all lie in a u b, a bound on m'' that h_X divides.

        It reads no point with a line outside a u b, so a pair that it keeps
        and `base_point_gcd` rejects is decided by h_X, or by an
        unequal-count point with such a line."""
        counts_a, counts_b = self.counts(a), self.counts(b)
        g = 0
        for i, free in self.meeting(a, b):
            if not free:
                g = gcd(g, counts_a[i][0] * counts_b[i][0])
        return g

    def concurrent(self, a: _Block, b: _Block) -> bool:
        """Whether the support lies among the lines through one multiple point."""
        union = a.mask | b.mask
        found = self._concurrent.get(union)
        if found is None:
            found = self._concurrent[union] = any(
                mp.degree == 1 and union | mp.mask == mp.mask for mp in self.tables.points
            )
        return found

    def pairs(self):
        return disjoint_pairs(self.tables.arr, self.tables.max_multiplicity)

    def searched(self, a: _Block, b: _Block) -> bool:
        """The search's rules: coprime contents, and on lines the multinet screen."""
        return gcd(a.content, b.content) == 1 and (not self.lines or self.multinet_screen(a, b))

    def swept(self, a: _Block, b: _Block) -> bool:
        """The sweep's rules: primitive blocks, a support that is not
        concurrent, and on lines a base-point gcd other than 1."""
        return (
            a.content == b.content == 1
            and not self.concurrent(a, b)
            and (not self.lines or self.base_point_gcd(a, b) != 1)
        )

    def draws(self) -> tuple[list[tuple[_Block, _Block]], list[tuple[_Block, _Block]]]:
        """The search's pairs and the sweep's, in combinations order, from one pass."""
        search, sweep = [], []
        for a, b in self.pairs():
            if self.searched(a, b):
                search.append((a, b))
            if self.swept(a, b):
                sweep.append((a, b))
        return search, sweep
