"""Canonical bipartitions of {1..n} and the separating-family predicates.

A bipartition of {1..n} is a partition into at most two blocks. It is keyed
by its coblock, the block that does not contain element 1, stored as a
bitmask in which bit i-1 stands for element i. The empty coblock encodes the
one-block partition of the whole set. Everything here is immutable.

A family is a set, held as `n` and `coblocks`, its members' masks without
repeats, ascending; equality, hashing and the rows read only those ints.
`members` builds the `Bipartition`s, in `coblocks` order, on first read.
Every producer hands masks to one path, `BipartitionFamily._of`, which the
constructor takes too once it has checked each member's n: it checks n,
then that no mask is negative, wider than n bits or holds bit 0, and drops
repeats and sorts. An ordered sequence with repeats is a plain tuple of
`Bipartition`.

The predicates run on the rows of the characteristic matrix (`char_rows`),
built in O(n*k) the first time a family needs them and kept with it. A
family separates exactly when its rows are pairwise distinct, and it is
minimal exactly when, for each column j, some row with bit j flipped is
also a row; the scan of a column stops at its first such row. Both answer
False unbuilt when n > 2^k: k members have at most 2^k distinct rows.

The rule that turns blocks into a bipartition lives in `block_coblock`,
which `Bipartition.from_blocks` and the family readers in `documents` call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# all_bipartitions(n) measured on 3.11 (one run each): n = 20 in 1.1 s and 84 MB
# peak RSS, 21 in 2.1 s and 152 MB, 22 in 4.2 s and 288 MB; cost doubles per n
FULL_ENUM_MAX_N = 20


class CapacityError(ValueError):
    """An enumeration request exceeds the supported problem size."""


@dataclass(frozen=True, order=True)
class Bipartition:
    """A partition of {1..n} into at most two blocks, keyed by its coblock mask."""

    n: int
    coblock: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"bipartition needs n >= 1, got {self.n}")
        if self.coblock < 0 or self.coblock.bit_length() > self.n:  # 1 << n may not fit in memory
            raise ValueError(f"coblock mask {self.coblock} does not fit a {self.n}-element set")
        if self.coblock & 1:
            raise ValueError("element 1 cannot be in the coblock")

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> Bipartition:
        """Build from explicit blocks, which must partition {1..n}."""
        mat = [list(block) for block in blocks]
        for x in itertools.chain(*mat):
            if not 1 <= x <= n:
                raise ValueError(f"element {x} outside {{1..{n}}}")
        masks = [sum(1 << (x - 1) for x in block) for block in mat]
        co = block_coblock(n, masks, sum(map(len, mat)))
        if co is None:
            raise ValueError(f"need one or two nonempty blocks that partition {{1..{n}}}")
        return cls(n, co)

    @property
    def is_proper(self) -> bool:
        """True when there really are two blocks."""
        return self.coblock != 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, the one containing element 1 first."""
        first = _set_elements(((1 << self.n) - 1) ^ self.coblock)
        return (first, _set_elements(self.coblock)) if self.coblock else (first,)

    def cuts(self, i: int, j: int) -> bool:
        """True when elements i and j land in different blocks."""
        for x in (i, j):
            if not 1 <= x <= self.n:
                raise ValueError(f"element {x} outside {{1..{self.n}}}")
        return bool((self.coblock >> (i - 1) ^ self.coblock >> (j - 1)) & 1)


@dataclass(frozen=True, init=False)
class BipartitionFamily:
    """Distinct bipartitions over one ground set, held as their coblock masks, ascending."""

    n: int
    coblocks: tuple[int, ...]

    def __init__(self, n: int, members: Iterable[Bipartition] = ()) -> None:
        masks = []
        for b in members:  # every member, before repeats collapse
            if b.n != n:
                raise ValueError(f"member over n={b.n!r} in a family over n={n!r}")
            masks.append(b.coblock)
        self._of(n, masks, self)

    @classmethod
    def _of(cls, n: int, coblocks: Iterable[int], fam: BipartitionFamily | None = None) -> BipartitionFamily:
        """The family over n whose members have these masks: fam, when the
        constructor passes itself, or else a new one, its members unbuilt."""
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"family needs an int n >= 1, got n={n!r}")
        keys = tuple(sorted(set(coblocks)))
        # once sorted, the ends decide sign and width; bit 0 is read from each
        if keys and (keys[0] < 0 or keys[-1].bit_length() > n or 1 in map((1).__and__, keys)):
            bad = next(c for c in keys if c < 0 or c.bit_length() > n or c & 1)
            raise ValueError(f"coblock mask {bad} is no bipartition of a {n}-element set")
        fam = object.__new__(cls) if fam is None else fam
        object.__setattr__(fam, "n", n)
        object.__setattr__(fam, "coblocks", keys)
        return fam

    @functools.cached_property
    def members(self) -> tuple[Bipartition, ...]:
        """The members in `coblocks` order, built the first time they are read."""
        return tuple([Bipartition(self.n, c) for c in self.coblocks])

    def __len__(self) -> int:
        return len(self.coblocks)

    def __iter__(self) -> Iterator[Bipartition]:
        return iter(self.members)

    @functools.cached_property
    def _rows(self) -> tuple[int, ...]:
        # built on first use: families that are only written never need rows
        return tuple(char_rows(self.n, self.coblocks))

    def rows(self) -> list[int]:
        """Characteristic-matrix rows of the members in canonical order."""
        return list(self._rows)

    def is_separating(self) -> bool:
        """Every element pair is cut by at least one member: rows are distinct."""
        # k members give at most 2^k distinct rows: n > 2^k needs none built
        if (self.n - 1).bit_length() > len(self.coblocks):
            return False
        return len(set(self._rows)) == self.n

    def is_minimal_separating(self) -> bool:
        """Separating, and dropping any one member stops it separating."""
        if (self.n - 1).bit_length() > len(self.coblocks):  # n > 2^k, as above
            return False
        rows = self._rows
        present = set(rows)
        if len(present) != self.n:
            return False
        # separation is monotone, so single-member drops suffice: member j is
        # needed when two rows differ in bit j alone
        return all(
            any(r ^ bit in present for r in rows)
            for bit in (1 << j for j in range(len(self.coblocks)))
        )


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def select_set_bits(items: Iterable[T], mask: int) -> Iterator[T]:
    """The items at the set bits of mask, in order (item j for bit j).

    The reversed binary string, mapped to 0/1 bytes, selects from items with
    itertools.compress, so no Python-level loop runs over the bits.
    """
    return itertools.compress(items, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


def block_coblock(n: int, masks: Sequence[int], count: int) -> int | None:
    """The coblock of blocks given by their masks (each the sum of its
    labels' bits) and their label count, or None unless they are one or two
    nonempty blocks with n labels in all whose masks sum to 2^n - 1, which
    n powers of two do only when they are distinct.
    """
    full = (1 << n) - 1
    if count != n or sum(masks) != full or not 1 <= len(masks) <= 2 or 0 in masks:
        return None
    # the coblock is the block without element 1, bit 0
    return full ^ masks[0] if masks[0] & 1 else masks[0]


def _set_elements(mask: int) -> tuple[int, ...]:
    """Elements whose bits are set in mask, ascending (bit i-1 is element i)."""
    # a tuple built straight from the unsized iterator is allocated at one
    # size and resized, which keeps filling CPython's per-size tuple free
    # lists; going through a list allocates it once at its final size
    return tuple([*select_set_bits(range(1, mask.bit_length() + 1), mask)])


def char_rows(n: int, coblocks: Sequence[int]) -> list[int]:
    """Rows of the n x k characteristic matrix of k masks below 2^n.

    Bit j of row i-1 is bit i-1 of coblocks[j]. Each mask is written as an
    n-digit binary string and the strings are transposed with zip, so the
    cost is O(n*k) character operations.
    """
    if not coblocks or not n:
        return [0] * n
    fmt = f"0{n}b"
    # with the last mask first, each zipped tuple spells a row from its top
    # column down, and the tuples come from element n down to element 1
    cols = [format(co, fmt) for co in reversed(coblocks)]
    return [int("".join(bits), 2) for bits in zip(*cols)][::-1]


def bipartition_count(n: int, proper: bool = False) -> int:
    """Number of bipartitions of {1..n}: 2^(n-1), one less for proper only."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 1 << (n - 1)
    return total - 1 if proper else total


def all_bipartitions(n: int, proper_only: bool = False) -> list[Bipartition]:
    """Every bipartition of {1..n} in increasing coblock-mask order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > FULL_ENUM_MAX_N:
        raise CapacityError(f"full enumeration is capped at n <= {FULL_ENUM_MAX_N} (got n={n})")
    start = 1 if proper_only else 0
    return [Bipartition(n, c << 1) for c in range(start, 1 << (n - 1))]
