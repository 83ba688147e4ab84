"""Characteristic 0/1 matrices of sequences of bipartitions.

Row i records which members of a sequence cut element i away from element
1, so the first row is always zero and the members form a separating family
exactly when all rows are distinct. Rows are stored as k-bit integers, bit
j for column j. A sequence is a plain tuple of `Bipartition`, repeats
allowed: column j is member j's coblock mask. Encoding, decoding and
transposing are all one O(n*k) transpose, `core.char_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Bipartition, BipartitionFamily, char_rows


@dataclass(frozen=True)
class CharMatrix:
    """An n x k 0/1 matrix with an all-zero first row."""

    n: int
    k: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"matrix needs n >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"matrix needs k >= 0, got {self.k}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for r in self.rows:
            if not 0 <= r < (1 << self.k):
                raise ValueError(f"row mask {r} does not fit {self.k} columns")
        if self.rows[0] != 0:
            raise ValueError("first row must be all zero")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> CharMatrix:
        """Build from explicit 0/1 row lists of equal length."""
        mat = [list(r) for r in rows]
        if not mat:
            raise ValueError("matrix needs at least one row")
        k = len(mat[0])
        packed = []
        for r in mat:
            if len(r) != k:
                raise ValueError("rows have unequal lengths")
            if any(bit not in (0, 1) for bit in r):
                raise ValueError("entries must be 0 or 1")
            packed.append(sum(bit << j for j, bit in enumerate(r)))
        return cls(len(mat), k, tuple(packed))

    @classmethod
    def encode(cls, n: int, members: Sequence[Bipartition]) -> CharMatrix:
        """Column j is the coblock mask of members[j], a bipartition of {1..n}."""
        for b in members:
            if b.n != n:
                raise ValueError(f"member over n={b.n} in a matrix over n={n}")
        return cls(n, len(members), tuple(char_rows(n, [b.coblock for b in members])))

    def decode(self) -> tuple[Bipartition, ...]:
        """Read each column back as a bipartition; inverse of encode."""
        return tuple(Bipartition(self.n, co) for co in char_rows(self.k, self.rows))

    def has_distinct_rows(self) -> bool:
        """Equivalent to the columns forming a separating family."""
        return len(set(self.rows)) == self.n

    def transpose_dual(self) -> CharMatrix:
        """Swap the roles of elements and entries.

        Defined when the first column is zero (the first entry is the
        one-block partition); the result is then a valid matrix again and
        the operation is an involution.
        """
        if self.k < 1 or any(r & 1 for r in self.rows):
            raise ValueError("transpose needs an all-zero first column")
        return CharMatrix(self.k, self.n, tuple(char_rows(self.k, self.rows)))


def encode_family(f: BipartitionFamily) -> CharMatrix:
    """Encode a family's members in canonical order, from the rows it keeps."""
    return CharMatrix(f.n, len(f), f._rows)
